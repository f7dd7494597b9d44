//! Randomized properties of the worker pool, via the dr-des testkit:
//! ordering, exactly-once execution, panic safety, the zero-worker
//! (inline) degradation, and the spin-then-park wake-up protocol.

use dr_des::testkit::{u64_in, usize_in, Cases};
use dr_des::SplitMix64;
use dr_pool::{JobHandle, WorkerPool, SPIN_WINDOW};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[test]
fn map_collect_matches_serial_for_random_shapes() {
    Cases::new("pool-ordering", 0xB00C).run(48, |rng| {
        let workers = usize_in(rng, 0, 6);
        let n = usize_in(rng, 0, 300);
        let pool = WorkerPool::new(workers);
        let got = pool.map_collect(n, |i| i.wrapping_mul(2654435761));
        let want: Vec<usize> = (0..n).map(|i| i.wrapping_mul(2654435761)).collect();
        assert_eq!(got, want, "workers={workers} n={n}");
    });
}

#[test]
fn every_index_runs_exactly_once() {
    Cases::new("pool-exactly-once", 0x1CE).run(32, |rng| {
        let workers = usize_in(rng, 0, 5);
        let n = usize_in(rng, 1, 500);
        let pool = WorkerPool::new(workers);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.map_batch(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} (n={n})");
        }
    });
}

#[test]
fn skewed_item_costs_still_cover_every_index() {
    // A few very expensive items at random positions: stealing must keep
    // the cheap items flowing and nothing may be dropped.
    Cases::new("pool-skew", 0x5EA1).run(12, |rng| {
        let n = usize_in(rng, 64, 256);
        let heavy = usize_in(rng, 0, n - 1);
        let pool = WorkerPool::new(4);
        let done: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.map_batch(n, |i| {
            if i == heavy {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(done.iter().all(|d| d.load(Ordering::Relaxed) == 1));
    });
}

#[test]
fn panics_at_random_indices_propagate_and_pool_recovers() {
    Cases::new("pool-panic", 0xDEAD).run(24, |rng| {
        let workers = usize_in(rng, 0, 4);
        let n = usize_in(rng, 1, 128);
        let bad = usize_in(rng, 0, n - 1);
        let pool = WorkerPool::new(workers);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_batch(n, |i| {
                assert!(i != bad, "injected failure");
            });
        }));
        assert!(result.is_err(), "workers={workers} n={n} bad={bad}");
        // The same pool must process a clean batch afterwards.
        let got = pool.map_collect(n, |i| i);
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    });
}

#[test]
fn spawned_job_panic_reaches_join_only() {
    let pool = WorkerPool::new(2);
    let bad: JobHandle<()> = pool.spawn(|| panic!("job failure"));
    let ok = pool.spawn(|| 5usize);
    assert_eq!(ok.join(), 5);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.join()));
    assert!(result.is_err());
    // Workers survive the panicked job.
    assert_eq!(pool.map_collect(16, |i| i).len(), 16);
}

#[test]
fn zero_worker_pool_is_deterministic_and_complete() {
    Cases::new("pool-inline", 0x0).run(16, |rng| {
        let n = usize_in(rng, 0, 200);
        let pool = WorkerPool::new(0);
        let a = pool.map_collect(n, |i| i * 3);
        let b = pool.map_collect(n, |i| i * 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), n);
        let h = pool.spawn(move || n);
        assert!(h.is_finished(), "inline jobs run eagerly");
        assert_eq!(h.join(), n);
    });
}

#[test]
fn for_each_mut_writes_every_slot() {
    Cases::new("pool-slots", 0xF00D).run(24, |rng| {
        let workers = usize_in(rng, 0, 4);
        let n = usize_in(rng, 0, 300);
        let pool = WorkerPool::new(workers);
        let mut slots = vec![0u64; n];
        pool.for_each_mut(&mut slots, |i, s| *s = i as u64 + 1);
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(*s, i as u64 + 1);
        }
    });
}

#[test]
fn many_small_batches_on_one_pool() {
    // The pipeline's shape: one persistent pool, thousands of small
    // batches. Thread count must stay O(workers), results ordered.
    let pool = WorkerPool::new(3);
    for round in 0..500 {
        let n = (round % 7) + 1;
        let got = pool.map_collect(n, |i| round * 100 + i);
        let want: Vec<usize> = (0..n).map(|i| round * 100 + i).collect();
        assert_eq!(got, want, "round {round}");
    }
}

/// Runs `body` on its own thread and fails the test — instead of hanging
/// it — when it makes no progress: a lost wake-up parks a thread forever.
fn watchdog(what: &str, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => runner.join().expect("body finished"),
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: stuck — lost wake-up?"),
        // The body panicked before sending: re-raise its failure.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("body panicked"))
        }
    }
}

/// An idle gap on either side of the spin window: nothing, a fraction of
/// the window (workers and waiters still spinning), or several windows
/// (everyone parked on a condvar). Busy-waits, because the shortest
/// `thread::sleep` already outlasts the window.
fn idle_gap(rng: &mut SplitMix64) {
    let window = SPIN_WINDOW.as_nanos() as u64;
    let gap = match u64_in(rng, 0, 2) {
        0 => 0,
        1 => u64_in(rng, 1, window),
        _ => u64_in(rng, 2 * window, 20 * window),
    };
    let start = Instant::now();
    while start.elapsed() < Duration::from_nanos(gap) {
        std::hint::spin_loop();
    }
}

#[test]
fn work_after_idle_gaps_around_the_spin_window_is_always_picked_up() {
    watchdog("spawn/join and map_batch after idle gaps", || {
        Cases::new("pool-wakeups", 0x51EE9).run(24, |rng| {
            let pool = WorkerPool::new(usize_in(rng, 1, 3));
            for round in 0..40usize {
                idle_gap(rng);
                if u64_in(rng, 0, 1) == 0 {
                    assert_eq!(pool.spawn(move || round * 3).join(), round * 3);
                } else {
                    let n = usize_in(rng, 2, 40);
                    let want: Vec<usize> = (0..n).map(|i| i + round).collect();
                    assert_eq!(pool.map_collect(n, |i| i + round), want);
                }
            }
        });
    });
}

#[test]
fn a_batch_published_from_inside_a_job_completes_after_idle_gaps() {
    // The job runs on a worker, so the nested batch is published from a
    // pool thread: it must wake the *other* workers, spinning or parked,
    // and complete even when none of them comes (the publisher drains it).
    watchdog("nested batch from a job", || {
        Cases::new("pool-nested", 0xE57ED).run(16, |rng| {
            let pool = WorkerPool::new(usize_in(rng, 1, 3));
            for _ in 0..20 {
                idle_gap(rng);
                let n = usize_in(rng, 1, 64);
                let inner = pool.clone();
                let job = pool.spawn(move || inner.map_collect(n, |i| i * i));
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(job.join(), want);
            }
        });
    });
}

#[test]
fn dropping_the_last_clone_joins_spinning_and_parked_workers() {
    watchdog("pool drop", || {
        Cases::new("pool-drop", 0xD809).run(32, |rng| {
            let pool = WorkerPool::new(usize_in(rng, 1, 4));
            let clone = pool.clone();
            assert_eq!(pool.map_collect(8, |i| i), (0..8).collect::<Vec<_>>());
            drop(clone);
            // No gap: the workers are still spinning after the batch.
            // A long one: they are parked. Drop must join them either way.
            idle_gap(rng);
            let start = Instant::now();
            drop(pool);
            let took = start.elapsed();
            assert!(took < Duration::from_secs(5), "drop took {took:?}");
        });
    });
}
