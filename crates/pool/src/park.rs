//! Spin-then-park waiting, shared by idle workers, batch submitters and
//! job joiners.
//!
//! A condvar hand-off costs the publisher a `futex` wake and the sleeper
//! a scheduler round trip; for the sub-100 µs units the pipeline hands
//! over (a 4-chunk hash, a 32-query probe) that is most of the bill. So
//! every wait here first spins on an atomic for [`SPIN_WINDOW`] and only
//! then parks, and every publisher notifies only when somebody is
//! actually parked — a fact it reads under the lock the sleeper announced
//! itself under, so there is no lost-wake-up window.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a waiter spins before it parks on its condvar.
///
/// One park/unpark round trip: at the parent commit the benchmark's
/// `pool.spawn_join_us` probe (a no-op job handed to a parked worker and
/// joined by a parked submitter) read 31–42 µs on the 2-core reference
/// host, of which the job itself is nothing. Spinning for as long as the
/// hand-off it replaces would have cost keeps the worst case within a
/// factor of two of parking at once, whatever the gap turns out to be.
pub const SPIN_WINDOW: Duration = Duration::from_micros(40);

/// Polls between clock reads: keeps the `Instant::now` cost (tens of ns)
/// out of the reaction time without letting the window overrun by much.
const POLLS_PER_CLOCK_READ: u32 = 32;

/// Spins until `ready()` holds or [`SPIN_WINDOW`] has passed; returns
/// whether it held.
pub(crate) fn spin_until(mut ready: impl FnMut() -> bool) -> bool {
    if ready() {
        return true;
    }
    let start = Instant::now();
    loop {
        for _ in 0..POLLS_PER_CLOCK_READ {
            std::hint::spin_loop();
            if ready() {
                return true;
            }
        }
        if start.elapsed() >= SPIN_WINDOW {
            return false;
        }
    }
}

/// A one-shot "it happened" flag with a single waiter: set once by
/// whichever thread finishes the work, awaited spin-then-park.
pub(crate) struct Completion {
    /// `Release` store in [`Completion::set`], `Acquire` loads in the
    /// waiter: everything written before `set` is visible after `wait`.
    done: AtomicBool,
    /// Whether the waiter is parked (or about to be) on `cv`.
    parked: Mutex<bool>,
    cv: Condvar,
}

impl Completion {
    pub(crate) fn new(done: bool) -> Self {
        Completion {
            done: AtomicBool::new(done),
            parked: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Marks the completion and wakes the waiter if it is parked. The
    /// flag flips under the lock the waiter re-checks it under, so the
    /// waiter either sees it or has already announced itself.
    pub(crate) fn set(&self) {
        let parked = {
            let parked = self.parked.lock().expect("completion lock");
            self.done.store(true, Ordering::Release);
            *parked
        };
        if parked {
            self.cv.notify_one();
        }
    }

    pub(crate) fn is_set(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Returns once [`Completion::set`] was called.
    pub(crate) fn wait(&self) {
        if spin_until(|| self.is_set()) {
            return;
        }
        let mut parked = self.parked.lock().expect("completion lock");
        while !self.is_set() {
            *parked = true;
            parked = self.cv.wait(parked).expect("completion lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_until_returns_at_once_when_ready_and_gives_up_after_the_window() {
        assert!(spin_until(|| true));
        let start = Instant::now();
        assert!(!spin_until(|| false));
        assert!(start.elapsed() >= SPIN_WINDOW);
    }

    #[test]
    fn completion_set_before_the_wait_never_blocks() {
        let c = Completion::new(false);
        c.set();
        c.wait();
        assert!(Completion::new(true).is_set());
    }

    #[test]
    fn completion_wakes_a_parked_waiter() {
        let c = Completion::new(false);
        std::thread::scope(|s| {
            s.spawn(|| c.wait());
            // `parked` is raised under the lock `cv.wait` releases, so once
            // it reads true the waiter is blocked on the condvar.
            while !*c.parked.lock().unwrap() {
                std::thread::yield_now();
            }
            assert!(!c.is_set());
            c.set();
        });
        assert!(c.is_set());
    }
}
