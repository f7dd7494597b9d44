//! The shared state of one in-flight `map_batch` call.
//!
//! Work distribution is **range stealing**: the index space `0..n` is cut
//! into one contiguous range per participant, packed as `(start, end)`
//! into a single `AtomicU64` per slot. An owner pops indices off the front
//! of its range with a CAS; a participant whose range drained steals the
//! **back half** of the largest remaining range with a CAS on the same
//! word. Because both transitions only ever shrink an interval, every
//! index is claimed exactly once, and "all ranges empty" is monotone — the
//! completion test needs no extra bookkeeping beyond an active-participant
//! count.

use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dr_obs::trace::{trace_args, Tracer};

use crate::current_track;
use crate::park::Completion;

/// Packs a half-open index interval into one atomic word.
fn pack(start: u32, end: u32) -> u64 {
    ((start as u64) << 32) | end as u64
}

/// Inverse of [`pack`].
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// The lifetime-erased batch closure. Only dereferenced between a
/// successful index claim and the matching `active` decrement, which
/// `map_batch` outlives by construction.
struct RawFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are fine) and the pointer is
// only dereferenced while the owning `map_batch` frame is alive.
unsafe impl Send for RawFn {}
unsafe impl Sync for RawFn {}

/// Shared state of one batch; lives in an `Arc` so pool threads that
/// arrive late (after completion) can still inspect it safely.
pub(crate) struct BatchCore {
    f: RawFn,
    ranges: Box<[AtomicU64]>,
    /// Participants currently inside the claim/process loop.
    active: AtomicUsize,
    /// Successful steals, reported to the pool's obs counters.
    steals: AtomicU64,
    /// First panic payload from an item, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set by the last participant out once every range is empty.
    done: Completion,
}

impl BatchCore {
    /// Builds the batch state for `n` items over `participants` slots.
    ///
    /// # Safety
    ///
    /// The caller must not return from the frame owning `f` until
    /// [`BatchCore::wait_done`] returned — the pointer is dereferenced by
    /// pool threads until then.
    pub(crate) unsafe fn new(
        f: &(dyn Fn(usize) + Sync),
        participants: usize,
        n: usize,
    ) -> Arc<Self> {
        assert!(n <= u32::MAX as usize, "batch too large for u32 ranges");
        assert!(participants > 0, "need at least the calling participant");
        let stride = n.div_ceil(participants);
        let ranges: Vec<AtomicU64> = (0..participants)
            .map(|p| {
                let start = (p * stride).min(n) as u32;
                let end = ((p + 1) * stride).min(n) as u32;
                AtomicU64::new(pack(start, end))
            })
            .collect();
        // Erase the borrow's lifetime; validity is the caller's contract.
        let f_static: &'static (dyn Fn(usize) + Sync) =
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f);
        Arc::new(BatchCore {
            f: RawFn(f_static as *const (dyn Fn(usize) + Sync)),
            ranges: ranges.into_boxed_slice(),
            active: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            panic: Mutex::new(None),
            done: Completion::new(false),
        })
    }

    /// True while any range still holds unclaimed indices.
    pub(crate) fn has_work(&self) -> bool {
        self.ranges.iter().any(|r| {
            let (s, e) = unpack(r.load(Ordering::Acquire));
            s < e
        })
    }

    /// Claims the next index off the front of range `slot`.
    fn claim_one(&self, slot: usize) -> Option<usize> {
        let r = &self.ranges[slot];
        let mut cur = r.load(Ordering::Acquire);
        loop {
            let (s, e) = unpack(cur);
            if s >= e {
                return None;
            }
            match r.compare_exchange_weak(cur, pack(s + 1, e), Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(s as usize),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Steals the back half of range `victim`, returning the stolen
    /// half-open interval.
    fn steal_back_half(&self, victim: usize) -> Option<(usize, usize)> {
        let r = &self.ranges[victim];
        let mut cur = r.load(Ordering::Acquire);
        loop {
            let (s, e) = unpack(cur);
            let remaining = e.saturating_sub(s);
            if remaining == 0 {
                return None;
            }
            let take = (remaining / 2).max(1);
            match r.compare_exchange_weak(
                cur,
                pack(s, e - take),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(((e - take) as usize, e as usize)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Runs one item under `catch_unwind`; on panic, records the payload
    /// and empties every range so the batch quiesces early. Returns false
    /// when the batch is poisoned and the participant should stop.
    fn run_item(&self, index: usize) -> bool {
        // SAFETY: see `RawFn` — the caller holds the claim on `index`, so
        // the batch has not quiesced and `map_batch`'s frame is alive. (A
        // participant that arrives late never gets here, and so never
        // forms a reference to a closure that is gone.)
        let f = unsafe { &*self.f.0 };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(index)));
        match outcome {
            Ok(()) => true,
            Err(payload) => {
                {
                    let mut slot = self.panic.lock().expect("batch panic lock");
                    slot.get_or_insert(payload);
                }
                // Abandon unclaimed work: plain stores only shrink the
                // intervals concurrent CASes are fighting over.
                for r in self.ranges.iter() {
                    r.store(pack(0, 0), Ordering::Release);
                }
                false
            }
        }
    }

    /// Joins the batch as participant `slot` (the caller uses slot 0, pool
    /// worker `w` uses slot `w + 1`) and works until no indices remain.
    /// Successful steals are emitted on `tracer` against the calling
    /// thread's wall track.
    pub(crate) fn participate(&self, slot: usize, tracer: &Tracer) {
        self.active.fetch_add(1, Ordering::AcqRel);
        let slots = self.ranges.len();
        let own = slot % slots;
        'work: loop {
            while let Some(i) = self.claim_one(own) {
                if !self.run_item(i) {
                    break 'work;
                }
            }
            // Own range drained: steal from the victim with the most left.
            let victim = (0..slots)
                .filter(|&v| v != own)
                .max_by_key(|&v| {
                    let (s, e) = unpack(self.ranges[v].load(Ordering::Acquire));
                    e.saturating_sub(s)
                })
                .filter(|&v| {
                    let (s, e) = unpack(self.ranges[v].load(Ordering::Acquire));
                    s < e
                });
            let Some(victim) = victim else {
                break 'work; // every range is empty
            };
            if let Some((lo, hi)) = self.steal_back_half(victim) {
                self.steals.fetch_add(1, Ordering::Relaxed);
                tracer.wall_instant(
                    current_track(),
                    "steal",
                    trace_args(&[("victim", victim as u64), ("stolen", (hi - lo) as u64)]),
                );
                for i in lo..hi {
                    if !self.run_item(i) {
                        break 'work;
                    }
                }
            }
        }
        // Last one out flips `done`; ranges can only be empty here because
        // intervals only ever shrink.
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 && !self.has_work() {
            self.done.set();
        }
    }

    /// Blocks the caller until the batch quiesced: every index claimed and
    /// every participant out of the processing loop. The usual wait is for
    /// the tail of one item on another thread, so it spins before parking.
    pub(crate) fn wait_done(&self) {
        self.done.wait();
    }

    /// Successful steals during this batch.
    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Takes the recorded panic payload, if any item panicked.
    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic.lock().expect("batch panic lock").take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        for (s, e) in [(0u32, 0u32), (1, 7), (100, u32::MAX)] {
            assert_eq!(unpack(pack(s, e)), (s, e));
        }
    }

    #[test]
    fn single_participant_drains_everything() {
        let hits = Mutex::new(vec![0u32; 37]);
        let f = |i: usize| {
            hits.lock().unwrap()[i] += 1;
        };
        // SAFETY: `core` is dropped before `f`.
        let core = unsafe { BatchCore::new(&f, 3, 37) };
        core.participate(0, &Tracer::disabled());
        core.wait_done();
        assert!(hits.lock().unwrap().iter().all(|&h| h == 1));
        assert!(core.take_panic().is_none());
    }

    #[test]
    fn steal_takes_the_back_half() {
        let f = |_: usize| {};
        // SAFETY: `core` is dropped before `f`.
        let core = unsafe { BatchCore::new(&f, 2, 10) };
        // Slot 0 owns [0,5), slot 1 owns [5,10).
        let stolen = core.steal_back_half(1).expect("non-empty victim");
        assert_eq!(stolen, (8, 10)); // back half of [5,10) is [8,10)
        let (s, e) = unpack(core.ranges[1].load(Ordering::Acquire));
        assert_eq!((s, e), (5, 8));
        // Drain so the test tears down cleanly.
        core.participate(0, &Tracer::disabled());
        core.wait_done();
    }
}
