//! Capacity-`c` servers for timeline scheduling.
//!
//! A [`Resource`] models a device with `c` identical slots (CPU cores, GPU
//! command queues, SSD channels, a PCIe link). Jobs call
//! [`Resource::acquire`] with their arrival time and service duration; the
//! resource assigns the job to the earliest-free slot and returns the
//! resulting [`Grant`] (queueing delay falls out naturally). This analytic
//! formulation avoids the overhead of a full process-oriented simulation
//! while producing identical timelines for FIFO, non-preemptive servers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// The outcome of acquiring a resource slot: when service started and ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When the job actually started service (>= arrival time).
    pub start: SimTime,
    /// When the job finished service.
    pub end: SimTime,
}

/// A FIFO, non-preemptive server with a fixed number of identical slots.
///
/// # Examples
///
/// Four jobs on a two-slot server:
///
/// ```
/// use dr_des::{Resource, SimTime, SimDuration};
///
/// let mut r = Resource::new("ssd-channel", 2);
/// let d = SimDuration::from_micros(100);
/// let g0 = r.acquire(SimTime::ZERO, d);
/// let g1 = r.acquire(SimTime::ZERO, d);
/// let g2 = r.acquire(SimTime::ZERO, d);
/// assert_eq!(g0.start, SimTime::ZERO);
/// assert_eq!(g1.start, SimTime::ZERO);
/// assert_eq!(g2.start, g0.end); // third job waits for a slot
/// ```
#[derive(Debug)]
pub struct Resource {
    name: String,
    /// Min-heap of the next-free instants of each slot.
    slots: BinaryHeap<Reverse<SimTime>>,
    capacity: usize,
    jobs: u64,
    busy_time: SimDuration,
    last_end: SimTime,
}

impl Resource {
    /// Creates a resource with `capacity` identical slots, all free at t=0.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "resource capacity must be positive");
        let mut slots = BinaryHeap::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(Reverse(SimTime::ZERO));
        }
        Resource {
            name: name.into(),
            slots,
            capacity,
            jobs: 0,
            busy_time: SimDuration::ZERO,
            last_end: SimTime::ZERO,
        }
    }

    /// The resource name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Assigns a job arriving at `arrival` needing `service` time to the
    /// earliest-free slot, and returns when it started and ended.
    pub fn acquire(&mut self, arrival: SimTime, service: SimDuration) -> Grant {
        let grant = grant_on(&mut self.slots, arrival, service);
        self.jobs += 1;
        self.busy_time += service;
        self.last_end = self.last_end.max(grant.end);
        grant
    }

    /// What-if: the latest end among the grants that `jobs` —
    /// `(arrival, service)` pairs, in order — would get if each were
    /// [`acquire`](Resource::acquire)d now, after every job already
    /// granted. Acquires nothing; [`SimTime::ZERO`] when `jobs` is empty.
    /// A single job is answered from the earliest free slot; a longer
    /// sequence is replayed on a copy of the slot heap.
    ///
    /// No pipeline stage calls it yet. Its caller to come is the write
    /// path's co-processor rule (ROADMAP item 7): the CPU side of routing
    /// an index-probe batch to whichever of CPU and GPU finishes it first.
    ///
    /// ```
    /// use dr_des::{Resource, SimTime, SimDuration};
    ///
    /// let mut r = Resource::new("cpu", 2);
    /// let jobs = [(SimTime::ZERO, SimDuration::from_micros(10)); 3];
    /// let estimate = r.finish_if(jobs);
    /// let last = jobs.map(|(at, d)| r.acquire(at, d).end)[2];
    /// assert_eq!(estimate, last);
    /// ```
    pub fn finish_if(&self, jobs: impl IntoIterator<Item = (SimTime, SimDuration)>) -> SimTime {
        let mut jobs = jobs.into_iter();
        let Some((arrival, service)) = jobs.next() else {
            return SimTime::ZERO;
        };
        let first = self.earliest_free().max(arrival) + service;
        let Some(second) = jobs.next() else {
            return first;
        };
        let mut slots = self.slots.clone();
        *slots.peek_mut().expect("capacity > 0") = Reverse(first);
        std::iter::once(second)
            .chain(jobs)
            .map(|(arrival, service)| grant_on(&mut slots, arrival, service).end)
            .fold(first, SimTime::max)
    }

    /// The earliest instant at which any slot is free.
    pub fn earliest_free(&self) -> SimTime {
        self.slots
            .peek()
            .map(|Reverse(t)| *t)
            .expect("capacity > 0")
    }

    /// Total number of jobs served so far.
    pub fn jobs_served(&self) -> u64 {
        self.jobs
    }

    /// Sum of all service durations granted so far.
    pub fn total_busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Completion time of the latest-finishing job granted so far.
    pub fn makespan(&self) -> SimTime {
        self.last_end
    }

    /// Mean utilization over `[0, makespan]` across all slots, in `[0, 1]`.
    /// Returns 0.0 before any job has been served.
    pub fn utilization(&self) -> f64 {
        let span = self.last_end.as_nanos();
        if span == 0 {
            return 0.0;
        }
        self.busy_time.as_nanos() as f64 / (span as f64 * self.capacity as f64)
    }

    /// Resets all slots to free-at-zero and clears statistics.
    pub fn reset(&mut self) {
        self.slots.clear();
        for _ in 0..self.capacity {
            self.slots.push(Reverse(SimTime::ZERO));
        }
        self.jobs = 0;
        self.busy_time = SimDuration::ZERO;
        self.last_end = SimTime::ZERO;
    }
}

/// Serves one job on the earliest-free of `slots` (a min-heap of next-free
/// instants) and returns its grant.
fn grant_on(
    slots: &mut BinaryHeap<Reverse<SimTime>>,
    arrival: SimTime,
    service: SimDuration,
) -> Grant {
    let mut earliest = slots.peek_mut().expect("capacity > 0");
    let start = earliest.0.max(arrival);
    let end = start + service;
    *earliest = Reverse(end);
    Grant { start, end }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn finish_if_is_the_last_grant_of_the_same_acquire_sequence() {
        let mut rng = crate::SplitMix64::new(0x2E5_0001);
        for case in 0..400 {
            let capacity = 1 + rng.next_below(4) as usize;
            // Two twins with one random history; the what-if on one must
            // predict what acquiring the same jobs does to the other, and
            // leave its own timeline untouched.
            let (mut real, mut twin) = (
                Resource::new("real", capacity),
                Resource::new("twin", capacity),
            );
            let job = |rng: &mut crate::SplitMix64| {
                let at = SimTime::from_nanos(rng.next_below(50_000));
                (at, SimDuration::from_nanos(rng.next_below(20_000)))
            };
            for _ in 0..rng.next_below(12) {
                let (at, d) = job(&mut rng);
                real.acquire(at, d);
                twin.acquire(at, d);
            }
            let jobs: Vec<_> = (0..rng.next_below(10)).map(|_| job(&mut rng)).collect();
            let estimate = twin.finish_if(jobs.iter().copied());
            let grants: Vec<Grant> = jobs.iter().map(|&(at, d)| real.acquire(at, d)).collect();
            let want = grants.iter().map(|g| g.end).max().unwrap_or(SimTime::ZERO);
            assert_eq!(estimate, want, "case {case}: capacity {capacity}, {jobs:?}");
            assert_eq!(twin.jobs_served() + jobs.len() as u64, real.jobs_served());
            // The twin still grants the next job exactly as the real one did.
            for (&(at, d), g) in jobs.iter().zip(&grants) {
                assert_eq!(twin.acquire(at, d), *g, "case {case}");
            }
        }
    }

    #[test]
    fn single_slot_serializes_jobs() {
        let mut r = Resource::new("cpu", 1);
        let g0 = r.acquire(SimTime::ZERO, us(10));
        let g1 = r.acquire(SimTime::ZERO, us(10));
        assert_eq!(g0.end, SimTime::ZERO + us(10));
        assert_eq!(g1.start, g0.end);
        assert_eq!(g1.end, SimTime::ZERO + us(20));
    }

    #[test]
    fn multi_slot_runs_in_parallel() {
        let mut r = Resource::new("cores", 4);
        let grants: Vec<Grant> = (0..4).map(|_| r.acquire(SimTime::ZERO, us(10))).collect();
        assert!(grants.iter().all(|g| g.start == SimTime::ZERO));
        let g = r.acquire(SimTime::ZERO, us(10));
        assert_eq!(g.start, SimTime::ZERO + us(10));
    }

    #[test]
    fn later_arrival_starts_no_earlier_than_arrival() {
        let mut r = Resource::new("cpu", 1);
        let arrival = SimTime::from_nanos(5_000_000);
        let g = r.acquire(arrival, us(1));
        assert_eq!(g.start, arrival);
    }

    #[test]
    fn queue_delay_measured() {
        let mut r = Resource::new("cpu", 1);
        r.acquire(SimTime::ZERO, us(100));
        let g = r.acquire(SimTime::ZERO + us(10), us(1));
        let queued = g.start.saturating_duration_since(SimTime::ZERO + us(10));
        assert_eq!(queued, us(90));
    }

    #[test]
    fn utilization_full_when_back_to_back() {
        let mut r = Resource::new("cpu", 1);
        for _ in 0..10 {
            r.acquire(SimTime::ZERO, us(10));
        }
        assert!((r.utilization() - 1.0).abs() < 1e-9);
        assert_eq!(r.jobs_served(), 10);
        assert_eq!(r.total_busy_time(), us(100));
        assert_eq!(r.makespan(), SimTime::ZERO + us(100));
    }

    #[test]
    fn utilization_half_on_two_slots_one_busy() {
        let mut r = Resource::new("duo", 2);
        r.acquire(SimTime::ZERO, us(10));
        assert!((r.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new("cpu", 2);
        r.acquire(SimTime::ZERO, us(10));
        r.reset();
        assert_eq!(r.jobs_served(), 0);
        assert_eq!(r.earliest_free(), SimTime::ZERO);
        assert_eq!(r.utilization(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Resource::new("bad", 0);
    }
}
