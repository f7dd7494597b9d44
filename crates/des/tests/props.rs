//! Randomized tests: DES kernel invariants.

use dr_des::testkit::{self, Cases};
use dr_des::{Resource, SimDuration, SimTime};

/// A capacity-c resource never runs more than c jobs concurrently,
/// never idles while work is waiting (work conservation for equal
/// arrivals), and serves every job.
#[test]
fn resource_respects_capacity() {
    Cases::new("resource_respects_capacity", 0xD35_0002).run(96, |rng| {
        let n = testkit::usize_in(rng, 1, 99);
        let durations: Vec<u64> = (0..n).map(|_| testkit::u64_in(rng, 1, 9_999)).collect();
        let capacity = testkit::usize_in(rng, 1, 7);
        let mut r = Resource::new("r", capacity);
        let grants: Vec<_> = durations
            .iter()
            .map(|d| r.acquire(SimTime::ZERO, SimDuration::from_nanos(*d)))
            .collect();
        // Concurrency check: count overlaps at every grant start.
        for g in &grants {
            let overlapping = grants
                .iter()
                .filter(|o| o.start <= g.start && g.start < o.end)
                .count();
            assert!(overlapping <= capacity, "{overlapping} > {capacity}");
        }
        // Work conservation with all-zero arrivals: makespan * capacity >=
        // total work, and makespan <= total work (single slot bound).
        let total: u64 = durations.iter().sum();
        let makespan = r.makespan().as_nanos();
        assert!(makespan * capacity as u64 >= total);
        assert!(makespan <= total);
        assert_eq!(r.jobs_served(), durations.len() as u64);
    });
}

/// Time arithmetic: (t + d) - d == t and durations sum exactly.
#[test]
fn time_arithmetic() {
    Cases::new("time_arithmetic", 0xD35_0004).run(96, |rng| {
        let base = testkit::u64_in(rng, 0, (1 << 40) - 1);
        let n = testkit::usize_in(rng, 0, 49);
        let deltas: Vec<u64> = (0..n)
            .map(|_| testkit::u64_in(rng, 0, (1 << 20) - 1))
            .collect();
        let t = SimTime::from_nanos(base);
        let mut acc = t;
        let mut total = SimDuration::ZERO;
        for d in &deltas {
            acc += SimDuration::from_nanos(*d);
            total += SimDuration::from_nanos(*d);
        }
        assert_eq!(acc.duration_since(t), total);
        assert_eq!(acc - total, t);
    });
}
