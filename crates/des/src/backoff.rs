//! Bounded retry with exponential backoff on the simulated clock.
//!
//! Device models inject *transient* faults (a busy controller, a rejected
//! kernel launch); callers that retry must charge simulated time for each
//! wait or the retries would be free and the experiment dishonest. This
//! module centralizes that arithmetic so every component that degrades
//! gracefully waits the same, deterministic way.

use crate::time::{SimDuration, SimTime};

/// A bounded exponential-backoff schedule: attempt `k` (zero-based) waits
/// `base * factor^k` before retrying, up to `max_retries` retries after
/// the initial attempt.
///
/// # Example
///
/// ```
/// use dr_des::{ExponentialBackoff, SimDuration};
///
/// let backoff = ExponentialBackoff::new(SimDuration::from_micros(50), 2, 3);
/// assert_eq!(backoff.delay(0), SimDuration::from_micros(50));
/// assert_eq!(backoff.delay(1), SimDuration::from_micros(100));
/// assert_eq!(backoff.delay(2), SimDuration::from_micros(200));
/// // Total attempts = 1 initial + max_retries.
/// assert_eq!(backoff.max_attempts(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExponentialBackoff {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Multiplier applied per subsequent retry (≥ 1).
    pub factor: u64,
    /// Retries allowed after the initial attempt.
    pub max_retries: u32,
}

impl ExponentialBackoff {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is zero (the schedule would collapse).
    pub fn new(base: SimDuration, factor: u64, max_retries: u32) -> Self {
        assert!(factor >= 1, "backoff factor must be at least 1");
        ExponentialBackoff {
            base,
            factor,
            max_retries,
        }
    }

    /// The wait before retry number `retry` (zero-based): `base *
    /// factor^retry`, saturating instead of overflowing.
    pub fn delay(&self, retry: u32) -> SimDuration {
        let mut scale: u64 = 1;
        for _ in 0..retry {
            scale = scale.saturating_mul(self.factor);
        }
        SimDuration::from_nanos(self.base.as_nanos().saturating_mul(scale))
    }

    /// Total attempts permitted: the initial one plus every retry.
    pub fn max_attempts(&self) -> u32 {
        1 + self.max_retries
    }

    /// Sum of every delay the full schedule can charge, saturating.
    pub fn total_delay(&self) -> SimDuration {
        let mut total: u64 = 0;
        for retry in 0..self.max_retries {
            total = total.saturating_add(self.delay(retry).as_nanos());
        }
        SimDuration::from_nanos(total)
    }

    /// True when retry number `retry` (zero-based) is allowed: it is
    /// within `max_retries`.
    pub fn permits(&self, retry: u32) -> bool {
        retry < self.max_retries
    }

    /// Runs `op` under this schedule — the one retry loop every
    /// fault-absorbing component shares. `op(at)` is attempted at `start`;
    /// while it fails with an error `is_transient` accepts and the
    /// schedule [`permits`](Self::permits) retry number `k`, the clock
    /// advances by that retry's delay, `on_retry(at, k)` is told (`k`
    /// one-based), and `op` runs again at the new instant.
    pub fn retry<T, E>(
        &self,
        start: SimTime,
        is_transient: impl Fn(&E) -> bool,
        mut on_retry: impl FnMut(SimTime, u32),
        mut op: impl FnMut(SimTime) -> Result<T, E>,
    ) -> Retried<T, E> {
        let mut at = start;
        let mut retries = 0u32;
        let result = loop {
            match op(at) {
                Err(e) if is_transient(&e) && self.permits(retries) => {
                    at += self.delay(retries);
                    retries += 1;
                    on_retry(at, retries);
                }
                other => break other,
            }
        };
        Retried {
            result,
            at,
            retries,
        }
    }
}

/// What one [`ExponentialBackoff::retry`] run came to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Retried<T, E> {
    /// The last attempt's outcome.
    pub result: Result<T, E>,
    /// When the last attempt was issued: `start` plus every delay charged.
    /// After a failure, the floor for whatever the caller falls back to.
    pub at: SimTime,
    /// Retries spent (attempts after the first).
    pub retries: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_geometrically() {
        let b = ExponentialBackoff::new(SimDuration::from_micros(10), 3, 4);
        assert_eq!(b.delay(0), SimDuration::from_micros(10));
        assert_eq!(b.delay(1), SimDuration::from_micros(30));
        assert_eq!(b.delay(2), SimDuration::from_micros(90));
        assert_eq!(b.max_attempts(), 5);
    }

    #[test]
    fn factor_one_is_constant() {
        let b = ExponentialBackoff::new(SimDuration::from_millis(1), 1, 10);
        assert_eq!(b.delay(0), b.delay(9));
    }

    #[test]
    fn huge_retry_count_saturates() {
        let b = ExponentialBackoff::new(SimDuration::from_secs(1), 2, 200);
        assert_eq!(b.delay(200), SimDuration::from_nanos(u64::MAX));
    }

    #[test]
    fn total_delay_sums_the_schedule() {
        let b = ExponentialBackoff::new(SimDuration::from_micros(10), 2, 3);
        // 10 + 20 + 40 = 70us.
        assert_eq!(b.total_delay(), SimDuration::from_micros(70));
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn zero_factor_rejected() {
        ExponentialBackoff::new(SimDuration::from_micros(1), 0, 1);
    }

    #[test]
    fn unbudgeted_schedule_permits_every_retry() {
        let b = ExponentialBackoff::new(SimDuration::from_micros(10), 2, 3);
        assert!(b.permits(0));
        assert!(b.permits(2));
        assert!(!b.permits(3), "retry count still bounds");
    }

    /// An op that fails transiently (`Err(true)`) `failures` times, then
    /// succeeds with the instant it ran at; records every `on_retry` call.
    fn flaky(
        b: &ExponentialBackoff,
        start: SimTime,
        failures: u32,
    ) -> (Retried<SimTime, bool>, Vec<(SimTime, u32)>) {
        let mut seen = Vec::new();
        let mut left = failures;
        let out = b.retry(
            start,
            |transient: &bool| *transient,
            |at, k| seen.push((at, k)),
            |at| {
                if left == 0 {
                    Ok(at)
                } else {
                    left -= 1;
                    Err(true)
                }
            },
        );
        (out, seen)
    }

    #[test]
    fn retry_succeeds_after_k_transient_failures_at_the_charged_instant() {
        let b = ExponentialBackoff::new(SimDuration::from_micros(10), 2, 3);
        let start = SimTime::ZERO + SimDuration::from_micros(7);
        for k in 0..=3u32 {
            let (out, seen) = flaky(&b, start, k);
            // Retry r (one-based) waits delay(0) + … + delay(r - 1).
            let spent = |r: u32| (0..r).map(|i| b.delay(i)).fold(start, |at, d| at + d);
            let reached = spent(k);
            assert_eq!(out.result, Ok(reached), "op ran at the reached instant");
            assert_eq!(out.at, reached);
            assert_eq!(out.retries, k);
            let expected: Vec<(SimTime, u32)> = (1..=k).map(|r| (spent(r), r)).collect();
            assert_eq!(seen, expected, "one on_retry per retry, at its instant");
        }
    }

    #[test]
    fn retry_does_not_retry_a_non_transient_error() {
        let b = ExponentialBackoff::new(SimDuration::from_micros(10), 2, 3);
        let mut calls = 0;
        let out: Retried<(), bool> = b.retry(
            SimTime::ZERO,
            |transient: &bool| *transient,
            |_, _| panic!("a hard error must not be retried"),
            |_| {
                calls += 1;
                Err(false)
            },
        );
        assert_eq!(out.result, Err(false));
        assert_eq!((out.at, out.retries), (SimTime::ZERO, 0));
        assert_eq!(calls, 1);
    }

    #[test]
    fn retry_count_exhaustion_fails_at_total_delay() {
        let b = ExponentialBackoff::new(SimDuration::from_micros(10), 2, 3);
        let (out, seen) = flaky(&b, SimTime::ZERO, u32::MAX);
        assert_eq!(out.result, Err(true));
        assert_eq!(out.at, SimTime::ZERO + b.total_delay());
        assert_eq!(out.retries, 3);
        assert_eq!(seen.len(), 3);
    }
}
