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
    /// Total sim-time the schedule may spend waiting across one
    /// operation's retries; `None` = bounded only by `max_retries`. A
    /// budget caps pathological schedules (a latched-open device under a
    /// crash loop) that a pure retry count cannot: see
    /// [`ExponentialBackoff::permits`].
    pub budget: Option<SimDuration>,
}

impl ExponentialBackoff {
    /// Creates a schedule with no sim-time budget.
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
            budget: None,
        }
    }

    /// Adds a total sim-time budget to the schedule.
    pub fn with_budget(self, budget: SimDuration) -> Self {
        ExponentialBackoff {
            budget: Some(budget),
            ..self
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

    /// Cumulative wait charged once retry number `retry` is taken:
    /// `delay(0) + … + delay(retry)`, saturating.
    pub fn spent_through(&self, retry: u32) -> SimDuration {
        let mut total: u64 = 0;
        for r in 0..=retry {
            total = total.saturating_add(self.delay(r).as_nanos());
        }
        SimDuration::from_nanos(total)
    }

    /// True when retry number `retry` (zero-based) is allowed: it is
    /// within `max_retries` *and* taking it would not push the cumulative
    /// wait past the budget. Retry loops should gate on this instead of
    /// comparing against `max_retries` directly.
    pub fn permits(&self, retry: u32) -> bool {
        retry < self.max_retries
            && match self.budget {
                None => true,
                Some(budget) => self.spent_through(retry) <= budget,
            }
    }

    /// True when `retry` was refused *because of the budget* — the retry
    /// count still had room. Callers use this to count budget exhaustion
    /// separately from ordinary retry exhaustion.
    pub fn budget_exhausted(&self, retry: u32) -> bool {
        retry < self.max_retries && !self.permits(retry)
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
        let mut budget_exhausted = false;
        let result = loop {
            match op(at) {
                Err(e) if is_transient(&e) && self.permits(retries) => {
                    at += self.delay(retries);
                    retries += 1;
                    on_retry(at, retries);
                }
                Err(e) => {
                    budget_exhausted = is_transient(&e) && self.budget_exhausted(retries);
                    break Err(e);
                }
                ok => break ok,
            }
        };
        Retried {
            result,
            at,
            retries,
            budget_exhausted,
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
    /// True when the sim-time budget — not the retry count — refused the
    /// retry a transient error was still owed.
    pub budget_exhausted: bool,
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
        assert!(
            !b.budget_exhausted(3),
            "count exhaustion is not budget exhaustion"
        );
    }

    #[test]
    fn budget_cuts_the_schedule_short() {
        // Delays 10, 20, 40us; a 25us budget allows retry 0 (10us spent)
        // but not retry 1 (30us would exceed it).
        let b = ExponentialBackoff::new(SimDuration::from_micros(10), 2, 3)
            .with_budget(SimDuration::from_micros(25));
        assert!(b.permits(0));
        assert!(!b.permits(1));
        assert!(b.budget_exhausted(1));
        assert!(!b.budget_exhausted(0));
    }

    #[test]
    fn budget_larger_than_total_delay_never_binds() {
        let b = ExponentialBackoff::new(SimDuration::from_micros(10), 2, 3);
        let capped = b.with_budget(b.total_delay());
        for retry in 0..4 {
            assert_eq!(b.permits(retry), capped.permits(retry));
            assert!(!capped.budget_exhausted(retry));
        }
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
            let reached = if k == 0 {
                start
            } else {
                start + b.spent_through(k - 1)
            };
            assert_eq!(out.result, Ok(reached), "op ran at the reached instant");
            assert_eq!(out.at, reached);
            assert_eq!(out.retries, k);
            assert!(!out.budget_exhausted);
            let expected: Vec<(SimTime, u32)> = (1..=k)
                .map(|r| (start + b.spent_through(r - 1), r))
                .collect();
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
        assert!(!out.budget_exhausted);
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
        assert!(!out.budget_exhausted, "the count ran out, not the budget");
    }

    #[test]
    fn retry_stops_early_when_the_budget_binds() {
        // Delays 10, 20, 40us under a 25us budget: one retry, then refusal.
        let b = ExponentialBackoff::new(SimDuration::from_micros(10), 2, 3)
            .with_budget(SimDuration::from_micros(25));
        let (out, seen) = flaky(&b, SimTime::ZERO, u32::MAX);
        assert_eq!(out.result, Err(true));
        assert_eq!(out.at, SimTime::ZERO + SimDuration::from_micros(10));
        assert_eq!(out.retries, 1);
        assert_eq!(seen.len(), 1);
        assert!(out.budget_exhausted);
    }

    #[test]
    fn spent_through_accumulates_delays() {
        let b = ExponentialBackoff::new(SimDuration::from_micros(10), 2, 3);
        assert_eq!(b.spent_through(0), SimDuration::from_micros(10));
        assert_eq!(b.spent_through(2), SimDuration::from_micros(70));
    }
}
