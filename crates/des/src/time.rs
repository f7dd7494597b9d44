//! Simulated time: nanosecond-resolution instants and durations.
//!
//! [`SimTime`] is an absolute instant on the simulation timeline and
//! [`SimDuration`] is a span between instants. Both are thin newtypes over
//! `u64` nanoseconds so device models can do exact arithmetic without
//! floating-point drift; conversions to seconds are provided for reporting.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated timeline, in nanoseconds since the
/// start of the simulation.
///
/// ```
/// use dr_des::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_micros(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// ```
/// use dr_des::SimDuration;
/// assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the origin.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the origin, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// The duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self` (time cannot run backwards).
    #[must_use]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: {earlier} is after {self}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// The duration since `earlier`, or zero when `earlier` is in the future.
    #[must_use]
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1e9).round() as u64)
    }

    /// The whole number of nanoseconds in this span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span in fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The larger of two spans.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Saturating subtraction of two spans.
    #[must_use]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        assert!(self.0 >= rhs.0, "duration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(40);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn duration_since_is_exact() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(25);
        assert_eq!(b.duration_since(a).as_nanos(), 15);
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_on_backwards_time() {
        let _ = SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn min_max_order() {
        let a = SimTime::from_nanos(3);
        let b = SimTime::from_nanos(7);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            SimDuration::from_nanos(3).max(SimDuration::from_nanos(7)),
            SimDuration::from_nanos(7)
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }

    #[test]
    fn scalar_mul_div() {
        let d = SimDuration::from_nanos(6);
        assert_eq!((d * 3).as_nanos(), 18);
        assert_eq!((d / 2).as_nanos(), 3);
    }
}
