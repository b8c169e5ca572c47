//! Simulation time.
//!
//! Time is represented as `f64` seconds wrapped in a [`SimTime`] newtype so
//! that it implements a **total order** (NaN values are rejected at
//! construction) and can be stored inside the binary-heap event queue.
//! The unit matches the paper: *simulation seconds* ("Sim Units").

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, in seconds since the start of the simulation.
///
/// `SimTime` is a thin wrapper around `f64` that guarantees the value is
/// finite and non-negative, which in turn lets it implement [`Ord`].
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// One simulated hour, convenient for workload construction.
    pub const HOUR: SimTime = SimTime(3_600.0);

    /// One simulated day (86 400 s).
    pub const DAY: SimTime = SimTime(86_400.0);

    /// Creates a new `SimTime` from seconds.
    ///
    /// # Panics
    /// Panics if `secs` is NaN, infinite or negative — such values would
    /// corrupt the event queue ordering.
    #[must_use]
    pub fn new(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and non-negative, got {secs}"
        );
        SimTime(secs)
    }

    /// Returns the raw number of seconds.
    #[inline]
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the time advanced by `delay` seconds.
    ///
    /// # Panics
    /// Panics if `delay` is negative or not finite.
    #[must_use]
    pub fn after(self, delay: f64) -> Self {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "delay must be finite and non-negative, got {delay}"
        );
        SimTime(self.0 + delay)
    }

    /// Saturating subtraction: `max(self - other, 0)`.
    #[must_use]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime((self.0 - other.0).max(0.0))
    }

    /// Returns the larger of the two times.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of the two times.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction guarantees the value is never NaN, so partial_cmp
        // cannot fail.
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime is never NaN by construction")
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl From<f64> for SimTime {
    fn from(v: f64) -> Self {
        SimTime::new(v)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::new(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::new(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime::new(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::new(12.5);
        assert_eq!(t.as_secs(), 12.5);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
        assert_eq!(SimTime::DAY.as_secs(), 86_400.0);
        assert_eq!(SimTime::HOUR.as_secs(), 3_600.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_panics() {
        let _ = SimTime::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_time_panics() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::new(10.0);
        let b = SimTime::new(4.0);
        assert_eq!((a + b).as_secs(), 14.0);
        assert_eq!((a - b).as_secs(), 6.0);
        assert_eq!((a * 2.0).as_secs(), 20.0);
        assert_eq!((a / 2.0).as_secs(), 5.0);
        assert_eq!(a.after(5.0).as_secs(), 15.0);
        assert_eq!(b.saturating_sub(a).as_secs(), 0.0);
        assert_eq!(a.saturating_sub(b).as_secs(), 6.0);
    }

    #[test]
    #[should_panic]
    fn subtraction_below_zero_panics() {
        let _ = SimTime::new(1.0) - SimTime::new(2.0);
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut t = SimTime::new(5.0);
        t += SimTime::new(2.0);
        assert_eq!(t.as_secs(), 7.0);
        t -= SimTime::new(3.0);
        assert_eq!(t.as_secs(), 4.0);
    }

    #[test]
    fn display_and_debug() {
        let t = SimTime::new(1.23456);
        assert_eq!(format!("{t}"), "1.235");
        assert_eq!(format!("{t:?}"), "1.235s");
    }
}
