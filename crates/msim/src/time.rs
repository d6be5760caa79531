//! Integer simulation time.
//!
//! Traces of analogue samples and digital clock edges need a time base
//! in which a 4.194304 MHz clock edge and an analogue sample either
//! coincide exactly or order unambiguously. Floating-point seconds
//! cannot guarantee that, so [`SimTime`] counts integer **picoseconds**:
//! fine enough to place the paper's 238.4 ns clock period to better than
//! 1 ppm, coarse enough that an `i64` covers more than 100 days of
//! simulated time.

use fluxcomp_units::si::Seconds;
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in simulation time, counted in integer picoseconds.
///
/// # Example
///
/// ```
/// use fluxcomp_msim::time::SimTime;
/// use fluxcomp_units::si::Seconds;
///
/// let t = SimTime::from_seconds(Seconds::new(125e-6)); // one 8 kHz period
/// assert_eq!(t.picos(), 125_000_000);
/// assert!((t.to_seconds().value() - 125e-6).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(i64);

impl SimTime {
    /// Time zero.
    pub const ZERO: Self = Self(0);
    /// The largest representable time.
    pub const MAX: Self = Self(i64::MAX);

    /// Constructs from integer picoseconds.
    #[inline]
    pub const fn from_picos(ps: i64) -> Self {
        Self(ps)
    }

    /// Constructs from integer nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: i64) -> Self {
        Self(ns * 1_000)
    }

    /// Constructs from integer microseconds.
    #[inline]
    pub const fn from_micros(us: i64) -> Self {
        Self(us * 1_000_000)
    }

    /// Constructs from integer milliseconds.
    #[inline]
    pub const fn from_millis(ms: i64) -> Self {
        Self(ms * 1_000_000_000)
    }

    /// Rounds a continuous duration to the nearest picosecond.
    #[inline]
    pub fn from_seconds(s: Seconds) -> Self {
        Self((s.value() * 1e12).round() as i64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn picos(self) -> i64 {
        self.0
    }

    /// Converts back to continuous seconds.
    #[inline]
    pub fn to_seconds(self) -> Seconds {
        Seconds::new(self.0 as f64 * 1e-12)
    }

    /// The value as `f64` seconds, convenient for trigonometry.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Integer division: how many whole `period`s fit before this time.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[inline]
    pub fn cycles_of(self, period: SimTime) -> i64 {
        self.0.div_euclid(period.0)
    }

    /// Phase within a repeating `period`, in `[0, period)`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[inline]
    pub fn phase_in(self, period: SimTime) -> SimTime {
        Self(self.0.rem_euclid(period.0))
    }

    /// Saturating addition.
    #[inline]
    pub const fn saturating_add(self, rhs: SimTime) -> Self {
        Self(self.0.saturating_add(rhs.0))
    }

    /// Checked subtraction (`None` when the result would be negative time
    /// in contexts that forbid it is left to the caller; this only checks
    /// overflow).
    #[inline]
    pub const fn checked_sub(self, rhs: SimTime) -> Option<Self> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Self(v)),
            None => None,
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps.abs() >= 1_000_000_000_000 {
            write!(f, "{:.6} s", ps as f64 * 1e-12)
        } else if ps.abs() >= 1_000_000_000 {
            write!(f, "{:.3} ms", ps as f64 * 1e-9)
        } else if ps.abs() >= 1_000_000 {
            write!(f, "{:.3} µs", ps as f64 * 1e-6)
        } else if ps.abs() >= 1_000 {
            write!(f, "{:.3} ns", ps as f64 * 1e-3)
        } else {
            write!(f, "{ps} ps")
        }
    }
}

impl Add for SimTime {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl From<Seconds> for SimTime {
    #[inline]
    fn from(s: Seconds) -> Self {
        Self::from_seconds(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_nanos(1), SimTime::from_picos(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
    }

    #[test]
    fn seconds_round_trip() {
        let t = SimTime::from_seconds(Seconds::new(2.384185791015625e-7));
        // The 4.194304 MHz period lands on an exact integer picosecond? Not
        // exactly (238418.579 ps), so check the rounding.
        assert_eq!(t.picos(), 238_419);
        assert!((t.to_seconds().value() - 2.384185791015625e-7).abs() < 1e-12);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(6);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn cycle_and_phase() {
        let period = SimTime::from_micros(125); // 8 kHz
        let t = SimTime::from_micros(300);
        assert_eq!(t.cycles_of(period), 2);
        assert_eq!(t.phase_in(period), SimTime::from_micros(50));
        // Exactly on a boundary.
        let t2 = SimTime::from_micros(250);
        assert_eq!(t2.cycles_of(period), 2);
        assert_eq!(t2.phase_in(period), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let mut t = SimTime::from_nanos(100);
        t += SimTime::from_nanos(50);
        assert_eq!(t, SimTime::from_nanos(150));
        t -= SimTime::from_nanos(150);
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(
            SimTime::MAX.saturating_add(SimTime::from_picos(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimTime::from_nanos(5).checked_sub(SimTime::from_nanos(3)),
            Some(SimTime::from_nanos(2))
        );
    }

    #[test]
    fn display_scales_unit() {
        assert_eq!(SimTime::from_picos(500).to_string(), "500 ps");
        assert_eq!(SimTime::from_nanos(238).to_string(), "238.000 ns");
        assert_eq!(SimTime::from_micros(125).to_string(), "125.000 µs");
        assert_eq!(SimTime::from_millis(3).to_string(), "3.000 ms");
        assert_eq!(SimTime::from_millis(2500).to_string(), "2.500000 s");
    }

    #[test]
    fn from_seconds_conversion_trait() {
        let t: SimTime = Seconds::new(1e-6).into();
        assert_eq!(t, SimTime::from_micros(1));
    }
}
