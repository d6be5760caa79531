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
use std::ops::{Add, Sub};

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
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(i64);

impl SimTime {
    /// Constructs from integer picoseconds.
    #[inline]
    pub const fn from_picos(ps: i64) -> Self {
        Self(ps)
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

    /// The value as `f64` seconds, convenient for trigonometry.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
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

impl Sub for SimTime {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
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
    fn seconds_round_trip() {
        let t = SimTime::from_seconds(Seconds::new(2.384185791015625e-7));
        // The 4.194304 MHz period lands on an exact integer picosecond? Not
        // exactly (238418.579 ps), so check the rounding.
        assert_eq!(t.picos(), 238_419);
        assert!((t.as_secs_f64() - 2.384185791015625e-7).abs() < 1e-12);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_picos(5_000);
        let b = SimTime::from_picos(6_000);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_picos(100_000) + SimTime::from_picos(50_000);
        assert_eq!(t, SimTime::from_picos(150_000));
        assert_eq!(t - SimTime::from_picos(150_000), SimTime::default());
    }

    #[test]
    fn display_scales_unit() {
        assert_eq!(SimTime::from_picos(500).to_string(), "500 ps");
        assert_eq!(SimTime::from_picos(238_000).to_string(), "238.000 ns");
        assert_eq!(SimTime::from_picos(125_000_000).to_string(), "125.000 µs");
        assert_eq!(SimTime::from_picos(3_000_000_000).to_string(), "3.000 ms");
        assert_eq!(
            SimTime::from_picos(2_500_000_000_000).to_string(),
            "2.500000 s"
        );
    }

    #[test]
    fn from_seconds_conversion_trait() {
        let t: SimTime = Seconds::new(1e-6).into();
        assert_eq!(t, SimTime::from_picos(1_000_000));
    }
}
