//! Fixed-point arithmetic for the digital datapath models.
//!
//! The paper's CORDIC (Fig. 8) starts with `y_reg := y * 128` — i.e. the
//! hardware works in a fixed-point format with 7 fractional bits. [`Q`]
//! generalises that: a two's-complement integer with a const-generic number
//! of fractional bits, exactly the representation a synthesised datapath
//! would use on the Sea-of-Gates array.
//!
//! Arithmetic is wrapping by default (like real registers); explicit
//! `saturating_*` variants model datapaths with clamping logic.
//!
//! # Example
//!
//! ```
//! use fluxcomp_units::fixed::Q;
//!
//! // The paper's 128× prescale is Q<7>.
//! let x = Q::<7>::from_f64(1.5);
//! let y = Q::<7>::from_f64(0.25);
//! assert_eq!((x + y).to_f64(), 1.75);
//! assert_eq!((x >> 2).to_f64(), 0.375); // arithmetic shift = ÷4
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Shl, Shr, Sub, SubAssign};

/// A two's-complement fixed-point number with `FRAC` fractional bits,
/// stored in an `i64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Q<const FRAC: u32>(i64);

impl<const FRAC: u32> Q<FRAC> {
    /// The value 0.
    pub const ZERO: Self = Self(0);
    /// The value 1.
    pub const ONE: Self = Self(1 << FRAC);
    /// Smallest positive representable step (one LSB).
    pub const EPSILON: Self = Self(1);
    /// Maximum representable value.
    pub const MAX: Self = Self(i64::MAX);
    /// Minimum representable value.
    pub const MIN: Self = Self(i64::MIN);

    /// Constructs directly from raw register bits.
    #[inline]
    pub const fn from_bits(bits: i64) -> Self {
        Self(bits)
    }

    /// The raw register bits.
    #[inline]
    pub const fn to_bits(self) -> i64 {
        self.0
    }

    /// Rounds a float to the nearest representable fixed-point value
    /// (ties away from zero, matching a hardware round constant).
    #[inline]
    pub fn from_f64(value: f64) -> Self {
        Self((value * (1i64 << FRAC) as f64).round() as i64)
    }

    /// Converts to `f64`. Exact whenever the magnitude fits in the
    /// 53-bit mantissa.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / (1i64 << FRAC) as f64
    }

    /// Wrapping addition (models a plain ripple/carry adder register).
    #[inline]
    pub const fn wrapping_add(self, rhs: Self) -> Self {
        Self(self.0.wrapping_add(rhs.0))
    }

    /// Wrapping subtraction.
    #[inline]
    const fn wrapping_sub(self, rhs: Self) -> Self {
        Self(self.0.wrapping_sub(rhs.0))
    }

    /// Saturating addition (models an adder with clamp logic).
    #[inline]
    pub const fn saturating_add(self, rhs: Self) -> Self {
        Self(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub const fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Fixed-point multiply with rescale, using an `i128` intermediate
    /// (a full-width hardware multiplier followed by a shift).
    #[inline]
    const fn mul_full(self, rhs: Self) -> Self {
        Self(((self.0 as i128 * rhs.0 as i128) >> FRAC) as i64)
    }

    /// Absolute value (wrapping at `MIN`, like real two's-complement).
    #[inline]
    pub const fn abs(self) -> Self {
        Self(self.0.wrapping_abs())
    }

    /// The sign: `-1`, `0` or `1`.
    #[inline]
    pub const fn signum(self) -> i64 {
        self.0.signum()
    }
}

impl<const FRAC: u32> fmt::Display for Q<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}q{}", self.to_f64(), FRAC)
    }
}

impl<const FRAC: u32> Add for Q<FRAC> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.wrapping_add(rhs)
    }
}

impl<const FRAC: u32> AddAssign for Q<FRAC> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const FRAC: u32> Sub for Q<FRAC> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.wrapping_sub(rhs)
    }
}

impl<const FRAC: u32> SubAssign for Q<FRAC> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const FRAC: u32> Neg for Q<FRAC> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self(self.0.wrapping_neg())
    }
}

impl<const FRAC: u32> Mul for Q<FRAC> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.mul_full(rhs)
    }
}

/// Arithmetic right shift — the CORDIC's `x >> i` barrel shifter.
impl<const FRAC: u32> Shr<u32> for Q<FRAC> {
    type Output = Self;
    #[inline]
    fn shr(self, rhs: u32) -> Self {
        Self(self.0 >> rhs)
    }
}

/// Left shift.
impl<const FRAC: u32> Shl<u32> for Q<FRAC> {
    type Output = Self;
    #[inline]
    fn shl(self, rhs: u32) -> Self {
        Self(self.0 << rhs)
    }
}

/// The paper's CORDIC format: 7 fractional bits (the `* 128` prescale of
/// Fig. 8).
pub type Q7 = Q<7>;

/// A wider format used by the higher-precision CORDIC extension.
pub type Q16 = Q<16>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_is_prescale() {
        assert_eq!(Q7::ONE.to_bits(), 128);
        assert_eq!(Q::<16>::ONE.to_bits(), 65536);
    }

    #[test]
    fn f64_round_trip_exact_multiples() {
        for k in -1000..1000 {
            let v = k as f64 / 128.0;
            assert_eq!(Q7::from_f64(v).to_f64(), v);
        }
    }

    #[test]
    fn from_f64_rounds_to_nearest() {
        // 0.004 * 128 = 0.512 → rounds to 1 LSB.
        assert_eq!(Q7::from_f64(0.004).to_bits(), 1);
        // 0.003 * 128 = 0.384 → rounds to 0.
        assert_eq!(Q7::from_f64(0.003).to_bits(), 0);
        // Negative ties away from zero.
        assert_eq!(Q7::from_f64(-0.00390625).to_bits(), -1);
    }

    #[test]
    fn add_sub_neg() {
        let a = Q7::from_f64(1.5);
        let b = Q7::from_f64(0.25);
        assert_eq!((a + b).to_f64(), 1.75);
        assert_eq!((a - b).to_f64(), 1.25);
        assert_eq!((-a).to_f64(), -1.5);
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn shift_is_power_of_two_division() {
        let a = Q7::from_f64(1.5);
        assert_eq!((a >> 1).to_f64(), 0.75);
        assert_eq!((a >> 2).to_f64(), 0.375);
        assert_eq!((a << 1).to_f64(), 3.0);
        // Arithmetic shift floors negative values.
        let n = Q7::from_bits(-3);
        assert_eq!((n >> 1).to_bits(), -2);
    }

    #[test]
    fn multiply_with_rescale() {
        let a = Q::<16>::from_f64(1.5);
        let b = Q::<16>::from_f64(-2.0);
        assert_eq!((a * b).to_f64(), -3.0);
        assert_eq!((a * Q::<16>::ONE), a);
        assert_eq!((a * Q::<16>::ZERO), Q::<16>::ZERO);
    }

    #[test]
    fn wrapping_matches_register_semantics() {
        let max = Q7::MAX;
        assert_eq!(max.wrapping_add(Q7::EPSILON), Q7::MIN);
        assert_eq!(Q7::MIN.wrapping_sub(Q7::EPSILON), Q7::MAX);
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(Q7::MAX.saturating_add(Q7::ONE), Q7::MAX);
        assert_eq!(Q7::MIN.saturating_sub(Q7::ONE), Q7::MIN);
    }

    #[test]
    fn signs() {
        assert_eq!(Q7::from_f64(-0.5).abs().to_f64(), 0.5);
        assert_eq!(Q7::from_f64(3.0).signum(), 1);
        assert_eq!(Q7::ZERO.signum(), 0);
        assert_eq!(Q7::from_f64(-3.0).signum(), -1);
    }

    #[test]
    fn ordering_and_hash_derives() {
        let a = Q7::from_f64(1.0);
        let b = Q7::from_f64(2.0);
        assert!(a < b);
        assert_eq!(a.max(a), a);
        use std::collections::HashSet;
        let set: HashSet<Q7> = [a, b, a].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_format() {
        assert_eq!(Q7::from_f64(1.5).to_string(), "1.5q7");
    }
}
