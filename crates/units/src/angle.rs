//! Angle types: [`Degrees`] and [`Radians`].
//!
//! The compass's entire purpose is producing an angle, and the paper's
//! accuracy claim ("within one degree") is a statement about *angular
//! distance on a circle*. These types make the wrap-around arithmetic
//! explicit so accuracy evaluations never suffer from the classic
//! `359° vs 1°` bug.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An angle in degrees.
///
/// The raw value is unconstrained; use [`Degrees::normalized`] to map into
/// `[0, 360)` (compass-heading convention) and
/// [`Degrees::signed_error_from`] for a difference in `(-180, 180]`.
///
/// # Example
///
/// ```
/// use fluxcomp_units::angle::Degrees;
///
/// let a = Degrees::new(350.0);
/// let b = Degrees::new(10.0);
/// // Shortest distance across north is 20°, not 340°.
/// assert_eq!(a.angular_distance(b), Degrees::new(20.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Degrees(f64);

/// An angle in radians.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Radians(f64);

impl Degrees {
    /// The zero angle.
    pub const ZERO: Self = Self(0.0);
    /// A full turn.
    pub const FULL_TURN: Self = Self(360.0);

    /// Wraps a raw value in degrees.
    #[inline]
    pub const fn new(value: f64) -> Self {
        Self(value)
    }

    /// Raw value in degrees.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to radians.
    #[inline]
    pub fn to_radians(self) -> Radians {
        Radians(self.0.to_radians())
    }

    /// Maps the angle into the compass-heading range `[0, 360)`.
    #[inline]
    pub fn normalized(self) -> Self {
        Self(self.0.rem_euclid(360.0))
    }

    /// Maps the angle into the signed range `(-180, 180]`.
    #[inline]
    fn wrapped_signed(self) -> Self {
        let mut a = self.0.rem_euclid(360.0);
        if a > 180.0 {
            a -= 360.0;
        }
        Self(a)
    }

    /// Unsigned shortest angular distance between two angles, in `[0, 180]`.
    ///
    /// This is the metric used for every accuracy figure in
    /// `EXPERIMENTS.md`: an indicated heading of 359.5° for a true heading
    /// of 0.2° is an error of 0.7°, not 359.3°.
    #[inline]
    pub fn angular_distance(self, other: Self) -> Self {
        (self - other).wrapped_signed().abs()
    }

    /// Signed shortest rotation taking `other` onto `self`, in `(-180, 180]`.
    #[inline]
    pub fn signed_error_from(self, other: Self) -> Self {
        (self - other).wrapped_signed()
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        Self(self.0.abs())
    }

    /// `true` when the value is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Larger of the two angles (by raw value).
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Sine of the angle.
    #[inline]
    pub fn sin(self) -> f64 {
        self.0.to_radians().sin()
    }

    /// Cosine of the angle.
    #[inline]
    pub fn cos(self) -> f64 {
        self.0.to_radians().cos()
    }

    /// Tangent of the angle.
    #[inline]
    pub fn tan(self) -> f64 {
        self.0.to_radians().tan()
    }

    /// The four-quadrant arctangent `atan2(y, x)` expressed in degrees.
    #[inline]
    pub fn atan2(y: f64, x: f64) -> Self {
        Self(y.atan2(x).to_degrees())
    }
}

impl Radians {
    /// The zero angle.
    pub const ZERO: Self = Self(0.0);

    /// Wraps a raw value in radians.
    #[inline]
    pub const fn new(value: f64) -> Self {
        Self(value)
    }

    /// Raw value in radians.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to degrees.
    #[inline]
    pub fn to_degrees(self) -> Degrees {
        Degrees(self.0.to_degrees())
    }

    /// Maps into `[0, 2π)`.
    #[inline]
    pub fn normalized(self) -> Self {
        Self(self.0.rem_euclid(std::f64::consts::TAU))
    }

    /// Sine of the angle.
    #[inline]
    pub fn sin(self) -> f64 {
        self.0.sin()
    }

    /// Cosine of the angle.
    #[inline]
    pub fn cos(self) -> f64 {
        self.0.cos()
    }
}

impl fmt::Display for Degrees {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}°", self.0)
    }
}

impl fmt::Display for Radians {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rad", self.0)
    }
}

impl From<Radians> for Degrees {
    #[inline]
    fn from(r: Radians) -> Self {
        r.to_degrees()
    }
}

impl From<Degrees> for Radians {
    #[inline]
    fn from(d: Degrees) -> Self {
        d.to_radians()
    }
}

macro_rules! angle_ops {
    ($name:ident) => {
        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }
        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }
        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }
        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }
        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }
        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }
        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }
        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }
    };
}

angle_ops!(Degrees);
angle_ops!(Radians);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_radian_round_trip() {
        let d = Degrees::new(123.456);
        let back = d.to_radians().to_degrees();
        assert!((back.value() - 123.456).abs() < 1e-12);
    }

    #[test]
    fn normalization_into_heading_range() {
        assert_eq!(Degrees::new(450.0).normalized(), Degrees::new(90.0));
        assert_eq!(Degrees::new(-90.0).normalized(), Degrees::new(270.0));
        assert_eq!(Degrees::new(360.0).normalized(), Degrees::new(0.0));
        assert_eq!(Degrees::new(0.0).normalized(), Degrees::new(0.0));
        assert_eq!(Degrees::new(-720.0).normalized(), Degrees::new(0.0));
    }

    #[test]
    fn wrapped_signed_range() {
        assert_eq!(Degrees::new(270.0).wrapped_signed(), Degrees::new(-90.0));
        assert_eq!(Degrees::new(180.0).wrapped_signed(), Degrees::new(180.0));
        assert_eq!(Degrees::new(-180.0).wrapped_signed(), Degrees::new(180.0));
        assert_eq!(Degrees::new(10.0).wrapped_signed(), Degrees::new(10.0));
    }

    #[test]
    fn angular_distance_across_north() {
        let a = Degrees::new(359.5);
        let b = Degrees::new(0.2);
        assert!((a.angular_distance(b).value() - 0.7).abs() < 1e-12);
        assert!((b.angular_distance(a).value() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn angular_distance_is_at_most_180() {
        for k in 0..720 {
            let a = Degrees::new(k as f64 * 0.77);
            let b = Degrees::new(k as f64 * -1.3);
            let d = a.angular_distance(b).value();
            assert!((0.0..=180.0).contains(&d), "distance {d} out of range");
        }
    }

    #[test]
    fn signed_error_has_direction() {
        // Indicated 5° for true 355°: error is +10° (clockwise).
        let e = Degrees::new(5.0).signed_error_from(Degrees::new(355.0));
        assert!((e.value() - 10.0).abs() < 1e-12);
        let e = Degrees::new(355.0).signed_error_from(Degrees::new(5.0));
        assert!((e.value() + 10.0).abs() < 1e-12);
    }

    #[test]
    fn atan2_quadrants() {
        assert!((Degrees::atan2(1.0, 1.0).value() - 45.0).abs() < 1e-12);
        assert!((Degrees::atan2(1.0, -1.0).value() - 135.0).abs() < 1e-12);
        assert!((Degrees::atan2(-1.0, -1.0).value() + 135.0).abs() < 1e-12);
        assert!((Degrees::atan2(-1.0, 1.0).value() + 45.0).abs() < 1e-12);
    }

    #[test]
    fn trig_matches_std() {
        let d = Degrees::new(30.0);
        assert!((d.sin() - 0.5).abs() < 1e-12);
        assert!((d.cos() - 3f64.sqrt() / 2.0).abs() < 1e-12);
        assert!((Degrees::new(45.0).tan() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn radian_normalization() {
        let r = Radians::new(3.0 * std::f64::consts::PI);
        assert!((r.normalized().value() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn conversion_traits() {
        let d: Degrees = Radians::new(std::f64::consts::PI).into();
        assert!((d.value() - 180.0).abs() < 1e-12);
        let r: Radians = Degrees::new(180.0).into();
        assert!((r.value() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(Degrees::new(90.0).to_string(), "90°");
        assert_eq!(Radians::new(1.5).to_string(), "1.5 rad");
    }
}
