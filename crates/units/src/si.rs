//! SI circuit quantities as `f64` newtypes with physically meaningful
//! arithmetic.
//!
//! Every quantity supports addition/subtraction with itself, scaling by a
//! bare `f64`, negation and ordering. Cross-quantity operators are provided
//! only where the physics of the compass front-end needs them (Ohm's law,
//! capacitor charge, reactive impedance magnitude, power, period/frequency).
//!
//! The types are deliberately *not* a full dimensional-analysis system:
//! the goal is to catch the unit mix-ups that actually occur when modelling
//! the paper's analogue section, with zero runtime cost.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Generates an `f64` newtype quantity with standard arithmetic — the SI
/// quantities here and the magnetic ones of [`crate::magnetics`].
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw value expressed in the quantity's unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns the raw value in the quantity's unit.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// `true` when the value is finite (neither NaN nor infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps the value to the inclusive range `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` (mirrors [`f64::clamp`]).
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// The sign of the value: `-1.0`, `0.0` or `1.0`.
            #[inline]
            pub fn signum(self) -> f64 {
                if self.0 == 0.0 { 0.0 } else { self.0.signum() }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

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

        impl MulAssign<f64> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl DivAssign<f64> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f64) {
                self.0 /= rhs;
            }
        }

        /// Ratio of two like quantities is dimensionless.
        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl From<$name> for f64 {
            #[inline]
            fn from(q: $name) -> f64 {
                q.0
            }
        }
    };
}

pub(crate) use quantity;

quantity!(
    /// Electric potential in volts.
    Volt,
    "V"
);
quantity!(
    /// Electric current in amperes.
    Ampere,
    "A"
);
quantity!(
    /// Resistance in ohms.
    Ohm,
    "Ω"
);
quantity!(
    /// Capacitance in farads.
    Farad,
    "F"
);
quantity!(
    /// Inductance in henries.
    Henry,
    "H"
);
quantity!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
quantity!(
    /// Time in seconds.
    Seconds,
    "s"
);
quantity!(
    /// Power in watts.
    Watt,
    "W"
);
quantity!(
    /// Electric charge in coulombs.
    Coulomb,
    "C"
);
quantity!(
    /// Energy in joules.
    Joule,
    "J"
);

// ---- Cross-quantity physics ------------------------------------------------

/// Ohm's law: `V = I · R`.
impl Mul<Ohm> for Ampere {
    type Output = Volt;
    #[inline]
    fn mul(self, rhs: Ohm) -> Volt {
        Volt::new(self.value() * rhs.value())
    }
}

/// Ohm's law: `V = R · I`.
impl Mul<Ampere> for Ohm {
    type Output = Volt;
    #[inline]
    fn mul(self, rhs: Ampere) -> Volt {
        Volt::new(self.value() * rhs.value())
    }
}

/// Ohm's law: `I = V / R`.
impl Div<Ohm> for Volt {
    type Output = Ampere;
    #[inline]
    fn div(self, rhs: Ohm) -> Ampere {
        Ampere::new(self.value() / rhs.value())
    }
}

/// Ohm's law: `R = V / I`.
impl Div<Ampere> for Volt {
    type Output = Ohm;
    #[inline]
    fn div(self, rhs: Ampere) -> Ohm {
        Ohm::new(self.value() / rhs.value())
    }
}

/// Electrical power: `P = V · I`.
impl Mul<Ampere> for Volt {
    type Output = Watt;
    #[inline]
    fn mul(self, rhs: Ampere) -> Watt {
        Watt::new(self.value() * rhs.value())
    }
}

/// Electrical power: `P = I · V`.
impl Mul<Volt> for Ampere {
    type Output = Watt;
    #[inline]
    fn mul(self, rhs: Volt) -> Watt {
        Watt::new(self.value() * rhs.value())
    }
}

/// Capacitor charge: `Q = C · V`.
impl Mul<Volt> for Farad {
    type Output = Coulomb;
    #[inline]
    fn mul(self, rhs: Volt) -> Coulomb {
        Coulomb::new(self.value() * rhs.value())
    }
}

/// Charge delivered by a constant current: `Q = I · t`.
impl Mul<Seconds> for Ampere {
    type Output = Coulomb;
    #[inline]
    fn mul(self, rhs: Seconds) -> Coulomb {
        Coulomb::new(self.value() * rhs.value())
    }
}

/// Capacitor voltage from charge: `V = Q / C`.
impl Div<Farad> for Coulomb {
    type Output = Volt;
    #[inline]
    fn div(self, rhs: Farad) -> Volt {
        Volt::new(self.value() / rhs.value())
    }
}

/// Energy delivered over time: `E = P · t`.
impl Mul<Seconds> for Watt {
    type Output = Joule;
    #[inline]
    fn mul(self, rhs: Seconds) -> Joule {
        Joule::new(self.value() * rhs.value())
    }
}

/// Average power from energy over time: `P = E / t`.
impl Div<Seconds> for Joule {
    type Output = Watt;
    #[inline]
    fn div(self, rhs: Seconds) -> Watt {
        Watt::new(self.value() / rhs.value())
    }
}

impl Hertz {
    /// Period of one cycle: `T = 1 / f`.
    ///
    /// # Panics
    ///
    /// Does not panic; a zero frequency yields an infinite period, which is
    /// the mathematically consistent answer.
    #[inline]
    pub fn period(self) -> Seconds {
        Seconds::new(1.0 / self.value())
    }
}

impl Seconds {
    /// Frequency whose period is this duration: `f = 1 / T`.
    #[inline]
    pub fn frequency(self) -> Hertz {
        Hertz::new(1.0 / self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ohms_law_round_trip() {
        let v = Volt::new(5.0);
        let r = Ohm::new(800.0);
        let i = v / r;
        assert!((i.value() - 0.00625).abs() < 1e-15);
        let back = i * r;
        assert!((back.value() - 5.0).abs() < 1e-12);
        assert!(((v / i).value() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn power_is_volt_times_ampere_both_orders() {
        let p1 = Volt::new(5.0) * Ampere::new(0.012);
        let p2 = Ampere::new(0.012) * Volt::new(5.0);
        assert_eq!(p1, p2);
        assert!((p1.value() - 0.06).abs() < 1e-15);
    }

    #[test]
    fn capacitor_charge_and_voltage() {
        // The paper's 10 pF oscillator capacitor charged to 2.5 V.
        let c = Farad::new(10e-12);
        let q = c * Volt::new(2.5);
        assert!((q.value() - 25e-12).abs() < 1e-20);
        let v = q / c;
        assert!((v.value() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn period_frequency_inverse() {
        let f = Hertz::new(8_000.0);
        let t = f.period();
        assert!((t.value() - 125e-6).abs() < 1e-12);
        assert!((t.frequency().value() - 8_000.0).abs() < 1e-6);
    }

    #[test]
    fn counter_clock_period() {
        // The paper's 4.194304 MHz counter clock: period ≈ 238.42 ns.
        let t = Hertz::new(4_194_304.0).period();
        assert!((t.value() - 2.384185791015625e-7).abs() < 1e-20);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Volt::new(1.5);
        let b = Volt::new(0.5);
        assert_eq!(a + b, Volt::new(2.0));
        assert_eq!(a - b, Volt::new(1.0));
        assert_eq!(-a, Volt::new(-1.5));
        assert_eq!(a * 2.0, Volt::new(3.0));
        assert_eq!(2.0 * a, Volt::new(3.0));
        assert_eq!(a / 3.0, Volt::new(0.5));
        assert!((a / b - 3.0).abs() < 1e-15);
    }

    #[test]
    fn assign_ops() {
        let mut v = Volt::new(1.0);
        v += Volt::new(2.0);
        assert_eq!(v, Volt::new(3.0));
        v -= Volt::new(1.0);
        assert_eq!(v, Volt::new(2.0));
        v *= 2.0;
        assert_eq!(v, Volt::new(4.0));
        v /= 4.0;
        assert_eq!(v, Volt::new(1.0));
    }

    #[test]
    fn min_max_clamp_abs_signum() {
        let a = Ampere::new(-0.012);
        assert_eq!(a.abs(), Ampere::new(0.012));
        assert_eq!(a.signum(), -1.0);
        assert_eq!(Ampere::ZERO.signum(), 0.0);
        assert_eq!(a.max(Ampere::ZERO), Ampere::ZERO);
        assert_eq!(a.min(Ampere::ZERO), a);
        assert_eq!(
            Ampere::new(5.0).clamp(Ampere::ZERO, Ampere::new(1.0)),
            Ampere::new(1.0)
        );
    }

    #[test]
    fn sum_of_quantities() {
        let total: Watt = (1..=4).map(|k| Watt::new(k as f64)).sum();
        assert_eq!(total, Watt::new(10.0));
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Volt::new(5.0).to_string(), "5 V");
        assert_eq!(Hertz::new(8000.0).to_string(), "8000 Hz");
        assert_eq!(Ohm::new(77.0).to_string(), "77 Ω");
    }

    #[test]
    fn energy_power_time() {
        let e = Watt::new(0.06) * Seconds::new(10.0);
        assert!((e.value() - 0.6).abs() < 1e-15);
        let p = e / Seconds::new(10.0);
        assert!((p.value() - 0.06).abs() < 1e-15);
    }

    #[test]
    fn zero_constant_and_default_agree() {
        assert_eq!(Volt::ZERO, Volt::default());
        assert_eq!(Volt::ZERO.value(), 0.0);
    }

    #[test]
    fn finiteness() {
        assert!(Volt::new(1.0).is_finite());
        assert!(!Volt::new(f64::NAN).is_finite());
        assert!(!(Hertz::new(0.0).period()).is_finite());
    }
}
