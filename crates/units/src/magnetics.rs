//! Magnetic quantities: flux density ([`Tesla`]), field strength
//! ([`AmperePerMeter`]) and the CGS [`Oersted`] used throughout the fluxgate
//! literature the paper cites.
//!
//! The paper quotes the \[Kaw95\] sensor's anisotropy/saturation field as
//! `H_K = 1 Oe` and the earth's field as 25–65 µT, so both unit systems
//! appear in the reproduction. The conversions:
//!
//! * `1 Oe = 1000/(4π) A/m ≈ 79.577 A/m`
//! * in vacuum/air, `B = µ₀·H`, so `1 Oe ↔ 0.1 mT = 100 µT` exactly
//!   (the CGS gauss).

use crate::si::quantity;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Vacuum permeability `µ₀` in H/m (SI 2019 exact-ish value).
pub const MU_0: f64 = 1.256_637_061_27e-6;

quantity!(
    /// Magnetic flux density `B` in tesla.
    Tesla,
    "T"
);
quantity!(
    /// Magnetic field strength `H` in ampere per metre.
    AmperePerMeter,
    "A/m"
);
quantity!(
    /// Magnetic field strength in the CGS oersted, the unit the fluxgate
    /// literature (e.g. \[Kaw95\]'s `H_K = 1 Oe`) uses.
    Oersted,
    "Oe"
);

/// `1 Oe` expressed in A/m: `1000/(4π)`.
const AMPERE_PER_METER_PER_OERSTED: f64 = 1000.0 / (4.0 * std::f64::consts::PI);

impl Oersted {
    /// Converts to SI field strength.
    #[inline]
    pub fn to_ampere_per_meter(self) -> AmperePerMeter {
        AmperePerMeter::new(self.0 * AMPERE_PER_METER_PER_OERSTED)
    }

    /// Flux density this field produces in vacuum/air (`B = µ₀H`);
    /// numerically `1 Oe → 100 µT`.
    #[inline]
    pub fn to_tesla_in_air(self) -> Tesla {
        self.to_ampere_per_meter().to_tesla_in_air()
    }
}

impl AmperePerMeter {
    /// Converts to the CGS oersted.
    #[inline]
    pub fn to_oersted(self) -> Oersted {
        Oersted::new(self.0 / AMPERE_PER_METER_PER_OERSTED)
    }

    /// Flux density in vacuum/air: `B = µ₀·H`.
    #[inline]
    pub fn to_tesla_in_air(self) -> Tesla {
        Tesla::new(MU_0 * self.0)
    }
}

impl Tesla {
    /// Constructs a flux density from a value in microtesla — the natural
    /// unit for the earth's field (25–65 µT per the paper).
    #[inline]
    pub const fn from_microtesla(ut: f64) -> Self {
        Self(ut * 1e-6)
    }

    /// The value in microtesla.
    #[inline]
    pub const fn as_microtesla(self) -> f64 {
        self.0 * 1e6
    }

    /// Equivalent field strength in vacuum/air: `H = B/µ₀`.
    #[inline]
    pub fn to_ampere_per_meter_in_air(self) -> AmperePerMeter {
        AmperePerMeter::new(self.0 / MU_0)
    }
}

impl From<Oersted> for AmperePerMeter {
    #[inline]
    fn from(oe: Oersted) -> Self {
        oe.to_ampere_per_meter()
    }
}

impl From<AmperePerMeter> for Oersted {
    #[inline]
    fn from(h: AmperePerMeter) -> Self {
        h.to_oersted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oersted_to_si() {
        let h = Oersted::new(1.0).to_ampere_per_meter();
        assert!((h.value() - 79.577_471_545_9).abs() < 1e-6);
    }

    #[test]
    fn oersted_round_trip() {
        let oe = Oersted::new(0.6283);
        let back = oe.to_ampere_per_meter().to_oersted();
        assert!((back.value() - 0.6283).abs() < 1e-12);
    }

    #[test]
    fn one_oersted_is_100_microtesla_in_air() {
        let b = Oersted::new(1.0).to_tesla_in_air();
        assert!((b.as_microtesla() - 100.0).abs() < 0.01);
    }

    #[test]
    fn kaw95_saturation_is_about_15x_earth_field() {
        // The paper: the [Kaw95] sensor saturates at H_K = 1 Oe, about
        // 15× the earth's field. 1 Oe ≈ 100 µT; 15× a mid-latitude earth
        // field of ~6.7 µT horizontal... the paper uses the full-field
        // comparison: 100 µT / 15 ≈ 6.7 µT is unrealistically small for
        // the *total* field but matches the *horizontal component* in NL.
        // We simply check the ratio arithmetic the paper quotes.
        let hk = Oersted::new(1.0).to_tesla_in_air();
        let earth_equiv = hk / 15.0;
        assert!((earth_equiv.as_microtesla() - 6.666_667).abs() < 0.01);
    }

    #[test]
    fn microtesla_helpers() {
        let b = Tesla::from_microtesla(50.0);
        assert!((b.value() - 50e-6).abs() < 1e-18);
        assert!((b.as_microtesla() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn b_h_round_trip_in_air() {
        let h = AmperePerMeter::new(40.0);
        let b = h.to_tesla_in_air();
        let back = b.to_ampere_per_meter_in_air();
        assert!((back.value() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn conversion_traits() {
        let h: AmperePerMeter = Oersted::new(2.0).into();
        assert!((h.value() - 159.154_943).abs() < 1e-3);
        let oe: Oersted = AmperePerMeter::new(79.577_471_545_9).into();
        assert!((oe.value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = Tesla::from_microtesla(30.0);
        let b = Tesla::from_microtesla(20.0);
        assert!(((a + b).as_microtesla() - 50.0).abs() < 1e-9);
        assert!(((a - b).as_microtesla() - 10.0).abs() < 1e-9);
        assert!(((-a).as_microtesla() + 30.0).abs() < 1e-9);
        assert!((a / b - 1.5).abs() < 1e-12);
        assert_eq!(a.signum(), 1.0);
        assert_eq!(Tesla::ZERO.signum(), 0.0);
    }

    #[test]
    fn display() {
        assert_eq!(Tesla::new(5e-5).to_string(), "0.00005 T");
        assert_eq!(Oersted::new(1.0).to_string(), "1 Oe");
        assert_eq!(AmperePerMeter::new(40.0).to_string(), "40 A/m");
    }
}
