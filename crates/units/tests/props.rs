//! Property tests for the quantity and angle types.

use fluxcomp_units::magnetics::{AmperePerMeter, Oersted, Tesla};
use fluxcomp_units::si::{Ampere, Hertz, Ohm, Volt};
use fluxcomp_units::{Degrees, Radians};
use proptest::prelude::*;

proptest! {
    /// Ohm's law round-trips: (V/R)·R == V within float tolerance.
    #[test]
    fn ohms_law_round_trip(v in 0.001f64..100.0, r in 0.1f64..1e7) {
        let volt = Volt::new(v);
        let ohm = Ohm::new(r);
        let back = (volt / ohm) * ohm;
        prop_assert!((back.value() - v).abs() < 1e-9 * v.max(1.0));
    }

    /// Power is commutative and scales bilinearly.
    #[test]
    fn power_bilinear(v in 0.0f64..10.0, i in 0.0f64..1.0, k in 0.1f64..10.0) {
        let p1 = Volt::new(v) * Ampere::new(i);
        let p2 = Ampere::new(i) * Volt::new(v);
        prop_assert_eq!(p1, p2);
        let scaled = Volt::new(v * k) * Ampere::new(i);
        prop_assert!((scaled.value() - k * p1.value()).abs() < 1e-9 * p1.value().max(1e-12) * k.max(1.0));
    }

    /// Period/frequency are inverse bijections on positive reals.
    #[test]
    fn period_frequency_inverse(f in 1e-3f64..1e9) {
        let hz = Hertz::new(f);
        let back = hz.period().frequency();
        prop_assert!((back.value() - f).abs() < 1e-9 * f);
    }

    /// Degrees ↔ radians round-trips.
    #[test]
    fn angle_conversion_round_trip(d in -1e6f64..1e6) {
        let deg = Degrees::new(d);
        let back = deg.to_radians().to_degrees();
        prop_assert!((back.value() - d).abs() < 1e-6 * d.abs().max(1.0));
        let rad = Radians::new(d / 1000.0);
        let back = rad.to_degrees().to_radians();
        prop_assert!((back.value() - d / 1000.0).abs() < 1e-9 * (d / 1000.0).abs().max(1.0));
    }

    /// The triangle inequality holds for angular distance.
    #[test]
    fn angular_triangle_inequality(a in 0.0f64..360.0, b in 0.0f64..360.0, c in 0.0f64..360.0) {
        let (da, db, dc) = (Degrees::new(a), Degrees::new(b), Degrees::new(c));
        let ab = da.angular_distance(db).value();
        let bc = db.angular_distance(dc).value();
        let ac = da.angular_distance(dc).value();
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    /// Oersted ↔ A/m conversion is a linear bijection.
    #[test]
    fn oersted_round_trip(oe in -1e3f64..1e3) {
        let h = Oersted::new(oe).to_ampere_per_meter();
        let back = h.to_oersted();
        prop_assert!((back.value() - oe).abs() < 1e-9 * oe.abs().max(1.0));
        // Linearity.
        let h2 = Oersted::new(2.0 * oe).to_ampere_per_meter();
        prop_assert!((h2.value() - 2.0 * h.value()).abs() < 1e-9 * h.value().abs().max(1.0));
    }

    /// B = µ0·H round-trips through both directions.
    #[test]
    fn b_h_round_trip(h in -1e5f64..1e5) {
        let b = AmperePerMeter::new(h).to_tesla_in_air();
        let back = b.to_ampere_per_meter_in_air();
        prop_assert!((back.value() - h).abs() < 1e-9 * h.abs().max(1.0));
    }

    /// Microtesla helpers are exact inverses.
    #[test]
    fn microtesla_round_trip(ut in -1e3f64..1e3) {
        let b = Tesla::from_microtesla(ut);
        prop_assert!((b.as_microtesla() - ut).abs() < 1e-9 * ut.abs().max(1.0));
    }
}
