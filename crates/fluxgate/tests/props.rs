//! Property tests for the sensor physics.

use fluxcomp_fluxgate::core_model::{CoreModel, Sweep};
use fluxcomp_fluxgate::earth::{EarthField, MagneticDisturbance};
use fluxcomp_fluxgate::pair::{SensorPair, SensorPairParams};
use fluxcomp_fluxgate::transducer::{Fluxgate, FluxgateParams};
use fluxcomp_units::magnetics::{AmperePerMeter, Tesla};
use fluxcomp_units::si::Ampere;
use fluxcomp_units::Degrees;
use proptest::prelude::*;

proptest! {
    /// The anhysteretic B(H) curve is strictly increasing (µ > 0
    /// everywhere) and odd.
    #[test]
    fn anhysteretic_monotone_and_odd(h1 in -500.0f64..500.0, h2 in -500.0f64..500.0) {
        let m = CoreModel::anhysteretic(Tesla::new(0.5), AmperePerMeter::new(40.0));
        let b1 = m.b(AmperePerMeter::new(h1), Sweep::Up).value();
        let b2 = m.b(AmperePerMeter::new(h2), Sweep::Up).value();
        if h1 < h2 {
            prop_assert!(b1 < b2);
        }
        let bneg = m.b(AmperePerMeter::new(-h1), Sweep::Up).value();
        prop_assert!((b1 + bneg).abs() < 1e-12);
        prop_assert!(m.mu_diff(AmperePerMeter::new(h1), Sweep::Up) > 0.0);
    }

    /// |B| never exceeds B_sat + µ0·|H| (the physical bound).
    #[test]
    fn flux_density_bounded(h in -1e5f64..1e5) {
        let m = CoreModel::anhysteretic(Tesla::new(0.5), AmperePerMeter::new(40.0));
        let b = m.b(AmperePerMeter::new(h), Sweep::Up).value().abs();
        let bound = 0.5 + fluxcomp_units::MU_0 * h.abs() + 1e-12;
        prop_assert!(b <= bound);
    }

    /// Current → field → current round-trips through the transducer.
    #[test]
    fn transducer_current_field_bijection(ma in -50.0f64..50.0) {
        let s = Fluxgate::new(FluxgateParams::adapted());
        let i = Ampere::new(ma * 1e-3);
        let back = s.current_for_field(s.h_from_current(i));
        prop_assert!((back.value() - i.value()).abs() < 1e-15);
    }

    /// Pickup EMF is linear in the field slew rate.
    #[test]
    fn pickup_emf_linear_in_slew(h in -200.0f64..200.0, slew in 1e3f64..1e7) {
        let s = Fluxgate::new(FluxgateParams::adapted());
        let ha = AmperePerMeter::new(h);
        let v1 = s.pickup_emf(ha, slew).value();
        let v2 = s.pickup_emf(ha, 2.0 * slew).value();
        prop_assert!((v2 - 2.0 * v1).abs() < 1e-9 * v1.abs().max(1e-12));
    }

    /// The earth-model heading round-trip holds for any heading and any
    /// nonzero horizontal field.
    #[test]
    fn earth_heading_round_trip(heading in 0.0f64..360.0, ut in 1.0f64..80.0) {
        let f = EarthField::horizontal(Tesla::from_microtesla(ut));
        let (bx, by) = f.body_components(Degrees::new(heading));
        let back = Degrees::atan2(by.value(), bx.value()).normalized();
        prop_assert!(back.angular_distance(Degrees::new(heading)).value() < 1e-9);
    }

    /// Disturbance application is affine: applying to a sum equals the
    /// sum of applications minus one extra offset.
    #[test]
    fn disturbance_is_affine(bx in -50.0f64..50.0, by in -50.0f64..50.0,
                              ox in -5.0f64..5.0, oy in -5.0f64..5.0) {
        let d = MagneticDisturbance {
            hard_iron: (Tesla::from_microtesla(ox), Tesla::from_microtesla(oy)),
            soft_iron: [[1.1, 0.05], [-0.03, 0.95]],
        };
        let a = (Tesla::from_microtesla(bx), Tesla::from_microtesla(by));
        let b = (Tesla::from_microtesla(by), Tesla::from_microtesla(bx));
        let (sx, sy) = d.apply(a.0 + b.0, a.1 + b.1);
        let (ax, ay) = d.apply(a.0, a.1);
        let (bx2, by2) = d.apply(b.0, b.1);
        // f(a+b) = f(a) + f(b) − offset.
        prop_assert!((sx.value() - (ax.value() + bx2.value() - d.hard_iron.0.value())).abs() < 1e-18);
        prop_assert!((sy.value() - (ay.value() + by2.value() - d.hard_iron.1.value())).abs() < 1e-18);
    }

    /// An ideal pair recovers any heading exactly from its axial fields.
    #[test]
    fn ideal_pair_recovers_heading(heading in 0.0f64..360.0) {
        let pair = SensorPair::new(SensorPairParams::ideal());
        let f = EarthField::horizontal(Tesla::from_microtesla(20.0));
        let (hx, hy) = pair.axial_fields(&f, Degrees::new(heading));
        let est = Degrees::atan2(hy.value(), hx.value()).normalized();
        prop_assert!(est.angular_distance(Degrees::new(heading)).value() < 1e-9);
    }
}
