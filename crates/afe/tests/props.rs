//! Property tests for the analogue front-end.

use fluxcomp_afe::comparator::Comparator;
use fluxcomp_afe::oscillator::{OffsetCorrection, TriangleWave};
use fluxcomp_afe::power::{PowerModel, Schedule};
use fluxcomp_afe::vi_converter::ViConverter;
use fluxcomp_units::si::{Ampere, Hertz, Ohm, Volt};
use proptest::prelude::*;

proptest! {
    /// The triangle wave is periodic and bounded by offset ± A/2.
    #[test]
    fn triangle_periodic_and_bounded(t in 0.0f64..1.0, offset_ma in -3.0f64..3.0) {
        let w = TriangleWave::new(
            Hertz::new(8_000.0),
            Ampere::new(12e-3),
            Ampere::new(offset_ma * 1e-3),
        );
        let period = 125e-6;
        let v = w.value(t).value();
        let v_next = w.value(t + period).value();
        prop_assert!((v - v_next).abs() < 1e-12);
        let lo = offset_ma * 1e-3 - 6e-3 - 1e-12;
        let hi = offset_ma * 1e-3 + 6e-3 + 1e-12;
        prop_assert!(v >= lo && v <= hi);
    }

    /// The slope has the right sign in each half period and constant
    /// magnitude.
    #[test]
    fn triangle_slope_signs(k in 0usize..1000) {
        let w = TriangleWave::paper_excitation();
        let period = 125e-6;
        let t = k as f64 / 1000.0 * period;
        let phase = (t / period).rem_euclid(1.0);
        let s = w.slope(t);
        prop_assert!((s.abs() - 192.0).abs() < 1e-9);
        if phase < 0.5 { prop_assert!(s > 0.0); } else { prop_assert!(s < 0.0); }
    }

    /// Mean-abs formula: numerically verified for arbitrary offsets.
    #[test]
    fn mean_abs_matches_numeric(offset_ma in -10.0f64..10.0) {
        let w = TriangleWave::paper_excitation().with_dc_offset(Ampere::new(offset_ma * 1e-3));
        let n = 20_000;
        let num: f64 = (0..n)
            .map(|k| w.value(k as f64 / n as f64 * 125e-6).value().abs())
            .sum::<f64>() / n as f64;
        prop_assert!((num - w.mean_abs().value()).abs() < 2e-6);
    }

    /// The offset-correction servo converges for any gain in (0, 1] and
    /// any initial offset.
    #[test]
    fn servo_converges(gain in 0.05f64..1.0, offset_ma in -5.0f64..5.0) {
        let mut servo = OffsetCorrection::new(gain);
        let initial = offset_ma.abs() * 1e-3;
        let mut wave = TriangleWave::paper_excitation()
            .with_dc_offset(Ampere::new(offset_ma * 1e-3));
        for _ in 0..400 {
            let measured = wave.mean();
            wave = servo.update(&wave, measured);
        }
        // Geometric convergence: |offset| shrinks by (1−gain) per step.
        let bound = initial * (1.0 - gain).powi(400) * 1.01 + 1e-12;
        prop_assert!(
            wave.dc_offset().value().abs() <= bound,
            "residual {} vs bound {bound}",
            wave.dc_offset()
        );
    }

    /// The V-I converter's output is always inside compliance and equals
    /// the demand when the demand is inside.
    #[test]
    fn vi_always_within_compliance(demand_ma in -100.0f64..100.0, r in 1.0f64..5_000.0) {
        let vi = ViConverter::paper_design();
        let load = Ohm::new(r);
        let demanded = Ampere::new(demand_ma * 1e-3);
        let out = vi.drive(demanded, load);
        let limit = vi.max_current(load).value();
        prop_assert!(out.value().abs() <= limit + 1e-15);
        if demanded.value().abs() <= limit {
            prop_assert_eq!(out, demanded);
            prop_assert!(!vi.clips(demanded, load));
        } else {
            prop_assert!(vi.clips(demanded, load));
        }
    }

    /// A comparator with hysteresis never changes output while the input
    /// stays inside the dead band.
    #[test]
    fn hysteresis_dead_band(inputs in prop::collection::vec(-0.04f64..0.04, 1..100)) {
        let mut c = Comparator::new(Volt::ZERO, Volt::new(0.1), Volt::ZERO);
        for v in inputs {
            // All inputs are within ±0.04 < ±0.05 (the trip points), so
            // the output stays low, where a new comparator starts.
            prop_assert!(!c.step(Volt::new(v)));
        }
    }

    /// Average power is monotone in the measurement duty and bounded by
    /// the always-on figure.
    #[test]
    fn power_monotone_in_duty(d1 in 0.0f64..1.0, d2 in 0.0f64..1.0) {
        let pm = PowerModel::at_5v();
        let p = |d: f64| pm.average_power(&Schedule::duty_cycled(d)).value();
        if d1 <= d2 {
            prop_assert!(p(d1) <= p(d2) + 1e-15);
        }
        prop_assert!(p(d1) <= pm.average_power(&Schedule::paper_multiplexed()).value() + 1e-15);
    }
}
