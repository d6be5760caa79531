//! Property-based tests on the workspace's core data structures and
//! invariants, spanning crates.

use fluxcomp::mcm::interconnect_test;
use fluxcomp::mcm::substrate::{Die, Fault, McmAssembly};
use fluxcomp::mcm::{Instruction, TapChain};
use fluxcomp::rtl::adc::SarAdc;
use fluxcomp::rtl::cordic::CordicArctan;
use fluxcomp::rtl::counter::UpDownCounter;
use fluxcomp::units::{Degrees, Volt};
use proptest::prelude::*;

proptest! {
    /// Angle normalisation always lands in [0, 360) and preserves the
    /// angle modulo 360.
    #[test]
    fn normalization_invariants(raw in -100_000.0f64..100_000.0) {
        let d = Degrees::new(raw).normalized();
        prop_assert!((0.0..360.0).contains(&d.value()));
        let delta = (d.value() - raw).rem_euclid(360.0);
        prop_assert!(delta.abs() < 1e-6 || (delta - 360.0).abs() < 1e-6);
    }

    /// Angular distance is a metric: symmetric, bounded by 180,
    /// zero iff equal (mod 360).
    #[test]
    fn angular_distance_metric(a in 0.0f64..720.0, b in 0.0f64..720.0) {
        let da = Degrees::new(a);
        let db = Degrees::new(b);
        let d1 = da.angular_distance(db).value();
        let d2 = db.angular_distance(da).value();
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!((0.0..=180.0).contains(&d1));
        prop_assert!(da.angular_distance(da).value() < 1e-12);
    }

    /// The 8-iteration CORDIC is always within its analytic error bound
    /// of f64 atan2, for any representative counter outputs.
    #[test]
    fn cordic_within_error_bound(x in -4_000i64..4_000, y in -4_000i64..4_000) {
        prop_assume!(x != 0 || y != 0);
        prop_assume!(x.abs().max(y.abs()) >= 16); // tiny vectors carry no angle info
        let cordic = CordicArctan::paper();
        let got = cordic.heading(x, y).unwrap().heading;
        let reference = Degrees::atan2(y as f64, x as f64).normalized();
        let bound = cordic.error_bound().value() + 4.0 / x.abs().max(y.abs()) as f64 * 57.3;
        prop_assert!(
            got.angular_distance(reference).value() <= bound,
            "({x},{y}): {} vs {} (bound {bound})", got, reference
        );
    }

    /// CORDIC magnitude invariance: scaling the input vector leaves the
    /// heading (nearly) unchanged — claim C9 at the unit level.
    #[test]
    fn cordic_scale_invariance(x in 100i64..2_000, y in 100i64..2_000, k in 2i64..8) {
        let cordic = CordicArctan::paper();
        let a = cordic.heading(x, y).unwrap().heading;
        let b = cordic.heading(x * k, y * k).unwrap().heading;
        prop_assert!(a.angular_distance(b).value() < 0.75, "{a} vs {b}");
    }

    /// The up/down counter's final value equals ups − downs (within
    /// saturation limits).
    #[test]
    fn counter_counts(stream in prop::collection::vec(any::<bool>(), 0..2_000)) {
        let mut counter = UpDownCounter::new(16);
        let ups = stream.iter().filter(|&&b| b).count() as i64;
        let downs = stream.len() as i64 - ups;
        let got = counter.run(stream.iter().copied());
        prop_assert_eq!(got, ups - downs);
    }

    /// SAR ADC is monotonic and within 1 LSB of the ideal transfer.
    #[test]
    fn adc_monotone_and_accurate(v1 in -1.0f64..1.0, v2 in -1.0f64..1.0) {
        let adc = SarAdc::new(10, Volt::new(1.0));
        let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
        let c_lo = adc.convert(Volt::new(lo));
        let c_hi = adc.convert(Volt::new(hi));
        prop_assert!(c_lo <= c_hi);
        let back = adc.reconstruct(c_lo).value();
        prop_assert!((back - lo).abs() <= adc.lsb().value());
    }

    /// What the SoG die launches in EXTEST, every die captures (the
    /// sensors under SAMPLE) and shifts out unchanged and in order. Nets
    /// the sensors drive float low, since their pins are not under test.
    #[test]
    fn boundary_chain_round_trip(bits in prop::collection::vec(any::<bool>(), 17)) {
        let module = McmAssembly::paper_module();
        let mut chain = TapChain::new(&module);
        chain.reset();
        chain.load_instructions(&[Instruction::Sample; 3]);
        chain.scan_dr(&bits); // preloads every update latch
        chain.load_instructions(&[Instruction::Extest, Instruction::Sample, Instruction::Sample]);
        let out = chain.scan_dr(&[false; 17]);
        // The SoG die's cell k sits on net k.
        let expected: Vec<bool> = chain
            .cells()
            .map(|(_, net)| module.nets()[net].driver == Die::SeaOfGates && bits[net])
            .collect();
        prop_assert_eq!(out, expected);
    }

    /// Any single open or adjacent short on the paper's MCM is caught by
    /// the EXTEST counting-sequence test.
    #[test]
    fn any_single_fault_detected(pick in 0usize..17) {
        let module = McmAssembly::paper_module();
        let faults = module.all_single_faults();
        let fault = faults[pick % faults.len()];
        let mut dut = module.clone();
        dut.inject(fault);
        prop_assert!(!interconnect_test::run(&dut).passed(), "{fault:?} escaped");
    }

    /// Shorting two arbitrary distinct nets is also detected (beyond the
    /// adjacent-pair universe used for the coverage figure).
    #[test]
    fn arbitrary_shorts_detected(a in 0usize..9, b in 0usize..9) {
        prop_assume!(a != b);
        let module = McmAssembly::paper_module();
        let mut dut = module.clone();
        dut.inject(Fault::Short { a, b });
        prop_assert!(!interconnect_test::run(&dut).passed());
    }
}

/// Slow whole-pipeline property: keep case counts small — every case
/// runs two transient front-end simulations.
mod pipeline_props {
    use fluxcomp::compass::{CompassConfig, CompassDesign};
    use fluxcomp::fluxgate::earth::EarthField;
    use fluxcomp::units::{Degrees, Tesla};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]
        /// Any heading, any horizontal field in the paper's range: the
        /// full mixed-signal pipeline stays within the 1° spec (plus the
        /// counter's ±1-count wobble at the weakest field).
        #[test]
        fn end_to_end_accuracy_holds_everywhere(
            heading in 0.0f64..360.0,
            ut in 12.0f64..70.0,
        ) {
            let mut cfg = CompassConfig::paper_design();
            cfg.field = EarthField::horizontal(Tesla::from_microtesla(ut));
            let compass = CompassDesign::new(cfg).expect("valid config");
            let truth = Degrees::new(heading);
            let got = compass.measure_heading(truth).heading;
            let err = got.angular_distance(truth).value();
            prop_assert!(err <= 1.05, "at {heading}° / {ut} µT: err {err}");
        }
    }
}
