//! Built-in self-test (BIST).
//!
//! A fielded compass watch needs a way to verify its own signal chain
//! without a calibrated field source. The architecture offers one for
//! free: the oscillator's **dc-offset trim** can be deliberately
//! mis-set. A dc offset in the excitation current is indistinguishable
//! from an external axial field of `H = N·I_offset/l` — so injecting a
//! known offset must move the counter output by a predictable number of
//! counts. Checking that the response (a) appears, (b) has the right
//! gain within tolerance and (c) disappears again when the offset is
//! removed exercises the oscillator, V-I converter, detector and
//! counter in one pass, and catches severe sensor faults (open pickup,
//! non-saturating core).
//!
//! Coverage note: because the injected quantity is a *current*, the
//! test's gain is the current ratio `I_offset/I_peak` — it cannot see a
//! current-starved drive whose pulses still form (see the blind-spot
//! test). That fault class is covered by the MCM interconnect test and
//! the functional field check.

use crate::config::CompassConfig;
use crate::system::{CompassDesign, FixInput, MeasureScratch};
use fluxcomp_fluxgate::transducer::Fluxgate;
use fluxcomp_units::magnetics::AmperePerMeter;
use fluxcomp_units::si::Ampere;

/// The self-test verdict for one channel.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTestReport {
    /// Counter output with no stimulus (ambient only; the test assumes
    /// a magnetically quiet environment or uses the delta).
    pub baseline_count: i64,
    /// Counter output with the test offset injected.
    pub stimulated_count: i64,
    /// The count change the injected offset should produce.
    pub expected_delta: f64,
    /// Relative gain error of the measured delta.
    pub gain_error: f64,
    /// The verdict.
    pub passed: bool,
}

/// Gain tolerance of the pass criterion.
pub const GAIN_TOLERANCE: f64 = 0.10;

/// Runs the dc-injection self-test on one front-end channel.
///
/// `test_offset` is the deliberate excitation-current offset (the
/// paper's offset-correction DAC run open-loop); 0.5 mA is a good
/// stimulus: ≈20 A/m of equivalent field, well inside the linear range.
pub fn run_self_test(config: &CompassConfig, test_offset: Ampere) -> SelfTestReport {
    // The X count of one zero-field fix, seeded from the configuration.
    let count_of = |cfg: CompassConfig| {
        let design = CompassDesign::new(cfg).expect("self-test config is valid");
        let input = FixInput::vector(
            AmperePerMeter::ZERO,
            AmperePerMeter::ZERO,
            design.config().frontend.noise_seed,
        );
        let mut scratch = MeasureScratch::for_design(&design);
        design.measure(&input, None, &mut scratch).x.count
    };

    let baseline_count = count_of(config.clone());
    let mut stimulated = config.clone();
    stimulated.frontend.excitation = stimulated.frontend.excitation.with_dc_offset(test_offset);
    let stimulated_count = count_of(stimulated);

    // Expected: the offset looks like H = N·I/l; counts = −f_clk·T·H/H_peak.
    // The expectation is the *factory-programmed* constant, computed from
    // the design point — NOT from the unit under test, or a unit with a
    // drifted drive would happily validate itself.
    let design = CompassDesign::new(CompassConfig::paper_design()).expect("paper design is valid");
    let h_equiv = Fluxgate::new(design.config().pair.element).h_from_current(test_offset);
    let h_peak = design.peak_excitation_field();
    let window =
        config.frontend.measure_periods as f64 / config.frontend.excitation.frequency().value();
    let expected_delta = -config.clock.master().value() * window * h_equiv.value() / h_peak.value();
    let measured_delta = (stimulated_count - baseline_count) as f64;
    let gain_error = if expected_delta.abs() < 1.0 {
        f64::INFINITY
    } else {
        (measured_delta - expected_delta).abs() / expected_delta.abs()
    };
    SelfTestReport {
        baseline_count,
        stimulated_count,
        expected_delta,
        gain_error,
        passed: gain_error <= GAIN_TOLERANCE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxcomp_units::si::Ohm;

    #[test]
    fn healthy_channel_passes() {
        let report = run_self_test(&CompassConfig::paper_design(), Ampere::new(0.5e-3));
        assert!(report.passed, "gain error {}", report.gain_error);
        assert_eq!(report.baseline_count, 0, "quiet environment, no field");
        // 0.5 mA → 20 A/m → −4194·20/240 ≈ −350 counts; the exact count
        // pins the bits of the measure path.
        assert_eq!(report.stimulated_count, -348);
    }

    #[test]
    fn open_pickup_fails() {
        // A broken pickup path (cracked coil / open MCM trace) modelled
        // as a collapsed coupling area: the EMF drops to microvolts, the
        // detector never fires, the counter rails — caught immediately.
        let mut cfg = CompassConfig::paper_design();
        cfg.pair.element.core_area = 1e-12;
        cfg.frontend.sensor = cfg.pair.element;
        let report = run_self_test(&cfg, Ampere::new(0.5e-3));
        assert!(!report.passed, "open pickup must fail: {report:?}");
    }

    #[test]
    fn current_starved_drive_is_a_known_blind_spot() {
        // Instructive negative result: a huge series resistance clips
        // the drive to microamps, yet the self-test PASSES — because the
        // dc-injection gain is the *current ratio* I_offset/I_peak and
        // the pulse positions still shift by I_offset/(dI/dt), both
        // independent of how much field actually reaches the core. Such
        // a unit fails in the field (the earth's ~12 A/m dwarfs its
        // 0.2 A/m sweep), which is why production test also runs the
        // boundary-scan interconnect test (E10) and a functional check
        // in a known field.
        let mut cfg = CompassConfig::paper_design();
        cfg.pair.element.r_excitation = Ohm::new(1e6);
        cfg.frontend.sensor = cfg.pair.element;
        let report = run_self_test(&cfg, Ampere::new(0.5e-3));
        assert!(report.passed, "documented blind spot: {report:?}");
    }

    #[test]
    fn weak_drive_fails_the_gain_check() {
        // A drifted oscillator delivering only 70 % of the excitation
        // amplitude: H_peak drops, the duty shift per injected ampere
        // grows by 1/0.7, and the factory-programmed expectation catches
        // the ~43 % gain error.
        let mut cfg = CompassConfig::paper_design();
        cfg.frontend.excitation = cfg
            .frontend
            .excitation
            .with_amplitude_pp(Ampere::new(12e-3 * 0.7));
        let report = run_self_test(&cfg, Ampere::new(0.5e-3));
        assert!(
            !report.passed,
            "weak drive must fail: err {}",
            report.gain_error
        );
    }

    #[test]
    fn moderate_hk_drift_is_invisible_to_the_gain() {
        // Doubling H_K halves the core's sensitivity margin but NOT the
        // self-test gain: the duty transfer is set by the *drive* field
        // H_peak, not by the film — the same ratio argument as claim C9.
        // (At 2x H_K the drive still saturates the core, so pulses exist
        // and the test passes; see the next test for the breakdown.)
        let mut cfg = CompassConfig::paper_design();
        cfg.pair.element.core = fluxcomp_fluxgate::core_model::CoreModel::anhysteretic(
            cfg.pair.element.core.bsat(),
            cfg.pair.element.core.hk() * 2.0,
        );
        cfg.frontend.sensor = cfg.pair.element;
        let report = run_self_test(&cfg, Ampere::new(0.5e-3));
        assert!(report.passed, "2x H_K should still pass: {report:?}");
    }

    #[test]
    fn severe_hk_drift_fails() {
        // 4x H_K: the 12 mA drive no longer saturates the core — the
        // pulses vanish and the self-test reports the dead channel.
        let mut cfg = CompassConfig::paper_design();
        cfg.pair.element.core = fluxcomp_fluxgate::core_model::CoreModel::anhysteretic(
            cfg.pair.element.core.bsat(),
            cfg.pair.element.core.hk() * 4.0,
        );
        cfg.frontend.sensor = cfg.pair.element;
        let report = run_self_test(&cfg, Ampere::new(0.5e-3));
        assert!(!report.passed, "4x H_K must fail: {report:?}");
    }

    #[test]
    fn stimulus_polarity_matters() {
        let pos = run_self_test(&CompassConfig::paper_design(), Ampere::new(0.5e-3));
        let neg = run_self_test(&CompassConfig::paper_design(), Ampere::new(-0.5e-3));
        assert!(pos.passed && neg.passed);
        assert!(pos.stimulated_count < 0 && neg.stimulated_count > 0);
        // Symmetric up to the detector's edge quantisation (±2 counts).
        assert!(
            (pos.stimulated_count + neg.stimulated_count).abs() <= 4,
            "{} vs {}",
            pos.stimulated_count,
            neg.stimulated_count
        );
    }

    #[test]
    fn tiny_stimulus_is_rejected_as_inconclusive() {
        // A stimulus below one count of effect cannot judge gain.
        let report = run_self_test(&CompassConfig::paper_design(), Ampere::new(1e-9));
        assert!(!report.passed);
        assert!(report.gain_error.is_infinite());
    }
}
