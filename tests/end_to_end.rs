//! End-to-end integration tests: the whole signal chain of Fig. 1,
//! exercised across crate boundaries.

use fluxcomp::compass::evaluate::sweep_headings;
use fluxcomp::compass::{CompassConfig, CompassDesign, SecondHarmonicCompass};
use fluxcomp::exec::ExecPolicy;
use fluxcomp::fluxgate::earth::{EarthField, Location};
use fluxcomp::rtl::lcd::{DisplayDriver, DisplayMode, SegmentPattern};
use fluxcomp::units::{Degrees, Tesla};

/// The paper's headline claim, end to end: sensor physics → analogue
/// front-end → counter → CORDIC, within 1° over the circle.
#[test]
fn headline_one_degree_accuracy() {
    let design = CompassDesign::new(CompassConfig::paper_design()).expect("valid config");
    let stats = sweep_headings(&design, 36, &ExecPolicy::serial());
    assert!(
        stats.meets_one_degree_spec(),
        "max error {} over 36 headings",
        stats.max_error
    );
    // Zero systematic bias: the trailing-edge detector symmetry works.
    assert!(stats.bias.value().abs() < 0.2, "bias {}", stats.bias);
}

/// C9: the heading survives the paper's 25–65 µT magnitude range.
#[test]
fn magnitude_insensitivity_25_to_65_microtesla() {
    for ut in [25.0, 45.0, 65.0] {
        let mut cfg = CompassConfig::paper_design();
        cfg.field = EarthField::horizontal(Tesla::from_microtesla(ut));
        let design = CompassDesign::new(cfg).expect("valid");
        let stats = sweep_headings(&design, 12, &ExecPolicy::serial());
        assert!(
            stats.meets_one_degree_spec(),
            "at {ut} µT: max error {}",
            stats.max_error
        );
    }
}

/// The measured counts match the analytic transfer function
/// `count = f_clk · T_window · H/H_peak` within quantisation.
#[test]
fn counter_transfer_function_matches_theory() {
    let compass = CompassDesign::new(CompassConfig::paper_design()).expect("valid");
    let reading = compass.measure_heading(Degrees::new(0.0));
    let h = compass.config().field.horizontal_magnitude().value() / fluxcomp::units::MU_0;
    let h_peak = compass.peak_excitation_field().value();
    let window = 8.0 / 8_000.0;
    let expected = 4_194_304.0 * window * h / h_peak;
    let got = (-reading.x.count) as f64;
    assert!(
        (got - expected).abs() < 0.02 * expected + 4.0,
        "count {got} vs theory {expected}"
    );
}

/// Multiplexing: the X and Y measurements are independent runs of the
/// single shared channel, and swapping the platform by 90° swaps them.
#[test]
fn ninety_degree_rotation_swaps_axes() {
    let compass = CompassDesign::new(CompassConfig::paper_design()).expect("valid");
    let r0 = compass.measure_heading(Degrees::new(0.0));
    let r90 = compass.measure_heading(Degrees::new(90.0));
    assert_eq!(r0.x.count, r90.y.count, "X at north == Y at east");
    assert!(r0.y.count.abs() < 6);
    assert!(r90.x.count.abs() < 6);
}

/// The second-harmonic baseline agrees with pulse-position at high ADC
/// resolution — they measure the same physics.
#[test]
fn baselines_agree_on_the_field_direction() {
    let pp = CompassDesign::new(CompassConfig::paper_design()).expect("valid");
    let sh = SecondHarmonicCompass::new(CompassConfig::paper_design(), 12).expect("valid");
    for deg in [40.0, 130.0, 220.0, 310.0] {
        let t = Degrees::new(deg);
        let a = pp.measure_heading(t).heading;
        let b = sh.measure_heading(t);
        assert!(
            a.angular_distance(b).value() < 4.0,
            "at {deg}: pulse-position {a} vs second-harmonic {b}"
        );
    }
}

/// The watch + compass share one chip: display switches between modes
/// and renders the heading the pipeline produced.
#[test]
fn display_integration() {
    let compass = CompassDesign::new(CompassConfig::paper_design()).expect("valid");
    let mut display = DisplayDriver::new();
    display.latch_heading(compass.measure_heading(Degrees::new(270.0)).heading);
    let frame = display.frame();
    assert_eq!(frame.digits[0], SegmentPattern::digit(2));
    assert_eq!(frame.digits[1], SegmentPattern::digit(7));
    assert_eq!(frame.digits[2], SegmentPattern::digit(0));
    // 270° shows W (rendered as U).
    assert_eq!(frame.digits[4], SegmentPattern::letter('W').unwrap());

    display.latch_time(fluxcomp::rtl::watch::TimeOfDay::new(12, 0, 0));
    display.set_mode(DisplayMode::Time);
    assert!(display.frame().colons);
}

/// Steep-inclination stress: near the pole only ~5.7 µT horizontal
/// remains. The compass still produces a *usable* heading (the paper's
/// spec is about normal latitudes; we document the degradation).
#[test]
fn south_pole_degrades_gracefully() {
    let design =
        CompassDesign::new(CompassConfig::at_location(Location::SouthPole)).expect("valid");
    let stats = sweep_headings(&design, 8, &ExecPolicy::serial());
    assert!(
        stats.max_error.value() < 5.0,
        "polar error should stay bounded: {}",
        stats.max_error
    );
}

/// Determinism: the whole mixed-signal pipeline is bit-reproducible.
#[test]
fn pipeline_is_deterministic() {
    let a = CompassDesign::new(CompassConfig::paper_design()).expect("valid");
    let b = CompassDesign::new(CompassConfig::paper_design()).expect("valid");
    for deg in [11.0, 97.0, 203.0] {
        let ra = a.measure_heading(Degrees::new(deg));
        let rb = b.measure_heading(Degrees::new(deg));
        assert_eq!(ra.heading, rb.heading);
        assert_eq!(ra.x.count, rb.x.count);
        assert_eq!(ra.y.count, rb.y.count);
    }
}
