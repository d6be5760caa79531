//! E4 — claim C9: heading is insensitive to the local field magnitude
//! ("25 µT in South America … 65 µT near the south pole").
//!
//! Runs the full mixed-signal pipeline at every predefined location plus
//! a pure-magnitude sweep at zero inclination, and shows the hard-iron
//! calibration ablation. Times a complete compass fix.

use criterion::{criterion_group, Criterion};
use fluxcomp_bench::banner;
use fluxcomp_compass::calibration::Calibration;
use fluxcomp_compass::evaluate::sweep_headings;
use fluxcomp_compass::{CompassConfig, CompassDesign};
use fluxcomp_exec::ExecPolicy;
use fluxcomp_fluxgate::earth::{EarthField, Location, MagneticDisturbance};
use fluxcomp_units::angle::Degrees;
use fluxcomp_units::magnetics::Tesla;
use std::hint::black_box;

fn print_experiment() {
    banner(
        "E4",
        "heading accuracy vs local field magnitude",
        "§4, claim C9",
    );

    eprintln!("  pure-magnitude sweep (horizontal field, 16 headings):");
    eprintln!(
        "  {:>8} {:>12} {:>12}",
        "B [µT]", "max err [°]", "rms err [°]"
    );
    for ut in [10.0, 15.0, 25.0, 40.0, 55.0, 65.0] {
        let mut cfg = CompassConfig::paper_design();
        cfg.field = EarthField::horizontal(Tesla::from_microtesla(ut));
        let design = CompassDesign::new(cfg).expect("valid config");
        let stats = sweep_headings(&design, 16, &ExecPolicy::serial());
        eprintln!(
            "  {ut:>8.0} {:>12.3} {:>12.3}",
            stats.max_error.value(),
            stats.rms_error.value()
        );
    }

    eprintln!("\n  world tour (real inclination — only the horizontal part is usable):");
    eprintln!(
        "  {:>14} {:>9} {:>10} {:>12}",
        "location", "B [µT]", "B_h [µT]", "max err [°]"
    );
    let policy = ExecPolicy::auto();
    for location in Location::ALL {
        let design = CompassDesign::new(CompassConfig::at_location(location)).expect("valid");
        let stats = sweep_headings(&design, 12, &policy);
        let f = design.config().field;
        eprintln!(
            "  {:>14} {:>9.0} {:>10.1} {:>12.3}",
            format!("{location:?}"),
            f.total().as_microtesla(),
            f.horizontal_magnitude().as_microtesla(),
            stats.max_error.value()
        );
    }

    eprintln!("\n  ablation: 4 µT hard iron, raw vs rotation-calibrated (4 headings):");
    let mut cfg = CompassConfig::paper_design();
    cfg.pair.disturbance =
        MagneticDisturbance::hard(Tesla::from_microtesla(4.0), Tesla::from_microtesla(-2.0));
    let compass = CompassDesign::new(cfg).expect("valid");
    let cal = Calibration::rotate(&compass, 16);
    let mut worst_raw = 0.0f64;
    let mut worst_cal = 0.0f64;
    for deg in [20.0, 110.0, 200.0, 290.0] {
        let t = Degrees::new(deg);
        let raw = compass.measure_heading(t).heading;
        let corrected = cal.corrected_heading(&compass, t);
        worst_raw = worst_raw.max(raw.angular_distance(t).value());
        worst_cal = worst_cal.max(corrected.angular_distance(t).value());
    }
    eprintln!("  raw worst error:        {worst_raw:.2}°");
    eprintln!("  calibrated worst error: {worst_cal:.2}°");
}

fn bench(c: &mut Criterion) {
    print_experiment();

    let mut group = c.benchmark_group("e4_field_magnitude");
    group.sample_size(10);

    let compass = CompassDesign::new(CompassConfig::paper_design()).expect("valid");
    group.bench_function("full_compass_fix", |b| {
        b.iter(|| {
            black_box(
                compass
                    .measure_heading(black_box(Degrees::new(123.0)))
                    .heading,
            )
        })
    });

    let weak = CompassDesign::new(CompassConfig::at_location(Location::SouthPole)).expect("valid");
    group.bench_function("full_fix_weak_horizontal_field", |b| {
        b.iter(|| black_box(weak.measure_heading(black_box(Degrees::new(123.0))).heading))
    });
    group.finish();

    // The acceptance sweep of the parallel engine: a full 360-point
    // heading sweep, serial vs. one-worker-per-core. The two produce
    // bit-identical AccuracyStats (tests/determinism.rs); here we time
    // them against each other.
    let design = CompassDesign::new(CompassConfig::paper_design()).expect("valid");
    let serial = ExecPolicy::serial();
    let auto = ExecPolicy::auto();
    let mut sweep = c.benchmark_group("e4_sweep_360_headings");
    sweep.sample_size(3);
    sweep.bench_function("serial", |b| {
        b.iter(|| black_box(sweep_headings(&design, 360, &serial)))
    });
    sweep.bench_function(&format!("parallel_{}_threads", auto.threads()), |b| {
        b.iter(|| black_box(sweep_headings(&design, 360, &auto)))
    });
    sweep.finish();
}

criterion_group!(benches, bench);
fluxcomp_bench::bench_main!(benches);
