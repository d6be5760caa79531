//! X2 (extension) — tilt error and the three-axis remedy.
//!
//! The paper's compass "functions by measuring the magnetic field in a
//! horizontal plane"; this experiment quantifies what happens when the
//! watch is *not* level at the authors' latitude (67° dip), shows the
//! tilt-compensated three-axis extension recovering the heading, and
//! measures how circular smoothing steadies noisy repeated fixes.

use criterion::{criterion_group, Criterion};
use fluxcomp_bench::banner;
use fluxcomp_compass::filter::{circular_std, HeadingSmoother};
use fluxcomp_compass::tilt::{
    body_field, tilt_compensated_heading, two_axis_heading, worst_tilt_error, Attitude,
};
use fluxcomp_compass::{CompassConfig, CompassDesign, FixInput, MeasureScratch};
use fluxcomp_exec::{derive_seed, ExecPolicy};
use fluxcomp_fluxgate::earth::{EarthField, Location};
use fluxcomp_units::angle::Degrees;
use std::hint::black_box;

fn print_experiment() {
    banner(
        "X2",
        "tilt error and tilt compensation (extension)",
        "§2 'horizontal plane'",
    );

    let field = EarthField::at(Location::Enschede);
    eprintln!("  two-axis worst heading error vs pitch (Enschede, 67° dip):");
    eprintln!(
        "  {:>10} {:>14} {:>18}",
        "pitch [°]", "2-axis err [°]", "3-axis comp. [°]"
    );
    for pitch in [0.0, 2.0, 5.0, 10.0, 20.0] {
        let att = Attitude::new(Degrees::new(pitch), Degrees::ZERO);
        let raw = worst_tilt_error(&field, att, 36, &ExecPolicy::serial()).value();
        // Compensated worst error (exact attitude knowledge).
        let mut comp_worst = 0.0f64;
        for k in 0..36 {
            let truth = Degrees::new(k as f64 * 10.0);
            let (bx, by, bz) = body_field(&field, truth, att);
            let got = tilt_compensated_heading(bx, by, bz, att);
            comp_worst = comp_worst.max(got.angular_distance(truth).value());
        }
        eprintln!("  {pitch:>10.0} {raw:>14.2} {comp_worst:>18.6}");
    }
    eprintln!("  -> even 2° of pitch already eats most of the 1° budget at 67°");
    eprintln!("     dip; a third fluxgate + inclinometer removes the error.");

    eprintln!("\n  repeated noisy fixes, raw vs smoothed (sigma of 60 fixes):");
    let mut cfg = CompassConfig::paper_design();
    cfg.frontend.pickup_noise_rms = 2e-3;
    cfg.frontend.detector.hysteresis = fluxcomp_units::Volt::new(0.016);
    let design = CompassDesign::new(cfg).expect("valid");
    let base_seed = design.config().frontend.noise_seed;
    let truth = Degrees::new(123.0);
    let mut raw_fixes = Vec::new();
    let mut smoother = HeadingSmoother::new(0.25);
    let mut smoothed_tail = Vec::new();
    for k in 0..60u64 {
        // A fresh noise realisation per fix, deterministically derived.
        let fix = design
            .measure(
                &FixInput::heading(truth, derive_seed(base_seed, k)),
                None,
                &mut MeasureScratch::for_design(&design),
            )
            .heading;
        raw_fixes.push(fix);
        let s = smoother.update(fix);
        if k >= 20 {
            smoothed_tail.push(s);
        }
    }
    let raw_std = circular_std(&raw_fixes).unwrap().value();
    let smooth_std = circular_std(&smoothed_tail).unwrap().value();
    eprintln!("    raw fixes:      sigma = {raw_std:.3}°");
    eprintln!("    smoothed (α=0.25): sigma = {smooth_std:.3}°");
}

fn bench(c: &mut Criterion) {
    print_experiment();

    let mut group = c.benchmark_group("x2_tilt");

    let field = EarthField::at(Location::Enschede);
    let att = Attitude::new(Degrees::new(10.0), Degrees::new(-5.0));
    group.bench_function("body_field_rotation", |b| {
        b.iter(|| black_box(body_field(&field, black_box(Degrees::new(123.0)), att)))
    });
    group.bench_function("tilt_compensated_heading", |b| {
        let (bx, by, bz) = body_field(&field, Degrees::new(123.0), att);
        b.iter(|| black_box(tilt_compensated_heading(bx, by, bz, att)))
    });
    group.bench_function("two_axis_heading", |b| {
        b.iter(|| {
            black_box(two_axis_heading(
                &field,
                black_box(Degrees::new(123.0)),
                att,
            ))
        })
    });

    let mut smoother = HeadingSmoother::new(0.25);
    group.bench_function("heading_smoother_update", |b| {
        b.iter(|| black_box(smoother.update(black_box(Degrees::new(90.5)))))
    });

    // The 360-point tilt scan on the sweep engine, serial vs pooled.
    let serial = ExecPolicy::serial();
    let auto = ExecPolicy::auto();
    group.bench_function("tilt_scan_360_serial", |b| {
        b.iter(|| black_box(worst_tilt_error(&field, att, 360, &serial)))
    });
    group.bench_function("tilt_scan_360_parallel", |b| {
        b.iter(|| black_box(worst_tilt_error(&field, att, 360, &auto)))
    });
    group.finish();
}

criterion_group!(benches, bench);
fluxcomp_bench::bench_main!(benches);
