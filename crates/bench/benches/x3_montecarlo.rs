//! X3 (extension) — Monte-Carlo yield of the 1° specification.
//!
//! The paper designs "to broad specifications so it can operate with
//! fluxgate sensors which will be realised in near future" — a yield
//! argument. This experiment quantifies it: sample the component
//! tolerances a real production run would see (sensor `H_K`, excitation
//! amplitude, comparator offset, pair gain mismatch and misalignment),
//! run the full pipeline, and report the fraction of "manufactured"
//! compasses that meet the 1° spec.

use criterion::{criterion_group, Criterion};
use fluxcomp_bench::banner;
use fluxcomp_compass::{CompassConfig, CompassDesign};
use fluxcomp_exec::ExecPolicy;
use fluxcomp_msim::montecarlo::{run_monte_carlo, Tolerance};
use fluxcomp_units::angle::Degrees;
use fluxcomp_units::si::{Ampere, Volt};
use std::hint::black_box;

/// Worst heading error over a coarse probe set for one sampled unit.
fn unit_worst_error(factors: &[f64]) -> f64 {
    let mut cfg = CompassConfig::paper_design();
    // factors: [hk, i_pp, comparator offset (additive, scaled), gain, misalignment]
    cfg.pair.element.core = fluxcomp_fluxgate::core_model::CoreModel::anhysteretic(
        cfg.pair.element.core.bsat(),
        cfg.pair.element.core.hk() * factors[0],
    );
    cfg.frontend.sensor = cfg.pair.element;
    cfg.frontend.excitation = cfg
        .frontend
        .excitation
        .with_amplitude_pp(Ampere::new(12e-3 * factors[1]));
    cfg.frontend.detector.offset = Volt::new((factors[2] - 1.0) * 0.05); // ±mV-scale offsets
    cfg.pair.gain_mismatch = factors[3];
    cfg.pair.misalignment = Degrees::new((factors[4] - 1.0) * 20.0); // ±deg-scale
    let compass = match CompassDesign::new(cfg) {
        Ok(c) => c,
        Err(_) => return f64::INFINITY,
    };
    let mut worst = 0.0f64;
    for deg in [10.0, 100.0, 190.0, 280.0] {
        let t = Degrees::new(deg);
        let got = compass.measure_heading(t).heading;
        worst = worst.max(got.angular_distance(t).value());
    }
    worst
}

fn print_experiment() {
    banner(
        "X3",
        "Monte-Carlo yield of the 1° spec (extension)",
        "§6 'broad specifications'",
    );

    let tolerances = [
        Tolerance::Gaussian { rel_sigma: 0.05 }, // sensor H_K: ±5 % process
        Tolerance::Gaussian { rel_sigma: 0.02 }, // excitation amplitude
        Tolerance::Gaussian { rel_sigma: 0.04 }, // comparator offset (±2 mV σ)
        Tolerance::Gaussian { rel_sigma: 0.01 }, // pair gain mismatch ±1 %
        Tolerance::Gaussian { rel_sigma: 0.01 }, // misalignment (±0.2° σ)
    ];
    // One sampled unit is ~100 ms of transient simulation: ideal grain
    // for the worker pool, and (per-trial seeding) bit-identical to the
    // serial harness.
    let result = run_monte_carlo(
        &tolerances,
        60,
        0xC0FFEE,
        &ExecPolicy::auto(),
        |s| unit_worst_error(s),
        |m| m <= 1.0,
    );
    eprintln!("  60 sampled units, 4 probe headings each:");
    eprintln!(
        "    yield (worst error ≤ 1°): {:.0} %",
        result.yield_fraction() * 100.0
    );
    eprintln!("    median worst error: {:.3}°", result.quantile(0.5));
    eprintln!("    90th percentile:    {:.3}°", result.quantile(0.9));
    eprintln!("    worst sampled unit: {:.3}°", result.quantile(1.0));

    // Sensitivity: which tolerance matters? Re-run with each parameter
    // alone widened to 3x.
    eprintln!("\n  one-at-a-time widening (x3 the sigma), yield impact:");
    for (k, name) in ["H_K", "I_pp", "comp offset", "gain match", "alignment"]
        .iter()
        .enumerate()
    {
        let mut widened = tolerances;
        widened[k] = match tolerances[k] {
            Tolerance::Gaussian { rel_sigma } => Tolerance::Gaussian {
                rel_sigma: 3.0 * rel_sigma,
            },
            t => t,
        };
        let r = run_monte_carlo(
            &widened,
            40,
            0xC0FFEE,
            &ExecPolicy::auto(),
            |s| unit_worst_error(s),
            |m| m <= 1.0,
        );
        eprintln!(
            "    {name:<12} -> yield {:.0} %",
            r.yield_fraction() * 100.0
        );
    }
}

fn bench(c: &mut Criterion) {
    print_experiment();

    let mut group = c.benchmark_group("x3_montecarlo");
    group.sample_size(10);
    group.bench_function("one_sampled_unit", |b| {
        b.iter(|| {
            black_box(unit_worst_error(black_box(&[
                1.02, 0.99, 1.01, 1.002, 0.999,
            ])))
        })
    });

    // A 12-unit yield batch through the full pipeline, serial harness
    // vs the worker pool.
    let tolerances = [
        Tolerance::Gaussian { rel_sigma: 0.05 },
        Tolerance::Gaussian { rel_sigma: 0.02 },
        Tolerance::Gaussian { rel_sigma: 0.04 },
        Tolerance::Gaussian { rel_sigma: 0.01 },
        Tolerance::Gaussian { rel_sigma: 0.01 },
    ];
    group.sample_size(3);
    group.bench_function("yield_12_units_serial", |b| {
        b.iter(|| {
            black_box(run_monte_carlo(
                &tolerances,
                12,
                0xC0FFEE,
                &ExecPolicy::serial(),
                |s| unit_worst_error(s),
                |m| m <= 1.0,
            ))
        })
    });
    group.bench_function("yield_12_units_parallel", |b| {
        let auto = ExecPolicy::auto();
        b.iter(|| {
            black_box(run_monte_carlo(
                &tolerances,
                12,
                0xC0FFEE,
                &auto,
                |s| unit_worst_error(s),
                |m| m <= 1.0,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
fluxcomp_bench::bench_main!(benches);
