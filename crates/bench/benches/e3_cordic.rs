//! E3 — Fig. 8 / claims C1, C8: the CORDIC arctangent.
//!
//! Regenerates the accuracy-vs-iterations table behind the paper's
//! "8 cycles … accuracy of one degree", checks the transliterated Fig. 8
//! kernel against `f64::atan2`, and times the unit (behavioural and as
//! the synthesised gate-level micro-rotation).

use criterion::{criterion_group, Criterion};
use fluxcomp_bench::banner;
use fluxcomp_exec::{par_map_range, ExecPolicy};
use fluxcomp_rtl::cordic::CordicArctan;
use fluxcomp_rtl::netsim::GateSim;
use fluxcomp_rtl::synth::cordic_step;
use fluxcomp_units::angle::Degrees;
use std::hint::black_box;

fn worst_error_par(iterations: u32, radius: f64, policy: &ExecPolicy) -> f64 {
    let c = CordicArctan::new(iterations);
    let errors = par_map_range(policy, 1440, |k| {
        let truth = k as f64 * 0.25;
        let x = (radius * Degrees::new(truth).cos()).round() as i64;
        let y = (radius * Degrees::new(truth).sin()).round() as i64;
        if x == 0 && y == 0 {
            return 0.0;
        }
        let got = c.heading(x, y).expect("nonzero").heading;
        let reference = Degrees::atan2(y as f64, x as f64).normalized();
        got.angular_distance(reference).value()
    });
    errors.into_iter().fold(0.0f64, f64::max)
}

fn worst_error(iterations: u32, radius: f64) -> f64 {
    worst_error_par(iterations, radius, &ExecPolicy::serial())
}

fn print_experiment() {
    banner(
        "E3",
        "CORDIC accuracy vs iteration count (1440 headings, r = 2096)",
        "Fig. 8, claims C1/C8",
    );
    eprintln!(
        "  {:>11} {:>16} {:>16} {:>8}",
        "iterations", "worst err [°]", "bound [°]", "1° spec"
    );
    for n in [1u32, 2, 4, 6, 8, 10, 12, 16] {
        let worst = worst_error(n, 2096.0);
        let bound = CordicArctan::new(n).error_bound().value();
        eprintln!(
            "  {n:>11} {worst:>16.4} {bound:>16.4} {:>8}",
            if worst <= 1.0 { "PASS" } else { "miss" }
        );
    }
    eprintln!("\n  -> the paper's 8 iterations are the first power-friendly point under 1°");
}

fn bench(c: &mut Criterion) {
    print_experiment();

    let mut group = c.benchmark_group("e3_cordic");

    let cordic = CordicArctan::paper();
    group.bench_function("heading_8_iterations", |b| {
        b.iter(|| black_box(cordic.heading(black_box(1432), black_box(-983)).unwrap()))
    });

    let cordic16 = CordicArctan::new(16);
    group.bench_function("heading_16_iterations", |b| {
        b.iter(|| black_box(cordic16.heading(black_box(1432), black_box(-983)).unwrap()))
    });

    group.bench_function("f64_atan2_reference", |b| {
        b.iter(|| black_box(Degrees::atan2(black_box(-983.0), black_box(1432.0))))
    });

    // The accuracy scan on the sweep engine: 1440 microsecond-scale
    // CORDIC tasks per scan, so the pool's grab size (not task
    // granularity) decides whether it pays off.
    let serial = ExecPolicy::serial();
    let auto = ExecPolicy::auto();
    group.bench_function("accuracy_scan_1440_serial", |b| {
        b.iter(|| black_box(worst_error_par(black_box(8), 2096.0, &serial)))
    });
    group.bench_function("accuracy_scan_1440_parallel", |b| {
        b.iter(|| black_box(worst_error_par(black_box(8), 2096.0, &auto)))
    });

    // One gate-level micro-rotation through the event-driven simulator —
    // the "Compass Design Automation" path of the reproduction.
    let (nl, x_in, y_in, x_out, y_out, _) = cordic_step(24, 3);
    group.bench_function("gate_level_micro_rotation_24bit", |b| {
        let mut sim = GateSim::new(nl.clone());
        b.iter(|| {
            sim.set_bus(&x_in, black_box(183_296));
            sim.set_bus(&y_in, black_box(125_824));
            sim.settle();
            black_box((sim.bus_value_signed(&x_out), sim.bus_value_signed(&y_out)))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
fluxcomp_bench::bench_main!(benches);
