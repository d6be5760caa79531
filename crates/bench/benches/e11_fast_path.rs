//! E11 — the duty-only fast measurement path.
//!
//! The production hot path (`FrontEnd::measure` fused with the up/down
//! counter through a precomputed `ClockSchedule`) against the
//! diagnostic full-waveform tier: first the **bit-identity check** over
//! a full 360° sweep — both tiers must produce the same `AccuracyStats`
//! to the last bit — then the throughput comparison, recorded as a
//! machine-readable `BENCH_sweep.json` for regression tracking.

use criterion::{criterion_group, Criterion};
use fluxcomp_bench::{banner, write_bench_json};
use fluxcomp_compass::evaluate::{sweep_headings, sweep_headings_traced};
use fluxcomp_compass::{CompassConfig, CompassDesign, FixInput, MeasureScratch};
use fluxcomp_exec::ExecPolicy;
use fluxcomp_obs::{AggregatingRecorder, Recorder};
use fluxcomp_units::Degrees;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Serial fixes per second of `fix`, timed over `n` calls.
fn fixes_per_second(n: usize, mut fix: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for k in 0..n {
        fix(k);
    }
    n as f64 / start.elapsed().as_secs_f64()
}

fn print_experiment() -> std::io::Result<()> {
    banner(
        "E11",
        "duty-only fast path vs full-waveform diagnostic tier",
        "perf: precomputed excitation table + allocation-free scratch",
    );

    let design = CompassDesign::new(CompassConfig::paper_design()).expect("valid design");
    let policy = ExecPolicy::auto();
    let headings = 360usize;

    // Contract first: the two tiers are the same computation.
    let fast = sweep_headings(&design, headings, &policy);
    let traced = sweep_headings_traced(&design, headings, &policy);
    let bit_identical = [
        (fast.max_error, traced.max_error),
        (fast.mean_error, traced.mean_error),
        (fast.rms_error, traced.rms_error),
        (fast.bias, traced.bias),
    ]
    .iter()
    .all(|(f, t)| f.value().to_bits() == t.value().to_bits());
    assert!(
        bit_identical && fast.samples == traced.samples,
        "fast and traced sweeps must agree bit for bit"
    );
    eprintln!("  360° sweep, fast vs traced AccuracyStats: bit-identical ✓");
    eprintln!(
        "  max err {:.4}°, rms {:.4}° (spec ≤ 1°: {})",
        fast.max_error.value(),
        fast.rms_error.value(),
        fast.meets_one_degree_spec()
    );

    // Serial throughput of one complete fix (both axes), fresh vs the
    // two tiers. Enough fixes to dwarf timer noise, few enough to keep
    // `cargo bench` turnaround sane.
    let seed = design.config().frontend.noise_seed;
    let mut scratch = MeasureScratch::for_design(&design);
    let fast_fixes = 96;
    let fps_fast = fixes_per_second(fast_fixes, |k| {
        let truth = Degrees::new(k as f64 * 3.75);
        black_box(design.measure_heading_scratch(truth, seed, &mut scratch));
    });
    let fps_traced = fixes_per_second(32, |k| {
        let truth = Degrees::new(k as f64 * 11.25);
        black_box(design.measure_traced(&FixInput::heading(truth, seed)));
    });
    let speedup = fps_fast / fps_traced;

    // Analogue samples the fast path actually steps per fix, counted by
    // the program's own `msim.analog_steps` over an untimed rerun of the
    // same fixes: a noise-free design folds after two of its nine
    // periods per axis, so this is below the grid's sample count.
    let fe = &design.config().frontend;
    let grid_per_fix = 2 * (fe.settle_periods + fe.measure_periods) * fe.samples_per_period;
    let counted = Arc::new(AggregatingRecorder::new());
    {
        let _scope = fluxcomp_obs::scope(counted.clone());
        for k in 0..fast_fixes {
            let truth = Degrees::new(k as f64 * 3.75);
            black_box(design.measure_heading_scratch(truth, seed, &mut scratch));
        }
    }
    let steps = counted.snapshot().counter("msim.analog_steps").unwrap_or(0);
    let samples_per_fix = steps as f64 / fast_fixes as f64;

    eprintln!("  serial throughput (one fix = X + Y axis):");
    eprintln!("    traced tier : {fps_traced:>9.1} fixes/s");
    eprintln!("    fast path   : {fps_fast:>9.1} fixes/s  ({speedup:.2}x)");
    eprintln!(
        "    fast path   : {samples_per_fix:.0} of {grid_per_fix} grid samples stepped per fix, \
         {:.2e} stepped samples/s",
        fps_fast * samples_per_fix
    );

    let path = write_bench_json(
        "BENCH_sweep.json",
        "e11_fast_path",
        &[
            ("headings", headings as f64),
            ("fixes_per_s_traced", fps_traced),
            ("fixes_per_s_fast", fps_fast),
            ("speedup", speedup),
            ("samples_per_s_fast", fps_fast * samples_per_fix),
            ("bit_identical", f64::from(u8::from(bit_identical))),
        ],
    )?;
    eprintln!("  -> {}", path.display());
    Ok(())
}

fn bench(c: &mut Criterion) {
    print_experiment().expect("bench artefact written");

    let design = CompassDesign::new(CompassConfig::paper_design()).expect("valid design");
    let seed = design.config().frontend.noise_seed;
    let truth = Degrees::new(123.0);

    let mut group = c.benchmark_group("e11_fast_path");
    group.sample_size(20);
    group.bench_function("fix_traced", |b| {
        b.iter(|| black_box(design.measure_traced(&FixInput::heading(black_box(truth), seed))))
    });
    group.bench_function("fix_fast_fresh", |b| {
        b.iter(|| {
            black_box(design.measure(
                &FixInput::heading(black_box(truth), seed),
                None,
                &mut MeasureScratch::for_design(&design),
            ))
        })
    });
    let mut scratch = MeasureScratch::for_design(&design);
    group.bench_function("fix_fast_scratch", |b| {
        b.iter(|| black_box(design.measure_heading_scratch(black_box(truth), seed, &mut scratch)))
    });
    group.finish();
}

criterion_group!(benches, bench);
fluxcomp_bench::bench_main!(benches);
