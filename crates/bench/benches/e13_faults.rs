//! E13 — fault injection and graceful degradation.
//!
//! Three determinism/robustness gates, then a fix-quality mix under a
//! live faulty server, all recorded to `BENCH_faults.json`:
//!
//! 1. **Zero-fault transparency** — an empty `FaultPlan` through the
//!    faulted entry points reproduces the clean fast path bit for bit.
//! 2. **Seeded fault determinism** — faulted fixes are a pure function
//!    of the fix seed: reordering the workload moves nothing.
//! 3. **Degradation bounds** — with an open X pickup, `Good` fixes stay
//!    inside the paper's 1° spec, `Degraded` single-axis fallbacks stay
//!    bounded, and large-error fixes are never flagged `Good`.
//! 4. **Served quality mix** — an in-process fix server under a 25%
//!    open-pickup plan still answers ≥ 99% of fixes non-`Invalid`.
//!
//! The criterion group times the fault tax: a faulted measurement
//! against the clean fast path, and plan compilation alone.

use criterion::{criterion_group, Criterion};
use fluxcomp_bench::{banner, write_bench_json};
use fluxcomp_compass::{
    CompassConfig, CompassDesign, DegradedTracker, FixInput, FixQuality, MeasureScratch,
};
use fluxcomp_exec::derive_seed;
use fluxcomp_faults::{AxisSel, FaultKind, FaultPlan, FaultSpec};
use fluxcomp_serve::{loadgen, FixServer, LoadGenConfig, ServeConfig};
use fluxcomp_units::Degrees;
use std::hint::black_box;

fn noisy_design() -> CompassDesign {
    let mut cfg = CompassConfig::paper_design();
    cfg.frontend.pickup_noise_rms = 2e-3;
    CompassDesign::new(cfg).expect("valid design")
}

fn angular_error(heading: f64, truth: f64) -> f64 {
    let d = (heading - truth).abs() % 360.0;
    d.min(360.0 - d)
}

/// Gate 1: the zero-fault plan moves no bits.
fn gate_zero_plan_transparent(design: &CompassDesign) -> bool {
    let plan = FaultPlan::none();
    let mut clean_scratch = MeasureScratch::for_design(design);
    let mut fault_scratch = MeasureScratch::for_design(design);
    (0..24u64).all(|k| {
        let truth = Degrees::new(k as f64 * 15.0);
        let seed = derive_seed(0xE13, k);
        let clean = design.measure_heading_scratch(truth, seed, &mut clean_scratch);
        let faulted = design.measure(
            &FixInput::heading(truth, seed),
            Some(&plan),
            &mut fault_scratch,
        );
        clean.heading.value().to_bits() == faulted.heading.value().to_bits()
            && clean.x.count == faulted.x.count
            && clean.y.count == faulted.y.count
            && clean.x.duty.to_bits() == faulted.x.duty.to_bits()
            && clean.y.duty.to_bits() == faulted.y.duty.to_bits()
    })
}

/// Gate 2: faulted fixes are order-independent (pure in the fix seed).
fn gate_faulted_deterministic(design: &CompassDesign, plan: &FaultPlan) -> bool {
    let fixes = 24u64;
    let truth_of = |k: u64| Degrees::new(k as f64 * 15.0);
    let seed_of = |k: u64| derive_seed(0xD0_0E13, k);
    let mut forward_scratch = MeasureScratch::for_design(design);
    let forward: Vec<_> = (0..fixes)
        .map(|k| {
            design.measure(
                &FixInput::heading(truth_of(k), seed_of(k)),
                Some(plan),
                &mut forward_scratch,
            )
        })
        .collect();
    let mut reverse_scratch = MeasureScratch::for_design(design);
    let mut reverse: Vec<_> = (0..fixes)
        .rev()
        .map(|k| {
            design.measure(
                &FixInput::heading(truth_of(k), seed_of(k)),
                Some(plan),
                &mut reverse_scratch,
            )
        })
        .collect();
    reverse.reverse();
    forward.iter().zip(reverse.iter()).all(|(a, b)| {
        a.heading.value().to_bits() == b.heading.value().to_bits()
            && a.x.count == b.x.count
            && a.y.count == b.y.count
    })
}

/// Gate 3 + quality mix on the checked path: stationary platform, open
/// X pickup at 30%. Returns (good, degraded, invalid, max_good_error,
/// max_degraded_error).
///
/// This gate runs on the noiseless paper design: with no
/// comparator-referred noise an open pickup pins the duty at 0/1 and
/// is caught deterministically. Added front-end noise survives an open
/// pickup (it enters after the dead winding) and can drive the
/// detector into the plausible duty band, masquerading as a weak-field
/// axis — an observability limit of duty/count scoring, covered in
/// DESIGN.md §11, not a property this gate can assert against.
fn checked_quality_mix(design: &CompassDesign, plan: &FaultPlan) -> (u64, u64, u64, f64, f64) {
    let truth = 123.0;
    let mut scratch = MeasureScratch::for_design(design);
    let mut tracker = DegradedTracker::for_design(design);
    let (mut good, mut degraded, mut invalid) = (0u64, 0u64, 0u64);
    let (mut max_good, mut max_degraded) = (0.0f64, 0.0f64);
    for k in 0..200u64 {
        let seed = derive_seed(0x9A7E, k);
        let checked = design.measure_heading_checked(
            Degrees::new(truth),
            seed,
            &mut scratch,
            Some(plan),
            &mut tracker,
        );
        let error = angular_error(checked.reading.heading.value(), truth);
        match checked.quality {
            FixQuality::Good => {
                good += 1;
                max_good = max_good.max(error);
            }
            FixQuality::Degraded => {
                degraded += 1;
                max_degraded = max_degraded.max(error);
            }
            FixQuality::Invalid => invalid += 1,
        }
    }
    (good, degraded, invalid, max_good, max_degraded)
}

fn print_experiment() -> std::io::Result<()> {
    banner(
        "E13",
        "fault injection: degraded-mode determinism and fix quality",
        "dependability of the integrated compass beyond the nominal design",
    );

    let design = noisy_design();
    let clean_design = CompassDesign::new(CompassConfig::paper_design()).expect("valid design");
    let open_x = FaultPlan::new(0xE13F).with(FaultSpec {
        kind: FaultKind::OpenPickup,
        axis: AxisSel::X,
        rate: 0.3,
    });
    let mixed = FaultPlan::new(0xE13F)
        .with(FaultSpec {
            kind: FaultKind::OpenPickup,
            axis: AxisSel::X,
            rate: 0.2,
        })
        .with(FaultSpec {
            kind: FaultKind::NoiseBurst {
                rms: 0.05,
                from: 0.3,
                until: 0.7,
            },
            axis: AxisSel::Both,
            rate: 0.4,
        });

    let zero_transparent = gate_zero_plan_transparent(&design);
    assert!(zero_transparent, "zero-fault plan perturbed the bitstream");
    eprintln!("  zero-fault plan vs clean fast path: bit-identical ✓");

    let deterministic = gate_faulted_deterministic(&design, &mixed);
    assert!(deterministic, "faulted fixes depend on measurement order");
    eprintln!("  faulted fixes under reordering: bit-identical ✓");

    let (good, degraded, invalid, max_good_err, max_degraded_err) =
        checked_quality_mix(&clean_design, &open_x);
    assert!(good >= 1 && degraded >= 1, "mix must exercise both paths");
    assert!(
        max_good_err <= 1.0,
        "a Good fix broke the 1° spec: {max_good_err:.3}°"
    );
    assert!(
        max_degraded_err <= 5.0,
        "a Degraded fallback was unbounded: {max_degraded_err:.3}°"
    );
    eprintln!(
        "  checked mix (30% open X pickup): {good} good / {degraded} degraded / {invalid} invalid"
    );
    eprintln!(
        "  max error: good {max_good_err:.3}° (≤ 1°), degraded {max_degraded_err:.3}° (≤ 5°)"
    );

    // Served quality mix: the fix server under the open-pickup plan.
    let mut server = FixServer::start(
        clean_design,
        ServeConfig {
            cache_capacity: 0,
            fault_plan: Some(open_x),
            quarantine_after: 0,
            ..ServeConfig::default()
        },
    )
    .expect("start faulty server");
    let report = loadgen::run(&LoadGenConfig {
        addr: server.local_addr().to_string(),
        requests: 400,
        connections: 4,
        no_cache: true,
        unique_fixes: 40,
        base_seed: 0xE13,
        ..LoadGenConfig::default()
    })
    .expect("loadgen run");
    server.shutdown();
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.lost, 0);
    let non_invalid =
        (report.completed - report.unmeasurable) as f64 / report.completed.max(1) as f64;
    assert!(
        non_invalid >= 0.99,
        "served non-invalid rate {non_invalid:.4} below the 99% floor"
    );
    eprintln!(
        "  served mix: {} ok ({} degraded) / {} unmeasurable — {:.2}% non-invalid ✓",
        report.ok,
        report.quality_degraded,
        report.unmeasurable,
        100.0 * non_invalid
    );

    let path = write_bench_json(
        "BENCH_faults.json",
        "e13_faults",
        &[
            (
                "zero_plan_bit_identical",
                f64::from(u8::from(zero_transparent)),
            ),
            ("faulted_deterministic", f64::from(u8::from(deterministic))),
            ("checked_good", good as f64),
            ("checked_degraded", degraded as f64),
            ("checked_invalid", invalid as f64),
            ("max_good_error_deg", max_good_err),
            ("max_degraded_error_deg", max_degraded_err),
            ("served_completed", report.completed as f64),
            ("served_ok", report.ok as f64),
            ("served_degraded", report.quality_degraded as f64),
            ("served_unmeasurable", report.unmeasurable as f64),
            ("served_non_invalid_rate", non_invalid),
            ("served_errors", report.protocol_errors as f64),
        ],
    )?;
    eprintln!("  -> {}", path.display());
    Ok(())
}

fn bench(c: &mut Criterion) {
    print_experiment().expect("bench artefact written");

    let design = noisy_design();
    let plan = FaultPlan::new(0xE13F).with(FaultSpec {
        kind: FaultKind::OpenPickup,
        axis: AxisSel::X,
        rate: 1.0,
    });
    let mut scratch = MeasureScratch::for_design(&design);
    let mut group = c.benchmark_group("e13_faults");
    group.sample_size(20);
    let mut seed = 0u64;
    group.bench_function("measure_clean", |b| {
        b.iter(|| {
            seed += 1;
            black_box(design.measure_heading_scratch(
                black_box(Degrees::new(123.0)),
                seed,
                &mut scratch,
            ))
        })
    });
    group.bench_function("measure_faulted_open_pickup", |b| {
        b.iter(|| {
            seed += 1;
            black_box(design.measure(
                &FixInput::heading(black_box(Degrees::new(123.0)), seed),
                Some(&plan),
                &mut scratch,
            ))
        })
    });
    group.bench_function("plan_compile", |b| {
        b.iter(|| {
            seed += 1;
            black_box(plan.compile(black_box(0), seed))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
fluxcomp_bench::bench_main!(benches);
