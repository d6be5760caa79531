//! The determinism contract of the sweep engine: every unified entry
//! point must produce results that are **bit-for-bit identical** under
//! `ExecPolicy::serial()` and `ExecPolicy::parallel(n)` at any worker
//! count.
//! This is what makes regression artefacts diffable across machines and
//! CI runners.
//!
//! Strategy: run each workload with the serial policy, then with 1, 2
//! and N workers, and compare through `f64::to_bits` — no epsilon
//! anywhere. A final test repeats a sweep with an observability
//! recorder installed: recording is write-only, so it must not move a
//! single bit either.

use fluxcomp::compass::evaluate::sweep_headings;
use fluxcomp::compass::tilt::{worst_tilt_error, Attitude};
use fluxcomp::compass::{AccuracyStats, CompassConfig, CompassDesign, FixInput, MeasureScratch};
use fluxcomp::exec::{derive_seed, par_map_range_scratch, ExecPolicy};
use fluxcomp::fluxgate::earth::{EarthField, Location};
use fluxcomp::msim::montecarlo::{run_monte_carlo, Tolerance};
use fluxcomp::units::Degrees;

fn policies() -> Vec<ExecPolicy> {
    vec![
        ExecPolicy::serial(),
        ExecPolicy::parallel(1),
        ExecPolicy::parallel(2),
        ExecPolicy::parallel(3),
        ExecPolicy::auto(),
    ]
}

fn assert_stats_bitwise(a: &AccuracyStats, b: &AccuracyStats, what: &str) {
    assert_eq!(
        a.max_error.value().to_bits(),
        b.max_error.value().to_bits(),
        "{what}: max_error differs"
    );
    assert_eq!(
        a.mean_error.value().to_bits(),
        b.mean_error.value().to_bits(),
        "{what}: mean_error differs"
    );
    assert_eq!(
        a.rms_error.value().to_bits(),
        b.rms_error.value().to_bits(),
        "{what}: rms_error differs"
    );
    assert_eq!(
        a.bias.value().to_bits(),
        b.bias.value().to_bits(),
        "{what}: bias differs"
    );
}

#[test]
fn heading_sweep_is_bit_identical_at_any_worker_count() {
    let design = CompassDesign::new(CompassConfig::paper_design()).expect("valid design");
    let reference = sweep_headings(&design, 48, &ExecPolicy::serial());
    for policy in policies() {
        let got = sweep_headings(&design, 48, &policy);
        assert_stats_bitwise(
            &got,
            &reference,
            &format!("sweep with {} threads", policy.threads()),
        );
    }
}

/// `repeats` fixes of one heading, each with its own noise seed derived
/// from the design's, mapped over `policy`'s workers with one scratch
/// each. Returns the signed heading errors in degrees.
fn repeat_heading(
    design: &CompassDesign,
    heading: Degrees,
    repeats: usize,
    policy: &ExecPolicy,
) -> Vec<f64> {
    let base = design.config().frontend.noise_seed;
    par_map_range_scratch(
        policy,
        repeats,
        || MeasureScratch::for_design(design),
        |scratch, k| {
            design
                .measure_heading_scratch(heading, derive_seed(base, k as u64), scratch)
                .heading
                .signed_error_from(heading)
                .value()
        },
    )
}

#[test]
fn noisy_repeat_fixes_are_bit_identical_at_any_worker_count() {
    let mut cfg = CompassConfig::paper_design();
    cfg.frontend.pickup_noise_rms = 2e-3;
    let design = CompassDesign::new(cfg).expect("valid design");
    let truth = Degrees::new(123.0);
    let reference = repeat_heading(&design, truth, 24, &ExecPolicy::serial());
    for policy in policies() {
        let got = repeat_heading(&design, truth, 24, &policy);
        assert_eq!(got.len(), reference.len());
        for (k, (a, b)) in got.iter().zip(reference.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "fix {k} with {} threads differs",
                policy.threads()
            );
        }
    }
}

#[test]
fn tilt_scan_is_bit_identical_at_any_worker_count() {
    let field = EarthField::at(Location::Enschede);
    let att = Attitude::new(Degrees::new(10.0), Degrees::new(-5.0));
    let reference = worst_tilt_error(&field, att, 360, &ExecPolicy::serial());
    for policy in policies() {
        let got = worst_tilt_error(&field, att, 360, &policy);
        assert_eq!(
            got.value().to_bits(),
            reference.value().to_bits(),
            "tilt scan with {} threads differs",
            policy.threads()
        );
    }
}

#[test]
fn monte_carlo_is_bit_identical_at_any_worker_count() {
    let tolerances = [
        Tolerance::Gaussian { rel_sigma: 0.05 },
        Tolerance::Uniform { tol: 0.02 },
        Tolerance::Gaussian { rel_sigma: 0.01 },
    ];
    let evaluate = |s: &Vec<f64>| s.iter().map(|x| (x - 1.0).abs()).sum::<f64>();
    let reference = run_monte_carlo(
        &tolerances,
        64,
        0xD1CE,
        &ExecPolicy::serial(),
        evaluate,
        |m| m < 0.08,
    );
    for policy in policies() {
        let got = run_monte_carlo(&tolerances, 64, 0xD1CE, &policy, evaluate, |m| m < 0.08);
        assert_eq!(got.trials, reference.trials);
        assert_eq!(
            got.passes,
            reference.passes,
            "pass count with {} threads differs",
            policy.threads()
        );
        for (k, (a, b)) in got.metrics.iter().zip(reference.metrics.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "metric {k} with {} threads differs",
                policy.threads()
            );
        }
        assert_eq!(got.mean().to_bits(), reference.mean().to_bits());
        assert_eq!(got.std_dev().to_bits(), reference.std_dev().to_bits());
        assert_eq!(
            got.quantile(0.9).to_bits(),
            reference.quantile(0.9).to_bits()
        );
    }
}

#[test]
fn reused_scratch_is_bit_identical_across_100_fixes() {
    // One worker's MeasureScratch carried across 100 fixes (with noise,
    // so the detector and counter really churn) must reproduce the
    // fresh-state entry point on every single fix.
    let mut cfg = CompassConfig::paper_design();
    cfg.frontend.pickup_noise_rms = 2e-3;
    let design = CompassDesign::new(cfg).expect("valid design");
    let base = design.config().frontend.noise_seed;
    let mut scratch = MeasureScratch::for_design(&design);
    for k in 0..100u64 {
        let truth = Degrees::new(k as f64 * 3.6);
        let seed = fluxcomp::exec::derive_seed(base, k);
        let reused = design.measure_heading_scratch(truth, seed, &mut scratch);
        let fresh = design.measure(
            &FixInput::heading(truth, seed),
            None,
            &mut MeasureScratch::for_design(&design),
        );
        assert_eq!(
            reused.heading.value().to_bits(),
            fresh.heading.value().to_bits(),
            "fix {k}: heading differs"
        );
        assert_eq!(reused.x.count, fresh.x.count, "fix {k}: x count differs");
        assert_eq!(reused.y.count, fresh.y.count, "fix {k}: y count differs");
        assert_eq!(
            reused.x.duty.to_bits(),
            fresh.x.duty.to_bits(),
            "fix {k}: x duty differs"
        );
    }
}

#[test]
fn env_thread_override_does_not_change_results() {
    // FLUXCOMP_THREADS only changes *how many* workers auto() uses; the
    // fold order is fixed, so results cannot move. Exercise a handful of
    // explicit counts standing in for the env override.
    let design = CompassDesign::new(CompassConfig::paper_design()).expect("valid design");
    let reference = sweep_headings(&design, 24, &ExecPolicy::serial());
    for threads in [1, 2, 4, 7, 16] {
        let got = sweep_headings(&design, 24, &ExecPolicy::parallel(threads));
        assert_stats_bitwise(&got, &reference, &format!("{threads} explicit threads"));
    }
}

#[test]
fn recording_does_not_perturb_results() {
    // Observability is write-only: running the same sweep with a
    // recorder installed must reproduce every bit, serial and parallel —
    // and the recorder must actually have seen the work.
    let design = CompassDesign::new(CompassConfig::paper_design()).expect("valid design");
    let quiet_serial = sweep_headings(&design, 24, &ExecPolicy::serial());
    let quiet_par = sweep_headings(&design, 24, &ExecPolicy::parallel(4));

    let session = fluxcomp::obs::init_scoped_for_test();
    let loud_serial = sweep_headings(&design, 24, &ExecPolicy::serial());
    let loud_par = sweep_headings(&design, 24, &ExecPolicy::parallel(4));
    let profile = session.profile().expect("recorder installed");

    assert_stats_bitwise(&loud_serial, &quiet_serial, "recorded serial sweep");
    assert_stats_bitwise(&loud_par, &quiet_par, "recorded parallel sweep");
    assert_eq!(profile.counter("exec.tasks"), Some(48));
    assert!(profile.span("compass.sweep").is_some());
}

#[test]
fn zero_fault_plan_is_bit_identical_to_the_clean_path() {
    // A FaultPlan with no specs must not perturb the no-fault bitstream:
    // the faulted entry points delegate to the clean fast path, so every
    // duty, count and heading agrees bit for bit.
    use fluxcomp::faults::FaultPlan;
    let mut cfg = CompassConfig::paper_design();
    cfg.frontend.pickup_noise_rms = 2e-3;
    let design = CompassDesign::new(cfg).expect("valid design");
    let plan = FaultPlan::none();
    let mut clean_scratch = MeasureScratch::for_design(&design);
    let mut fault_scratch = MeasureScratch::for_design(&design);
    for k in 0..24u64 {
        let truth = Degrees::new(k as f64 * 15.0);
        let seed = fluxcomp::exec::derive_seed(0xFA17, k);
        let clean = design.measure_heading_scratch(truth, seed, &mut clean_scratch);
        let faulted = design.measure(
            &FixInput::heading(truth, seed),
            Some(&plan),
            &mut fault_scratch,
        );
        assert_eq!(
            clean.heading.value().to_bits(),
            faulted.heading.value().to_bits(),
            "fix {k}: heading differs under a zero fault plan"
        );
        assert_eq!(clean.x.count, faulted.x.count, "fix {k}: x count differs");
        assert_eq!(clean.y.count, faulted.y.count, "fix {k}: y count differs");
        assert_eq!(
            clean.x.duty.to_bits(),
            faulted.x.duty.to_bits(),
            "fix {k}: x duty differs"
        );
        assert_eq!(
            clean.y.duty.to_bits(),
            faulted.y.duty.to_bits(),
            "fix {k}: y duty differs"
        );
    }
}

#[test]
fn faulted_fixes_are_a_pure_function_of_the_fix_seed() {
    // Fault activation derives from (plan seed, fix seed, axis, spec
    // index) alone — no shared RNG stream — so the same fix seed gives
    // the same faulted measurement no matter what was measured before
    // it, in what order, or on which worker's scratch.
    use fluxcomp::faults::{AxisSel, FaultKind, FaultPlan, FaultSpec};
    let mut cfg = CompassConfig::paper_design();
    cfg.frontend.pickup_noise_rms = 2e-3;
    let design = CompassDesign::new(cfg).expect("valid design");
    let plan = FaultPlan::new(0xDE7E12)
        .with(FaultSpec {
            kind: FaultKind::OpenPickup,
            axis: AxisSel::X,
            rate: 0.3,
        })
        .with(FaultSpec {
            kind: FaultKind::NoiseBurst {
                rms: 0.05,
                from: 0.2,
                until: 0.6,
            },
            axis: AxisSel::Both,
            rate: 0.5,
        });
    let fixes = 32u64;
    let truth_of = |k: u64| Degrees::new(k as f64 * 11.25);
    let seed_of = |k: u64| fluxcomp::exec::derive_seed(0xBEEF, k);

    let mut forward_scratch = MeasureScratch::for_design(&design);
    let forward: Vec<_> = (0..fixes)
        .map(|k| {
            design.measure(
                &FixInput::heading(truth_of(k), seed_of(k)),
                Some(&plan),
                &mut forward_scratch,
            )
        })
        .collect();

    // Same fixes, reversed order, a different worker's scratch.
    let mut reverse_scratch = MeasureScratch::for_design(&design);
    let mut reverse: Vec<_> = (0..fixes)
        .rev()
        .map(|k| {
            design.measure(
                &FixInput::heading(truth_of(k), seed_of(k)),
                Some(&plan),
                &mut reverse_scratch,
            )
        })
        .collect();
    reverse.reverse();

    let mut faulted_any = false;
    for (k, (a, b)) in forward.iter().zip(reverse.iter()).enumerate() {
        assert_eq!(
            a.heading.value().to_bits(),
            b.heading.value().to_bits(),
            "fix {k}: faulted heading depends on measurement order"
        );
        assert_eq!(a.x.count, b.x.count, "fix {k}: x count differs");
        assert_eq!(a.y.count, b.y.count, "fix {k}: y count differs");
        // An open X pickup at 30% must actually fire somewhere in 32
        // draws; detect it through the collapsed duty.
        if (a.x.duty - 0.5).abs() > 0.4 {
            faulted_any = true;
        }
    }
    assert!(
        faulted_any,
        "no fault ever activated at rate 0.3 over 32 fixes"
    );
}
