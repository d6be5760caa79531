//! E1 — Fig. 3: the pulse-position principle.
//!
//! Regenerates the figure's content as a duty-cycle-vs-field series
//! (the time shift of the pickup pulses is exactly the duty shift of the
//! detector output), demonstrates the predicted linear law
//! `duty = 1/2 − H/(2·H_peak)`, runs the comparator-hysteresis ablation
//! under noise, and times the detector and the front-end transient.

use criterion::{criterion_group, Criterion};
use fluxcomp_afe::detector::{DetectorConfig, PulsePositionDetector};
use fluxcomp_afe::frontend::{FrontEnd, FrontEndConfig};
use fluxcomp_bench::{banner, microtesla_to_h};
use fluxcomp_units::si::Volt;
use std::hint::black_box;

fn print_experiment() {
    banner(
        "E1",
        "pulse-position principle: duty cycle vs external field",
        "Fig. 3 / claim C2",
    );
    let fe = FrontEnd::new(FrontEndConfig::paper_design()).expect("valid config");
    let h_peak = fe.peak_excitation_field().value();
    eprintln!("  H_peak = {h_peak:.1} A/m; prediction: duty = 1/2 - H/(2*H_peak)");
    eprintln!(
        "  {:>8} {:>10} {:>12} {:>12}",
        "B [µT]", "H [A/m]", "duty", "predicted"
    );
    for ut in [-40.0, -25.0, -15.0, -5.0, 0.0, 5.0, 15.0, 25.0, 40.0] {
        let h = microtesla_to_h(ut);
        let duty = fe.measure(h).duty;
        let predicted = 0.5 - h.value() / (2.0 * h_peak);
        eprintln!(
            "  {ut:>8.1} {:>10.3} {duty:>12.5} {predicted:>12.5}",
            h.value()
        );
    }

    eprintln!("\n  ablation: comparator hysteresis under 2 mV RMS pickup noise");
    eprintln!("  {:>12} {:>14}", "hyst [mV]", "|field err| [%]");
    let h = microtesla_to_h(20.0);
    for hyst_mv in [1.0, 4.0, 8.0, 16.0, 24.0] {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.pickup_noise_rms = 2e-3;
        cfg.detector.hysteresis = Volt::new(hyst_mv * 1e-3);
        cfg.measure_periods = 8;
        let fe = FrontEnd::new(cfg).expect("valid config");
        let est = fe.measure(h).field_estimate(fe.peak_excitation_field());
        let err = (est.value() - h.value()).abs() / h.value() * 100.0;
        eprintln!("  {hyst_mv:>12.1} {err:>14.2}");
    }
    eprintln!("  -> the danger zone is hysteresis ≈ 2σ of the noise (here 4 mV):");
    eprintln!("     the comparator chatters inside the pulse and releases the");
    eprintln!("     latch early. A detector design sizes hysteresis ≥ 8σ.");
}

fn bench(c: &mut Criterion) {
    print_experiment();

    let mut group = c.benchmark_group("e1_pulse_position");
    group.sample_size(20);

    // The detector state machine alone, on a synthetic pulse train.
    let wave: Vec<Volt> = (0..4096)
        .map(|k| {
            let t = k as f64 / 4096.0;
            let g = |c: f64| (-((t - c) / 0.02f64).powi(2)).exp();
            Volt::new(0.058 * (g(0.75) - g(0.25)))
        })
        .collect();
    group.bench_function("detector_one_period_4096_samples", |b| {
        b.iter(|| {
            let mut det = PulsePositionDetector::new(DetectorConfig::paper_design());
            let mut high = 0u32;
            for &v in &wave {
                high += det.step(black_box(v)) as u32;
            }
            black_box(high)
        })
    });

    // The full front-end transient (5 periods × 4096 samples), traced
    // run vs the duty-only fast path (the `afe` tests pin their duties
    // bit for bit).
    let fe = FrontEnd::new(FrontEndConfig::paper_design()).expect("valid config");
    let h = microtesla_to_h(15.0);
    group.bench_function("frontend_transient_5_periods", |b| {
        b.iter(|| black_box(fe.run(black_box(h)).duty))
    });
    group.bench_function("frontend_measure_5_periods", |b| {
        b.iter(|| black_box(fe.measure(black_box(h)).duty))
    });
    group.finish();
}

criterion_group!(benches, bench);
fluxcomp_bench::bench_main!(benches);
