//! E8 — claims C6/C14: pulse-position vs second-harmonic readout.
//!
//! The paper's argument for pulse position is that "a complicated
//! AD-converter is not necessary, which would have been the case for
//! methods based on second harmonic measurements". This bench
//! regenerates the comparison on both axes:
//!
//! * **accuracy** — second-harmonic heading error vs ADC resolution,
//!   against the ADC-free pulse-position pipeline;
//! * **hardware** — extra transistors the second-harmonic method needs.
//!
//! Times the two readouts' computational kernels.

use criterion::{criterion_group, Criterion};
use fluxcomp_afe::second_harmonic::{
    SecondHarmonicDemodulator, PULSE_POSITION_COST, SECOND_HARMONIC_COST,
};
use fluxcomp_bench::banner;
use fluxcomp_compass::baseline::SecondHarmonicCompass;
use fluxcomp_compass::{CompassConfig, CompassDesign};
use fluxcomp_units::angle::Degrees;
use fluxcomp_units::si::Hertz;
use std::hint::black_box;

fn worst_over(headings: &[f64], mut f: impl FnMut(Degrees) -> Degrees) -> f64 {
    headings.iter().fold(0.0f64, |worst, &deg| {
        let t = Degrees::new(deg);
        worst.max(f(t).angular_distance(t).value())
    })
}

fn print_experiment() {
    banner(
        "E8",
        "pulse-position vs second-harmonic readout",
        "§2.1/§3.2, claims C6/C14",
    );

    let headings = [15.0, 75.0, 160.0, 250.0, 340.0];
    let pp = CompassDesign::new(CompassConfig::paper_design()).expect("valid");
    let pp_worst = worst_over(&headings, |t| pp.measure_heading(t).heading);
    eprintln!("  pulse-position (no ADC):        worst err {pp_worst:.2}°");

    eprintln!("\n  second-harmonic, by ADC resolution:");
    eprintln!(
        "  {:>10} {:>14} {:>18}",
        "ADC bits", "worst err [°]", "extra transistors"
    );
    for bits in [4u32, 6, 8, 10, 12] {
        let sh = SecondHarmonicCompass::new(CompassConfig::paper_design(), bits).expect("valid");
        let worst = worst_over(&headings, |t| sh.measure_heading(t));
        eprintln!(
            "  {bits:>10} {worst:>14.2} {:>18}",
            sh.extra_hardware_transistors()
        );
    }

    eprintln!("\n  block-level cost comparison:");
    eprintln!(
        "    pulse-position:  needs_adc={} analog_blocks={} comparators={}",
        PULSE_POSITION_COST.needs_adc,
        PULSE_POSITION_COST.analog_blocks,
        PULSE_POSITION_COST.comparators
    );
    eprintln!(
        "    second-harmonic: needs_adc={} analog_blocks={} comparators={}",
        SECOND_HARMONIC_COST.needs_adc,
        SECOND_HARMONIC_COST.analog_blocks,
        SECOND_HARMONIC_COST.comparators
    );
}

fn bench(c: &mut Criterion) {
    print_experiment();

    let mut group = c.benchmark_group("e8_baseline");
    group.sample_size(10);

    let sh = SecondHarmonicCompass::new(CompassConfig::paper_design(), 10).expect("valid");
    group.bench_function("second_harmonic_fix", |b| {
        b.iter(|| black_box(sh.measure_heading(black_box(Degrees::new(123.0)))))
    });

    let pp = CompassDesign::new(CompassConfig::paper_design()).expect("valid");
    group.bench_function("pulse_position_fix", |b| {
        b.iter(|| black_box(pp.measure_heading(black_box(Degrees::new(123.0))).heading))
    });

    // The demodulation kernel alone.
    let demod = SecondHarmonicDemodulator::new(Hertz::new(8_000.0));
    let samples: Vec<f64> = (0..16_384)
        .map(|k| {
            let t = k as f64 / 16_384.0 * 8.0;
            (std::f64::consts::TAU * t).sin() + 0.1 * (2.0 * std::f64::consts::TAU * t).cos()
        })
        .collect();
    group.bench_function("lockin_demodulate_16k_samples", |b| {
        b.iter(|| black_box(demod.demodulate_iq(black_box(&samples), 1.0 / 16_384.0)))
    });
    group.finish();
}

criterion_group!(benches, bench);
fluxcomp_bench::bench_main!(benches);
