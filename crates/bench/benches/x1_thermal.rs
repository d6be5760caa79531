//! X1 (extension) — temperature behaviour.
//!
//! The paper designs "to broad specifications" without quantifying
//! temperature; this extension experiment does, using the first-order
//! models in `fluxcomp-fluxgate::thermal`:
//!
//! * heading accuracy across −20…+60 °C — the ratio architecture
//!   cancels the common-mode sensitivity drift, so the compass stays in
//!   spec;
//! * the V-I drive margin of the 800 Ω claim over temperature;
//! * the physically modelled Jiles-Atherton core as a hysteresis
//!   cross-check of the behavioural loop.

use criterion::{criterion_group, Criterion};
use fluxcomp_bench::{banner, microtesla_to_h};
use fluxcomp_compass::evaluate::sweep_headings;
use fluxcomp_compass::{CompassConfig, CompassDesign};
use fluxcomp_exec::ExecPolicy;
use fluxcomp_fluxgate::jiles_atherton::{JaParams, JilesAthertonCore};
use fluxcomp_fluxgate::thermal::{
    max_drive_temperature, sensor_at_temperature, ThermalCoefficients,
};
use fluxcomp_fluxgate::transducer::FluxgateParams;
use fluxcomp_units::magnetics::AmperePerMeter;
use fluxcomp_units::si::{Ampere, Ohm, Volt};
use std::hint::black_box;

fn print_experiment() {
    banner(
        "X1",
        "temperature behaviour (extension)",
        "§6 'broad specifications'",
    );

    let coeffs = ThermalCoefficients::typical();
    eprintln!("  heading accuracy vs temperature (both sensors tracking):");
    eprintln!(
        "  {:>8} {:>10} {:>12} {:>12}",
        "T [°C]", "R_exc [Ω]", "max err [°]", "spec"
    );
    let policy = ExecPolicy::auto();
    for t in [-20.0, 0.0, 25.0, 40.0, 60.0] {
        let mut cfg = CompassConfig::paper_design();
        let derated = sensor_at_temperature(&cfg.pair.element, &coeffs, t);
        cfg.pair.element = derated;
        cfg.frontend.sensor = derated;
        let design = CompassDesign::new(cfg).expect("valid");
        let stats = sweep_headings(&design, 12, &policy);
        eprintln!(
            "  {t:>8.0} {:>10.1} {:>12.3} {:>12}",
            derated.r_excitation.value(),
            stats.max_error.value(),
            if stats.meets_one_degree_spec() {
                "PASS"
            } else {
                "miss"
            }
        );
    }

    eprintln!("\n  thermal margin of the 800 Ω drive claim (±6 mA from 4.6 V):");
    for r in [500.0, 700.0, 766.0] {
        let mut p = FluxgateParams::adapted();
        p.r_excitation = Ohm::new(r);
        let t_max = max_drive_temperature(&p, &coeffs, Ampere::new(6e-3), Volt::new(4.6));
        eprintln!("    R(25°C) = {r:>4.0} Ω -> drivable up to {t_max:>6.1} °C");
    }

    eprintln!("\n  Jiles-Atherton cross-check of the hysteresis behaviour:");
    let hc = JilesAthertonCore::coercivity(JaParams::permalloy_film(), AmperePerMeter::new(240.0));
    let br = JilesAthertonCore::remanence(JaParams::permalloy_film(), AmperePerMeter::new(240.0));
    eprintln!(
        "    permalloy film: Hc = {:.1} A/m, Br = {:.3} T (soft loop, as the",
        hc.value(),
        br.value()
    );
    eprintln!("    pulse-position method needs — the readout averages it out)");
}

fn bench(c: &mut Criterion) {
    print_experiment();

    let mut group = c.benchmark_group("x1_thermal");
    group.sample_size(10);

    let mut core = JilesAthertonCore::new(JaParams::permalloy_film());
    group.bench_function("ja_core_one_excitation_cycle", |b| {
        b.iter(|| {
            core.drive_to(black_box(AmperePerMeter::new(240.0)), 256);
            core.drive_to(black_box(AmperePerMeter::new(-240.0)), 512);
            core.drive_to(black_box(AmperePerMeter::new(240.0)), 512);
            black_box(core.flux_density())
        })
    });

    let nominal = FluxgateParams::adapted();
    let coeffs = ThermalCoefficients::typical();
    group.bench_function("thermal_derating", |b| {
        b.iter(|| black_box(sensor_at_temperature(&nominal, &coeffs, black_box(60.0))))
    });

    // A full fix with a derated sensor.
    let mut cfg = CompassConfig::paper_design();
    let derated = sensor_at_temperature(&cfg.pair.element, &coeffs, 60.0);
    cfg.pair.element = derated;
    cfg.frontend.sensor = derated;
    let compass = CompassDesign::new(cfg.clone()).expect("valid");
    group.bench_function("hot_compass_fix", |b| {
        b.iter(|| {
            black_box(
                compass
                    .measure_heading(black_box(fluxcomp_units::Degrees::new(123.0)))
                    .heading,
            )
        })
    });

    // The hot-corner characterisation sweep, serial vs pooled.
    let design = CompassDesign::new(cfg).expect("valid");
    let serial = ExecPolicy::serial();
    let auto = ExecPolicy::auto();
    group.sample_size(3);
    group.bench_function("hot_sweep_12_serial", |b| {
        b.iter(|| black_box(sweep_headings(&design, 12, &serial)))
    });
    group.bench_function("hot_sweep_12_parallel", |b| {
        b.iter(|| black_box(sweep_headings(&design, 12, &auto)))
    });
    let _ = microtesla_to_h(15.0);
    group.finish();
}

criterion_group!(benches, bench);
fluxcomp_bench::bench_main!(benches);
