//! E7 — claim C11: power reduction by multiplexing, enable gating and
//! supply scaling.
//!
//! Regenerates the power table: multiplexed vs simultaneous excitation
//! (the "momentary power" argument), always-on vs duty-cycled
//! measurement, and the 5 V → 3.5 V supply scaling the paper says is
//! possible. Times the cost of a power query (trivially fast — the
//! bench is dominated by the table regeneration above it).

use criterion::{criterion_group, Criterion};
use fluxcomp_afe::power::{PowerModel, Schedule};
use fluxcomp_bench::banner;
use fluxcomp_compass::energy::{battery_life_days, Battery, UsageProfile};
use fluxcomp_compass::CompassConfig;
use fluxcomp_sog::power_grid::{isolation_report, SupplySpine};
use fluxcomp_units::si::Ampere;
use std::hint::black_box;

fn print_experiment() {
    banner(
        "E7",
        "power: multiplexing, enable gating, supply scaling",
        "§2/§4, claim C11",
    );

    let p5 = PowerModel::at_5v();
    let p35 = PowerModel::at_3v5();
    let mux = Schedule::paper_multiplexed();
    let sim = Schedule::simultaneous();

    eprintln!("  momentary power while measuring:");
    eprintln!(
        "    multiplexed (paper):   {:.2} mW",
        p5.momentary_power(&mux).value() * 1e3
    );
    eprintln!(
        "    both sensors at once:  {:.2} mW  ({:.2}x)",
        p5.momentary_power(&sim).value() * 1e3,
        p5.momentary_power(&sim).value() / p5.momentary_power(&mux).value()
    );

    let config = CompassConfig::paper_design();
    let fix_duty = UsageProfile::continuous().measurement_duty(&config);
    eprintln!("\n  average power (one fix per second, measurement duty {fix_duty:.5}):");
    eprintln!(
        "    always measuring:      {:.3} mW",
        p5.average_power(&mux).value() * 1e3
    );
    eprintln!(
        "    duty-cycled enables:   {:.4} mW  ({:.0}x less)",
        p5.average_power(&Schedule::duty_cycled(fix_duty)).value() * 1e3,
        p5.average_power(&mux).value() / p5.average_power(&Schedule::duty_cycled(fix_duty)).value()
    );

    eprintln!("\n  supply scaling (continuous measurement):");
    eprintln!("    5.0 V: {:.3} mW", p5.average_power(&mux).value() * 1e3);
    eprintln!(
        "    3.5 V: {:.3} mW  ({:.0} % saving)",
        p35.average_power(&mux).value() * 1e3,
        (1.0 - p35.average_power(&mux).value() / p5.average_power(&mux).value()) * 100.0
    );

    eprintln!("\n  why separate supply quarters (the §2 floorplan decision):");
    let spine = SupplySpine::fishbone_quarter();
    let report = isolation_report(&spine, Ampere::new(2e-3), Ampere::new(150e-6));
    eprintln!(
        "    digital rail droop:         {:.2} mV (own quarter)",
        report.digital_droop.value() * 1e3
    );
    eprintln!(
        "    analogue rail, separate:    {:.3} mV",
        report.analog_droop_separate.value() * 1e3
    );
    eprintln!(
        "    analogue rail, if shared:   {:.2} mV  ({:.0}x worse — vs a 20 mV",
        report.analog_droop_shared.value() * 1e3,
        report.isolation_factor()
    );
    eprintln!("    comparator threshold, that is the difference between margin and none)");

    eprintln!("\n  battery life (CR2025, 1728 J):");
    eprintln!(
        "    hiker profile (1000 fixes/day, gated): {:.0} days",
        battery_life_days(&p5, &UsageProfile::hiker(), &config, &Battery::cr2025())
    );
    eprintln!(
        "    continuous (1 fix/s, gated):           {:.0} days",
        battery_life_days(
            &p5,
            &UsageProfile::continuous(),
            &config,
            &Battery::cr2025()
        )
    );
    eprintln!(
        "    no gating at all:                      {:.1} days",
        Battery::cr2025().energy_joules() / p5.average_power(&mux).value() / 86_400.0
    );
}

fn bench(c: &mut Criterion) {
    print_experiment();

    let mut group = c.benchmark_group("e7_power");
    let pm = PowerModel::at_5v();
    let schedule = Schedule::paper_multiplexed();
    group.bench_function("average_power_query", |b| {
        b.iter(|| black_box(pm.average_power(black_box(&schedule))))
    });
    group.finish();
}

criterion_group!(benches, bench);
fluxcomp_bench::bench_main!(benches);
