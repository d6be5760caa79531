//! Chip-level integration: the synthesised netlists, the Sea-of-Gates
//! mapping and the gate-level simulator agree with the behavioural RTL,
//! and the E6 occupancy, E7 power and E10 boundary-scan figures are
//! pinned to the bit.

use fluxcomp::afe::power::{PowerModel, Schedule};
use fluxcomp::compass::chip::{build_chip, paper_chip};
use fluxcomp::compass::energy::{battery_life_days, Battery, UsageProfile};
use fluxcomp::compass::CompassConfig;
use fluxcomp::mcm::diagnosis::FaultDictionary;
use fluxcomp::mcm::interconnect_test::{self, TestReport};
use fluxcomp::mcm::substrate::{Fault, McmAssembly};
use fluxcomp::mcm::{generate_bsdl, parse_bsdl, Instruction, TapChain};
use fluxcomp::rtl::atan_rom::AtanRom;
use fluxcomp::rtl::cordic::CordicArctan;
use fluxcomp::rtl::netsim::GateSim;
use fluxcomp::rtl::scan::{insert_scan, scan_overhead_transistors};
use fluxcomp::rtl::synth::{cordic_step, full_compass_inventory, updown_counter};
use fluxcomp::rtl::timing::{analyze, DelayModel};
use fluxcomp::sog::fabric::PowerDomain;
use fluxcomp::sog::library::AnalogMacro;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The gate-level CORDIC micro-rotation tracks the Fig. 8 arithmetic for
/// a random vector soup — the equivalence check a synthesis flow would
/// run between RTL and netlist.
#[test]
fn gate_level_cordic_step_equivalence() {
    let mut rng = StdRng::seed_from_u64(42);
    for i in [0u32, 1, 2, 4, 7] {
        let (nl, x_in, y_in, x_out, y_out, rotate) = cordic_step(28, i);
        let mut sim = GateSim::new(nl);
        for _ in 0..200 {
            let x: i64 = rng.gen_range(0..1 << 26);
            let y: i64 = rng.gen_range(0..1 << 26);
            sim.set_bus(&x_in, x);
            sim.set_bus(&y_in, y);
            sim.settle();
            let (bx, by, brot) = if y >= (x >> i) {
                (x + (y >> i), y - (x >> i), true)
            } else {
                (x, y, false)
            };
            assert_eq!(sim.bus_value_signed(&x_out), bx, "x mismatch at i={i}");
            assert_eq!(sim.bus_value_signed(&y_out), by, "y mismatch at i={i}");
            assert_eq!(sim.value(rotate), brot, "rotate mismatch at i={i}");
        }
    }
}

/// Chaining gate-level micro-rotations end to end reproduces the
/// behavioural CORDIC's first-quadrant kernel exactly (the shifts
/// operate on the prescaled registers, as in Fig. 8).
#[test]
fn chained_gate_level_stages_match_behavioral_kernel() {
    let cordic = CordicArctan::paper();
    let rom = AtanRom::paper();
    let mut rng = StdRng::seed_from_u64(7);
    // Build one simulator per iteration index.
    let stages: Vec<_> = (0..8)
        .map(|i| {
            let (nl, x_in, y_in, x_out, y_out, rotate) = cordic_step(32, i);
            (GateSim::new(nl), x_in, y_in, x_out, y_out, rotate)
        })
        .collect();
    for _ in 0..50 {
        let x0: i64 = rng.gen_range(1..4_000);
        let y0: i64 = rng.gen_range(0..4_000);
        // Gate level: walk the prescaled registers through the stages and
        // accumulate the ROM angle for every asserted `rotate`.
        let mut x = x0 << 7;
        let mut y = y0 << 7;
        let mut angle_q8 = 0i64;
        let mut sims = stages.clone();
        for (i, (sim, x_in, y_in, x_out, y_out, rotate)) in sims.iter_mut().enumerate() {
            sim.set_bus(x_in, x);
            sim.set_bus(y_in, y);
            sim.settle();
            x = sim.bus_value_signed(x_out);
            y = sim.bus_value_signed(y_out);
            if sim.value(*rotate) {
                angle_q8 += rom.entry(i as u32);
            }
        }
        let behavioral = cordic.first_quadrant_q8(x0, y0);
        assert_eq!(angle_q8, behavioral, "kernel mismatch for ({x0},{y0})");
    }
}

/// The synthesised counter equals the behavioural counter over long
/// random stimulus with direction changes.
#[test]
fn gate_level_counter_long_equivalence() {
    let (nl, up, state) = updown_counter(12);
    let mut sim = GateSim::new(nl);
    let mut behavioral = fluxcomp::rtl::counter::UpDownCounter::new(12);
    let mut rng = StdRng::seed_from_u64(99);
    let mut balance = 0i64;
    for _ in 0..3_000 {
        // Bias the stream to stay well inside the 12-bit range so the
        // saturating behavioural model and wrapping netlist agree.
        let dir = if balance > 1_000 {
            false
        } else if balance < -1_000 {
            true
        } else {
            rng.gen()
        };
        balance += if dir { 1 } else { -1 };
        sim.set_input(up, dir);
        sim.settle();
        sim.clock_edge();
        behavioral.clock(dir);
        assert_eq!(sim.bus_value_signed(&state), behavioral.value());
    }
}

/// The full chip fits the paper's array and reproduces the shape of the
/// occupancy claim: digital spans multiple quarters, analogue under
/// 15 % of one, supplies separated.
#[test]
fn chip_fits_and_matches_occupancy_shape() {
    let report = paper_chip().expect("fits the fishbone array");
    assert!(report.digital_quarters > 1.5 && report.digital_quarters <= 3.0);
    assert!(report.analog_occupancy < 0.15);
    let array = report.floorplan.array();
    let quarters_in = |domain| {
        array
            .quarters()
            .iter()
            .filter(|q| q.domain == Some(domain))
            .count()
    };
    assert!(quarters_in(PowerDomain::Digital) >= 2);
    assert_eq!(quarters_in(PowerDomain::Analog), 1);
    // No quarter hosts both supplies (checked structurally: every
    // placement's quarter has the block's domain).
    for p in report.floorplan.placements() {
        assert_eq!(
            array.quarters()[p.quarter].domain,
            Some(p.block.domain),
            "block {} crossed supplies",
            p.block.name
        );
    }
    // The whole thing is inside the 200k-transistor budget.
    assert!(array.used_sites() <= 100_000);
}

/// Transistor accounting is conserved through the mapping: the digital
/// sites committed equal the inventory divided by 2·utilisation (within
/// per-block ceiling effects).
#[test]
fn site_accounting_conserved() {
    let report = paper_chip().unwrap();
    let digital_sites: u32 = report
        .floorplan
        .placements()
        .iter()
        .filter(|p| p.block.domain == PowerDomain::Digital)
        .map(|p| p.block.sites)
        .sum();
    let expected = report.digital_transistors as f64 / 2.0 / report.utilization;
    let slack = report.floorplan.placements().len() as f64; // ceil() per block
    assert!(
        (digital_sites as f64 - expected).abs() <= slack + 16.0,
        "sites {digital_sites} vs expected {expected}"
    );
}

/// Every figure the E6 bench prints, pinned to the bit: the digital
/// inventory, the quarter fill, the analogue occupancy and sites, the
/// counter and CORDIC timing, the scan overhead and the utilisation
/// sweep. Floats are compared by their bits; the decimal value is in
/// the comment.
#[test]
fn e6_report_figures_are_pinned() {
    let report = paper_chip().expect("fits");
    assert_eq!(report.digital_transistors, 32_288);
    assert_eq!(full_compass_inventory().len(), 12);
    assert_eq!(report.digital_quarters.to_bits(), 0x4001_3886_594a_f4f1); // 2.1526
    assert_eq!(report.analog_occupancy.to_bits(), 0x3fc1_6872_b020_c49c); // 0.136
    let analog_sites: u32 = AnalogMacro::paper_analog_section()
        .iter()
        .map(|m| m.total_sites())
        .sum();
    assert_eq!(analog_sites, 3_400);

    let (counter_nl, _, _) = updown_counter(16);
    let counter = analyze(&counter_nl, &DelayModel::sog_1um());
    assert_eq!(counter.critical_path_ns.to_bits(), 0x4042_d999_9999_999c); // 37.7 ns
    assert_eq!(counter.fmax.value().to_bits(), 0x4179_4be0_ef06_1c82); // 26.5 MHz
    let stage = analyze(&cordic_step(24, 3).0, &DelayModel::sog_1um());
    assert_eq!(stage.critical_path_ns.to_bits(), 0x404c_0ccc_cccc_ccd3); // 56.1 ns

    let flops = counter_nl.stats().flip_flops;
    assert_eq!(flops, 16);
    assert_eq!(scan_overhead_transistors(flops), 192);
    assert_eq!(insert_scan(counter_nl).len(), 16);

    let sweep = [0.50, 0.40, 0.30, 0.25, 0.22, 0.15, 0.10]
        .map(|util| build_chip(util).ok().map(|r| r.digital_quarters.to_bits()));
    assert_eq!(
        sweep,
        [
            Some(0x3ff4_aa10_e022_1427), // 1.29152
            Some(0x3ff9_d4bf_0995_aaf8), // 1.61444
            Some(0x4001_3886_594a_f4f1), // 2.1526
            Some(0x4004_aa10_e022_1427), // 2.58304
            None,
            None,
            None,
        ]
    );
}

/// The figures the E7 bench prints for the duty-cycled chip, pinned to
/// the bit: the one-fix-per-second measurement duty, the average power
/// with the enables gated at that duty, and the hiker and continuous
/// battery lives. The duty counts the 2 × (1 settle + 8 measurement)
/// excitation periods the paper design runs per fix. Floats are
/// compared by their bits; the decimal value is in the comment.
#[test]
fn e7_power_figures_are_pinned() {
    let config = CompassConfig::paper_design();
    let duty = UsageProfile::continuous().measurement_duty(&config);
    assert_eq!(duty.to_bits(), 0x3f62_6e97_8d4f_df3b); // 0.00225
    let p5 = PowerModel::at_5v();
    let gated = p5.average_power(&Schedule::duty_cycled(duty)).value();
    assert_eq!(gated.to_bits(), 0x3f22_30ef_8c14_75d9); // 0.1388 mW
    let cell = Battery::cr2025();
    let hiker = battery_life_days(&p5, &UsageProfile::hiker(), &config, &cell);
    assert_eq!(hiker.to_bits(), 0x406f_2d6c_66e0_91a7); // 249.42 days
    let continuous = battery_life_days(&p5, &UsageProfile::continuous(), &config, &cell);
    assert_eq!(continuous.to_bits(), 0x4062_035d_c5aa_8d27); // 144.11 days
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends an FNV-1a digest by `bytes`.
fn fnv(digest: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(digest, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Extends `digest` by every bit of an interconnect test report: each
/// pattern's driven and observed values and mismatching nets, then the
/// failing nets.
fn report_digest(digest: u64, report: &TestReport) -> u64 {
    let digest = report.patterns.iter().fold(digest, |h, p| {
        let h = fnv(h, p.driven.iter().chain(&p.observed).map(|&b| u8::from(b)));
        fnv(h, p.mismatches.iter().map(|&net| net as u8).chain([0xFF]))
    });
    fnv(
        digest,
        report
            .failing_nets
            .iter()
            .map(|&net| net as u8)
            .chain([0xFE]),
    )
}

/// Every figure the E10 bench prints about the module: the inventory, the
/// pattern count and clean verdict, the single-fault coverage, the
/// example diagnoses, the fault dictionary, the TAP chain's scan path
/// and the BSDL summary. The digest covers the whole interconnect test
/// report on the clean module, every single fault, every ordered short
/// and every short paired with every open.
#[test]
fn e10_bscan_figures_are_pinned() {
    let run = interconnect_test::run;
    let module = McmAssembly::paper_module();
    assert_eq!((module.nets().len(), module.passives().len()), (9, 2));
    let clean = run(&module);
    assert_eq!(clean.pattern_count(), 10);
    assert!(clean.passed());
    assert_eq!(module.all_single_faults().len(), 9 + 8);
    let coverage = interconnect_test::coverage(&module);
    assert_eq!(coverage.to_bits(), 1.0f64.to_bits());

    let with = |faults: &[Fault]| {
        let mut dut = module.clone();
        faults.iter().for_each(|&f| dut.inject(f));
        dut
    };
    let failing = |faults: &[Fault]| run(&with(faults)).failing_nets;
    assert_eq!(failing(&[Fault::Short { a: 0, b: 1 }]), [0, 1]);
    assert_eq!(failing(&[Fault::Open { net: 2 }]), [2]);
    assert_eq!(failing(&[Fault::Short { a: 4, b: 5 }]), [4, 5]);

    let dict = FaultDictionary::build(&module);
    assert_eq!(dict.len(), 17);
    assert_eq!(dict.resolution().to_bits(), 1.0f64.to_bits());

    let mut chain = TapChain::new(&module);
    chain.reset();
    chain.load_instructions(&[
        Instruction::Extest,
        Instruction::Bypass,
        Instruction::Bypass,
    ]);
    assert_eq!(chain.scan_path_bits(), 11);
    assert_eq!(chain.measure_scan_path(), 11);

    let bsdl = generate_bsdl(&module, "FLUXCOMP_MCM");
    assert_eq!(bsdl.lines().count(), 28);
    assert!(parse_bsdl(&bsdl).is_some());

    let n = module.nets().len();
    let shorts: Vec<Fault> = (0..n)
        .flat_map(|a| {
            (0..n)
                .filter(move |&b| b != a)
                .map(move |b| Fault::Short { a, b })
        })
        .collect();
    assert_eq!(shorts.len(), 72);
    let mut fault_sets: Vec<Vec<Fault>> = vec![Vec::new()];
    fault_sets.extend(module.all_single_faults().into_iter().map(|f| vec![f]));
    fault_sets.extend(shorts.iter().map(|&s| vec![s]));
    fault_sets.extend(
        shorts
            .iter()
            .flat_map(|&s| (0..n).map(move |net| vec![s, Fault::Open { net }])),
    );
    assert_eq!(fault_sets.len(), 1 + 17 + 72 + 648);
    let digest = fault_sets.iter().fold(FNV_OFFSET, |h, faults| {
        report_digest(h, &run(&with(faults)))
    });
    assert_eq!(digest, 0xd202_4fc3_4fdd_0b0f);
}
