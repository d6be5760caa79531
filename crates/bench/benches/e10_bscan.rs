//! E10 — claim C12: MCM boundary-scan interconnect test (\[Oli96\]).
//!
//! Regenerates the testability result: counting-sequence EXTEST patterns
//! over the module's nine substrate nets, applied through the three
//! dies' TAP chain, with single-fault coverage over all opens and
//! adjacent shorts, plus the large-passive placement rule. Times the
//! tester and the TAP machinery.

use criterion::{criterion_group, Criterion};
use fluxcomp_bench::banner;
use fluxcomp_mcm::chain::TapChain;
use fluxcomp_mcm::diagnosis::FaultDictionary;
use fluxcomp_mcm::interconnect_test;
use fluxcomp_mcm::substrate::{Fault, McmAssembly};
use fluxcomp_mcm::{generate_bsdl, Instruction};
use fluxcomp_sog::fabric::CapacitorPlan;
use fluxcomp_units::si::Farad;
use std::hint::black_box;

fn print_experiment() {
    banner(
        "E10",
        "MCM boundary-scan interconnect test",
        "§2, [Oli96], claim C12",
    );

    let module = McmAssembly::paper_module();
    let clean = interconnect_test::run(&module);
    eprintln!(
        "  module: {} nets, {} substrate passives; {} EXTEST patterns; clean run: {}",
        module.nets().len(),
        module.passives().len(),
        clean.pattern_count(),
        if clean.passed() { "PASS" } else { "FAIL" }
    );

    let coverage = interconnect_test::coverage(&module);
    eprintln!(
        "  single-fault coverage ({} opens + {} adjacent shorts): {:.0} %",
        module.nets().len(),
        module.nets().len() - 1,
        coverage * 100.0
    );

    let mut faulty = module.clone();
    faulty.inject(Fault::Short { a: 0, b: 1 });
    let report = interconnect_test::run(&faulty);
    eprintln!(
        "  example diagnosis, short exc_x_p/exc_x_n: failing nets {:?}",
        report.failing_nets
    );

    let dict = FaultDictionary::build(&module);
    eprintln!(
        "  fault dictionary: {} entries, diagnostic resolution {:.0} % uniquely identified",
        dict.len(),
        dict.resolution() * 100.0
    );

    let mut chain = TapChain::new(&module); // SoG die + 2 sensor dies
    chain.reset();
    chain.load_instructions(&[
        Instruction::Extest,
        Instruction::Bypass,
        Instruction::Bypass,
    ]);
    eprintln!(
        "  3-die TAP chain: scan path {} bits with only the SoG die in EXTEST (integrity check: {})",
        chain.scan_path_bits(),
        chain.measure_scan_path()
    );
    let bsdl = generate_bsdl(&module, "FLUXCOMP_MCM");
    eprintln!(
        "  BSDL description: {} lines, parsed back OK: {}",
        bsdl.lines().count(),
        fluxcomp_mcm::parse_bsdl(&bsdl).is_some()
    );

    eprintln!("\n  large-passive placement rule (> 400 pF on the substrate):");
    for pf in [10.0, 100.0, 400.0, 470.0] {
        let plan = CapacitorPlan::for_value(Farad::new(pf * 1e-12));
        eprintln!("    {pf:>6.0} pF -> {plan:?}");
    }
}

fn bench(c: &mut Criterion) {
    print_experiment();

    let mut group = c.benchmark_group("e10_bscan");

    let module = McmAssembly::paper_module();
    group.bench_function("extest_interconnect_test", |b| {
        b.iter(|| black_box(interconnect_test::run(black_box(&module)).passed()))
    });
    group.bench_function("single_fault_coverage_sweep", |b| {
        b.iter(|| black_box(interconnect_test::coverage(black_box(&module))))
    });

    group.bench_function("tap_idcode_readout", |b| {
        b.iter(|| {
            // Reset selects IDCODE on every die; the SoG die's code
            // leaves last, MSB first.
            let mut chain = TapChain::new(&module);
            chain.reset();
            let bits = chain.scan_dr(&[false; 96]);
            black_box(
                bits[..32]
                    .iter()
                    .fold(0u32, |code, &b| code << 1 | u32::from(b)),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
fluxcomp_bench::bench_main!(benches);
