//! MCM boundary-scan interconnect test (paper §2 / [Oli96] /
//! experiment E10): assemble the module, read its IDCODE through the
//! three dies' TAP chain, run the EXTEST counting-sequence test through
//! that chain, then break a trace and a pair of traces and watch the
//! test find them.
//!
//! ```text
//! cargo run --example boundary_scan_demo
//! ```

use fluxcomp::mcm::interconnect_test;
use fluxcomp::mcm::substrate::{Fault, McmAssembly};
use fluxcomp::mcm::TapChain;

fn main() {
    let _obs = fluxcomp::obs::init_from_env();
    let module = McmAssembly::paper_module();
    println!(
        "MCM: SoG die + 2 fluxgate sensor dies, {} substrate nets",
        module.nets().len()
    );
    for (i, net) in module.nets().iter().enumerate() {
        println!(
            "  net {i}: {:<10} {:?} -> {:?}",
            net.name, net.driver, net.receivers
        );
    }
    for (name, p) in module.passives() {
        println!("  substrate passive: {name} = {p:?}");
    }

    // Read the IDCODE like a tester would: reset selects IDCODE on every
    // die, and one DR scan shifts the codes out. The SoG die's, nearest
    // TDI, arrives last, MSB first.
    let mut chain = TapChain::new(&module);
    chain.reset();
    let bits = chain.scan_dr(&vec![false; chain.scan_path_bits()]);
    let idcode = bits[..32]
        .iter()
        .fold(0u32, |code, &b| code << 1 | u32::from(b));
    println!("\nIDCODE read through TAP: 0x{idcode:08X}");

    let report = interconnect_test::run(&module);
    println!(
        "\nfault-free module: {} patterns, result: {}",
        report.pattern_count(),
        if report.passed() { "PASS" } else { "FAIL" }
    );

    let mut broken = module.clone();
    broken.inject(Fault::Open { net: 2 });
    let report = interconnect_test::run(&broken);
    println!(
        "open on net 2 ({}): result {}, failing nets {:?}",
        broken.nets()[2].name,
        if report.passed() { "PASS" } else { "FAIL" },
        report.failing_nets
    );

    let mut shorted = module.clone();
    shorted.inject(Fault::Short { a: 4, b: 5 });
    let report = interconnect_test::run(&shorted);
    println!(
        "short between nets 4 and 5: result {}, failing nets {:?}",
        if report.passed() { "PASS" } else { "FAIL" },
        report.failing_nets
    );

    let coverage = interconnect_test::coverage(&module);
    println!(
        "\nsingle-fault coverage over all opens + adjacent shorts: {:.0} %",
        coverage * 100.0
    );
}
