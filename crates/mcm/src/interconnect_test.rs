//! The EXTEST interconnect test (experiment E10).
//!
//! The point of the boundary-scan structures of \[Oli96\] is testing the
//! MCM's die-to-die wiring after assembly. The classic algorithm is the
//! **counting sequence** (true/complement walking codes): each net is
//! assigned its index as a binary code; patterns `p` drive bit `p` of
//! every net's code; any open or short between nets with different codes
//! produces a mismatch at the receivers. All-zeros and all-ones patterns
//! are appended to catch stuck-style behaviour of the wired-AND short
//! model and opens on nets whose counting code happens to be benign.
//!
//! The patterns go through the module's TAP chain as a tester would
//! apply them: a SAMPLE/PRELOAD scan loads the first pattern, one IR scan
//! selects EXTEST on every die, and each DR scan then captures the
//! response to one pattern while it shifts in the next.

use crate::bscan::Instruction;
use crate::chain::TapChain;
use crate::substrate::{Die, McmAssembly};

/// One pattern's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternResult {
    /// The driven values.
    pub driven: Vec<bool>,
    /// The observed values after substrate propagation.
    pub observed: Vec<bool>,
    /// Nets whose observation differed from the drive.
    pub mismatches: Vec<usize>,
}

/// The full test outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestReport {
    /// Per-pattern results.
    pub patterns: Vec<PatternResult>,
    /// Union of all mismatching nets.
    pub failing_nets: Vec<usize>,
}

impl TestReport {
    /// `true` when no pattern mismatched — the module passes.
    pub fn passed(&self) -> bool {
        self.failing_nets.is_empty()
    }

    /// Number of test patterns applied.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }
}

/// The counting-sequence pattern set for `assembly`'s nets:
/// `ceil(log2(n+2))` code bits, each applied true and complemented, plus
/// all-zeros and all-ones.
///
/// Codes start at 1 so no net carries the all-zeros code (which the
/// open model would alias).
pub fn patterns(assembly: &McmAssembly) -> Vec<Vec<bool>> {
    let n = assembly.nets().len();
    let bits = usize::BITS - (n + 1).leading_zeros();
    let mut out = Vec::new();
    for b in 0..bits {
        let p: Vec<bool> = (0..n).map(|i| ((i + 1) >> b) & 1 == 1).collect();
        let q: Vec<bool> = p.iter().map(|&v| !v).collect();
        out.push(p);
        out.push(q);
    }
    out.push(vec![false; n]);
    out.push(vec![true; n]);
    out
}

/// Runs the interconnect test on an assembly through its TAP chain.
/// Each net is launched from its driver die's cell and observed at its
/// first receiver's.
pub fn run(assembly: &McmAssembly) -> TestReport {
    let _test = fluxcomp_obs::span("mcm.interconnect_test");
    let nets = assembly.nets();
    let mut chain = TapChain::new(assembly);
    let cells: Vec<_> = chain.cells().collect();
    let patterns = patterns(assembly);
    // Each pattern as a scan: every net's value in its driver's cell.
    let mut loads: Vec<Vec<bool>> = patterns
        .iter()
        .map(|p| {
            cells
                .iter()
                .map(|&(die, net)| die == nets[net].driver && p[net])
                .collect()
        })
        .collect();
    loads.push(vec![false; cells.len()]); // the last scan launches all-low
    chain.reset();
    chain.load_instructions(&[Instruction::Sample; Die::CHAIN.len()]);
    chain.scan_dr(&loads[0]);
    chain.load_instructions(&[Instruction::Extest; Die::CHAIN.len()]);
    // Each scan captures one pattern's response and launches the next.
    let mut results = Vec::new();
    for (driven, next) in patterns.into_iter().zip(&loads[1..]) {
        fluxcomp_obs::counter_add("mcm.test_vectors", 1);
        let captured = chain.scan_dr(next);
        let mut observed = vec![false; nets.len()];
        for (&(die, net), &bit) in cells.iter().zip(&captured) {
            if die == nets[net].receivers[0] {
                observed[net] = bit;
            }
        }
        let mismatches: Vec<usize> = (0..nets.len())
            .filter(|&i| observed[i] != driven[i])
            .collect();
        results.push(PatternResult {
            driven,
            observed,
            mismatches,
        });
    }
    let mut failing: Vec<usize> = results.iter().flat_map(|r| r.mismatches.clone()).collect();
    failing.sort_unstable();
    failing.dedup();
    TestReport {
        patterns: results,
        failing_nets: failing,
    }
}

/// Fault-coverage experiment: injects every single fault in turn and
/// reports the fraction the test detects.
pub fn coverage(assembly: &McmAssembly) -> f64 {
    let faults = assembly.all_single_faults();
    let detected = faults.iter().filter(|&&fault| {
        let mut dut = assembly.clone();
        dut.clear_faults();
        dut.inject(fault);
        !run(&dut).passed()
    });
    detected.count() as f64 / faults.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::Fault;

    fn module() -> McmAssembly {
        McmAssembly::paper_module()
    }

    #[test]
    fn fault_free_module_passes() {
        let report = run(&module());
        assert!(report.passed());
        assert!(report.failing_nets.is_empty());
    }

    #[test]
    fn pattern_count_is_logarithmic() {
        // 9 nets → codes 1..=9 need 4 bits → 8+2 patterns
        let report = run(&module());
        assert_eq!(report.pattern_count(), 10);
    }

    #[test]
    fn every_open_is_detected_and_diagnosed() {
        for net in 0..module().nets().len() {
            let mut dut = module();
            dut.inject(Fault::Open { net });
            let report = run(&dut);
            assert!(!report.passed(), "open on net {net} undetected");
            assert!(
                report.failing_nets.contains(&net),
                "open on net {net} misdiagnosed: {:?}",
                report.failing_nets
            );
        }
    }

    #[test]
    fn every_adjacent_short_is_detected() {
        let n = module().nets().len();
        for a in 0..n - 1 {
            let mut dut = module();
            dut.inject(Fault::Short { a, b: a + 1 });
            let report = run(&dut);
            assert!(!report.passed(), "short {a}-{} undetected", a + 1);
            // At least one of the bridged nets shows up.
            assert!(
                report.failing_nets.contains(&a) || report.failing_nets.contains(&(a + 1)),
                "short {a}-{} misdiagnosed",
                a + 1
            );
        }
    }

    #[test]
    fn non_adjacent_shorts_also_detected() {
        let mut dut = module();
        dut.inject(Fault::Short { a: 0, b: 7 });
        assert!(!run(&dut).passed());
    }

    #[test]
    fn full_single_fault_coverage() {
        // The E10 headline: 100 % single-fault coverage on the paper's
        // module.
        let cov = coverage(&module());
        assert_eq!(cov, 1.0, "coverage {cov}");
    }

    #[test]
    fn counting_codes_are_distinct() {
        let pats = patterns(&module());
        let n = module().nets().len();
        // Reconstruct each net's code from the non-complement patterns
        // (even indices) and check pairwise distinctness.
        let codes: Vec<u32> = (0..n)
            .map(|i| {
                pats.iter()
                    .step_by(2)
                    .take(4)
                    .enumerate()
                    .fold(0, |acc, (b, p)| acc | ((p[i] as u32) << b))
            })
            .collect();
        for a in 0..n {
            for b in a + 1..n {
                assert_ne!(codes[a], codes[b], "nets {a} and {b} share a code");
            }
        }
        // No all-zeros code.
        assert!(codes.iter().all(|&c| c != 0));
    }
}
