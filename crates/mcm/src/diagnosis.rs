//! Fault diagnosis via a precomputed fault dictionary.
//!
//! Running the EXTEST interconnect test tells a manufacturing line *that*
//! a module is bad; a **fault dictionary** tells it *what* to look at
//! under the microscope. The dictionary is built by simulating every
//! modelled single fault through the same test the tester applies and
//! recording its failure **signature** (which nets mismatched on which
//! patterns). Diagnosis is then signature lookup; faults with identical
//! signatures are equivalence classes the test cannot distinguish.

use crate::interconnect_test;
use crate::substrate::{Fault, McmAssembly};

/// The failure signature of one test run: for every pattern, the set of
/// mismatching nets (as a bitmask; the paper module has 9 nets).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature(Vec<u32>);

impl Signature {
    /// Extracts the signature from a test report.
    pub fn from_report(report: &crate::interconnect_test::TestReport) -> Self {
        Signature(
            report
                .patterns
                .iter()
                .map(|p| p.mismatches.iter().fold(0u32, |acc, &net| acc | (1 << net)))
                .collect(),
        )
    }

    /// `true` when no pattern failed.
    pub fn is_clean(&self) -> bool {
        self.0.iter().all(|&m| m == 0)
    }
}

/// The fault dictionary of a module.
#[derive(Debug, Clone)]
pub struct FaultDictionary {
    entries: Vec<(Fault, Signature)>,
}

impl FaultDictionary {
    /// Builds the dictionary by simulating every single fault of the
    /// (assumed fault-free) `golden` module.
    pub fn build(golden: &McmAssembly) -> Self {
        let entries = golden
            .all_single_faults()
            .into_iter()
            .map(|fault| {
                let mut dut = golden.clone();
                dut.clear_faults();
                dut.inject(fault);
                (fault, Signature::from_report(&interconnect_test::run(&dut)))
            })
            .collect();
        Self { entries }
    }

    /// Number of dictionary entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the fault candidates matching an observed signature.
    pub fn diagnose(&self, observed: &Signature) -> Vec<Fault> {
        self.entries
            .iter()
            .filter(|(_, sig)| sig == observed)
            .map(|&(f, _)| f)
            .collect()
    }

    /// The equivalence classes: groups of faults the test cannot tell
    /// apart (identical signatures).
    pub fn equivalence_classes(&self) -> Vec<Vec<Fault>> {
        let mut classes: Vec<(Signature, Vec<Fault>)> = Vec::new();
        for (fault, sig) in &self.entries {
            match classes.iter_mut().find(|(s, _)| s == sig) {
                Some((_, members)) => members.push(*fault),
                None => classes.push((sig.clone(), vec![*fault])),
            }
        }
        classes.into_iter().map(|(_, m)| m).collect()
    }

    /// Diagnostic resolution: the fraction of faults that are uniquely
    /// identifiable (their equivalence class has size 1).
    pub fn resolution(&self) -> f64 {
        let unique: usize = self
            .equivalence_classes()
            .iter()
            .filter(|c| c.len() == 1)
            .map(|c| c.len())
            .sum();
        unique as f64 / self.entries.len() as f64
    }
}

/// End-to-end diagnosis: runs the test on a DUT and looks up the
/// candidates. Returns an empty vector for a passing module.
pub fn diagnose_module(golden: &McmAssembly, dut: &McmAssembly) -> Vec<Fault> {
    let sig = Signature::from_report(&interconnect_test::run(dut));
    if sig.is_clean() {
        return Vec::new();
    }
    FaultDictionary::build(golden).diagnose(&sig)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> McmAssembly {
        McmAssembly::paper_module()
    }

    #[test]
    fn dictionary_covers_every_single_fault() {
        let dict = FaultDictionary::build(&golden());
        assert_eq!(dict.len(), 17); // 9 opens + 8 adjacent shorts
        assert!(!dict.is_empty());
        // Every signature is non-clean (100 % detection, as E10 shows).
        for class in dict.equivalence_classes() {
            assert!(!class.is_empty());
        }
    }

    #[test]
    fn every_fault_diagnoses_to_a_class_containing_it() {
        let g = golden();
        for fault in g.all_single_faults() {
            let mut dut = g.clone();
            dut.inject(fault);
            let candidates = diagnose_module(&g, &dut);
            assert!(
                candidates.contains(&fault),
                "{fault:?} not among candidates {candidates:?}"
            );
        }
    }

    #[test]
    fn clean_module_diagnoses_to_nothing() {
        let g = golden();
        assert!(diagnose_module(&g, &g).is_empty());
    }

    #[test]
    fn diagnostic_resolution_is_high() {
        // The counting-sequence patterns separate most faults; perfect
        // resolution is not guaranteed (some opens/shorts can alias),
        // but the majority must be uniquely identified.
        let dict = FaultDictionary::build(&golden());
        let res = dict.resolution();
        assert!(res >= 0.7, "resolution {res}");
    }

    #[test]
    fn equivalence_classes_partition_the_faults() {
        let dict = FaultDictionary::build(&golden());
        let total: usize = dict.equivalence_classes().iter().map(|c| c.len()).sum();
        assert_eq!(total, dict.len());
    }

    #[test]
    fn signature_clean_check() {
        let g = golden();
        let sig = Signature::from_report(&interconnect_test::run(&g));
        assert!(sig.is_clean());
    }
}
