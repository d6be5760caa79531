//! The production test flow — what the manufacturing line runs on every
//! assembled module before it ships in a watch.
//!
//! Three stages, cheapest first, mirroring real MCM test practice and
//! combining the workspace's test machinery end to end:
//!
//! 1. **Interconnect** — boundary-scan EXTEST over the substrate
//!    (\[Oli96\]); catches assembly defects (opens/shorts) and diagnoses
//!    them via the fault dictionary;
//! 2. **Self-test** — the dc-injection BIST through the whole analogue
//!    chain; catches drive/detector/counter faults;
//! 3. **Functional** — a heading check in the test fixture's known
//!    field; the final arbiter (and the only stage that sees the
//!    sensor-gain blind spot of the BIST).

use crate::config::CompassConfig;
use crate::selftest::{run_self_test, SelfTestReport};
use crate::system::CompassDesign;
use fluxcomp_mcm::diagnosis::diagnose_module;
use fluxcomp_mcm::interconnect_test;
use fluxcomp_mcm::substrate::{Fault, McmAssembly};
use fluxcomp_units::angle::Degrees;
use fluxcomp_units::si::Ampere;

/// Why a module was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The EXTEST interconnect test failed; candidate defects attached.
    Interconnect {
        /// Fault candidates from the dictionary.
        candidates: Vec<Fault>,
    },
    /// The dc-injection self-test failed.
    SelfTest {
        /// The failing report.
        report: SelfTestReport,
    },
    /// The functional heading check exceeded the limit.
    Functional {
        /// Worst heading error observed, degrees.
        worst_error: f64,
    },
}

/// The flow's outcome for one module.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductionResult {
    /// `None` = shipped; `Some` = rejected at the named stage.
    pub reject: Option<RejectReason>,
    /// Which stages actually ran (earlier rejects skip later stages).
    pub stages_run: u32,
}

/// The functional limit: the paper's specification plus a test-fixture
/// guard band.
pub const FUNCTIONAL_LIMIT_DEGREES: f64 = 1.2;

/// Runs the full flow on one module: `assembly` is the physical MCM
/// (possibly with injected defects), `config` the electrical
/// configuration of the unit under test.
pub fn production_test(assembly: &McmAssembly, config: &CompassConfig) -> ProductionResult {
    // Stage 1: interconnect.
    let golden = McmAssembly::paper_module();
    if !interconnect_test::run(assembly).passed() {
        let candidates = diagnose_module(&golden, assembly);
        return ProductionResult {
            reject: Some(RejectReason::Interconnect { candidates }),
            stages_run: 1,
        };
    }

    // Stage 2: BIST.
    let report = run_self_test(config, Ampere::new(0.5e-3));
    if !report.passed {
        return ProductionResult {
            reject: Some(RejectReason::SelfTest { report }),
            stages_run: 2,
        };
    }

    // Stage 3: functional check in the fixture's field. The design's
    // measurement path is immutable, so the check needs no per-module
    // mutable state — modules on a parallel line share nothing.
    let design = match CompassDesign::new(config.clone()) {
        Ok(d) => d,
        Err(_) => {
            return ProductionResult {
                reject: Some(RejectReason::Functional {
                    worst_error: f64::INFINITY,
                }),
                stages_run: 3,
            }
        }
    };
    let mut worst = 0.0f64;
    for deg in [0.0, 90.0, 180.0, 270.0, 45.0] {
        let t = Degrees::new(deg);
        let got = design.measure_heading(t).heading;
        worst = worst.max(got.angular_distance(t).value());
    }
    if worst > FUNCTIONAL_LIMIT_DEGREES {
        return ProductionResult {
            reject: Some(RejectReason::Functional { worst_error: worst }),
            stages_run: 3,
        };
    }
    ProductionResult {
        reject: None,
        stages_run: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxcomp_units::si::Ohm;

    #[test]
    fn good_module_ships() {
        let result = production_test(&McmAssembly::paper_module(), &CompassConfig::paper_design());
        assert!(result.reject.is_none(), "{result:?}");
        assert_eq!(result.stages_run, 3);
    }

    #[test]
    fn assembly_defect_caught_at_stage_one_with_diagnosis() {
        let mut module = McmAssembly::paper_module();
        module.inject(Fault::Open { net: 3 });
        let result = production_test(&module, &CompassConfig::paper_design());
        assert!(result.reject.is_some());
        assert_eq!(result.stages_run, 1, "must stop at the cheap stage");
        match result.reject.unwrap() {
            RejectReason::Interconnect { candidates } => {
                assert!(candidates.contains(&Fault::Open { net: 3 }));
            }
            other => panic!("wrong stage: {other:?}"),
        }
    }

    #[test]
    fn drive_fault_caught_at_stage_two() {
        let mut cfg = CompassConfig::paper_design();
        cfg.frontend.excitation = cfg
            .frontend
            .excitation
            .with_amplitude_pp(Ampere::new(12e-3 * 0.7));
        let result = production_test(&McmAssembly::paper_module(), &cfg);
        assert!(result.reject.is_some());
        assert_eq!(result.stages_run, 2);
        assert!(matches!(result.reject, Some(RejectReason::SelfTest { .. })));
    }

    #[test]
    fn bist_blind_spot_caught_at_stage_three() {
        // The current-starved drive that fools the BIST (see
        // `selftest::current_starved_drive_is_a_known_blind_spot`) must
        // be caught functionally.
        let mut cfg = CompassConfig::paper_design();
        cfg.pair.element.r_excitation = Ohm::new(1e6);
        cfg.frontend.sensor = cfg.pair.element;
        let result = production_test(&McmAssembly::paper_module(), &cfg);
        assert!(result.reject.is_some(), "{result:?}");
        assert_eq!(
            result.stages_run, 3,
            "the BIST passes; functional must catch it"
        );
        assert!(matches!(
            result.reject,
            Some(RejectReason::Functional { .. })
        ));
    }

    #[test]
    fn misalignment_out_of_spec_caught_functionally() {
        let mut cfg = CompassConfig::paper_design();
        cfg.pair.misalignment = fluxcomp_units::Degrees::new(4.0);
        let result = production_test(&McmAssembly::paper_module(), &cfg);
        assert!(result.reject.is_some());
        assert!(matches!(
            result.reject,
            Some(RejectReason::Functional { worst_error }) if worst_error > 1.2
        ));
    }
}
