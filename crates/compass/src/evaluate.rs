//! Accuracy evaluation — the harness behind the paper's headline
//! "accuracy of one degree" (C1) and the field-magnitude insensitivity
//! claim (C9).
//!
//! The sweeps run on the `fluxcomp-exec` engine: each heading is an
//! independent pure measurement of a shared [`CompassDesign`], so
//! [`sweep_headings`] distributes them over the worker pool its
//! [`ExecPolicy`] argument selects and folds the ordered per-heading
//! errors into [`AccuracyStats`] on the calling thread. The fold order
//! never depends on scheduling, which makes the statistics bit-identical
//! at any thread count — `ExecPolicy::serial()` and
//! `ExecPolicy::parallel(n)` are the same computation at different
//! speeds.

use crate::system::{CompassDesign, MeasureScratch};
use fluxcomp_exec::{par_map_range_scratch, ExecPolicy, StreamStats};
use fluxcomp_units::angle::Degrees;

/// Error statistics over a heading sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyStats {
    /// Number of headings evaluated.
    pub samples: usize,
    /// Worst-case absolute angular error.
    pub max_error: Degrees,
    /// Mean absolute angular error.
    pub mean_error: Degrees,
    /// Root-mean-square angular error.
    pub rms_error: Degrees,
    /// Mean signed error (systematic bias).
    pub bias: Degrees,
}

impl AccuracyStats {
    /// Folds a sequence of signed errors (degrees) into the summary
    /// statistics. The fold is a single left-to-right pass, so callers
    /// that need bit-reproducible results must present the errors in a
    /// deterministic order (sweep index order, here).
    pub fn from_signed_errors<I: IntoIterator<Item = f64>>(errors: I) -> Self {
        let s = StreamStats::from_samples(errors);
        Self {
            samples: s.count(),
            max_error: Degrees::new(s.max_abs()),
            mean_error: Degrees::new(s.mean_abs()),
            rms_error: Degrees::new(s.rms()),
            bias: Degrees::new(s.mean()),
        }
    }

    /// `true` when the worst case meets the paper's 1° specification.
    pub fn meets_one_degree_spec(&self) -> bool {
        self.max_error.value() <= 1.0
    }
}

/// The signed heading error (degrees) of one fix at sweep point `k` of
/// `n`: truth is `k·360/n`.
fn sweep_error(design: &CompassDesign, scratch: &mut MeasureScratch, k: usize, n: usize) -> f64 {
    let truth = Degrees::new(k as f64 * 360.0 / n as f64);
    design
        .measure_heading_scratch(truth, design.config().frontend.noise_seed, scratch)
        .heading
        .signed_error_from(truth)
        .value()
}

/// Evaluates the compass over `n` equally spaced headings in `[0, 360)`.
///
/// The `n` fixes are distributed according to `policy` — run them on the
/// calling thread with [`ExecPolicy::serial`] or on a worker pool with
/// [`ExecPolicy::parallel`] — and the statistics are folded in sweep
/// order, so the result is bit-identical at any worker count.
///
/// Every fix runs on the duty-only fast path through one
/// [`MeasureScratch`] per worker, so the whole sweep performs no
/// per-heading allocation.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn sweep_headings(design: &CompassDesign, n: usize, policy: &ExecPolicy) -> AccuracyStats {
    assert!(n > 0, "need at least one heading");
    let _sweep = fluxcomp_obs::span("compass.sweep");
    let errors = par_map_range_scratch(
        policy,
        n,
        || MeasureScratch::for_design(design),
        |scratch, k| sweep_error(design, scratch, k, n),
    );
    AccuracyStats::from_signed_errors(errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompassConfig;

    #[test]
    fn paper_design_meets_one_degree_over_sweep() {
        // The headline reproduction: a 24-point sweep of the full
        // circle through the complete mixed-signal pipeline.
        let design = CompassDesign::new(CompassConfig::paper_design()).unwrap();
        let stats = sweep_headings(&design, 24, &ExecPolicy::serial());
        assert!(
            stats.meets_one_degree_spec(),
            "max error {} exceeds 1°",
            stats.max_error
        );
        assert!(stats.mean_error <= stats.max_error);
        assert!(stats.rms_error <= stats.max_error);
        assert!(stats.bias.value().abs() <= stats.mean_error.value() + 1e-12);
        assert_eq!(stats.samples, 24);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let design = CompassDesign::new(CompassConfig::paper_design()).unwrap();
        let serial = sweep_headings(&design, 24, &ExecPolicy::serial());
        for threads in [2, 4, 8] {
            let par = sweep_headings(&design, 24, &ExecPolicy::parallel(threads));
            assert_eq!(serial, par, "at {threads} threads");
            assert_eq!(
                serial.rms_error.value().to_bits(),
                par.rms_error.value().to_bits()
            );
        }
    }

    #[test]
    fn fewer_cordic_iterations_lose_the_spec() {
        let mut cfg = CompassConfig::paper_design();
        cfg.cordic_iterations = 3;
        let design = CompassDesign::new(cfg).unwrap();
        let stats = sweep_headings(&design, 16, &ExecPolicy::serial());
        assert!(
            !stats.meets_one_degree_spec(),
            "3 iterations should miss 1°: max {}",
            stats.max_error
        );
    }

    #[test]
    fn stats_fold_matches_direct_formulas() {
        let errs = [0.5, -0.25, 1.0, -0.75];
        let s = AccuracyStats::from_signed_errors(errs);
        assert_eq!(s.samples, 4);
        assert_eq!(s.max_error.value(), 1.0);
        assert!((s.mean_error.value() - 0.625).abs() < 1e-12);
        assert!((s.bias.value() - 0.125).abs() < 1e-12);
        let rms = (errs.iter().map(|e| e * e).sum::<f64>() / 4.0).sqrt();
        assert!((s.rms_error.value() - rms).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one heading")]
    fn empty_sweep_rejected() {
        let design = CompassDesign::new(CompassConfig::paper_design()).unwrap();
        let _ = sweep_headings(&design, 0, &ExecPolicy::serial());
    }
}
