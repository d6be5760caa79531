//! Monte-Carlo analysis.
//!
//! ELDO-class simulators ship a Monte-Carlo mode: sample component
//! values from their tolerance distributions, rerun the measurement,
//! report the yield. This module provides the deterministic sampling
//! harness; the quantities being varied and the pass/fail criterion are
//! the caller's closures, so the same harness drives the oscillator-
//! tolerance study and the full compass-yield experiment (X3).
//!
//! Trials are seeded **per trial** via [`fluxcomp_exec::derive_seed`]
//! rather than drawn from one sequential generator. That makes every
//! trial a pure function of `(seed, trial index)`, which is what lets
//! [`run_monte_carlo`] farm trials out to the worker pool its
//! [`ExecPolicy`] argument selects and still return results
//! bit-identical to a serial run.

use fluxcomp_exec::{derive_seed, par_map_range, ExecPolicy, SortedSamples, StreamStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::OnceCell;

/// A sampled parameter: nominal value and tolerance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Uniform in `nominal·(1 ± tol)` — worst-case component binning.
    Uniform {
        /// Relative half-width (0.1 = ±10 %).
        tol: f64,
    },
    /// Gaussian with `sigma = nominal·rel_sigma`, clamped at ±4σ —
    /// process-like variation.
    Gaussian {
        /// Relative standard deviation.
        rel_sigma: f64,
    },
}

impl Tolerance {
    /// Draws one multiplicative factor.
    fn sample(&self, rng: &mut StdRng) -> f64 {
        match *self {
            Tolerance::Uniform { tol } => 1.0 + rng.gen_range(-tol..=tol),
            Tolerance::Gaussian { rel_sigma } => {
                // Box-Muller, one value.
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                1.0 + rel_sigma * z.clamp(-4.0, 4.0)
            }
        }
    }
}

/// One Monte-Carlo trial's sampled factors, keyed by parameter index.
pub type Sample = Vec<f64>;

/// Draws the factor vector of trial `index` for a run seeded with
/// `seed`. Pure: the same `(seed, index)` always yields the same sample,
/// independent of any other trial.
fn draw_sample(tolerances: &[Tolerance], seed: u64, index: usize) -> Sample {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, index as u64));
    tolerances.iter().map(|t| t.sample(&mut rng)).collect()
}

/// The outcome of a Monte-Carlo run.
#[derive(Debug, Clone)]
pub struct MonteCarloResult {
    /// Number of trials.
    pub trials: usize,
    /// Number of passing trials.
    pub passes: usize,
    /// The metric value of every trial, in order.
    pub metrics: Vec<f64>,
    stats: StreamStats,
    sorted: OnceCell<SortedSamples>,
}

impl PartialEq for MonteCarloResult {
    fn eq(&self, other: &Self) -> bool {
        self.trials == other.trials && self.passes == other.passes && self.metrics == other.metrics
    }
}

impl MonteCarloResult {
    /// Builds a result from per-trial metrics, accumulating the summary
    /// statistics in the same pass.
    pub fn new(trials: usize, passes: usize, metrics: Vec<f64>) -> Self {
        let stats = StreamStats::from_samples(metrics.iter().copied());
        Self {
            trials,
            passes,
            metrics,
            stats,
            sorted: OnceCell::new(),
        }
    }

    /// Yield = passes / trials.
    pub fn yield_fraction(&self) -> f64 {
        self.passes as f64 / self.trials.max(1) as f64
    }

    /// Mean of the metric (cached at construction).
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Standard deviation of the metric (population σ, cached at
    /// construction).
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }

    /// The single-pass summary statistics of the metric.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// The `q`-quantile of the metric (0.5 = median). The metrics are
    /// sorted once, on first call; repeated queries reuse the sorted
    /// copy.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or there are no trials.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.metrics.is_empty(), "no trials");
        self.sorted
            .get_or_init(|| SortedSamples::new(&self.metrics))
            .quantile(q)
    }
}

/// Runs `trials` Monte-Carlo trials.
///
/// For each trial, one factor per entry of `tolerances` is drawn; the
/// `evaluate` closure turns the factors into a scalar metric; `passes`
/// judges it. Sampling and evaluation run according to `policy` — on
/// the calling thread under [`ExecPolicy::serial`], on a worker pool
/// under [`ExecPolicy::parallel`] — while the pass judgement and
/// statistics fold over the ordered metric vector on the calling
/// thread. For a pure `evaluate` the result — every metric bit, the
/// pass count, the quantiles — is identical at any worker count.
pub fn run_monte_carlo<F, P>(
    tolerances: &[Tolerance],
    trials: usize,
    seed: u64,
    policy: &ExecPolicy,
    evaluate: F,
    mut passes: P,
) -> MonteCarloResult
where
    F: Fn(&Sample) -> f64 + Sync,
    P: FnMut(f64) -> bool,
{
    fluxcomp_obs::counter_add("msim.mc_trials", trials as u64);
    let metrics = par_map_range(policy, trials, |k| {
        evaluate(&draw_sample(tolerances, seed, k))
    });
    let pass_count = metrics.iter().filter(|&&m| passes(m)).count();
    MonteCarloResult::new(trials, pass_count, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let tol = [Tolerance::Uniform { tol: 0.1 }];
        let run = || run_monte_carlo(&tol, 50, 42, &ExecPolicy::serial(), |s| s[0], |m| m > 1.0);
        assert_eq!(run(), run());
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let tol = [
            Tolerance::Uniform { tol: 0.1 },
            Tolerance::Gaussian { rel_sigma: 0.03 },
        ];
        let eval = |s: &Sample| s[0] * s[1];
        let serial = run_monte_carlo(&tol, 500, 0xC0FFEE, &ExecPolicy::serial(), eval, |m| {
            m > 1.0
        });
        for threads in [1, 2, 4, 16] {
            let par = run_monte_carlo(
                &tol,
                500,
                0xC0FFEE,
                &ExecPolicy::parallel(threads),
                eval,
                |m| m > 1.0,
            );
            assert_eq!(serial, par, "at {threads} threads");
            for (a, b) in serial.metrics.iter().zip(&par.metrics) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn trials_are_independent_of_trial_count() {
        // Per-trial seeding means trial k draws the same factors whether
        // the run has 10 or 10 000 trials — unlike a shared sequential
        // generator.
        let tol = [Tolerance::Uniform { tol: 0.1 }];
        let short = run_monte_carlo(&tol, 10, 5, &ExecPolicy::serial(), |s| s[0], |_| true);
        let long = run_monte_carlo(&tol, 100, 5, &ExecPolicy::serial(), |s| s[0], |_| true);
        assert_eq!(short.metrics[..], long.metrics[..10]);
    }

    #[test]
    fn uniform_samples_stay_in_range() {
        let tol = [Tolerance::Uniform { tol: 0.2 }];
        let r = run_monte_carlo(&tol, 2_000, 7, &ExecPolicy::serial(), |s| s[0], |_| true);
        for &m in &r.metrics {
            assert!((0.8..=1.2).contains(&m), "{m}");
        }
        // Roughly centred.
        assert!((r.mean() - 1.0).abs() < 0.01);
    }

    #[test]
    fn gaussian_statistics() {
        let tol = [Tolerance::Gaussian { rel_sigma: 0.05 }];
        let r = run_monte_carlo(&tol, 20_000, 9, &ExecPolicy::serial(), |s| s[0], |_| true);
        assert!((r.mean() - 1.0).abs() < 0.002);
        assert!((r.std_dev() - 0.05).abs() < 0.003);
        // 4σ clamp.
        for &m in &r.metrics {
            assert!((0.8..=1.2).contains(&m));
        }
    }

    #[test]
    fn yield_counts_passing_trials() {
        // Metric = the factor itself; pass when above the median-ish 1.0:
        // yield ≈ 50 %.
        let tol = [Tolerance::Uniform { tol: 0.1 }];
        let r = run_monte_carlo(
            &tol,
            10_000,
            3,
            &ExecPolicy::serial(),
            |s| s[0],
            |m| m > 1.0,
        );
        assert!(
            (r.yield_fraction() - 0.5).abs() < 0.03,
            "{}",
            r.yield_fraction()
        );
    }

    #[test]
    fn quantiles_are_ordered() {
        let tol = [Tolerance::Gaussian { rel_sigma: 0.1 }];
        let r = run_monte_carlo(&tol, 5_000, 5, &ExecPolicy::serial(), |s| s[0], |_| true);
        let q10 = r.quantile(0.1);
        let q50 = r.quantile(0.5);
        let q90 = r.quantile(0.9);
        assert!(q10 < q50 && q50 < q90);
        assert!((q50 - 1.0).abs() < 0.01);
    }

    #[test]
    fn multi_parameter_samples() {
        let tol = [
            Tolerance::Uniform { tol: 0.1 },
            Tolerance::Gaussian { rel_sigma: 0.02 },
        ];
        let r = run_monte_carlo(
            &tol,
            100,
            11,
            &ExecPolicy::serial(),
            |s| s[0] * s[1],
            |_| true,
        );
        assert_eq!(r.trials, 100);
        assert_eq!(r.metrics.len(), 100);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_rejected() {
        let tol = [Tolerance::Uniform { tol: 0.1 }];
        let r = run_monte_carlo(&tol, 10, 1, &ExecPolicy::serial(), |s| s[0], |_| true);
        let _ = r.quantile(1.5);
    }
}
