//! The unified streaming statistics accumulator.
//!
//! The accuracy sweeps (`compass::evaluate::AccuracyStats`) and the
//! Monte-Carlo harness (`msim::montecarlo::MonteCarloResult`) previously
//! carried two ad-hoc copies of the same sums. [`StreamStats`] is the
//! single-pass replacement both build on: one `push` per sample
//! accumulates count, signed sum (bias), absolute sum, sum of squares
//! and extrema. [`SortedSamples`] complements it for quantile queries —
//! sort once, answer many.
//!
//! Determinism note: `push` is always driven in task-index order over
//! the ordered output of `exec::par_map_range`, so the floating-point
//! accumulation order — and every rounded bit of the derived statistics
//! — is identical to a serial loop.

/// Single-pass accumulator for max/mean/rms/bias statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamStats {
    count: usize,
    sum: f64,
    sum_abs: f64,
    sum_sq: f64,
    max_abs: f64,
    min: f64,
    max: f64,
}

impl StreamStats {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            sum_abs: 0.0,
            sum_sq: 0.0,
            max_abs: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Accumulates one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.sum_abs += x.abs();
        self.sum_sq += x * x;
        self.max_abs = self.max_abs.max(x.abs());
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Accumulates every sample of an iterator, in iteration order.
    #[must_use]
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut s = Self::new();
        for x in samples {
            s.push(x);
        }
        s
    }

    /// Number of samples accumulated.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// `true` when nothing has been accumulated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the signed samples (the systematic bias of an error
    /// series). Zero for an empty accumulator.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Mean of the absolute values.
    #[must_use]
    pub fn mean_abs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_abs / self.count as f64
        }
    }

    /// Root mean square.
    #[must_use]
    pub fn rms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_sq / self.count as f64).sqrt()
        }
    }

    /// Population standard deviation (σ, not the n−1 sample estimate —
    /// matching the Monte-Carlo harness's historical definition).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq / self.count as f64 - mean * mean)
            .max(0.0)
            .sqrt()
    }

    /// Largest absolute sample.
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.max_abs
    }

    /// Smallest sample, `+∞` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample, `−∞` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Samples sorted once for repeated quantile queries.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedSamples {
    sorted: Vec<f64>,
}

impl SortedSamples {
    /// Sorts a copy of `samples` (total order; NaNs sort last).
    #[must_use]
    pub fn new(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self { sorted }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when there are no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile by nearest-rank on the sorted samples
    /// (`q = 0.5` is the median; the historical Monte-Carlo rule).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or there are no samples.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        assert!(!self.sorted.is_empty(), "no samples");
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        self.sorted[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_two_pass_reference() {
        let xs: Vec<f64> = (0..1000).map(|k| ((k * 37) % 101) as f64 - 50.0).collect();
        let s = StreamStats::from_samples(xs.iter().copied());
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let mean_abs = xs.iter().map(|x| x.abs()).sum::<f64>() / n;
        let rms = (xs.iter().map(|x| x * x).sum::<f64>() / n).sqrt();
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert_eq!(s.count(), xs.len());
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.mean_abs() - mean_abs).abs() < 1e-12);
        assert!((s.rms() - rms).abs() < 1e-12);
        assert!((s.std_dev() - var.sqrt()).abs() < 1e-9);
        assert_eq!(s.max_abs(), 50.0);
        assert_eq!(s.min(), -50.0);
        assert_eq!(s.max(), 50.0);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = StreamStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.mean_abs(), 0.0);
        assert_eq!(s.rms(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.max_abs(), 0.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let s = SortedSamples::new(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.quantile(0.9), 5.0); // round(0.9·4) = 4
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_range_checked() {
        let _ = SortedSamples::new(&[1.0]).quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_quantile_rejected() {
        let _ = SortedSamples::new(&[]).quantile(0.5);
    }
}
