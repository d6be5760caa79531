//! Order statistics, timing helpers and the process memory probe.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sorts a sample set (total order, so a stray NaN cannot panic).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank quantile of an already sorted sample set: the smallest
/// value with at least `q` of the samples at or below it. An infinite
/// sample (a failed request) is a valid rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample set");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample set.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// The rate held in three quarters of a run's short intervals: the 25th
/// percentile of the per-interval rates. A host stall spoils a few
/// intervals and the host's intermittent fast spells lift some; neither
/// moves this figure unless it covers a quarter of the run.
pub fn sustained_rate(rates: &[f64]) -> f64 {
    quantile(&sorted(rates.to_vec()), 0.25)
}

/// Set-ups timed in rounds spread over a run, so that one spell of fast
/// or slow host does not set `setup_s`.
#[derive(Debug, Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Runs `setup` `reps` times, timing each and dividing by the host
    /// `scale` measured just before (see `host::HostProbe::scale`);
    /// returns the last result.
    pub fn round<T>(&mut self, reps: usize, scale: f64, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            let value = setup();
            self.0.push(secs(t.elapsed()) / scale);
            last = Some(value);
        }
        last.expect("at least one set-up")
    }

    /// The set-up time held in three quarters of the set-ups (their 75th
    /// percentile), in seconds, and how many there were.
    pub fn sustained_s(&self) -> (f64, u64) {
        (quantile(&sorted(self.0.clone()), 0.75), self.0.len() as u64)
    }
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median cost per call of `batch`, in nanoseconds.
///
/// `batch` runs a fixed amount of work and returns how many calls it
/// made. The batch is repeated until it has run for at least `budget`
/// (and at least five times), and the median batch rate is returned, so
/// one preempted batch does not move the figure.
pub fn ns_per_call(budget: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.len() < 5 || start.elapsed() < budget {
        let t0 = Instant::now();
        let calls = black_box(batch());
        rates.push(t0.elapsed().as_nanos() as f64 / calls.max(1) as f64);
    }
    median(&rates)
}

/// A log-linear histogram of durations in nanoseconds, with bins 0.4 %
/// wide and a fixed size, so recording costs no memory that grows with
/// the program's speed. A failed request is recorded as infinite.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    infinite: u64,
    total: u64,
}

/// Bin ratio `1 + 2^-8`; bins cover 1 ns to over 1000 s.
const HIST_LN_RATIO: f64 = 0.003_898_640_415_657_323;
const HIST_BINS: usize = 7_200;

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; HIST_BINS],
            infinite: 0,
            total: 0,
        }
    }
}

impl Hist {
    pub fn record_ns(&mut self, ns: f64) {
        self.total += 1;
        if !ns.is_finite() {
            self.infinite += 1;
            return;
        }
        let bin = (ns.max(1.0).ln() / HIST_LN_RATIO) as usize;
        self.counts[bin.min(HIST_BINS - 1)] += 1;
    }

    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos() as f64);
    }

    /// Records `n` failures.
    pub fn record_failures(&mut self, n: u64) {
        self.total += n;
        self.infinite += n;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile in nanoseconds: the geometric middle of the
    /// bin holding that rank, infinite if the rank is a failure.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        assert!(self.total > 0, "quantile of an empty histogram");
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (bin, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ((bin as f64 + 0.5) * HIST_LN_RATIO).exp();
            }
        }
        f64::INFINITY
    }
}

/// Latencies kept per window of equal length, so that a percentile can
/// be taken in each window and summarised over windows: one host stall
/// then moves one window, not the figure.
#[derive(Debug, Clone)]
pub struct Windowed {
    width: Duration,
    windows: Vec<Hist>,
}

/// Width of the windows of [`Windowed`].
pub const TAIL_WINDOW: Duration = Duration::from_secs(1);

impl Windowed {
    /// Windows of [`TAIL_WINDOW`] covering `span`; samples past the last
    /// full window count in it.
    pub fn new(span: Duration) -> Self {
        let full = (span.as_secs_f64() / TAIL_WINDOW.as_secs_f64()) as usize;
        Self {
            width: TAIL_WINDOW,
            windows: vec![Hist::default(); full.max(1)],
        }
    }

    /// Records a latency (`f64::INFINITY` for a failure) for an event
    /// `at` after the start of the measured span.
    pub fn record_ns(&mut self, at: Duration, ns: f64) {
        let w = (at.as_secs_f64() / self.width.as_secs_f64()) as usize;
        let last = self.windows.len() - 1;
        self.windows[w.min(last)].record_ns(ns);
    }

    /// Records `n` failures whose time is unknown, in the last window.
    pub fn record_failures(&mut self, n: u64) {
        if let Some(last) = self.windows.last_mut() {
            last.record_failures(n);
        }
    }

    pub fn count(&self) -> u64 {
        self.windows.iter().map(Hist::count).sum()
    }

    /// The `q` quantile the run sustains: each non-empty window's `q`
    /// quantile divided by that window's host scale, then the 75th
    /// percentile over windows, so the figure holds in three quarters of
    /// the run (the latency counterpart of [`sustained_rate`]). Window
    /// `i` covers `[i, i + 1)` widths from the start. Returns nanoseconds
    /// and the window count.
    pub fn sustained_quantile_ns(&self, q: f64, scale: impl Fn(usize) -> f64) -> (f64, u64) {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .enumerate()
            .filter(|(_, h)| h.count() > 0)
            .map(|(i, h)| h.quantile_ns(q) / scale(i))
            .collect();
        let windows = per_window.len() as u64;
        (quantile(&sorted(per_window), 0.75), windows)
    }
}

/// The latency tail as a note: printed, not bounded, because on the host
/// the benchmark was defined on, host stalls set it and it varied
/// several-fold between seeds.
pub fn tail_note(p90_ns: f64, p99_ns: f64, windows: u64, samples: u64) -> String {
    format!(
        "latency_p90_ms {:.6}, latency_p99_ms {:.6} (sustained over {windows} one-second windows of {samples} samples; printed, not bounded)",
        p90_ns / 1e6,
        p99_ns / 1e6
    )
}

/// The process's peak resident set (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = sorted((1..=100).map(f64::from).collect());
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        let with_failure = sorted(vec![1.0, 2.0, f64::INFINITY]);
        assert_eq!(quantile(&with_failure, 0.99), f64::INFINITY);
    }

    #[test]
    fn histogram_quantiles_within_a_bin() {
        let mut h = Hist::default();
        for ns in 1..=1000 {
            h.record_ns(f64::from(ns) * 1000.0);
        }
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0)] {
            let got = h.quantile_ns(q);
            assert!((got / exact - 1.0).abs() < 2.5e-3, "q{q}: {got} vs {exact}");
        }
        h.record_failures(20);
        assert_eq!(h.quantile_ns(0.99), f64::INFINITY);
        assert_eq!(h.count(), 1020);
    }

    #[test]
    fn sustained_quantile_ignores_one_stalled_window() {
        let mut w = Windowed::new(Duration::from_secs(5));
        for s in 0..5u64 {
            for i in 0..100u64 {
                let at = Duration::from_millis(s * 1000 + i * 10);
                let stall = s == 2 && i < 10;
                w.record_ns(at, if stall { 1e9 } else { 1e6 });
            }
        }
        let (p99, windows) = w.sustained_quantile_ns(0.99, |_| 1.0);
        assert_eq!(windows, 5);
        assert!((p99 / 1e6 - 1.0).abs() < 2.5e-3, "p99 {p99}");
    }
}
