//! The [`Recorder`] trait and its two stock implementations.
//!
//! A recorder is the sink every instrumentation site writes into. The
//! workspace installs at most one globally (see [`crate::install`]),
//! and a thread may shadow it with a scoped one (see [`crate::scope`]);
//! libraries never talk to a recorder directly — they go through the
//! free functions in the crate root, which compile down to a single
//! relaxed atomic load when nothing is installed.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// A metric sink. All methods take `&self` and must be callable from
/// any thread concurrently — sweeps record from worker pools.
///
/// Metric names are `&'static str` by design: every instrumentation
/// site names its metric with a literal, so recorders can key maps
/// without allocating on the hot path.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the named monotonic counter.
    fn counter_add(&self, name: &'static str, delta: u64);
    /// Sets the named gauge to its latest value.
    fn gauge_set(&self, name: &'static str, value: f64);
    /// Records one observation into the named histogram.
    fn histogram_record(&self, name: &'static str, value: f64);
    /// Records one completed span of `nanos` wall-clock nanoseconds.
    fn span_complete(&self, name: &'static str, nanos: u64);
    /// Takes a consistent snapshot of everything recorded so far.
    fn snapshot(&self) -> Profile;
}

/// Summary of a value histogram: count / sum / min / max, enough for
/// the profile dumps without storing every observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl HistogramSummary {
    fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean observation (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

impl Default for HistogramSummary {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Summary of a span population: how often it ran and how much
/// wall-clock time it accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanSummary {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall-clock nanoseconds across all completions.
    pub total_nanos: u64,
    /// Shortest completion.
    pub min_nanos: u64,
    /// Longest completion.
    pub max_nanos: u64,
}

impl SpanSummary {
    fn record(&mut self, nanos: u64) {
        if self.count == 0 {
            self.min_nanos = nanos;
            self.max_nanos = nanos;
        } else {
            self.min_nanos = self.min_nanos.min(nanos);
            self.max_nanos = self.max_nanos.max(nanos);
        }
        self.count += 1;
        self.total_nanos += nanos;
    }

    /// Mean completion time in nanoseconds (0 for an empty summary).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_nanos as f64 / self.count as f64
        }
    }
}

/// A consistent snapshot of everything a recorder has aggregated,
/// ordered by metric name so exports are byte-stable run to run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, latest value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// `(name, summary)` for every span family.
    pub spans: Vec<(String, SpanSummary)>,
}

impl Profile {
    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a span summary by name.
    pub fn span(&self, name: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

#[derive(Debug, Default)]
struct Aggregate {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, HistogramSummary>,
    spans: BTreeMap<&'static str, SpanSummary>,
}

/// The stock thread-safe recorder: one mutex-protected set of ordered
/// maps. Contention is acceptable because instrumentation sites record
/// per *run* or per *chunk*, not per sample — and when observability is
/// off this code never executes at all.
#[derive(Debug, Default)]
pub struct AggregatingRecorder {
    state: Mutex<Aggregate>,
}

impl AggregatingRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Aggregate) -> R) -> R {
        f(&mut self.state.lock().expect("recorder poisoned"))
    }
}

impl Recorder for AggregatingRecorder {
    fn counter_add(&self, name: &'static str, delta: u64) {
        self.with(|s| *s.counters.entry(name).or_insert(0) += delta);
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        self.with(|s| {
            s.gauges.insert(name, value);
        });
    }

    fn histogram_record(&self, name: &'static str, value: f64) {
        self.with(|s| s.histograms.entry(name).or_default().record(value));
    }

    fn span_complete(&self, name: &'static str, nanos: u64) {
        self.with(|s| s.spans.entry(name).or_default().record(nanos));
    }

    fn snapshot(&self) -> Profile {
        self.with(|s| Profile {
            counters: s
                .counters
                .iter()
                .map(|(&n, &v)| (n.to_owned(), v))
                .collect(),
            gauges: s.gauges.iter().map(|(&n, &v)| (n.to_owned(), v)).collect(),
            histograms: s
                .histograms
                .iter()
                .map(|(&n, &v)| (n.to_owned(), v))
                .collect(),
            spans: s.spans.iter().map(|(&n, &v)| (n.to_owned(), v)).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate() {
        let r = AggregatingRecorder::new();
        r.counter_add("a", 3);
        r.counter_add("a", 4);
        r.counter_add("b", 1);
        let p = r.snapshot();
        assert_eq!(p.counter("a"), Some(7));
        assert_eq!(p.counter("b"), Some(1));
        assert_eq!(p.counter("missing"), None);
    }

    #[test]
    fn gauges_keep_latest() {
        let r = AggregatingRecorder::new();
        r.gauge_set("duty", 0.25);
        r.gauge_set("duty", 0.75);
        assert_eq!(r.snapshot().gauges, vec![("duty".to_string(), 0.75)]);
    }

    #[test]
    fn histogram_summary_tracks_extremes_and_mean() {
        let r = AggregatingRecorder::new();
        for v in [2.0, 4.0, 9.0] {
            r.histogram_record("h", v);
        }
        let p = r.snapshot();
        let (_, h) = &p.histograms[0];
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 9.0);
        assert!((h.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn span_summary_tracks_totals() {
        let r = AggregatingRecorder::new();
        r.span_complete("s", 10);
        r.span_complete("s", 30);
        let p = r.snapshot();
        let s = p.span("s").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_nanos, 40);
        assert_eq!(s.min_nanos, 10);
        assert_eq!(s.max_nanos, 30);
        assert!((s.mean_nanos() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn counters_sum_across_workers() {
        // The thread-safety contract the exec pool relies on: deltas
        // recorded from many workers sum exactly.
        let r = Arc::new(AggregatingRecorder::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        r.counter_add("tasks", 1);
                    }
                    r.span_complete("worker", 5);
                });
            }
        });
        let p = r.snapshot();
        assert_eq!(p.counter("tasks"), Some(8000));
        assert_eq!(p.span("worker").unwrap().count, 8);
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let r = AggregatingRecorder::new();
        r.counter_add("zeta", 1);
        r.counter_add("alpha", 1);
        r.counter_add("mid", 1);
        let p = r.snapshot();
        let names: Vec<&str> = p.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn empty_profile() {
        let p = AggregatingRecorder::new().snapshot();
        assert!(p.is_empty());
        assert_eq!(HistogramSummary::default().mean(), 0.0);
        assert_eq!(SpanSummary::default().mean_nanos(), 0.0);
    }
}
