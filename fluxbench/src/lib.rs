//! # fluxbench
//!
//! The fluxcomp benchmark: four workloads, one command.
//!
//! | workload | what runs |
//! |---|---|
//! | `sweep_clean` | serial `measure_heading_scratch` over a 360-heading grid, paper design |
//! | `sweep_noisy` | serial `measure_heading_checked` over the grid, 2 mV noise, mixed fault plan |
//! | `serve_unique` | in-process `FixServer`, every request a distinct fix |
//! | `serve_repeat` | the same server, 16 hot fixes cycled from its cache |
//!
//! A run with `--trace 0` times the workload through the program's
//! public entry points with nothing recorded, checks every output
//! against an independent computation, and reports the end-to-end
//! metrics. A run with `--trace 1` reports the per-layer metrics: it
//! times calls into each layer's public functions from outside, records
//! spans only in this crate, and writes them out when it ends.
//! `README.md` beside this crate says why each workload exists and
//! which metric each layer should move.

pub mod host;
pub mod inputs;
pub mod layers;
pub mod micro;
pub mod recompose;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The end-to-end metrics, `(name, unit)`, reported by every `--trace 0`
/// run in this order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("fixes_per_s", "fixes/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, `(name, unit)`, reported by every `--trace 1`
/// run in this order. A layer that is not on a workload's blocking path
/// reads 0 there.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("fluxgate.pickup_emf_ns", "ns/call"),
    ("fluxgate.noise_sample_ns", "ns/call"),
    ("afe.measure_into_us", "us/call"),
    ("afe.detector_step_ns", "ns/call"),
    ("afe.samples_per_fix", "count"),
    ("afe.edges_per_sample", "ratio"),
    ("rtl.clock_n_ns", "ns/call"),
    ("rtl.cordic_ns", "ns/call"),
    ("compass.fix_us", "us"),
    ("compass.fix_p99_us", "us"),
    ("compass.health_ns", "ns/call"),
    ("compass.unexplained_share", "ratio"),
    ("faults.compile_ns", "ns/call"),
    ("faults.struck_axis_share", "ratio"),
    ("serve.request_codec_ns", "ns/frame"),
    ("serve.response_codec_ns", "ns/frame"),
    ("serve.cache_get_ns", "ns/call"),
    ("serve.cache_insert_ns", "ns/call"),
    ("serve.queue_handoff_ns", "ns/item"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.idle_rtt_us", "us"),
    ("serve.queue_wait_est_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("driver.late_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// Set-ups timed per round; an untraced run times three rounds (before
/// the timed window, after it, and after the gate) and reports their
/// 75th percentile as `setup_s`.
pub const SETUP_REPS: usize = 5;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepClean,
    SweepNoisy,
    ServeUnique,
    ServeRepeat,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SweepClean,
        Workload::SweepNoisy,
        Workload::ServeUnique,
        Workload::ServeRepeat,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepClean => "sweep_clean",
            Workload::SweepNoisy => "sweep_noisy",
            Workload::ServeUnique => "serve_unique",
            Workload::ServeRepeat => "serve_repeat",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Command-line arguments: `--workload <name> --seed <n> --seconds <s>
/// --trace <0|1>`, all required.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?
                .to_string();
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            if map.insert(key, value).is_some() {
                return Err(format!("{flag} given twice"));
            }
        }
        let mut take = |key: &str| map.remove(key).ok_or_else(|| format!("missing --{key}"));
        let workload = take("workload")?;
        let workload =
            Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        let trace = match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        if let Some(key) = map.keys().next() {
            return Err(format!("unknown flag --{key}"));
        }
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value summarises.
    pub samples: u64,
}

/// Metric values by name; [`Values::into_metrics`] orders them by a
/// metric table and fills a missing per-layer value with 0.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, (f64, u64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a benchmark metric"
        );
        self.0.insert(name, (value, samples));
    }

    fn into_metrics(self, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
        table
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.0.get(name).copied().unwrap_or((0.0, 0));
                Metric {
                    name,
                    unit,
                    value,
                    samples,
                }
            })
            .collect()
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    pub args: Args,
    /// Every correctness gate passed.
    pub correct: bool,
    /// Fixes or requests attempted in the measured phases.
    pub attempted: u64,
    /// Attempts that failed, were lost, or returned a result that
    /// differs from the independent computation.
    pub failed: u64,
    /// Empty when a gate failed: a wrong program gets no performance
    /// number.
    pub metrics: Vec<Metric>,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Assembles a report; `values` must hold every end-to-end metric
    /// of an untraced run.
    pub fn new(
        args: &Args,
        correct: bool,
        attempted: u64,
        failed: u64,
        values: Values,
        notes: Vec<String>,
    ) -> Self {
        let metrics = if !correct {
            Vec::new()
        } else if args.trace {
            values.into_metrics(&PER_LAYER)
        } else {
            for (name, _) in END_TO_END {
                assert!(values.0.contains_key(name), "{name} not measured");
            }
            values.into_metrics(&END_TO_END)
        };
        Self {
            args: *args,
            correct,
            attempted: attempted.max(1),
            failed,
            metrics,
            notes,
        }
    }

    /// The human-readable table: every metric with its unit and sample
    /// count, then the notes.
    pub fn table(&self) -> String {
        let a = &self.args;
        let mut out = format!(
            "fluxbench {} seed={} seconds={} trace={}\n",
            a.workload.name(),
            a.seed,
            a.seconds,
            u8::from(a.trace)
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<28} {:>16.6} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(
            out,
            "  fail_ratio {} ({} failed of {} attempted), correct={}",
            self.failed as f64 / self.attempted as f64,
            self.failed,
            self.attempted,
            self.correct
        );
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload. `corrupt_expected` replaces the expected side of
/// every correctness gate with a corrupted copy; the self-test uses it to
/// show that each gate can fail.
pub fn run(args: &Args, corrupt_expected: bool) -> Report {
    match args.workload {
        Workload::SweepClean | Workload::SweepNoisy => sweep::run(args, corrupt_expected),
        Workload::ServeUnique | Workload::ServeRepeat => serve::run(args, corrupt_expected),
    }
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ))
}
