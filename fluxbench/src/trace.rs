//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into the program's public functions
//! only; nothing inside the program is instrumented. They are kept in
//! memory and written out as JSON lines when the traced run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call: its name, the id shared by every span of one fix or
/// request, the name of the enclosing span of the same id, and its
/// interval in nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Every span named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total nanoseconds of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::nanos).sum()
    }

    /// Mean nanoseconds per span named `name` (0 when there is none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let count = self.named(name).count();
        if count == 0 {
            0.0
        } else {
            self.total_ns(name) as f64 / count as f64
        }
    }

    /// Durations in nanoseconds of the spans named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.nanos() as f64).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                w,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, parent, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
