//! Waveform recording and export.
//!
//! The paper's Fig. 3 (operating principle) and Fig. 4 (scope shots of a
//! real sensor) are waveform figures. [`Trace`] records a named signal as
//! `(time, value)` samples; [`TraceSet`] groups the signals of one
//! simulation run and can emit them as:
//!
//! * **CSV** — for plotting (the bench harness writes these next to the
//!   experiment output);
//! * **VCD** — IEEE-1364 value-change dump, viewable in GTKWave, with
//!   analogue signals exported as `real` variables;
//! * **ASCII art** — a quick terminal rendering used by
//!   `examples/waveform_dump.rs` to "re-draw" Fig. 3/4 without a plotting
//!   stack.

use crate::time::SimTime;
use std::fmt::Write as _;

/// A single recorded signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    name: String,
    samples: Vec<(SimTime, f64)>,
}

impl Trace {
    /// Creates an empty trace named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// Creates an empty trace with room for `capacity` samples — use
    /// when the sample count is known up front (a fixed-step transient
    /// run records exactly `duration / dt` points per channel).
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        Self {
            name: name.into(),
            samples: Vec::with_capacity(capacity),
        }
    }

    /// The signal name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample. Samples should be pushed in nondecreasing time
    /// order; this is asserted in debug builds.
    pub fn push(&mut self, t: SimTime, value: f64) {
        debug_assert!(
            self.samples.last().is_none_or(|&(last, _)| last <= t),
            "trace samples must be time-ordered"
        );
        self.samples.push((t, value));
    }

    /// The recorded samples.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Minimum and maximum recorded value, or `None` when empty.
    pub fn value_range(&self) -> Option<(f64, f64)> {
        self.samples
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| match acc {
                None => Some((v, v)),
                Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
            })
    }

    /// Linear interpolation of the signal at time `t`. Clamps to the first
    /// and last sample outside the recorded range. Returns `None` for an
    /// empty trace.
    pub fn sample_at(&self, t: SimTime) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let i = self.samples.partition_point(|&(st, _)| st <= t);
        if i == 0 {
            return Some(self.samples[0].1);
        }
        if i == self.samples.len() {
            return Some(self.samples[i - 1].1);
        }
        let (t0, v0) = self.samples[i - 1];
        let (t1, v1) = self.samples[i];
        let span = (t1 - t0).picos() as f64;
        if span == 0.0 {
            return Some(v1);
        }
        let frac = (t - t0).picos() as f64 / span;
        Some(v0 + frac * (v1 - v0))
    }

    /// Times of all crossings of `threshold` with the given direction
    /// (rising = crossing upward), linearly interpolated between samples.
    pub fn crossings(&self, threshold: f64, rising: bool) -> Vec<SimTime> {
        let mut out = Vec::new();
        for w in self.samples.windows(2) {
            let (t0, v0) = w[0];
            let (t1, v1) = w[1];
            let crossed = if rising {
                v0 < threshold && v1 >= threshold
            } else {
                v0 > threshold && v1 <= threshold
            };
            if crossed {
                let dv = v1 - v0;
                let frac = if dv == 0.0 {
                    0.0
                } else {
                    (threshold - v0) / dv
                };
                let dt = (t1 - t0).picos() as f64;
                out.push(t0 + SimTime::from_picos((frac * dt).round() as i64));
            }
        }
        out
    }
}

/// A group of traces from one simulation run.
#[derive(Debug, Clone, Default)]
pub struct TraceSet {
    traces: Vec<Trace>,
}

impl TraceSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a new empty trace and returns its index.
    pub fn add(&mut self, name: impl Into<String>) -> usize {
        self.traces.push(Trace::new(name));
        self.traces.len() - 1
    }

    /// Adds a new empty trace preallocated for `capacity` samples and
    /// returns its index.
    pub fn add_with_capacity(&mut self, name: impl Into<String>, capacity: usize) -> usize {
        self.traces.push(Trace::with_capacity(name, capacity));
        self.traces.len() - 1
    }

    /// Records a sample on the trace at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn record(&mut self, index: usize, t: SimTime, value: f64) {
        self.traces[index].push(t, value);
    }

    /// Looks a trace up by name.
    pub fn by_name(&self, name: &str) -> Option<&Trace> {
        self.traces.iter().find(|tr| tr.name() == name)
    }

    /// Iterates over the traces.
    pub fn iter(&self) -> std::slice::Iter<'_, Trace> {
        self.traces.iter()
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// `true` when the set holds no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Renders the whole set as CSV with a shared, merged time column.
    ///
    /// Missing values (a trace without a sample at that time) are filled
    /// by linear interpolation, so the CSV is rectangular and
    /// spreadsheet-friendly.
    pub fn to_csv(&self) -> String {
        let mut times: Vec<SimTime> = self
            .traces
            .iter()
            .flat_map(|tr| tr.samples().iter().map(|&(t, _)| t))
            .collect();
        times.sort_unstable();
        times.dedup();

        let mut out = String::new();
        out.push_str("time_s");
        for tr in &self.traces {
            let _ = write!(out, ",{}", tr.name());
        }
        out.push('\n');
        for &t in &times {
            let _ = write!(out, "{:.12e}", t.as_secs_f64());
            for tr in &self.traces {
                let v = tr.sample_at(t).unwrap_or(f64::NAN);
                let _ = write!(out, ",{v:.9e}");
            }
            out.push('\n');
        }
        out
    }

    /// Renders the set as an IEEE-1364 value-change dump with `real`
    /// variables (1 ps timescale).
    pub fn to_vcd(&self) -> String {
        let mut out = String::new();
        out.push_str("$timescale 1ps $end\n$scope module fluxcomp $end\n");
        for (i, tr) in self.traces.iter().enumerate() {
            let id = vcd_id(i);
            let _ = writeln!(
                out,
                "$var real 64 {id} {} $end",
                tr.name().replace(' ', "_")
            );
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");

        // Merge-sort all samples by time.
        let mut events: Vec<(SimTime, usize, f64)> = Vec::new();
        for (i, tr) in self.traces.iter().enumerate() {
            events.extend(tr.samples().iter().map(|&(t, v)| (t, i, v)));
        }
        events.sort_by_key(|&(t, i, _)| (t, i));

        let mut last_time: Option<SimTime> = None;
        for (t, i, v) in events {
            if last_time != Some(t) {
                let _ = writeln!(out, "#{}", t.picos());
                last_time = Some(t);
            }
            let _ = writeln!(out, "r{v} {}", vcd_id(i));
        }
        out
    }

    /// Renders one trace as ASCII art, `width` columns by `height` rows —
    /// the terminal equivalent of the paper's scope shots.
    ///
    /// Returns `None` if the named trace does not exist or is empty.
    pub fn to_ascii(&self, name: &str, width: usize, height: usize) -> Option<String> {
        let tr = self.by_name(name)?;
        if tr.is_empty() || width < 2 || height < 2 {
            return None;
        }
        let (lo, hi) = tr.value_range()?;
        let span = if hi > lo { hi - lo } else { 1.0 };
        let t0 = tr.samples().first()?.0;
        let t1 = tr.samples().last()?.0;
        let t_span = ((t1 - t0).picos() as f64).max(1.0);

        let mut grid = vec![vec![b' '; width]; height];
        // `col` picks the row *and* column to mark, so an iterator over
        // `grid` would be the wrong dimension.
        #[allow(clippy::needless_range_loop)]
        for col in 0..width {
            let t =
                t0 + SimTime::from_picos((col as f64 / (width - 1) as f64 * t_span).round() as i64);
            let v = tr.sample_at(t)?;
            let row_f = (v - lo) / span * (height - 1) as f64;
            let row = height - 1 - (row_f.round() as usize).min(height - 1);
            grid[row][col] = b'*';
        }
        let mut out = String::new();
        let _ = writeln!(out, "{name}  [{lo:.3e} .. {hi:.3e}]");
        for row in grid {
            out.push_str(std::str::from_utf8(&row).expect("ascii grid"));
            out.push('\n');
        }
        Some(out)
    }
}

impl<'a> IntoIterator for &'a TraceSet {
    type Item = &'a Trace;
    type IntoIter = std::slice::Iter<'a, Trace>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Printable short VCD identifier for variable `i`.
fn vcd_id(i: usize) -> String {
    // Printable ASCII 33..=126, base-94 encoding.
    let mut n = i;
    let mut s = String::new();
    loop {
        s.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: i64) -> SimTime {
        SimTime::from_picos(n * 1_000)
    }

    fn ramp_trace() -> Trace {
        let mut tr = Trace::new("ramp");
        for k in 0..=10 {
            tr.push(ns(k), k as f64);
        }
        tr
    }

    #[test]
    fn push_and_range() {
        let tr = ramp_trace();
        assert_eq!(tr.len(), 11);
        assert!(!tr.is_empty());
        assert_eq!(tr.value_range(), Some((0.0, 10.0)));
    }

    #[test]
    fn interpolation_midpoint() {
        let tr = ramp_trace();
        let v = tr.sample_at(SimTime::from_picos(4_500)).unwrap();
        assert!((v - 4.5).abs() < 1e-12);
    }

    #[test]
    fn interpolation_clamps_outside() {
        let tr = ramp_trace();
        assert_eq!(tr.sample_at(SimTime::from_picos(-5)), Some(0.0));
        assert_eq!(tr.sample_at(ns(1_000)), Some(10.0));
        assert_eq!(Trace::new("empty").sample_at(SimTime::default()), None);
    }

    #[test]
    fn crossings_rising_and_falling() {
        let mut tr = Trace::new("tri");
        // Triangle: 0 → 10 → 0 over 20 ns.
        for k in 0..=10 {
            tr.push(ns(k), k as f64);
        }
        for k in 1..=10 {
            tr.push(ns(10 + k), (10 - k) as f64);
        }
        let rising = tr.crossings(5.0, true);
        assert_eq!(rising.len(), 1);
        assert_eq!(rising[0], ns(5));
        let falling = tr.crossings(5.0, false);
        assert_eq!(falling.len(), 1);
        assert_eq!(falling[0], ns(15));
    }

    #[test]
    fn crossing_interpolates_between_samples() {
        let mut tr = Trace::new("step");
        tr.push(ns(0), 0.0);
        tr.push(ns(10), 4.0);
        let c = tr.crossings(1.0, true);
        assert_eq!(c, vec![SimTime::from_picos(2_500)]);
    }

    #[test]
    fn trace_set_csv_rectangular() {
        let mut set = TraceSet::new();
        let a = set.add("a");
        let b = set.add("b");
        set.record(a, ns(0), 1.0);
        set.record(a, ns(2), 3.0);
        set.record(b, ns(1), 10.0);
        let csv = set.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,a,b");
        assert_eq!(lines.len(), 4); // header + 3 distinct times
                                    // Every row has 3 comma-separated fields.
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 3);
        }
    }

    #[test]
    fn vcd_structure() {
        let mut set = TraceSet::new();
        let a = set.add("sig a");
        set.record(a, ns(1), 2.5);
        set.record(a, ns(2), -1.0);
        let vcd = set.to_vcd();
        assert!(vcd.contains("$timescale 1ps $end"));
        assert!(vcd.contains("$var real 64 ! sig_a $end"));
        assert!(vcd.contains("#1000"));
        assert!(vcd.contains("r2.5 !"));
        assert!(vcd.contains("#2000"));
        assert!(vcd.contains("r-1 !"));
    }

    #[test]
    fn ascii_render_has_requested_shape() {
        let mut set = TraceSet::new();
        let i = set.add("sine");
        for k in 0..200 {
            let t = ns(k);
            set.record(i, t, (k as f64 * 0.1).sin());
        }
        let art = set.to_ascii("sine", 60, 12).unwrap();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 13); // title + 12 rows
        assert!(lines[1..].iter().all(|l| l.len() == 60));
        assert!(art.contains('*'));
        assert!(set.to_ascii("missing", 60, 12).is_none());
    }

    #[test]
    fn by_name_and_iter() {
        let mut set = TraceSet::new();
        set.add("x");
        set.add("y");
        assert!(set.by_name("x").is_some());
        assert!(set.by_name("z").is_none());
        assert_eq!(set.iter().count(), 2);
        assert_eq!((&set).into_iter().count(), 2);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn vcd_ids_are_printable_and_unique() {
        let ids: Vec<String> = (0..500).map(vcd_id).collect();
        for id in &ids {
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
        }
        let unique: std::collections::HashSet<&String> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len());
    }
}
