//! Profile exporters: JSON lines for machines, a table for humans.
//!
//! Both render a [`Profile`] snapshot, so the export format never
//! constrains what recorders aggregate. The JSON-lines form is one
//! self-contained object per line — the shape high-rate readout
//! pipelines and log shippers ingest without framing state — and every
//! line round-trips through [`crate::json::parse`] (the exporter tests
//! enforce this).

use crate::recorder::Profile;
use std::io::{self, Write};

/// The JSON-lines schema version stamped on the header line.
pub const PROFILE_VERSION: u32 = 1;

/// Serialises a finite `f64` as a JSON number; non-finite values (which
/// JSON cannot represent) become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps enough digits to round-trip and always includes
        // a decimal point or exponent, so integers stay recognisably
        // floating point.
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Escapes a metric name for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Writes the profile as JSON lines: a header object followed by one
/// object per metric, each tagged with a `kind`.
pub fn write_json_lines<W: Write>(profile: &Profile, w: &mut W) -> io::Result<()> {
    writeln!(
        w,
        "{{\"kind\":\"profile\",\"version\":{PROFILE_VERSION},\
         \"counters\":{},\"gauges\":{},\"histograms\":{},\"spans\":{}}}",
        profile.counters.len(),
        profile.gauges.len(),
        profile.histograms.len(),
        profile.spans.len(),
    )?;
    for (name, value) in &profile.counters {
        writeln!(
            w,
            "{{\"kind\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
            json_escape(name)
        )?;
    }
    for (name, value) in &profile.gauges {
        writeln!(
            w,
            "{{\"kind\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
            json_escape(name),
            json_f64(*value)
        )?;
    }
    for (name, h) in &profile.histograms {
        writeln!(
            w,
            "{{\"kind\":\"histogram\",\"name\":\"{}\",\"count\":{},\
             \"sum\":{},\"min\":{},\"max\":{},\"mean\":{}}}",
            json_escape(name),
            h.count,
            json_f64(h.sum),
            json_f64(h.min),
            json_f64(h.max),
            json_f64(h.mean()),
        )?;
    }
    for (name, s) in &profile.spans {
        writeln!(
            w,
            "{{\"kind\":\"span\",\"name\":\"{}\",\"count\":{},\
             \"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{}}}",
            json_escape(name),
            s.count,
            s.total_nanos,
            s.min_nanos,
            s.max_nanos,
            json_f64(s.mean_nanos()),
        )?;
    }
    Ok(())
}

/// Formats a nanosecond quantity with a readable unit.
fn human_nanos(nanos: f64) -> String {
    if nanos >= 1e9 {
        format!("{:.3} s", nanos / 1e9)
    } else if nanos >= 1e6 {
        format!("{:.3} ms", nanos / 1e6)
    } else if nanos >= 1e3 {
        format!("{:.3} µs", nanos / 1e3)
    } else {
        format!("{nanos:.0} ns")
    }
}

/// Writes the profile as an aligned human-readable report.
pub fn write_text<W: Write>(profile: &Profile, w: &mut W) -> io::Result<()> {
    writeln!(w, "── fluxcomp-obs profile ──")?;
    if profile.is_empty() {
        return writeln!(w, "(nothing recorded)");
    }
    if !profile.spans.is_empty() {
        writeln!(w, "spans:")?;
        for (name, s) in &profile.spans {
            writeln!(
                w,
                "  {name:<36} n={:<8} total={:<12} mean={:<12} max={}",
                s.count,
                human_nanos(s.total_nanos as f64),
                human_nanos(s.mean_nanos()),
                human_nanos(s.max_nanos as f64),
            )?;
        }
    }
    if !profile.counters.is_empty() {
        writeln!(w, "counters:")?;
        for (name, value) in &profile.counters {
            writeln!(w, "  {name:<36} {value}")?;
        }
    }
    if !profile.gauges.is_empty() {
        writeln!(w, "gauges:")?;
        for (name, value) in &profile.gauges {
            writeln!(w, "  {name:<36} {value}")?;
        }
    }
    if !profile.histograms.is_empty() {
        writeln!(w, "histograms:")?;
        for (name, h) in &profile.histograms {
            writeln!(
                w,
                "  {name:<36} n={:<8} mean={:<14.6} min={:<14.6} max={:.6}",
                h.count,
                h.mean(),
                h.min,
                h.max,
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::recorder::{AggregatingRecorder, Recorder};

    fn sample_profile() -> Profile {
        let r = AggregatingRecorder::new();
        r.counter_add("msim.analog_steps", 40960);
        r.counter_add("exec.tasks", 16);
        r.gauge_set("afe.duty", 0.4517);
        r.histogram_record("exec.worker_busy_seconds", 0.012);
        r.histogram_record("exec.worker_busy_seconds", 0.018);
        r.span_complete("compass.stage.cordic", 1500);
        r.span_complete("compass.stage.cordic", 2500);
        r.snapshot()
    }

    #[test]
    fn every_json_line_parses_and_carries_a_kind() {
        let mut out = Vec::new();
        write_json_lines(&sample_profile(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 2 + 1 + 1 + 1);
        for line in &lines {
            let v = parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            assert!(v.get("kind").and_then(Value::as_str).is_some(), "{line}");
        }
        assert!(lines[0].contains("\"kind\":\"profile\""));
    }

    #[test]
    fn json_values_round_trip() {
        let mut out = Vec::new();
        write_json_lines(&sample_profile(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let mut saw_counter = false;
        let mut saw_span = false;
        for line in text.lines() {
            let v = parse(line).unwrap();
            match v.get("kind").and_then(Value::as_str) {
                Some("counter") if v.get("name").unwrap().as_str() == Some("exec.tasks") => {
                    assert_eq!(v.get("value").unwrap().as_u64(), Some(16));
                    saw_counter = true;
                }
                Some("span") => {
                    assert_eq!(v.get("count").unwrap().as_u64(), Some(2));
                    assert_eq!(v.get("total_ns").unwrap().as_u64(), Some(4000));
                    assert_eq!(v.get("mean_ns"), Some(&Value::Number(2000.0)));
                    saw_span = true;
                }
                Some("gauge") => {
                    assert_eq!(v.get("value"), Some(&Value::Number(0.4517)));
                }
                _ => {}
            }
        }
        assert!(saw_counter && saw_span);
    }

    #[test]
    fn header_counts_match_body() {
        let mut out = Vec::new();
        write_json_lines(&sample_profile(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let header = parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(header.get("counters").unwrap().as_u64(), Some(2));
        assert_eq!(header.get("gauges").unwrap().as_u64(), Some(1));
        assert_eq!(header.get("histograms").unwrap().as_u64(), Some(1));
        assert_eq!(header.get("spans").unwrap().as_u64(), Some(1));
        assert_eq!(
            header.get("version").unwrap().as_u64(),
            Some(PROFILE_VERSION as u64)
        );
    }

    #[test]
    fn non_finite_values_become_null() {
        let r = AggregatingRecorder::new();
        r.gauge_set("bad", f64::INFINITY);
        let mut out = Vec::new();
        write_json_lines(&r.snapshot(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        for line in text.lines() {
            parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        }
        assert!(text.contains("\"value\":null"));
    }

    #[test]
    fn names_are_escaped() {
        let p = Profile {
            counters: vec![("we\"ird\\name\n".to_owned(), 1)],
            ..Profile::default()
        };
        let mut out = Vec::new();
        write_json_lines(&p, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let body = text.lines().nth(1).unwrap();
        let v = parse(body).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("we\"ird\\name\n"));
    }

    #[test]
    fn text_export_mentions_every_metric() {
        let mut out = Vec::new();
        write_text(&sample_profile(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        for needle in [
            "msim.analog_steps",
            "exec.tasks",
            "afe.duty",
            "exec.worker_busy_seconds",
            "compass.stage.cordic",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn text_export_of_empty_profile() {
        let mut out = Vec::new();
        write_text(&Profile::default(), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("nothing recorded"));
    }

    #[test]
    fn human_nanos_units() {
        assert_eq!(human_nanos(500.0), "500 ns");
        assert_eq!(human_nanos(1500.0), "1.500 µs");
        assert_eq!(human_nanos(2.5e6), "2.500 ms");
        assert_eq!(human_nanos(3.25e9), "3.250 s");
    }
}
