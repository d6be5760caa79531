//! Validates benchmark artefacts (`BENCH_faults.json`) against the flat
//! schema `write_bench_json` promises: one JSON object, an `experiment`
//! string, and otherwise only finite numeric fields.
//!
//! ```text
//! cargo run -p fluxcomp-bench --example validate_bench_json -- \
//!     BENCH_faults.json
//! ```
//!
//! Exits nonzero on the first violation, naming the file and field. An
//! optional `expect=NAME` argument after a file path pins the expected
//! experiment id (`BENCH_faults.json expect=e13_faults`).

use fluxcomp_obs::json::{parse, Value};
use std::process::ExitCode;

fn validate(path: &str, expect_experiment: Option<&str>) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let trimmed = text.trim();
    let value = parse(trimmed).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let Value::Object(fields) = &value else {
        return Err(format!("{path}: top level must be an object"));
    };
    let experiment = value
        .get("experiment")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path}: missing string field \"experiment\""))?;
    if let Some(expected) = expect_experiment {
        if experiment != expected {
            return Err(format!(
                "{path}: experiment is {experiment:?}, expected {expected:?}"
            ));
        }
    }
    let mut numeric = 0;
    for (name, field) in fields {
        if name == "experiment" {
            continue;
        }
        match field {
            // The strict parser already rejects non-finite numbers, but
            // say so explicitly: a `null` here is what a NaN/∞ would
            // have become, and the writer promises it never emits one.
            Value::Number(n) if n.is_finite() => numeric += 1,
            other => {
                return Err(format!(
                    "{path}: field {name:?} must be a finite number, got {other:?}"
                ))
            }
        }
    }
    if numeric == 0 {
        return Err(format!("{path}: no numeric fields recorded"));
    }
    Ok(numeric)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: validate_bench_json FILE [expect=EXPERIMENT] [FILE ...]");
        return ExitCode::from(2);
    }
    let mut failed = false;
    let mut i = 0;
    while i < args.len() {
        let path = &args[i];
        let expect = args
            .get(i + 1)
            .and_then(|a| a.strip_prefix("expect="))
            .map(str::to_owned);
        if expect.is_some() {
            i += 1;
        }
        i += 1;
        match validate(path, expect.as_deref()) {
            Ok(numeric) => println!("{path}: ok ({numeric} numeric fields)"),
            Err(message) => {
                eprintln!("{message}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
