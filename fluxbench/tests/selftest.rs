//! Self-test of the benchmark at smoke size. Timing-sensitive, so run it
//! optimised and on one thread:
//!
//! ```text
//! cargo test --release --manifest-path fluxbench/Cargo.toml -- --test-threads=1
//! ```

use fluxbench::{run, Args, Report, Workload, END_TO_END, PER_LAYER};

/// Seconds of a smoke run: short enough for a test, long enough for
/// every phase to complete at least once.
const SMOKE_SECONDS: f64 = 1.0;

/// Largest share of the whole-fix time the recomposed stage spans may
/// leave unexplained.
const UNEXPLAINED_SHARE: f64 = 0.1;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("read BENCHMARK.json")
}

/// The string value of `"key": "..."` in one JSON object's text.
fn field(object: &str, key: &str) -> String {
    let at = object
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in {object}"));
    let rest = &object[at + key.len() + 2..];
    let open = rest.find('"').expect("opening quote") + 1;
    let close = open + rest[open..].find('"').expect("closing quote");
    rest[open..close].to_string()
}

/// `(name, unit)` of every metric in BENCHMARK.json's `list` array.
fn declared(json: &str, list: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{list}\"")).expect("metric list");
    let open = start + json[start..].find('[').expect("list start");
    let close = open + json[open..].find(']').expect("list end");
    json[open..close]
        .split('{')
        .skip(1)
        .map(|object| (field(object, "name"), field(object, "unit")))
        .collect()
}

fn smoke(workload: Workload, trace: bool, corrupt_expected: bool) -> Report {
    let args = Args {
        workload,
        seed: 7,
        seconds: SMOKE_SECONDS,
        trace,
    };
    run(&args, corrupt_expected)
}

/// Each declared metric appears exactly once in the result line, with
/// its unit and a finite value.
fn assert_reports(report: &Report, declared: &[(String, String)]) {
    let json = report.json();
    for (name, unit) in declared {
        let key = format!("\"{name}\": {{\"value\": ");
        assert_eq!(json.matches(&key).count(), 1, "{name} in {json}");
        let rest = &json[json.find(&key).expect("metric") + key.len()..];
        let (value, tail) = rest.split_once(',').expect("value then unit");
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("{name} = {value}"));
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            tail.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
            "{name} unit in {tail}"
        );
    }
    assert_eq!(
        report.metrics.len(),
        declared.len(),
        "extra metrics in {json}"
    );
}

#[test]
fn metric_tables_match_benchmark_json() {
    let json = benchmark_json();
    let pairs = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), pairs(&PER_LAYER));
    let workloads: Vec<String> = json
        .split("\"workloads\"")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("workload list")
        .split('{')
        .skip(1)
        .map(|object| field(object, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn smoke_runs_print_every_metric_once_and_pass_their_gates() {
    let json = benchmark_json();
    let end_to_end = declared(&json, "end_to_end");
    let per_layer = declared(&json, "per_layer");
    for workload in Workload::ALL {
        let plain = smoke(workload, false, false);
        assert!(plain.correct, "{}", plain.table());
        assert_eq!(plain.failed, 0);
        assert_reports(&plain, &end_to_end);

        let traced = smoke(workload, true, false);
        assert!(traced.correct, "{}", traced.table());
        assert_reports(&traced, &per_layer);
        let unexplained = traced
            .metrics
            .iter()
            .find(|m| m.name == "compass.unexplained_share")
            .expect("unexplained share")
            .value;
        assert!(
            unexplained.abs() < UNEXPLAINED_SHARE,
            "{}: stage spans leave {unexplained} of compass.fix_us unexplained",
            workload.name()
        );
    }
}

#[test]
fn every_gate_fails_on_a_corrupted_expected_result() {
    for workload in Workload::ALL {
        let report = smoke(workload, false, true);
        assert!(!report.correct, "{}", report.table());
        assert!(report.metrics.is_empty(), "a failed gate printed metrics");
        assert!(report.json().contains("\"metrics\": {}"));
        match workload {
            // The reference gate fails every pass (each holds fix 0) and
            // the golden gate fails its first fix: both gates fired.
            Workload::SweepClean | Workload::SweepNoisy => {
                assert_eq!(report.failed, report.attempted + 1, "{}", report.table())
            }
            Workload::ServeUnique | Workload::ServeRepeat => {
                assert!(report.failed >= 1, "{}", report.table())
            }
        }
    }
}
