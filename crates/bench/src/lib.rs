//! # fluxcomp-bench
//!
//! Shared helpers for the benchmark harness. Each bench target under
//! `benches/` regenerates one experiment from `DESIGN.md` (E1..E10,
//! E13, X1..X3):
//! it first **prints the table/series the paper's figure or claim
//! corresponds to** (so `cargo bench` output doubles as the experiment
//! log recorded in `EXPERIMENTS.md`) and then times the computational
//! kernel behind it with Criterion.

use fluxcomp_units::magnetics::{AmperePerMeter, Tesla, MU_0};

pub use fluxcomp_obs as obs;

/// Like `criterion_main!`, but opens a `fluxcomp-obs` session around the
/// whole run: `FLUXCOMP_OBS=json cargo bench -p fluxcomp-bench` dumps
/// the instrumentation profile (solver steps, front-end runs, exec pool
/// activity, …) to stderr when the harness exits. With `FLUXCOMP_OBS`
/// unset or `off` the recorder stays disabled and the benches measure
/// the production fast path.
#[macro_export]
macro_rules! bench_main {
    ( $( $group:path ),+ $(,)* ) => {
        fn main() {
            let _obs = $crate::obs::init_from_env();
            $( $group(); )+
        }
    };
}

/// Converts a flux density in microtesla to the field strength the
/// sensor models consume.
pub fn microtesla_to_h(ut: f64) -> AmperePerMeter {
    AmperePerMeter::new(Tesla::from_microtesla(ut).value() / MU_0)
}

/// Prints an experiment banner so the bench log is self-describing.
pub fn banner(id: &str, title: &str, paper_ref: &str) {
    eprintln!("\n================================================================");
    eprintln!("{id}: {title}");
    eprintln!("paper reference: {paper_ref}");
    eprintln!("================================================================");
}

/// Renders a flat machine-readable benchmark record: one JSON object
/// with the experiment id and a set of named numeric fields, in field
/// order, `\n`-terminated — trivially diffable and `jq`-friendly.
///
/// # Panics
///
/// Panics if a field value is not finite (a NaN in a regression artefact
/// would poison every downstream comparison silently).
pub fn render_bench_json(experiment: &str, fields: &[(&str, f64)]) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"experiment\":\"{experiment}\""));
    for (name, value) in fields {
        assert!(value.is_finite(), "field {name} is not finite: {value}");
        out.push_str(&format!(",\"{name}\":{value}"));
    }
    out.push_str("}\n");
    out
}

/// Writes [`render_bench_json`] output to `file_name` in the benchmark
/// artefact directory: `$FLUXCOMP_BENCH_DIR` when set, the workspace
/// root otherwise. Returns the path written.
///
/// # Errors
///
/// Propagates the underlying file-system error.
pub fn write_bench_json(
    file_name: &str,
    experiment: &str,
    fields: &[(&str, f64)],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var_os("FLUXCOMP_BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let path = dir.join(file_name);
    std::fs::write(&path, render_bench_json(experiment, fields))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microtesla_conversion() {
        let h = microtesla_to_h(15.0);
        assert!((h.value() - 11.936_62).abs() < 1e-3);
    }

    #[test]
    fn bench_json_renders_flat_object() {
        let json = render_bench_json("e11", &[("fixes_per_s", 123.5), ("speedup", 2.0)]);
        assert_eq!(
            json,
            "{\"experiment\":\"e11\",\"fixes_per_s\":123.5,\"speedup\":2}\n"
        );
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn bench_json_rejects_nan() {
        let _ = render_bench_json("e11", &[("bad", f64::NAN)]);
    }
}
