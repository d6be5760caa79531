//! `fluxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable table, then one JSON result line. Exits 0
//! when every correctness gate passed, 1 when one failed, 2 on bad
//! arguments.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match fluxbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fluxbench: {e}");
            eprintln!("usage: fluxbench --workload <sweep_clean|sweep_noisy|serve_unique|serve_repeat> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let report = fluxbench::run(&args, false);
    print!("{}", report.table());
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
