//! Runs a compass fix server on a TCP port.
//!
//! ```text
//! cargo run --release -p fluxcomp-serve --example fix_server [ADDR]
//! ```
//!
//! `ADDR` defaults to `127.0.0.1:0` (ephemeral port). The first stdout
//! line is exactly the bound address, so scripts can capture it:
//!
//! ```text
//! addr=$(cargo run ... --example fix_server & head -n1)
//! ```
//!
//! Configuration comes from the environment (`FLUXCOMP_SERVE_WORKERS`,
//! `FLUXCOMP_SERVE_QUEUE`, `FLUXCOMP_SERVE_BATCH`, `FLUXCOMP_SERVE_CACHE`,
//! `FLUXCOMP_SERVE_CACHE_SHARDS`, and `FLUXCOMP_THREADS` for the auto
//! worker count). Fault injection and degraded mode:
//! `FLUXCOMP_FAULT_PLAN` (e.g. `seed=7;open_pickup@x:0.2`) injects
//! seeded sensor faults into every computed fix, and each fix is graded
//! `Good`, `Degraded` or `Invalid` on the wire. `FLUXCOMP_SERVE_RUN_MS`
//! bounds the lifetime: after that many milliseconds the server shuts
//! down gracefully and the process exits 0 — the CI smoke test uses
//! this. Unset, the server runs until killed. Set `FLUXCOMP_OBS=text` (or `json`) to get the
//! `serve.*` counter/histogram profile on shutdown.

use fluxcomp_compass::{CompassConfig, CompassDesign};
use fluxcomp_serve::protocol::Status;
use fluxcomp_serve::{FixServer, ServeConfig};
use std::io::Write;
use std::time::Duration;

fn main() {
    let _obs = fluxcomp_obs::init_from_env();
    let design = match CompassDesign::new(CompassConfig::paper_design()) {
        Ok(design) => design,
        Err(error) => {
            // The wire status a remote client would have seen, plus the
            // typed cause for the operator.
            eprintln!(
                "fix_server: config rejected (wire status: {}): {error}",
                Status::for_build_error(&error)
            );
            std::process::exit(2);
        }
    };
    let mut config = ServeConfig::from_env();
    if let Some(addr) = std::env::args().nth(1) {
        config.addr = addr;
    }
    if let Some(plan) = &config.fault_plan {
        eprintln!(
            "fix_server: fault plan active (seed {:#x}, {} spec(s))",
            plan.seed(),
            plan.specs().len()
        );
    }
    let mut server = match FixServer::start(design, config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("fix_server: bind failed: {error}");
            std::process::exit(1);
        }
    };
    println!("{}", server.local_addr());
    std::io::stdout().flush().expect("flush bound address");
    eprintln!("fix_server: serving fixes on {}", server.local_addr());

    let run_ms: Option<u64> = std::env::var("FLUXCOMP_SERVE_RUN_MS")
        .ok()
        .and_then(|v| v.parse().ok());
    match run_ms {
        Some(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            eprintln!("fix_server: run window elapsed, draining");
            server.shutdown();
        }
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
}
