//! Dead reckoning with the compass watch: walk a planned route steering
//! by the compass and see where you actually end up — the navigation
//! use case the paper's introduction motivates.
//!
//! ```text
//! cargo run --release --example dead_reckoning
//! ```

use fluxcomp::compass::mission::{square_route, walk_route, Leg};
use fluxcomp::compass::{CompassConfig, CompassDesign};
use fluxcomp::fluxgate::earth::MagneticDisturbance;
use fluxcomp::units::{Degrees, Tesla};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _obs = fluxcomp::obs::init_from_env();
    println!("dead reckoning: 4 km square route (1 km per side)\n");

    let compass = CompassDesign::new(CompassConfig::paper_design())?;
    let result = walk_route(&compass, &square_route(1_000.0));
    println!("clean compass:");
    println!(
        "  closing error: {:.1} m ({:.3} % of distance)",
        result.position_error(),
        result.relative_error() * 100.0
    );

    let mut cfg = CompassConfig::paper_design();
    cfg.pair.disturbance =
        MagneticDisturbance::hard(Tesla::from_microtesla(4.0), Tesla::from_microtesla(-2.0));
    let disturbed = CompassDesign::new(cfg)?;
    let result = walk_route(&disturbed, &square_route(1_000.0));
    println!("\nwith 4 µT of hard iron on the platform (no calibration):");
    println!(
        "  closing error: {:.1} m ({:.2} % of distance)",
        result.position_error(),
        result.relative_error() * 100.0
    );
    println!(
        "  indicated headings on the four legs: {}",
        result
            .indicated_headings
            .iter()
            .map(|h| format!("{:.1}°", h.value()))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // A longer expedition: 10 random-ish legs.
    println!("\nexpedition: ten legs, 12.3 km total");
    let route: Vec<Leg> = [
        (37.0, 1500.0),
        (85.0, 900.0),
        (152.0, 2000.0),
        (200.0, 800.0),
        (231.0, 1100.0),
        (270.0, 1700.0),
        (305.0, 1300.0),
        (340.0, 600.0),
        (20.0, 1400.0),
        (65.0, 1000.0),
    ]
    .into_iter()
    .map(|(h, d)| Leg::new(Degrees::new(h), d))
    .collect();
    let compass = CompassDesign::new(CompassConfig::paper_design())?;
    let result = walk_route(&compass, &route);
    println!(
        "  intended endpoint: ({:+.0} m N, {:+.0} m E)",
        result.intended.north, result.intended.east
    );
    println!(
        "  reached endpoint:  ({:+.0} m N, {:+.0} m E)",
        result.reached.north, result.reached.east
    );
    println!(
        "  error {:.1} m over {:.1} km — the paper's 1° target keeps dead\n  reckoning useful over a day's hike.",
        result.position_error(),
        result.total_distance / 1000.0
    );
    Ok(())
}
