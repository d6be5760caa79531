//! Quickstart: build the paper's compass and take a fix.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use fluxcomp::compass::{CompassConfig, CompassDesign};
use fluxcomp::rtl::lcd::DisplayDriver;
use fluxcomp::units::Degrees;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _obs = fluxcomp::obs::init_from_env();
    // The paper's design point: 12 mA p-p @ 8 kHz excitation, adapted
    // fluxgate sensors, pulse-position detector, 4.194304 MHz counter,
    // 8-iteration CORDIC.
    let compass = CompassDesign::new(CompassConfig::paper_design())?;
    let mut display = DisplayDriver::new();

    println!("fluxcomp — the 1997 integrated fluxgate compass, in software\n");
    println!(
        "peak excitation field: {:.0} A/m (2x the core's saturation field)",
        compass.peak_excitation_field().value()
    );
    println!(
        "counter clock: {} Hz, CORDIC iterations: {}\n",
        compass.config().clock.master().value(),
        compass.config().cordic_iterations
    );

    println!(
        "{:>12} {:>12} {:>8} {:>8} {:>8}",
        "true", "measured", "err", "x_cnt", "y_cnt"
    );
    for deg in [0.0, 45.0, 123.0, 200.0, 300.0, 359.0] {
        let truth = Degrees::new(deg);
        let reading = compass.measure_heading(truth);
        display.latch_heading(reading.heading);
        let err = reading.heading.signed_error_from(truth);
        println!(
            "{:>11}° {:>11.2}° {:>7.2}° {:>8} {:>8}",
            deg,
            reading.heading.value(),
            err.value(),
            -reading.x.count,
            -reading.y.count,
        );
    }

    // The display driver shows the last fix like the watch LCD would.
    println!("\nLCD after the last fix:");
    print!("{}", display.frame().to_ascii());
    Ok(())
}
