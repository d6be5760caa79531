//! The compass-watch scenario ([Hol94], the project the paper grew out
//! of): a wristwatch that alternates between showing the time and the
//! heading, taking one compass fix per simulated second and living off
//! the shared 4.194304 MHz = 2²² Hz clock tree.
//!
//! ```text
//! cargo run --example compass_watch
//! ```

use fluxcomp::afe::power::{PowerModel, Schedule};
use fluxcomp::compass::{CompassConfig, CompassDesign, UsageProfile};
use fluxcomp::rtl::lcd::{DisplayDriver, DisplayMode};
use fluxcomp::rtl::watch::{TimeOfDay, Watch};
use fluxcomp::rtl::watch_extras::{Alarm, CalendarDate, Stopwatch};
use fluxcomp::units::Degrees;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _obs = fluxcomp::obs::init_from_env();
    let compass = CompassDesign::new(CompassConfig::paper_design())?;
    let mut display = DisplayDriver::new();
    let mut watch = Watch::new();
    watch.set_time(TimeOfDay::new(9, 41, 57));
    let mut date = CalendarDate::new(1997, 3, 17); // ED&TC week
    let mut alarm = Alarm::new();
    alarm.arm(TimeOfDay::new(9, 42, 0));
    let mut stopwatch = Stopwatch::new();
    stopwatch.start();

    // The wearer slowly turns while walking.
    let mut heading = 72.0;

    println!("compass-watch demo: one fix per second, display alternates\n");
    for second in 0..6 {
        watch.tick_second();
        heading = (heading + 14.0) % 360.0;
        let reading = compass.measure_heading(Degrees::new(heading));

        display.latch_heading(reading.heading);
        display.latch_time(watch.time());
        display.set_mode(if second % 2 == 0 {
            DisplayMode::Time
        } else {
            DisplayMode::Direction
        });

        if alarm.tick(watch.time()) {
            println!("  *** BEEP BEEP — {} alarm ***", watch.time());
        }
        for _ in 0..128 {
            stopwatch.tick_128hz();
        }
        println!(
            "{} {}   true heading {:>6.1}°   measured {:>6.1}°   lap {:>4.1} s",
            date,
            watch.time(),
            heading,
            reading.heading.value(),
            stopwatch.elapsed_seconds()
        );
        print!("{}", display.frame().to_ascii());
        println!();
    }

    date.advance_day();
    println!("(next day on the calendar: {date})\n");

    // The power story (paper §2/§4): the control logic's duty-cycled
    // schedule vs always-on.
    let pm = PowerModel::at_5v();
    let fix_duty = UsageProfile::continuous().measurement_duty(compass.config()); // one fix per second
    let always = pm.average_power(&Schedule::paper_multiplexed());
    let pulsed = pm.average_power(&Schedule::duty_cycled(fix_duty));
    println!(
        "average power, measuring continuously: {:.2} mW",
        always.value() * 1e3
    );
    println!(
        "average power, one fix per second:     {:.3} mW  ({:.0}x less)",
        pulsed.value() * 1e3,
        always.value() / pulsed.value()
    );
    Ok(())
}
