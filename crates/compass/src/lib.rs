//! # fluxcomp-compass
//!
//! **The paper's contribution**: the fully integrated electronic compass
//! of Fig. 1, assembled from the workspace's substrates —
//!
//! fluxgate sensor pair → triangular excitation + V-I converter →
//! pulse-position detector → 4.194304 MHz up/down counter → Fig. 8
//! CORDIC → LCD, with the two sensors multiplexed onto one excitation
//! channel and the measurement chain duty-cycled, mapped onto the
//! Sea-of-Gates array and MCM.
//!
//! * [`config`] — system configuration ([`CompassConfig::paper_design`]);
//! * [`system`] — [`CompassDesign`], the end-to-end mixed-signal
//!   pipeline;
//! * [`evaluate`] — heading sweeps and accuracy statistics (the 1°
//!   claim);
//! * [`calibration`] — rotation calibration against hard-iron
//!   disturbances;
//! * [`baseline`] — the second-harmonic + ADC readout the paper argues
//!   against (experiment E8);
//! * [`chip`] — the Sea-of-Gates occupancy report (experiment E6);
//! * [`tilt`] — the two-axis compass's tilt error and the three-axis
//!   tilt-compensated extension (experiment X2);
//! * [`filter`] — circular statistics and heading smoothing for
//!   repeated fixes;
//! * [`energy`] — coin-cell battery-life estimates showing what the
//!   paper's power gating buys;
//! * [`mission`] — dead-reckoning routes: the navigation use case the
//!   paper's intro motivates, quantifying what 1° of heading buys;
//! * [`selftest`] — built-in self-test by dc-offset injection through
//!   the whole signal chain;
//! * [`production`] — the three-stage manufacturing test flow
//!   (interconnect → BIST → functional) with fault diagnosis;
//! * [`gate_level`] — the fix computed through the synthesised counter
//!   and CORDIC netlists, bit-identical to the behavioural pipeline.
//!
//! ## Quickstart
//!
//! ```
//! use fluxcomp_compass::{CompassConfig, CompassDesign};
//! use fluxcomp_units::Degrees;
//!
//! # fn main() -> Result<(), fluxcomp_compass::BuildError> {
//! let compass = CompassDesign::new(CompassConfig::paper_design())?;
//! let reading = compass.measure_heading(Degrees::new(123.0));
//! assert!(reading.heading.angular_distance(Degrees::new(123.0)).value() <= 1.0);
//! assert_eq!(reading.cordic_cycles, 8); // the paper's 8-cycle arctan
//! # Ok(())
//! # }
//! ```

pub mod baseline;
pub mod calibration;
pub mod chip;
pub mod config;
pub mod degraded;
pub mod energy;
pub mod evaluate;
pub mod filter;
pub mod gate_level;
pub mod mission;
pub mod production;
pub mod selftest;
pub mod system;
pub mod tilt;

pub use baseline::SecondHarmonicCompass;
pub use calibration::Calibration;
pub use chip::{build_chip, paper_chip, ChipReport};
pub use config::{BuildError, CompassConfig};
pub use degraded::{AxisHealth, CheckedReading, DegradedTracker, FixQuality, HealthPolicy};
pub use energy::{battery_life_days, Battery, UsageProfile};
pub use evaluate::{sweep_headings, AccuracyStats};
pub use filter::{circular_std, HeadingSmoother};
pub use gate_level::{GateLevelCompass, GateLevelReading};
pub use mission::{square_route, walk_route, Leg, MissionResult, Position};
pub use production::{production_test, ProductionResult, RejectReason};
pub use selftest::{run_self_test, SelfTestReport};
pub use system::{AxisMeasurement, CompassDesign, FixField, FixInput, MeasureScratch, Reading};
pub use tilt::{tilt_compensated_heading, two_axis_heading, worst_tilt_error, Attitude};
