//! # fluxcomp
//!
//! Umbrella crate for the *fluxcomp* workspace — a from-scratch Rust
//! reproduction of the smart-sensor system described in
//! R. J. W. T. Tangelder, G. Diemel and H. G. Kerkhoff,
//! *"Smart Sensor System Application: An Integrated Compass"* (ED&TC/DATE
//! 1997): a fully integrable electronic compass built from micro-machined
//! fluxgate sensors, a pulse-position analogue front-end and a digital
//! back-end (up/down counter + CORDIC arctangent + watch logic), mapped
//! onto a Sea-of-Gates array and combined with the sensors on an MCM.
//!
//! This crate simply re-exports the workspace members under stable names:
//!
//! * [`units`] — physical quantities, angles, fixed-point formats
//! * [`obs`] — the observability layer (spans, counters, gauges,
//!   histograms; zero-cost no-op unless a recorder is installed)
//! * [`exec`] — the deterministic parallel sweep engine (one ordered
//!   map over `0..n` on a scoped worker pool, an
//!   [`ExecPolicy`](exec::ExecPolicy) that is just a thread count,
//!   per-task seed derivation, streaming statistics)
//! * [`msim`] — simulation support standing in for Anacad ELDO
//!   (picosecond time base, waveform traces, an RK4 integrator,
//!   Goertzel spectra, Monte-Carlo sampling)
//! * [`fluxgate`] — sensor physics (saturable core, pickup EMF, earth field)
//! * [`afe`] — analogue front-end (oscillator, V-I converters, detector,
//!   second-harmonic baseline)
//! * [`rtl`] — digital back-end (counter, CORDIC of Fig. 8, watch, LCD,
//!   gate-level netlist simulator)
//! * [`sog`] — the fishbone Sea-of-Gates fabric model
//! * [`mcm`] — multi-chip module with boundary scan
//! * [`compass`] — the integrated system of Fig. 1 (the paper's
//!   contribution)
//! * [`faults`] — seeded deterministic fault injection (open pickup,
//!   stuck comparator, drift, dropout, noise bursts) feeding the
//!   degraded-mode machinery in [`compass`] and [`serve`]
//! * [`serve`] — the fix server: TCP service with batching, fix cache,
//!   deadlines, fault-aware fix quality and a load-generator harness
//!
//! ## Quickstart
//!
//! ```
//! use fluxcomp::prelude::*;
//!
//! # fn main() -> Result<(), fluxcomp::compass::BuildError> {
//! let design = CompassDesign::new(CompassConfig::default())?;
//! let reading = design.measure_heading(Degrees::new(123.0));
//! assert!(reading.heading.angular_distance(Degrees::new(123.0)).value() <= 1.0);
//!
//! // Sweeps take an ExecPolicy: serial and parallel are the same
//! // computation, bit for bit.
//! let stats = fluxcomp::compass::sweep_headings(&design, 12, &ExecPolicy::serial());
//! assert!(stats.meets_one_degree_spec());
//! # Ok(())
//! # }
//! ```

pub use fluxcomp_afe as afe;
pub use fluxcomp_compass as compass;
pub use fluxcomp_exec as exec;
pub use fluxcomp_faults as faults;
pub use fluxcomp_fluxgate as fluxgate;
pub use fluxcomp_mcm as mcm;
pub use fluxcomp_msim as msim;
pub use fluxcomp_obs as obs;
pub use fluxcomp_rtl as rtl;
pub use fluxcomp_serve as serve;
pub use fluxcomp_sog as sog;
pub use fluxcomp_units as units;

/// The one-line import for application code: the compass types, the
/// execution policy and the observability surface most programs touch.
///
/// ```
/// use fluxcomp::prelude::*;
///
/// let design = CompassDesign::new(CompassConfig::paper_design()).unwrap();
/// let reading = design.measure_heading(Degrees::new(45.0));
/// assert!(reading.heading.angular_distance(Degrees::new(45.0)).value() <= 1.0);
/// ```
pub mod prelude {
    pub use fluxcomp_compass::{CompassConfig, CompassDesign};
    pub use fluxcomp_exec::ExecPolicy;
    pub use fluxcomp_obs::Recorder;
    pub use fluxcomp_units::angle::Degrees;
}
