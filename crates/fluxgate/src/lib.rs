//! # fluxcomp-fluxgate
//!
//! Physics models of the **micro-machined fluxgate sensing element** the
//! 1997 integrated-compass paper builds on (\[Kaw95\]: electroplated
//! permalloy core sandwiched between two metal layers, with closely
//! coupled excitation and pickup coils), plus the magnetic environment the
//! compass operates in.
//!
//! * [`core_model`] — saturable B-H characteristics of the permalloy core,
//!   both anhysteretic (the paper's ELDO model) and with a simple
//!   hysteresis loop for robustness studies;
//! * [`transducer`] — the fluxgate as a two-coil transformer: excitation
//!   current → core field → flux → pickup EMF, including the
//!   field-dependent excitation-coil inductance that makes the impedance
//!   visibly drop at saturation (Fig. 4);
//! * [`earth`] — the earth's magnetic field by location (the paper quotes
//!   25 µT in South America to 65 µT near the south pole) with optional
//!   hard-iron/soft-iron disturbances;
//! * [`noise`] — seeded Gaussian noise sources for pickup and comparator
//!   noise studies;
//! * [`pair`] — the orthogonal X/Y sensor pair of the compass, with
//!   gain-mismatch and misalignment non-idealities;
//! * [`jiles_atherton`] / [`thermal`] — physical hysteresis and
//!   temperature models for the robustness extensions.
//!
//! ## The pulse-position principle (paper §2.1.1, Fig. 3)
//!
//! A triangular excitation field sweeps the core symmetrically into
//! saturation. The pickup voltage is `-N·A·dB/dt`, which spikes while the
//! core transits its permeable region and collapses in saturation. An
//! external field `H_ext` shifts the transit *in time*: the core stays
//! saturated longer in one direction and shorter in the other. The time
//! positions of the pulses therefore encode `H_ext` — no amplitude
//! measurement and hence no A/D converter is needed.
//!
//! ```
//! use fluxcomp_fluxgate::transducer::{Fluxgate, FluxgateParams};
//! use fluxcomp_units::AmperePerMeter;
//!
//! let sensor = Fluxgate::new(FluxgateParams::adapted());
//! // In deep saturation the differential permeability — and with it the
//! // excitation-coil inductance — collapses (the paper's Fig. 4 note).
//! let l_center = sensor.inductance(AmperePerMeter::ZERO);
//! let l_sat = sensor.inductance(sensor.params().core.hk() * 10.0);
//! assert!(l_sat.value() < 0.05 * l_center.value());
//! ```

pub mod core_model;
pub mod earth;
pub mod jiles_atherton;
pub mod noise;
pub mod pair;
pub mod thermal;
pub mod transducer;

pub use core_model::{CoreModel, Sweep};
pub use earth::{EarthField, Location, MagneticDisturbance};
pub use jiles_atherton::{JaParams, JilesAthertonCore};
pub use noise::GaussianNoise;
pub use pair::{SensorPair, SensorPairParams};
pub use thermal::ThermalCoefficients;
pub use transducer::{Fluxgate, FluxgateParams};
