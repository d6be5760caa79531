//! # fluxcomp-afe
//!
//! The **analogue front-end** of the integrated compass (paper §3,
//! Fig. 1 left half): everything between the digital control logic and
//! the fluxgate sensors.
//!
//! * [`oscillator`] — the triangular waveform generator (10 pF on-chip
//!   capacitor, 12.5 MΩ MCM resistor → 8 kHz) with dc-offset correction;
//! * [`vi_converter`] — the balanced-differential V-I converters that
//!   force the 12 mA p-p excitation through sensors of up to 800 Ω at a
//!   5 V supply;
//! * [`comparator`] — comparators with offset/hysteresis/delay;
//! * [`detector`] — the **pulse-position detector** producing the single
//!   digital-compatible output that makes an ADC unnecessary;
//! * [`excitation`] — the precomputed one-period drive table (the
//!   oscillator→V-I chain is periodic and field-independent, so both
//!   measurement tiers read it instead of re-evaluating per sample);
//! * [`second_harmonic`] — the classical readout the paper argues
//!   against, implemented as the baseline for experiment E8;
//! * [`frontend`] — the transient simulation wiring oscillator + V-I +
//!   sensor + detector together (regenerates Fig. 3 and Fig. 4);
//! * [`power`] — momentary/average power under multiplexing, duty
//!   cycling and supply scaling (experiment E7);
//! * [`relaxation_sim`] — circuit-level transient of the relaxation
//!   oscillator, verifying that 8 kHz really emerges from 10 pF and
//!   12.5 MΩ.
//!
//! ## Example: measure a field with the paper's front-end
//!
//! ```
//! use fluxcomp_afe::frontend::{FrontEnd, FrontEndConfig};
//! use fluxcomp_units::AmperePerMeter;
//!
//! # fn main() -> Result<(), fluxcomp_afe::frontend::FrontEndError> {
//! let fe = FrontEnd::new(FrontEndConfig::paper_design())?;
//! let h_ext = AmperePerMeter::new(12.0); // ≈ 15 µT
//! let result = fe.measure(h_ext); // duty-only fast path, no traces
//! // duty = 1/2 − H/(2·H_peak); H_peak = 240 A/m → duty ≈ 0.475
//! assert!((result.duty - 0.475).abs() < 0.005);
//! # Ok(())
//! # }
//! ```
//!
//! `measure` is the production hot path; [`FrontEnd::run`] additionally
//! captures the full waveform set for the Fig. 3 / Fig. 4 diagnostics,
//! at identical (bit-for-bit) duty output.

pub mod comparator;
pub mod detector;
pub mod excitation;
pub mod frontend;
pub mod oscillator;
pub mod power;
pub mod relaxation_sim;
pub mod second_harmonic;
pub mod vi_converter;

pub use comparator::Comparator;
pub use detector::{DetectorConfig, PulsePositionDetector};
pub use excitation::{DriveSample, ExcitationTable};
pub use frontend::{FrontEnd, FrontEndConfig, FrontEndError, FrontEndResult, MeasureResult};
pub use oscillator::{OffsetCorrection, RelaxationOscillator, TriangleWave};
pub use power::{BlockCurrents, PowerModel, Schedule};
pub use relaxation_sim::{simulate_relaxation, RelaxationRun};
pub use second_harmonic::SecondHarmonicDemodulator;
pub use vi_converter::{OutputStage, ViConverter};
