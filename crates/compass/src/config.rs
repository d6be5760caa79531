//! System configuration and construction errors.

use fluxcomp_afe::frontend::{FrontEndConfig, FrontEndError};
use fluxcomp_fluxgate::earth::{EarthField, Location};
use fluxcomp_fluxgate::pair::SensorPairParams;
use fluxcomp_rtl::clock::ClockTree;
use std::error::Error;
use std::fmt;

/// Full configuration of the integrated compass.
#[derive(Debug, Clone)]
pub struct CompassConfig {
    /// The analogue front-end channel (shared by both sensors via the
    /// multiplexer).
    pub frontend: FrontEndConfig,
    /// The orthogonal sensor pair.
    pub pair: SensorPairParams,
    /// The digital clock tree (counter clock).
    pub clock: ClockTree,
    /// CORDIC iterations (8 in the paper).
    pub cordic_iterations: u32,
    /// The magnetic environment the compass operates in.
    pub field: EarthField,
}

impl CompassConfig {
    /// The paper's design point: paper front-end, ideal pair, 4.194304
    /// MHz clock, 8 CORDIC iterations, a purely horizontal 15 µT field
    /// (≈ the horizontal component at the authors' latitude), and 8
    /// measurement periods per axis for comfortable counter resolution.
    pub fn paper_design() -> Self {
        let mut frontend = FrontEndConfig::paper_design();
        frontend.measure_periods = 8;
        Self {
            frontend,
            pair: SensorPairParams::ideal(),
            clock: ClockTree::paper(),
            cordic_iterations: 8,
            field: EarthField::horizontal(fluxcomp_units::Tesla::from_microtesla(15.0)),
        }
    }

    /// The paper design relocated to one of the predefined locations
    /// (experiment E4's world tour).
    pub fn at_location(location: Location) -> Self {
        Self {
            field: EarthField::at(location),
            ..Self::paper_design()
        }
    }

    /// The front-end channel as the system builds it: `frontend` with the
    /// pair's element substituted as the sensor.
    pub(crate) fn channel(&self) -> FrontEndConfig {
        FrontEndConfig {
            sensor: self.pair.element,
            ..self.frontend.clone()
        }
    }

    /// Validates every field combination the system construction depends
    /// on, returning the first problem as a [`BuildError`].
    ///
    /// Every constructor ([`crate::CompassDesign::new`],
    /// [`crate::GateLevelCompass::new`] and
    /// [`crate::SecondHarmonicCompass::new`]) routes through this, so an
    /// invalid configuration — including ones that used to panic deep
    /// inside the sensor or front-end constructors — is reported as the
    /// same `Err` by all of them instead of a panic.
    pub fn validate(&self) -> Result<(), BuildError> {
        if !(1..=16).contains(&self.cordic_iterations) {
            return Err(BuildError::BadCordicIterations {
                got: self.cordic_iterations,
            });
        }
        let sample_rate =
            self.frontend.samples_per_period as f64 * self.frontend.excitation.frequency().value();
        let clock = self.clock.master().value();
        if sample_rate < clock {
            return Err(BuildError::SamplingTooCoarse { sample_rate, clock });
        }
        self.channel()
            .check()
            .map_err(|reason| BuildError::BadFrontEnd { reason })?;
        self.pair
            .check()
            .map_err(|reason| BuildError::BadSensorPair { reason })?;
        Ok(())
    }
}

impl Default for CompassConfig {
    fn default() -> Self {
        Self::paper_design()
    }
}

/// Errors constructing a [`crate::CompassDesign`],
/// [`crate::GateLevelCompass`] or [`crate::SecondHarmonicCompass`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BuildError {
    /// CORDIC iteration count outside the ROM's 1..=16 range.
    BadCordicIterations {
        /// The rejected value.
        got: u32,
    },
    /// The front-end sampling grid is coarser than the counter clock —
    /// the zero-order hold would alias the detector stream.
    SamplingTooCoarse {
        /// Effective analogue sample rate (Hz).
        sample_rate: f64,
        /// Counter clock (Hz).
        clock: f64,
    },
    /// The front-end channel configuration (including the sensor element
    /// substituted from the pair) is invalid.
    BadFrontEnd {
        /// The typed cause from [`FrontEndConfig::check`], so callers —
        /// the serve layer's wire statuses in particular — can match on
        /// the structural constraint that failed instead of a message.
        reason: FrontEndError,
    },
    /// The sensor-pair parameters are invalid.
    BadSensorPair {
        /// What the pair constructor would have panicked with.
        reason: &'static str,
    },
    /// The second-harmonic baseline's ADC width is outside the SAR
    /// converter's 2..=24 bits.
    BadAdcBits {
        /// The rejected width.
        got: u32,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::BadCordicIterations { got } => {
                write!(f, "cordic iterations must be in 1..=16, got {got}")
            }
            BuildError::SamplingTooCoarse { sample_rate, clock } => write!(
                f,
                "front-end sample rate {sample_rate:.0} Hz below counter clock {clock:.0} Hz"
            ),
            BuildError::BadFrontEnd { reason } => write!(f, "front-end config invalid: {reason}"),
            BuildError::BadSensorPair { reason } => write!(f, "sensor pair invalid: {reason}"),
            BuildError::BadAdcBits { got } => write!(f, "ADC bits must be in 2..=24, got {got}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::BadFrontEnd { reason } => Some(reason),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_values() {
        let c = CompassConfig::paper_design();
        assert_eq!(c.cordic_iterations, 8);
        assert!((c.clock.master().value() - 4_194_304.0).abs() < 1e-6);
        assert_eq!(c.frontend.measure_periods, 8);
        assert!((c.field.horizontal_magnitude().as_microtesla() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn location_config_changes_field_only() {
        let c = CompassConfig::at_location(Location::SouthPole);
        assert!((c.field.total().as_microtesla() - 65.0).abs() < 1e-9);
        assert_eq!(c.cordic_iterations, 8);
    }

    #[test]
    fn errors_display() {
        let e = BuildError::BadCordicIterations { got: 99 };
        assert!(e.to_string().contains("99"));
        let e = BuildError::SamplingTooCoarse {
            sample_rate: 1e6,
            clock: 4e6,
        };
        assert!(e.to_string().contains("4194304") || e.to_string().contains("4000000"));
        let e = BuildError::BadFrontEnd {
            reason: FrontEndError::TooFewSamplesPerPeriod { got: 8 },
        };
        assert!(e.to_string().contains("16 samples"));
        // The typed cause is reachable through the error chain.
        assert!(Error::source(&e).is_some());
        let e = BuildError::BadSensorPair {
            reason: "gain mismatch must be positive and finite",
        };
        assert!(e.to_string().contains("gain mismatch"));
        let e = BuildError::BadAdcBits { got: 25 };
        assert!(e.to_string().contains("25"));
    }

    #[test]
    fn paper_design_validates() {
        assert_eq!(CompassConfig::paper_design().validate(), Ok(()));
    }

    #[test]
    fn invalid_sensor_element_is_an_error_not_a_panic() {
        // Used to panic inside Fluxgate::new deep in construction.
        let mut cfg = CompassConfig::paper_design();
        cfg.pair.element.turns_pickup = 0;
        assert_eq!(
            cfg.validate(),
            Err(BuildError::BadFrontEnd {
                reason: FrontEndError::BadSensor {
                    reason: "pickup coil needs turns"
                }
            })
        );
    }

    #[test]
    fn invalid_gain_mismatch_is_an_error_not_a_panic() {
        let mut cfg = CompassConfig::paper_design();
        cfg.pair.gain_mismatch = 0.0;
        assert_eq!(
            cfg.validate(),
            Err(BuildError::BadSensorPair {
                reason: "gain mismatch must be positive and finite"
            })
        );
    }

    #[test]
    fn zero_measure_periods_is_an_error_not_a_panic() {
        let mut cfg = CompassConfig::paper_design();
        cfg.frontend.measure_periods = 0;
        assert_eq!(
            cfg.validate(),
            Err(BuildError::BadFrontEnd {
                reason: FrontEndError::NoMeasurePeriods
            })
        );
    }

    #[test]
    fn validation_order_reports_cordic_first() {
        let mut cfg = CompassConfig::paper_design();
        cfg.cordic_iterations = 0;
        cfg.frontend.measure_periods = 0;
        assert_eq!(
            cfg.validate(),
            Err(BuildError::BadCordicIterations { got: 0 })
        );
    }
}
