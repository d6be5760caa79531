//! The **second-harmonic baseline compass** (experiment E8).
//!
//! Same sensors, same excitation — but read out the classical way the
//! paper argues against: synchronous demodulation of the pickup voltage
//! at `2·f_exc`, followed by the A/D converter that method cannot avoid.
//! The comparison against the pulse-position pipeline covers both
//! accuracy (as a function of ADC resolution) and hardware cost.

use crate::config::{BuildError, CompassConfig};
use fluxcomp_afe::frontend::FrontEnd;
use fluxcomp_afe::second_harmonic::SecondHarmonicDemodulator;
use fluxcomp_fluxgate::pair::{Axis, SensorPair};
use fluxcomp_rtl::adc::SarAdc;
use fluxcomp_units::angle::Degrees;
use fluxcomp_units::magnetics::AmperePerMeter;
use fluxcomp_units::si::Volt;

/// A compass built on second-harmonic readout + SAR ADC.
#[derive(Debug, Clone)]
pub struct SecondHarmonicCompass {
    config: CompassConfig,
    frontend: FrontEnd,
    pair: SensorPair,
    demod: SecondHarmonicDemodulator,
    adc: SarAdc,
    /// Demodulator phase reference from calibration.
    reference: (f64, f64),
}

impl SecondHarmonicCompass {
    /// Builds the baseline with an `adc_bits`-bit converter.
    ///
    /// The ADC reference is auto-ranged during construction by
    /// demodulating a full-scale calibration field, exactly as a real
    /// design would set its gain.
    ///
    /// # Errors
    ///
    /// Any [`BuildError`] from [`CompassConfig::validate`], the same one
    /// [`crate::CompassDesign::new`] returns for the configuration, or
    /// [`BuildError::BadAdcBits`] when `adc_bits` is outside the SAR
    /// converter's 2..=24.
    pub fn new(config: CompassConfig, adc_bits: u32) -> Result<Self, BuildError> {
        config.validate()?;
        if !(2..=24).contains(&adc_bits) {
            return Err(BuildError::BadAdcBits { got: adc_bits });
        }
        let frontend =
            FrontEnd::new(config.channel()).map_err(|reason| BuildError::BadFrontEnd { reason })?;
        let demod = SecondHarmonicDemodulator::new(config.frontend.excitation.frequency());
        // Calibration run: a known positive full-scale field.
        let h_cal = AmperePerMeter::new(
            config.field.horizontal_magnitude().value() / fluxcomp_units::magnetics::MU_0,
        );
        let (samples, dt) = pickup_samples(&frontend, h_cal, &config);
        let reference = demod.demodulate_iq(&samples, dt);
        let s_max = (reference.0 * reference.0 + reference.1 * reference.1).sqrt();
        let adc = SarAdc::new(adc_bits, Volt::new((1.2 * s_max).max(1e-9)));
        Ok(Self {
            pair: SensorPair::new(config.pair),
            frontend,
            demod,
            adc,
            reference,
            config,
        })
    }

    /// Measures one axis: demodulated second harmonic, digitised.
    pub fn measure_axis(&self, axis: Axis, true_heading: Degrees) -> i64 {
        let h_ext = self
            .pair
            .axial_field(axis, &self.config.field, true_heading);
        let (samples, dt) = pickup_samples(&self.frontend, h_ext, &self.config);
        let s = self.demod.signed_output(&samples, dt, self.reference);
        self.adc.convert(Volt::new(s))
    }

    /// A full fix: both axes + floating-point atan2 on the codes (the
    /// baseline is allowed the easy part; its weakness is the readout).
    pub fn measure_heading(&self, true_heading: Degrees) -> Degrees {
        let x = self.measure_axis(Axis::X, true_heading);
        let y = self.measure_axis(Axis::Y, true_heading);
        if x == 0 && y == 0 {
            return Degrees::ZERO;
        }
        Degrees::atan2(y as f64, x as f64).normalized()
    }

    /// Extra transistors this method needs versus pulse-position: the
    /// ADC plus demodulator/filter estimates, minus the detector's two
    /// comparators it replaces.
    pub fn extra_hardware_transistors(&self) -> u32 {
        const DEMOD_FILTER: u32 = 700; // mixer + gm-C filter + S/H
        const PULSE_DETECTOR: u32 = 160; // two comparators + latch
        self.adc.transistor_estimate() + DEMOD_FILTER - PULSE_DETECTOR
    }
}

/// Runs the front-end and extracts the pickup waveform over the
/// measurement window.
fn pickup_samples(
    frontend: &FrontEnd,
    h_ext: AmperePerMeter,
    config: &CompassConfig,
) -> (Vec<f64>, f64) {
    let result = frontend.run(h_ext);
    let n = config.frontend.samples_per_period;
    let settle = config.frontend.settle_periods;
    let trace = result
        .traces
        .by_name("v_pickup")
        .expect("front-end records v_pickup");
    let samples: Vec<f64> = trace
        .samples()
        .iter()
        .skip(settle * n)
        .map(|&(_, v)| v)
        .collect();
    let dt = 1.0 / (config.frontend.excitation.frequency().value() * n as f64);
    (samples, dt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(bits: u32) -> SecondHarmonicCompass {
        SecondHarmonicCompass::new(CompassConfig::paper_design(), bits).unwrap()
    }

    #[test]
    fn axis_codes_are_monotone_in_heading_projection() {
        let b = baseline(12);
        let north = b.measure_axis(Axis::X, Degrees::new(0.0));
        let east = b.measure_axis(Axis::X, Degrees::new(90.0));
        let south = b.measure_axis(Axis::X, Degrees::new(180.0));
        assert!(north > 0, "north x code {north}");
        assert!(east.abs() < north / 4, "east x code {east}");
        assert!(south < 0, "south x code {south}");
    }

    #[test]
    fn twelve_bit_baseline_reads_headings() {
        let b = baseline(12);
        for deg in [0.0, 45.0, 135.0, 225.0, 315.0] {
            let got = b.measure_heading(Degrees::new(deg));
            let err = got.angular_distance(Degrees::new(deg)).value();
            assert!(err < 5.0, "heading {deg}: got {got} (err {err})");
        }
    }

    #[test]
    fn accuracy_improves_with_adc_bits() {
        let coarse = baseline(5);
        let fine = baseline(12);
        let mut worst_coarse = 0.0f64;
        let mut worst_fine = 0.0f64;
        for deg in [30.0, 120.0, 210.0, 300.0] {
            let t = Degrees::new(deg);
            worst_coarse = worst_coarse.max(coarse.measure_heading(t).angular_distance(t).value());
            worst_fine = worst_fine.max(fine.measure_heading(t).angular_distance(t).value());
        }
        assert!(
            worst_fine < worst_coarse,
            "12-bit ({worst_fine}) should beat 5-bit ({worst_coarse})"
        );
    }

    #[test]
    fn needs_more_hardware_than_pulse_position() {
        let b = baseline(8);
        // The E8 cost argument: hundreds of extra transistors, entirely
        // attributable to the ADC + demodulator.
        let extra = b.extra_hardware_transistors();
        assert!(extra > 500, "extra hardware {extra}");
        assert!(baseline(12).extra_hardware_transistors() > extra);
    }

    #[test]
    fn adc_width_outside_the_converter_is_an_error() {
        for bits in [1, 25] {
            assert_eq!(
                SecondHarmonicCompass::new(CompassConfig::paper_design(), bits).unwrap_err(),
                BuildError::BadAdcBits { got: bits },
                "{bits} bits"
            );
        }
        assert!(SecondHarmonicCompass::new(CompassConfig::paper_design(), 2).is_ok());
        assert!(SecondHarmonicCompass::new(CompassConfig::paper_design(), 24).is_ok());
    }

    #[test]
    fn adc_reference_is_auto_ranged() {
        let b = baseline(10);
        // Full-scale field must not rail the converter: a 10-bit code
        // tops out at 2⁹ − 1.
        let code = b.measure_axis(Axis::X, Degrees::new(0.0));
        assert!(code < (1 << 9) - 1);
        assert!(code > (1 << 8), "code {code} suspiciously small");
    }
}
