//! Temperature behaviour of the sensor and its drive.
//!
//! A wearable compass (the paper's watch use case) spans roughly −20 °C
//! to +60 °C. The paper does not quantify temperature effects — a
//! design-margin question its "broad specifications" remark gestures at
//! — so this module supplies the standard first-order models and the
//! extension experiment X1 measures how the pulse-position architecture
//! absorbs them:
//!
//! * **copper/aluminium coil resistance**: `R(T) = R₀·(1 + α_R·ΔT)`
//!   with `α_R ≈ 0.39 %/K` — this moves the V-I compliance limit;
//! * **permalloy saturation flux**: `B_sat(T) = B_sat(T₀)·(1 − α_B·ΔT)`
//!   (gradual approach to the Curie point far above the range);
//! * **anisotropy field `H_K`** drifts slightly with temperature —
//!   this scales the *sensitivity* but, crucially, identically for both
//!   sensors, so the heading ratio cancels it (the same argument as
//!   claim C9).

use crate::transducer::FluxgateParams;
use fluxcomp_units::si::Ohm;

/// First-order temperature coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalCoefficients {
    /// Relative resistance change per kelvin (metal coils: ≈ 0.0039).
    pub alpha_resistance: f64,
    /// Relative `B_sat` decrease per kelvin (permalloy: ≈ 3e-4).
    pub alpha_bsat: f64,
    /// Relative `H_K` change per kelvin (film anisotropy: ≈ −5e-4).
    pub alpha_hk: f64,
}

impl ThermalCoefficients {
    /// Typical values for an electroplated-permalloy/aluminium element.
    pub fn typical() -> Self {
        Self {
            alpha_resistance: 0.0039,
            alpha_bsat: 3.0e-4,
            alpha_hk: -5.0e-4,
        }
    }

    /// Zero coefficients — an ideal, temperature-free sensor.
    pub fn none() -> Self {
        Self {
            alpha_resistance: 0.0,
            alpha_bsat: 0.0,
            alpha_hk: 0.0,
        }
    }
}

impl Default for ThermalCoefficients {
    fn default() -> Self {
        Self::typical()
    }
}

/// The reference temperature of all nominal parameters, in °C.
pub const REFERENCE_CELSIUS: f64 = 25.0;

/// Derates a sensor's parameters to an operating temperature.
///
/// Returns a new [`FluxgateParams`] whose core and resistances reflect
/// `celsius`, leaving the geometry untouched.
pub fn sensor_at_temperature(
    nominal: &FluxgateParams,
    coeffs: &ThermalCoefficients,
    celsius: f64,
) -> FluxgateParams {
    let dt = celsius - REFERENCE_CELSIUS;
    let bsat = nominal.core.bsat() * (1.0 - coeffs.alpha_bsat * dt).max(0.01);
    let hk = nominal.core.hk() * (1.0 + coeffs.alpha_hk * dt).max(0.01);
    let core = match nominal.core {
        crate::core_model::CoreModel::Anhysteretic { .. } => {
            crate::core_model::CoreModel::anhysteretic(bsat, hk)
        }
        crate::core_model::CoreModel::Hysteretic { hc, hk: hk0, .. } => {
            // Scale the coercive field with H_K.
            let hc_scaled = hc * (hk.value() / hk0.value());
            crate::core_model::CoreModel::hysteretic(bsat, hk, hc_scaled)
        }
    };
    FluxgateParams {
        core,
        r_excitation: scale_resistance(nominal.r_excitation, coeffs, dt),
        r_pickup: scale_resistance(nominal.r_pickup, coeffs, dt),
        ..*nominal
    }
}

fn scale_resistance(r: Ohm, coeffs: &ThermalCoefficients, dt: f64) -> Ohm {
    r * (1.0 + coeffs.alpha_resistance * dt).max(0.01)
}

/// The hottest temperature at which the paper's V-I converter can still
/// drive the given sensor at ±`i_peak` from a 5 V supply — the thermal
/// margin of the 800 Ω claim.
pub fn max_drive_temperature(
    nominal: &FluxgateParams,
    coeffs: &ThermalCoefficients,
    i_peak: fluxcomp_units::Ampere,
    compliance: fluxcomp_units::Volt,
) -> f64 {
    if coeffs.alpha_resistance <= 0.0 {
        return f64::INFINITY;
    }
    // R(T) · i_peak = compliance  →  T.
    let r_limit = compliance.value() / i_peak.value();
    let ratio = r_limit / nominal.r_excitation.value();
    REFERENCE_CELSIUS + (ratio - 1.0) / coeffs.alpha_resistance
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxcomp_units::{Ampere, Volt};

    #[test]
    fn resistance_rises_with_temperature() {
        let nominal = FluxgateParams::adapted();
        let hot = sensor_at_temperature(&nominal, &ThermalCoefficients::typical(), 60.0);
        let cold = sensor_at_temperature(&nominal, &ThermalCoefficients::typical(), -20.0);
        assert!(hot.r_excitation > nominal.r_excitation);
        assert!(cold.r_excitation < nominal.r_excitation);
        // 35 K × 0.39 %/K ≈ +13.7 %.
        let expect = 77.0 * (1.0 + 0.0039 * 35.0);
        assert!((hot.r_excitation.value() - expect).abs() < 1e-9);
    }

    #[test]
    fn bsat_falls_hk_rises_when_cooling() {
        let nominal = FluxgateParams::adapted();
        let cold = sensor_at_temperature(&nominal, &ThermalCoefficients::typical(), -20.0);
        assert!(cold.core.bsat() > nominal.core.bsat());
        // alpha_hk negative: cooling raises H_K.
        assert!(cold.core.hk() > nominal.core.hk());
    }

    #[test]
    fn reference_temperature_is_identity() {
        let nominal = FluxgateParams::adapted();
        let same =
            sensor_at_temperature(&nominal, &ThermalCoefficients::typical(), REFERENCE_CELSIUS);
        assert_eq!(same, nominal);
    }

    #[test]
    fn none_coefficients_are_identity_everywhere() {
        let nominal = FluxgateParams::adapted();
        for t in [-40.0, 0.0, 85.0] {
            assert_eq!(
                sensor_at_temperature(&nominal, &ThermalCoefficients::none(), t),
                nominal
            );
        }
    }

    #[test]
    fn hysteretic_core_scales_hc_with_hk() {
        let nominal = FluxgateParams::adapted_hysteretic(0.2);
        let hot = sensor_at_temperature(&nominal, &ThermalCoefficients::typical(), 85.0);
        match (nominal.core, hot.core) {
            (
                crate::core_model::CoreModel::Hysteretic {
                    hc: hc0, hk: hk0, ..
                },
                crate::core_model::CoreModel::Hysteretic { hc, hk, .. },
            ) => {
                let r0 = hc0.value() / hk0.value();
                let r = hc.value() / hk.value();
                assert!((r - r0).abs() < 1e-12, "hc/hk ratio preserved");
            }
            _ => panic!("expected hysteretic cores"),
        }
    }

    #[test]
    fn drive_margin_of_the_800_ohm_claim() {
        // A 700 Ω sensor at 25 °C: how hot before ±6 mA no longer fits
        // in the 4.6 V compliance (limit 766 Ω)?
        let mut nominal = FluxgateParams::adapted();
        nominal.r_excitation = Ohm::new(700.0);
        let t_max = max_drive_temperature(
            &nominal,
            &ThermalCoefficients::typical(),
            Ampere::new(6e-3),
            Volt::new(4.6),
        );
        // (766.67/700 − 1)/0.0039 ≈ 24.4 K above reference.
        assert!((t_max - 49.4).abs() < 1.0, "t_max = {t_max}");
        // Temperature-free coil: unlimited.
        assert!(max_drive_temperature(
            &nominal,
            &ThermalCoefficients::none(),
            Ampere::new(6e-3),
            Volt::new(4.6)
        )
        .is_infinite());
    }
}
