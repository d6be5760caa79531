//! The orthogonal X/Y sensor pair.
//!
//! The compass measures the horizontal field "in two perpendicular
//! directions" (paper §2). [`SensorPair`] groups two
//! [`Fluxgate`](crate::transducer::Fluxgate) elements with the two
//! dominant pair-level non-idealities:
//!
//! * **gain mismatch** — the two elements (and their V-I converters) are
//!   never perfectly matched; modelled as a multiplicative factor on the
//!   Y element's sensitivity;
//! * **axis misalignment** — the Y axis deviates from 90° by a small
//!   angle, folding a fraction of `B_x` into the Y measurement.
//!
//! The multiplexing itself (one sensor excited at a time, paper §2) is a
//! *system* behaviour and lives in the `compass` crate's scheduler.

use crate::earth::{EarthField, MagneticDisturbance};
use crate::transducer::FluxgateParams;
use fluxcomp_units::angle::Degrees;
use fluxcomp_units::magnetics::{AmperePerMeter, MU_0};

/// Which element of the pair is being addressed. The digital control
/// logic multiplexes between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// The forward-pointing element.
    X,
    /// The rightward-pointing element.
    Y,
}

/// Construction parameters for a pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorPairParams {
    /// Element parameters, used for both axes.
    pub element: FluxgateParams,
    /// Multiplicative sensitivity mismatch on Y (1.0 = matched).
    pub gain_mismatch: f64,
    /// Deviation of the Y axis from perfect orthogonality.
    pub misalignment: Degrees,
    /// Platform disturbance applied to the field before the sensors.
    pub disturbance: MagneticDisturbance,
}

impl SensorPairParams {
    /// An ideal pair built from the paper's adapted element.
    pub fn ideal() -> Self {
        Self {
            element: FluxgateParams::adapted(),
            gain_mismatch: 1.0,
            misalignment: Degrees::ZERO,
            disturbance: MagneticDisturbance::none(),
        }
    }

    /// Validates the parameters without constructing the pair.
    ///
    /// Returns the same message [`SensorPair::new`] would panic with, so
    /// callers can surface the problem as a recoverable error instead.
    pub fn check(&self) -> Result<(), &'static str> {
        if !(self.gain_mismatch > 0.0 && self.gain_mismatch.is_finite()) {
            return Err("gain mismatch must be positive and finite");
        }
        self.element.check()
    }
}

impl Default for SensorPairParams {
    fn default() -> Self {
        Self::ideal()
    }
}

/// Two orthogonal fluxgate elements on the MCM.
#[derive(Debug, Clone)]
pub struct SensorPair {
    params: SensorPairParams,
}

impl SensorPair {
    /// Builds the pair.
    ///
    /// # Panics
    ///
    /// Panics if `gain_mismatch` is not strictly positive, or the element
    /// parameters are invalid (see [`crate::transducer::Fluxgate::new`]).
    pub fn new(params: SensorPairParams) -> Self {
        if let Err(reason) = params.check() {
            panic!("{reason}");
        }
        Self { params }
    }

    /// The pair's parameters.
    pub fn params(&self) -> &SensorPairParams {
        &self.params
    }

    /// The external axial field strength each element sees when the
    /// platform points at `heading` in `field`, including disturbance,
    /// misalignment and gain mismatch.
    ///
    /// Returns `(h_x, h_y)` in A/m.
    pub fn axial_fields(
        &self,
        field: &EarthField,
        heading: Degrees,
    ) -> (AmperePerMeter, AmperePerMeter) {
        let (bx, by) = field.body_components(heading);
        let (bx, by) = self.params.disturbance.apply(bx, by);
        // X axis points forward.
        let hx = AmperePerMeter::new(bx.value() / MU_0);
        // Y axis deviates from 90° by the misalignment angle ε:
        // it measures  B·ŷ' = -Bx·sin(ε) + By·cos(ε) … with the
        // convention that ŷ' = (sin(90°+ε) shifted) — for small ε this is
        // By + ε·Bx to first order. Gain mismatch multiplies on top.
        let eps = self.params.misalignment;
        let by_eff = by.value() * eps.cos() + bx.value() * eps.sin();
        let hy = AmperePerMeter::new(self.params.gain_mismatch * by_eff / MU_0);
        (hx, hy)
    }

    /// The field strength seen by one axis only — what the multiplexed
    /// measurement cycle uses.
    pub fn axial_field(&self, axis: Axis, field: &EarthField, heading: Degrees) -> AmperePerMeter {
        let (hx, hy) = self.axial_fields(field, heading);
        match axis {
            Axis::X => hx,
            Axis::Y => hy,
        }
    }
}

impl Default for SensorPair {
    fn default() -> Self {
        Self::new(SensorPairParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxcomp_units::magnetics::Tesla;

    fn field() -> EarthField {
        EarthField::horizontal(Tesla::from_microtesla(15.0))
    }

    #[test]
    fn ideal_pair_recovers_heading() {
        let pair = SensorPair::default();
        for deg in (0..360).step_by(15) {
            let heading = Degrees::new(deg as f64);
            let (hx, hy) = pair.axial_fields(&field(), heading);
            let est = Degrees::atan2(hy.value(), hx.value()).normalized();
            assert!(
                est.angular_distance(heading).value() < 1e-9,
                "at {deg}: {est}"
            );
        }
    }

    #[test]
    fn single_axis_matches_pair() {
        let pair = SensorPair::default();
        let h = Degrees::new(73.0);
        let (hx, hy) = pair.axial_fields(&field(), h);
        assert_eq!(pair.axial_field(Axis::X, &field(), h), hx);
        assert_eq!(pair.axial_field(Axis::Y, &field(), h), hy);
    }

    #[test]
    fn gain_mismatch_biases_heading() {
        let mut p = SensorPairParams::ideal();
        p.gain_mismatch = 1.05;
        let pair = SensorPair::new(p);
        let heading = Degrees::new(45.0);
        let (hx, hy) = pair.axial_fields(&field(), heading);
        let est = Degrees::atan2(hy.value(), hx.value()).normalized();
        let err = est.angular_distance(heading).value();
        // 5 % mismatch at 45° ≈ 1.4° of error.
        assert!((1.0..2.0).contains(&err), "err = {err}");
        // …but no error on the cardinal axes where one component is zero.
        let (hx, hy) = pair.axial_fields(&field(), Degrees::ZERO);
        let est = Degrees::atan2(hy.value(), hx.value()).normalized();
        assert!(est.angular_distance(Degrees::ZERO).value() < 1e-9);
    }

    #[test]
    fn misalignment_folds_x_into_y() {
        let mut p = SensorPairParams::ideal();
        p.misalignment = Degrees::new(2.0);
        let pair = SensorPair::new(p);
        // Pointing north: By = 0 but the misaligned Y sees a bit of Bx.
        let (hx, hy) = pair.axial_fields(&field(), Degrees::ZERO);
        assert!(hy.value() > 0.0);
        assert!((hy.value() / hx.value() - Degrees::new(2.0).sin()).abs() < 1e-9);
    }

    #[test]
    fn hard_iron_disturbance_propagates() {
        let mut p = SensorPairParams::ideal();
        p.disturbance = MagneticDisturbance::hard(Tesla::from_microtesla(3.0), Tesla::ZERO);
        let pair = SensorPair::new(p);
        let (hx_clean, _) = SensorPair::default().axial_fields(&field(), Degrees::new(90.0));
        let (hx_dist, _) = pair.axial_fields(&field(), Degrees::new(90.0));
        let delta_b = (hx_dist.value() - hx_clean.value()) * MU_0;
        assert!((delta_b - 3e-6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "gain mismatch")]
    fn zero_gain_rejected() {
        let mut p = SensorPairParams::ideal();
        p.gain_mismatch = 0.0;
        let _ = SensorPair::new(p);
    }
}
