//! Saturable B-H characteristics of the permalloy core.
//!
//! The paper derived an ELDO model from measurements of a real \[Kaw95\]
//! sensing element and then *adapted its saturation field `H_K`* to a
//! value realisable in a next-generation sensor, because the measured
//! element only saturated at ≈15× the earth's field. Both behaviours are
//! reproduced here:
//!
//! * [`CoreModel::Anhysteretic`] — the single-valued saturation curve
//!   `B(H) = B_sat·tanh(H/H_K) + µ₀·H`, the standard behavioural fluxgate
//!   core model (Ripka 1992);
//! * [`CoreModel::Hysteretic`] — the same curve split into an up-sweep and
//!   a down-sweep branch shifted by a coercive field `H_c`, giving a
//!   parallelogram-like loop; used for the robustness ablations.
//!
//! The differential permeability `dB/dH` is available in closed form —
//! the transducer uses it to compute pickup EMF and the field-dependent
//! excitation inductance without numerical differentiation.

use fluxcomp_units::magnetics::{AmperePerMeter, Tesla, MU_0};

/// Which way the excitation field is currently sweeping. Only meaningful
/// for the hysteretic model; the anhysteretic model ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sweep {
    /// `dH/dt ≥ 0`.
    #[default]
    Up,
    /// `dH/dt < 0`.
    Down,
}

impl Sweep {
    /// Sweep direction from the sign of `dH/dt`.
    #[inline]
    pub fn from_dh_dt(dh_dt: f64) -> Self {
        if dh_dt < 0.0 {
            Sweep::Down
        } else {
            Sweep::Up
        }
    }
}

/// A behavioural B-H model of the sensor core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoreModel {
    /// Single-valued saturation curve `B = B_sat·tanh(H/H_K) + µ₀·H`.
    Anhysteretic {
        /// Saturation flux density of the permalloy film.
        bsat: Tesla,
        /// Saturation (anisotropy) field scale `H_K`.
        hk: AmperePerMeter,
    },
    /// The anhysteretic curve offset by ±`hc` depending on sweep
    /// direction — a simple major-loop hysteresis model.
    Hysteretic {
        /// Saturation flux density.
        bsat: Tesla,
        /// Saturation field scale.
        hk: AmperePerMeter,
        /// Coercive field (half the loop width).
        hc: AmperePerMeter,
    },
}

impl CoreModel {
    /// Convenience constructor for the anhysteretic model.
    ///
    /// # Panics
    ///
    /// Panics if `bsat` or `hk` is not strictly positive.
    pub fn anhysteretic(bsat: Tesla, hk: AmperePerMeter) -> Self {
        assert!(bsat.value() > 0.0, "bsat must be positive");
        assert!(hk.value() > 0.0, "hk must be positive");
        CoreModel::Anhysteretic { bsat, hk }
    }

    /// Convenience constructor for the hysteretic model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative or `bsat`/`hk` is zero.
    pub fn hysteretic(bsat: Tesla, hk: AmperePerMeter, hc: AmperePerMeter) -> Self {
        assert!(bsat.value() > 0.0, "bsat must be positive");
        assert!(hk.value() > 0.0, "hk must be positive");
        assert!(hc.value() >= 0.0, "hc must be non-negative");
        CoreModel::Hysteretic { bsat, hk, hc }
    }

    /// The saturation flux density parameter.
    #[inline]
    pub fn bsat(&self) -> Tesla {
        match *self {
            CoreModel::Anhysteretic { bsat, .. } | CoreModel::Hysteretic { bsat, .. } => bsat,
        }
    }

    /// The saturation field scale `H_K`.
    #[inline]
    pub fn hk(&self) -> AmperePerMeter {
        match *self {
            CoreModel::Anhysteretic { hk, .. } | CoreModel::Hysteretic { hk, .. } => hk,
        }
    }

    /// The core field at which [`mu_diff`](Self::mu_diff) peaks on the
    /// `sweep` branch: zero for the anhysteretic curve, and `+h_c` on the
    /// up-sweep (the magnetisation lags, so the curve is shifted to the
    /// right by the coercive field) or `−h_c` on the down-sweep for the
    /// hysteretic one. Both curves are the anhysteretic one evaluated at
    /// `h − peak_field`.
    #[inline]
    pub fn peak_field(&self, sweep: Sweep) -> AmperePerMeter {
        match (*self, sweep) {
            (CoreModel::Anhysteretic { .. }, _) => AmperePerMeter::ZERO,
            (CoreModel::Hysteretic { hc, .. }, Sweep::Up) => hc,
            (CoreModel::Hysteretic { hc, .. }, Sweep::Down) => -hc,
        }
    }

    /// Flux density at core field `h`, for the given sweep direction.
    pub fn b(&self, h: AmperePerMeter, sweep: Sweep) -> Tesla {
        anhysteretic_b(h - self.peak_field(sweep), self.bsat(), self.hk())
    }

    /// Differential permeability `dB/dH` (units H/m) at field `h`.
    ///
    /// This is what the pickup coil "sees": the EMF is
    /// `-N·A·(dB/dH)·(dH/dt)`, so the sharp peak of `dB/dH` around the
    /// (shifted) zero crossing of `H` *is* the output pulse of Fig. 3.
    /// It falls monotonically with `|h − peak_field|`.
    ///
    /// `#[inline]`: the front-end evaluates it once per analogue sample
    /// from another crate.
    #[inline]
    pub fn mu_diff(&self, h: AmperePerMeter, sweep: Sweep) -> f64 {
        anhysteretic_mu(h - self.peak_field(sweep), self.bsat(), self.hk())
    }

    /// The field at which `tanh` has effectively saturated (≈ 3·H_K,
    /// where `tanh = 0.995`); a practical "saturation field" figure.
    pub fn saturation_field(&self) -> AmperePerMeter {
        self.hk() * 3.0
    }
}

#[inline]
fn anhysteretic_b(h: AmperePerMeter, bsat: Tesla, hk: AmperePerMeter) -> Tesla {
    Tesla::new(bsat.value() * (h.value() / hk.value()).tanh() + MU_0 * h.value())
}

#[inline]
fn anhysteretic_mu(h: AmperePerMeter, bsat: Tesla, hk: AmperePerMeter) -> f64 {
    let x = h.value() / hk.value();
    let sech2 = 1.0 / x.cosh().powi(2);
    bsat.value() / hk.value() * sech2 + MU_0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adapted() -> CoreModel {
        CoreModel::anhysteretic(Tesla::new(0.5), AmperePerMeter::new(40.0))
    }

    #[test]
    fn b_is_odd_function() {
        let m = adapted();
        for h in [1.0, 10.0, 40.0, 200.0] {
            let up = m.b(AmperePerMeter::new(h), Sweep::Up).value();
            let dn = m.b(AmperePerMeter::new(-h), Sweep::Up).value();
            assert!((up + dn).abs() < 1e-12, "odd symmetry at {h}");
        }
        assert_eq!(m.b(AmperePerMeter::ZERO, Sweep::Up), Tesla::ZERO);
    }

    #[test]
    fn b_saturates_near_bsat() {
        let m = adapted();
        let b = m.b(AmperePerMeter::new(400.0), Sweep::Up);
        // tanh(10) ≈ 1: B ≈ bsat + µ0·H (the air term is tiny).
        assert!((b.value() - 0.5).abs() < 1e-3);
    }

    #[test]
    fn mu_diff_peaks_at_zero_field() {
        let m = adapted();
        let mu0field = m.mu_diff(AmperePerMeter::ZERO, Sweep::Up);
        assert!(mu0field > m.mu_diff(AmperePerMeter::new(20.0), Sweep::Up));
        assert!(mu0field > m.mu_diff(AmperePerMeter::new(-20.0), Sweep::Up));
        // Zero-field µ = bsat/hk + µ0 = 0.0125 + µ0.
        assert!((mu0field - (0.5 / 40.0 + MU_0)).abs() < 1e-9);
    }

    #[test]
    fn mu_diff_matches_numerical_derivative() {
        let m = adapted();
        for h in [-100.0, -37.0, 0.0, 12.5, 80.0] {
            let dh = 1e-4;
            let num = (m.b(AmperePerMeter::new(h + dh), Sweep::Up).value()
                - m.b(AmperePerMeter::new(h - dh), Sweep::Up).value())
                / (2.0 * dh);
            let ana = m.mu_diff(AmperePerMeter::new(h), Sweep::Up);
            assert!((num - ana).abs() < 1e-8, "at h={h}: {num} vs {ana}");
        }
    }

    #[test]
    fn saturation_field_is_three_hk() {
        let m = adapted();
        assert_eq!(m.saturation_field(), AmperePerMeter::new(120.0));
    }

    #[test]
    fn hysteretic_branches_differ_by_loop_width() {
        let m = CoreModel::hysteretic(
            Tesla::new(0.5),
            AmperePerMeter::new(40.0),
            AmperePerMeter::new(8.0),
        );
        // At H = 0 the up-branch is still negative (lagging), the
        // down-branch still positive.
        let up = m.b(AmperePerMeter::ZERO, Sweep::Up).value();
        let down = m.b(AmperePerMeter::ZERO, Sweep::Down).value();
        assert!(up < 0.0 && down > 0.0);
        assert!((up + down).abs() < 1e-12, "loop is symmetric");
        // The µ peak moves to ±hc.
        let peak_up = m.mu_diff(AmperePerMeter::new(8.0), Sweep::Up);
        let center_up = m.mu_diff(AmperePerMeter::ZERO, Sweep::Up);
        assert!(peak_up > center_up);
    }

    #[test]
    fn hysteretic_with_zero_hc_equals_anhysteretic() {
        let a = adapted();
        let h0 = CoreModel::hysteretic(
            Tesla::new(0.5),
            AmperePerMeter::new(40.0),
            AmperePerMeter::ZERO,
        );
        for h in [-50.0, 0.0, 50.0] {
            let ha = AmperePerMeter::new(h);
            assert_eq!(a.b(ha, Sweep::Up), h0.b(ha, Sweep::Up));
            assert_eq!(a.b(ha, Sweep::Down), h0.b(ha, Sweep::Down));
        }
    }

    #[test]
    fn sweep_from_derivative_sign() {
        assert_eq!(Sweep::from_dh_dt(1.0), Sweep::Up);
        assert_eq!(Sweep::from_dh_dt(0.0), Sweep::Up);
        assert_eq!(Sweep::from_dh_dt(-1.0), Sweep::Down);
    }

    #[test]
    fn accessors() {
        let m = adapted();
        assert_eq!(m.bsat(), Tesla::new(0.5));
        assert_eq!(m.hk(), AmperePerMeter::new(40.0));
    }

    #[test]
    #[should_panic(expected = "hk must be positive")]
    fn zero_hk_rejected() {
        let _ = CoreModel::anhysteretic(Tesla::new(0.5), AmperePerMeter::ZERO);
    }

    #[test]
    #[should_panic(expected = "bsat must be positive")]
    fn negative_bsat_rejected() {
        let _ = CoreModel::anhysteretic(Tesla::new(-0.5), AmperePerMeter::new(40.0));
    }
}
