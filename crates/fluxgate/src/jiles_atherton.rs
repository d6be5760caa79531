//! A Jiles-Atherton hysteresis model of the permalloy core.
//!
//! The paper derived its ELDO sensor model "from these measurements" of
//! a real \[Kaw95\] element. The workhorse behavioural model in
//! [`crate::core_model`] captures saturation with an optional
//! fixed-width loop; this module adds the standard *physical* hysteresis
//! model used for fluxgate cores in the literature (Jiles & Atherton
//! 1986, applied to fluxgates by Ripka): an ODE in the magnetisation
//! `M(H)` with pinning (`k`), domain-coupling (`α`), reversibility
//! (`c`) and the Langevin anhysteretic curve.
//!
//! The model is *stateful* — `M` is a true state variable integrated
//! along the excitation trajectory — so it exposes effects the shifted
//! -tanh loop cannot: minor loops, remanence after excitation stops, and
//! first-magnetisation curves. The E9 sensitivity experiment uses it as
//! a cross-check that the pulse-position readout is robust to a
//! physically modelled loop.
//!
//! Equations (standard form, field-driven):
//!
//! ```text
//! M_an(He) = Ms·(coth(He/a) − a/He),   He = H + α·M
//! dM/dH    = δM·(M_an − M)/(δ·k − α·(M_an − M)) · (1−c)  +  c·dM_an/dH
//! B        = µ0·(H + M)
//! ```
//!
//! with `δ = sign(dH/dt)` and `δM = 0` when the irreversible term would
//! move `M` against the sweep (the standard non-physical-negative-
//! susceptibility guard).

use fluxcomp_units::magnetics::{AmperePerMeter, Tesla, MU_0};

/// Parameters of the Jiles-Atherton model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JaParams {
    /// Saturation magnetisation `Ms` (A/m).
    pub ms: f64,
    /// Anhysteretic shape parameter `a` (A/m).
    pub a: f64,
    /// Pinning-site parameter `k` (A/m) — sets the coercive field.
    pub k: f64,
    /// Inter-domain coupling `α` (dimensionless).
    pub alpha: f64,
    /// Reversible fraction `c` in `[0, 1)`.
    pub c: f64,
}

impl JaParams {
    /// A permalloy film matched to the paper's adapted core:
    /// `Ms ≈ B_sat/µ0` with `B_sat = 0.5 T`, shape parameter tuned so
    /// the anhysteretic knee sits near the behavioural model's
    /// `H_K = 40 A/m`, a soft ~4 A/m pinning (permalloy is a low-Hc
    /// material) and a small reversible fraction.
    pub fn permalloy_film() -> Self {
        Self {
            ms: 0.5 / MU_0,
            a: 14.0,
            k: 4.0,
            alpha: 1e-5,
            c: 0.1,
        }
    }

    /// Validates the parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is outside its physical range.
    fn validate(&self) {
        assert!(self.ms > 0.0, "Ms must be positive");
        assert!(self.a > 0.0, "a must be positive");
        assert!(self.k > 0.0, "k must be positive");
        assert!(self.alpha >= 0.0, "alpha must be non-negative");
        assert!((0.0..1.0).contains(&self.c), "c must be in [0, 1)");
    }
}

impl Default for JaParams {
    fn default() -> Self {
        Self::permalloy_film()
    }
}

/// The Langevin function `L(x) = coth(x) − 1/x`, with the series
/// expansion near zero where the direct form loses precision.
fn langevin(x: f64) -> f64 {
    if x.abs() < 1e-4 {
        // L(x) ≈ x/3 − x³/45.
        x / 3.0 - x.powi(3) / 45.0
    } else {
        1.0 / x.tanh() - 1.0 / x
    }
}

/// d/dx of the Langevin function.
fn langevin_deriv(x: f64) -> f64 {
    if x.abs() < 1e-4 {
        1.0 / 3.0 - x * x / 15.0
    } else {
        let s = x.sinh();
        1.0 / (x * x) - 1.0 / (s * s)
    }
}

/// A stateful Jiles-Atherton core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JilesAthertonCore {
    params: JaParams,
    /// Current magnetisation (A/m).
    m: f64,
    /// Current applied field (A/m).
    h: f64,
}

impl JilesAthertonCore {
    /// A demagnetised core (`M = 0`) at zero field.
    pub fn new(params: JaParams) -> Self {
        params.validate();
        Self {
            params,
            m: 0.0,
            h: 0.0,
        }
    }

    /// The parameters.
    pub fn params(&self) -> &JaParams {
        &self.params
    }

    /// Current flux density `B = µ0(H + M)`.
    pub fn flux_density(&self) -> Tesla {
        Tesla::new(MU_0 * (self.h + self.m))
    }

    /// The anhysteretic magnetisation at effective field `he`.
    fn m_anhysteretic(&self, he: f64) -> f64 {
        self.params.ms * langevin(he / self.params.a)
    }

    /// Advances the state to a new applied field `h_new`, integrating
    /// `dM/dH` in `steps` sub-steps (explicit Euler in H, which is the
    /// standard and adequate choice for the smooth JA right-hand side).
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn drive_to(&mut self, h_new: AmperePerMeter, steps: u32) {
        assert!(steps > 0, "need at least one step");
        let h_target = h_new.value();
        let dh_total = h_target - self.h;
        if dh_total == 0.0 {
            return;
        }
        let dh = dh_total / steps as f64;
        let delta = dh.signum();
        let p = self.params;
        for _ in 0..steps {
            let he = self.h + p.alpha * self.m;
            let m_an = self.m_anhysteretic(he);
            let dm_an_dhe = p.ms / p.a * langevin_deriv(he / p.a);
            let diff = m_an - self.m;
            // Irreversible susceptibility, with the δM guard.
            let denom = delta * p.k - p.alpha * diff;
            let chi_irr = if diff * delta < 0.0 || denom.abs() < 1e-12 {
                0.0
            } else {
                diff / denom
            };
            let dm_dh =
                ((1.0 - p.c) * chi_irr + p.c * dm_an_dhe) / (1.0 - p.alpha * p.c * dm_an_dhe);
            self.m += dm_dh * dh;
            self.h += dh;
            // Physical clamp: |M| ≤ Ms.
            self.m = self.m.clamp(-p.ms, p.ms);
        }
    }

    /// Traces one full major loop: drives the field
    /// `0 → +h_peak → −h_peak → +h_peak` and returns the `(H, B)` points
    /// of the final (settled) cycle.
    pub fn major_loop(params: JaParams, h_peak: AmperePerMeter, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 8, "need a reasonable resolution");
        let mut core = Self::new(params);
        let hp = h_peak.value();
        // Settle: two full cycles.
        for _ in 0..2 {
            core.drive_to(AmperePerMeter::new(hp), 256);
            core.drive_to(AmperePerMeter::new(-hp), 512);
            core.drive_to(AmperePerMeter::new(hp), 512);
        }
        // Record the final cycle.
        let mut out = Vec::with_capacity(points);
        let half = points / 2;
        for i in 0..half {
            let h = hp - 2.0 * hp * (i as f64 / (half - 1) as f64);
            core.drive_to(AmperePerMeter::new(h), 8);
            out.push((h, core.flux_density().value()));
        }
        for i in 0..half {
            let h = -hp + 2.0 * hp * (i as f64 / (half - 1) as f64);
            core.drive_to(AmperePerMeter::new(h), 8);
            out.push((h, core.flux_density().value()));
        }
        out
    }

    /// The coercive field of the settled major loop: the *magnitude* of
    /// H where B crosses zero on the descending branch (which happens at
    /// `H = −H_c`), interpolated on the traced loop.
    pub fn coercivity(params: JaParams, h_peak: AmperePerMeter) -> AmperePerMeter {
        let loop_pts = Self::major_loop(params, h_peak, 512);
        // Descending branch: first half of the trace.
        let half = loop_pts.len() / 2;
        for w in loop_pts[..half].windows(2) {
            let (h0, b0) = w[0];
            let (h1, b1) = w[1];
            if b0 > 0.0 && b1 <= 0.0 {
                let frac = b0 / (b0 - b1);
                return AmperePerMeter::new((h0 + frac * (h1 - h0)).abs());
            }
        }
        AmperePerMeter::ZERO
    }

    /// Remanent flux density after removing a saturating field.
    pub fn remanence(params: JaParams, h_peak: AmperePerMeter) -> Tesla {
        let mut core = Self::new(params);
        let hp = h_peak.value();
        core.drive_to(AmperePerMeter::new(hp), 512);
        core.drive_to(AmperePerMeter::new(-hp), 1024);
        core.drive_to(AmperePerMeter::new(hp), 1024);
        core.drive_to(AmperePerMeter::ZERO, 512);
        core.flux_density()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> JaParams {
        JaParams::permalloy_film()
    }

    #[test]
    fn langevin_properties() {
        assert_eq!(langevin(0.0), 0.0);
        assert!((langevin(1e-6) - 1e-6 / 3.0).abs() < 1e-12);
        assert!(langevin(50.0) > 0.97);
        assert!((langevin(2.0) + langevin(-2.0)).abs() < 1e-12, "odd");
        // Derivative consistency.
        for x in [0.5f64, 2.0, 10.0] {
            let num = (langevin(x + 1e-6) - langevin(x - 1e-6)) / 2e-6;
            assert!((num - langevin_deriv(x)).abs() < 1e-6, "at {x}");
        }
    }

    #[test]
    fn virgin_curve_saturates_at_ms() {
        let mut core = JilesAthertonCore::new(params());
        core.drive_to(AmperePerMeter::new(2_000.0), 2_000);
        let m = core.m;
        assert!(m > 0.95 * params().ms, "M = {m}, Ms = {}", params().ms);
        // B at saturation ≈ µ0(Ms + H) ≈ 0.5 T.
        assert!((core.flux_density().value() - 0.5).abs() < 0.05);
    }

    #[test]
    fn loop_shows_hysteresis() {
        let pts = JilesAthertonCore::major_loop(params(), AmperePerMeter::new(240.0), 256);
        // At H = 0 the two branches must differ (remanence ≠ 0).
        let near_zero: Vec<f64> = pts
            .iter()
            .filter(|(h, _)| h.abs() < 4.0)
            .map(|&(_, b)| b)
            .collect();
        let max = near_zero.iter().cloned().fold(f64::MIN, f64::max);
        let min = near_zero.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 0.0 && min < 0.0, "loop branches: {min}..{max}");
    }

    #[test]
    fn coercivity_is_low_like_permalloy() {
        let hc = JilesAthertonCore::coercivity(params(), AmperePerMeter::new(240.0));
        // Soft magnetic film: a few A/m, well under the pinning k + a.
        assert!((0.5..20.0).contains(&hc.value()), "Hc = {} A/m", hc.value());
    }

    #[test]
    fn remanence_is_positive_but_below_saturation() {
        let br = JilesAthertonCore::remanence(params(), AmperePerMeter::new(240.0));
        assert!(br.value() > 0.01, "Br = {}", br.value());
        assert!(br.value() < 0.5);
    }

    #[test]
    fn loop_is_odd_symmetric() {
        let pts = JilesAthertonCore::major_loop(params(), AmperePerMeter::new(240.0), 256);
        let half = pts.len() / 2;
        // Descending branch at +H mirrors ascending branch at −H.
        for k in 0..half {
            let (h_down, b_down) = pts[k];
            let (h_up, b_up) = pts[half + k];
            assert!((h_down + h_up).abs() < 2.0, "sweep grids align");
            assert!(
                (b_down + b_up).abs() < 0.03,
                "symmetry broken at k={k}: {b_down} vs {b_up}"
            );
        }
    }

    #[test]
    fn minor_loop_stays_inside_major_loop() {
        let mut core = JilesAthertonCore::new(params());
        // Settle on the major loop.
        for _ in 0..2 {
            core.drive_to(AmperePerMeter::new(240.0), 512);
            core.drive_to(AmperePerMeter::new(-240.0), 1024);
            core.drive_to(AmperePerMeter::new(240.0), 1024);
        }
        // A minor excursion: 240 → 100 → 240.
        core.drive_to(AmperePerMeter::new(100.0), 256);
        let b_minor = core.flux_density().value();
        // Compare with the major-loop descending branch at H = 100.
        let major = JilesAthertonCore::major_loop(params(), AmperePerMeter::new(240.0), 512);
        let b_major_desc = major
            .iter()
            .take(major.len() / 2)
            .min_by(|a, b| (a.0 - 100.0).abs().total_cmp(&(b.0 - 100.0).abs()))
            .unwrap()
            .1;
        // The minor branch reverses from deeper saturation, so it sits at
        // or above the major descending branch.
        assert!(
            b_minor >= b_major_desc - 0.02,
            "minor {b_minor} vs major {b_major_desc}"
        );
    }

    #[test]
    fn zero_drive_is_identity() {
        let mut core = JilesAthertonCore::new(params());
        core.drive_to(AmperePerMeter::new(50.0), 100);
        let before = core.m;
        core.drive_to(AmperePerMeter::new(50.0), 100);
        assert_eq!(core.m, before);
    }

    #[test]
    fn magnetization_never_exceeds_ms() {
        let mut core = JilesAthertonCore::new(params());
        core.drive_to(AmperePerMeter::new(1e6), 100);
        assert!(core.m <= params().ms);
        core.drive_to(AmperePerMeter::new(-1e6), 100);
        assert!(core.m >= -params().ms);
    }

    #[test]
    #[should_panic(expected = "c must be in")]
    fn bad_params_rejected() {
        let mut p = params();
        p.c = 1.5;
        let _ = JilesAthertonCore::new(p);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_rejected() {
        let mut core = JilesAthertonCore::new(params());
        core.drive_to(AmperePerMeter::new(10.0), 0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The magnetisation always stays within ±Ms, whatever drive
            /// sequence the core sees.
            #[test]
            fn magnetization_bounded(targets in prop::collection::vec(-500.0f64..500.0, 1..12)) {
                let mut core = JilesAthertonCore::new(params());
                for t in targets {
                    core.drive_to(AmperePerMeter::new(t), 64);
                    prop_assert!(core.m.abs() <= params().ms + 1e-9);
                }
            }
        }
    }
}
