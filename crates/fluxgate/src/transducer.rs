//! The fluxgate sensing element as an electrical two-port.
//!
//! Structure (paper Fig. 5): a permalloy core sandwiched between two metal
//! layers that form an excitation coil and a pickup coil — a transformer
//! whose core is deliberately driven into saturation.
//!
//! The electrical model:
//!
//! * excitation current `i` produces the core field
//!   `H_exc = N_e·i / l_m` (solenoid approximation over the magnetic
//!   path length `l_m`);
//! * the total axial field is `H = H_exc + H_ext` where `H_ext` is the
//!   projection of the external (earth) field on the sensor axis;
//! * the pickup EMF is `v_p = -N_p·A·dB/dt = -N_p·A·µ_diff(H)·dH/dt`;
//! * the excitation coil presents `v_e = R_e·i + N_e·A·dB/dt`, i.e. an
//!   incremental inductance `L(H) = N_e²·A·µ_diff(H)/l_m` that collapses
//!   in saturation — the impedance change visible in the paper's Fig. 4.

use crate::core_model::{CoreModel, Sweep};
use fluxcomp_units::magnetics::{AmperePerMeter, Tesla};
use fluxcomp_units::si::{Ampere, Henry, Ohm, Volt};

/// Physical and electrical parameters of one fluxgate element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluxgateParams {
    /// B-H model of the permalloy core.
    pub core: CoreModel,
    /// Excitation coil turns `N_e`.
    pub turns_excitation: u32,
    /// Pickup coil turns `N_p`.
    pub turns_pickup: u32,
    /// Magnetic path length `l_m` in metres.
    pub magnetic_length: f64,
    /// Effective core cross-section `A` in m².
    pub core_area: f64,
    /// Excitation coil series resistance.
    pub r_excitation: Ohm,
    /// Pickup coil series resistance.
    pub r_pickup: Ohm,
}

impl FluxgateParams {
    /// The measured \[Kaw95\] element the paper characterised: saturation at
    /// `H_K = 1 Oe` (≈ 79.6 A/m — about 15× the earth's field when
    /// expressed as flux density) and a 77 Ω excitation coil, "too high
    /// for low-power applications".
    pub fn kaw95() -> Self {
        Self {
            core: CoreModel::anhysteretic(
                Tesla::new(0.5),
                fluxcomp_units::Oersted::new(1.0).to_ampere_per_meter(),
            ),
            turns_excitation: 40,
            turns_pickup: 60,
            magnetic_length: 1.0e-3,
            core_area: 1.0e-8,
            r_excitation: Ohm::new(77.0),
            r_pickup: Ohm::new(120.0),
        }
    }

    /// The paper's **adapted ELDO model**: `H_K` lowered to a level "still
    /// an obtainable goal for a new fluxgate sensor", such that the
    /// paper's 12 mA p-p excitation drives the core to twice its
    /// saturation field (the stated optimum operating point).
    pub fn adapted() -> Self {
        Self {
            core: CoreModel::anhysteretic(Tesla::new(0.5), AmperePerMeter::new(40.0)),
            turns_excitation: 40,
            turns_pickup: 60,
            magnetic_length: 1.0e-3,
            core_area: 1.0e-8,
            r_excitation: Ohm::new(77.0),
            r_pickup: Ohm::new(120.0),
        }
    }

    /// The adapted element with a simple hysteresis loop (coercive field
    /// `hc` as a fraction of `H_K`), for robustness ablations.
    pub fn adapted_hysteretic(hc_over_hk: f64) -> Self {
        let base = Self::adapted();
        let hk = base.core.hk();
        Self {
            core: CoreModel::hysteretic(base.core.bsat(), hk, hk * hc_over_hk),
            ..base
        }
    }

    /// Validates the parameters without constructing an element.
    ///
    /// Returns the same message [`Fluxgate::new`] would panic with, so
    /// callers can surface the problem as a recoverable error instead.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.magnetic_length <= 0.0 || self.magnetic_length.is_nan() {
            return Err("magnetic length must be positive");
        }
        if self.core_area <= 0.0 || self.core_area.is_nan() {
            return Err("core area must be positive");
        }
        if self.turns_excitation == 0 {
            return Err("excitation coil needs turns");
        }
        if self.turns_pickup == 0 {
            return Err("pickup coil needs turns");
        }
        if self.r_excitation.value() < 0.0 || self.r_pickup.value() < 0.0 {
            return Err("negative resistance");
        }
        Ok(())
    }
}

impl Default for FluxgateParams {
    /// The adapted model — what the paper's system simulations used.
    fn default() -> Self {
        Self::adapted()
    }
}

/// A fluxgate sensing element.
///
/// The element itself is stateless (the core model is memory-free within
/// a sweep branch); the dynamic behaviour emerges when the analogue
/// front-end drives it through time.
#[derive(Debug, Clone, PartialEq)]
pub struct Fluxgate {
    params: FluxgateParams,
}

impl Fluxgate {
    /// Creates an element from parameters.
    ///
    /// # Panics
    ///
    /// Panics if any geometric parameter is non-positive or a coil has
    /// zero turns.
    pub fn new(params: FluxgateParams) -> Self {
        if let Err(reason) = params.check() {
            panic!("{reason}");
        }
        Self { params }
    }

    /// The element's parameters.
    pub fn params(&self) -> &FluxgateParams {
        &self.params
    }

    /// Core field produced by an excitation current: `H = N_e·i / l_m`.
    #[inline]
    pub fn h_from_current(&self, i: Ampere) -> AmperePerMeter {
        AmperePerMeter::new(
            self.params.turns_excitation as f64 * i.value() / self.params.magnetic_length,
        )
    }

    /// Excitation current needed to produce core field `h` — the inverse
    /// of [`Fluxgate::h_from_current`].
    #[inline]
    pub fn current_for_field(&self, h: AmperePerMeter) -> Ampere {
        Ampere::new(h.value() * self.params.magnetic_length / self.params.turns_excitation as f64)
    }

    /// Rate of change of core field for a current slew rate `di_dt` (A/s).
    #[inline]
    pub fn dh_dt_from_current(&self, di_dt: f64) -> f64 {
        self.params.turns_excitation as f64 * di_dt / self.params.magnetic_length
    }

    /// Core flux density at total axial field `h`.
    #[inline]
    pub fn flux_density(&self, h: AmperePerMeter, sweep: Sweep) -> Tesla {
        self.params.core.b(h, sweep)
    }

    /// Pickup EMF `-N_p·A·µ_diff(H)·dH/dt` at total field `h` and field
    /// slew `dh_dt` (A/m per second).
    ///
    /// This is the pulse train of Fig. 3d: large while the core transits
    /// its permeable region, near zero in saturation.
    #[inline]
    pub fn pickup_emf(&self, h: AmperePerMeter, dh_dt: f64) -> Volt {
        let sweep = Sweep::from_dh_dt(dh_dt);
        let mu = self.params.core.mu_diff(h, sweep);
        Volt::new(-(self.params.turns_pickup as f64) * self.params.core_area * mu * dh_dt)
    }

    /// Incremental excitation-coil inductance
    /// `L(H) = N_e²·A·µ_diff(H) / l_m`.
    #[inline]
    pub fn inductance(&self, h: AmperePerMeter) -> Henry {
        self.inductance_swept(h, Sweep::default())
    }

    /// Incremental inductance on a specific sweep branch.
    #[inline]
    pub fn inductance_swept(&self, h: AmperePerMeter, sweep: Sweep) -> Henry {
        let n = self.params.turns_excitation as f64;
        Henry::new(
            n * n * self.params.core_area * self.params.core.mu_diff(h, sweep)
                / self.params.magnetic_length,
        )
    }

    /// Voltage across the excitation coil while carrying current `i` with
    /// slew `di_dt` (A/s) under external axial field `h_ext`:
    /// `v = R_e·i + N_e·A·dB/dt`.
    ///
    /// Reproduces the Fig. 4 observation: when the core saturates, the
    /// inductive term collapses and the coil looks almost purely
    /// resistive.
    pub fn excitation_voltage(&self, i: Ampere, di_dt: f64, h_ext: AmperePerMeter) -> Volt {
        let h = self.h_from_current(i) + h_ext;
        let dh_dt = self.dh_dt_from_current(di_dt);
        let sweep = Sweep::from_dh_dt(dh_dt);
        let mu = self.params.core.mu_diff(h, sweep);
        let inductive = self.params.turns_excitation as f64 * self.params.core_area * mu * dh_dt;
        self.params.r_excitation * i + Volt::new(inductive)
    }

    /// Peak-to-peak excitation current that drives the core to
    /// `ratio × saturation field` — the paper's operating-point rule
    /// ("best sensitivity … twice the saturation field") solved for
    /// current.
    pub fn excitation_pp_for_ratio(&self, ratio: f64) -> Ampere {
        let h_peak = self.params.core.saturation_field() * ratio;
        self.current_for_field(h_peak) * 2.0
    }
}

impl From<FluxgateParams> for Fluxgate {
    fn from(params: FluxgateParams) -> Self {
        Self::new(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxcomp_units::magnetics::MU_0;

    fn sensor() -> Fluxgate {
        Fluxgate::new(FluxgateParams::adapted())
    }

    #[test]
    fn current_field_round_trip() {
        let s = sensor();
        let i = Ampere::new(6e-3);
        let h = s.h_from_current(i);
        // 40 turns × 6 mA / 1 mm = 240 A/m.
        assert!((h.value() - 240.0).abs() < 1e-9);
        let back = s.current_for_field(h);
        assert!((back.value() - 6e-3).abs() < 1e-15);
    }

    #[test]
    fn paper_drive_reaches_twice_saturation() {
        // 12 mA p-p (±6 mA) must reach 2× the saturation field of the
        // adapted core: H_peak = 240 = 2 × (3×40).
        let s = sensor();
        let ipp = s.excitation_pp_for_ratio(2.0);
        assert!((ipp.value() - 12e-3).abs() < 1e-12, "ipp = {ipp}");
    }

    #[test]
    fn kaw95_saturates_at_about_15x_earth() {
        // The saturation field as an equivalent air flux density, against
        // the earth's field as the paper compares it (≈6.7 µT horizontal
        // component in NL): ratio ≈ 15.
        let b_sat_equiv = MU_0 * FluxgateParams::kaw95().core.hk().value();
        let ratio = b_sat_equiv / Tesla::from_microtesla(6.67).value();
        assert!((14.0..16.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn pickup_emf_peaks_during_transit_collapses_in_saturation() {
        let s = sensor();
        let dh_dt = 7.68e6; // 480 A/m swing over a 62.5 µs half period
        let v_transit = s.pickup_emf(AmperePerMeter::ZERO, dh_dt).abs();
        let v_sat = s.pickup_emf(AmperePerMeter::new(200.0), dh_dt).abs();
        assert!(v_transit.value() > 10.0 * v_sat.value());
        // Magnitude sanity: tens of millivolts, like the paper's scope shot.
        assert!(
            (0.005..0.5).contains(&v_transit.value()),
            "v_transit = {v_transit}"
        );
    }

    #[test]
    fn pickup_emf_sign_opposes_flux_change() {
        let s = sensor();
        let rising = s.pickup_emf(AmperePerMeter::ZERO, 1e6);
        let falling = s.pickup_emf(AmperePerMeter::ZERO, -1e6);
        assert!(rising.value() < 0.0);
        assert!(falling.value() > 0.0);
    }

    #[test]
    fn inductance_collapses_in_saturation() {
        let s = sensor();
        let l0 = s.inductance(AmperePerMeter::ZERO);
        let lsat = s.inductance(AmperePerMeter::new(400.0));
        assert!(lsat.value() < 0.01 * l0.value());
        // Zero-field inductance: N²·A·µ/l = 1600·1e-8·0.012501/1e-3 ≈ 200 µH.
        assert!((l0.value() - 2.0e-4).abs() < 2e-5, "l0 = {l0}");
    }

    #[test]
    fn excitation_voltage_resistive_in_saturation_inductive_in_transit() {
        let s = sensor();
        let di_dt = 12e-3 / 62.5e-6; // paper's triangular slew: 192 A/s
                                     // Deep in saturation (peak current): voltage ≈ R·i.
        let i_peak = Ampere::new(6e-3);
        let v_sat = s.excitation_voltage(i_peak, di_dt, AmperePerMeter::ZERO);
        let v_resistive = s.params().r_excitation * i_peak;
        assert!((v_sat.value() - v_resistive.value()).abs() < 0.05 * v_resistive.value());
        // At the zero crossing the coil is purely inductive (i = 0, so no
        // resistive drop) and the inductive bump is a visible fraction of
        // the peak resistive voltage — the impedance change of Fig. 4.
        let v_transit = s.excitation_voltage(Ampere::ZERO, di_dt, AmperePerMeter::ZERO);
        assert!(v_transit.value() > 0.05 * v_resistive.value());
        // In deep saturation the same i=0-style inductive term collapses.
        let v_ind_sat = s.excitation_voltage(Ampere::ZERO, di_dt, AmperePerMeter::new(400.0));
        assert!(v_transit.value() > 50.0 * v_ind_sat.value());
    }

    #[test]
    fn external_field_shifts_the_permeable_window() {
        let s = sensor();
        let h_ext = AmperePerMeter::new(12.0); // ~15 µT in air
        let dh_dt = 1e6;
        // With the external field, the EMF peak occurs where the *total*
        // field crosses zero, i.e. at excitation field -h_ext.
        let at_shifted = s
            .pickup_emf(AmperePerMeter::new(-12.0) + h_ext, dh_dt)
            .abs();
        let at_origin = s.pickup_emf(AmperePerMeter::new(0.0) + h_ext, dh_dt).abs();
        assert!(at_shifted > at_origin);
    }

    #[test]
    fn hysteretic_preset_carries_loop() {
        let p = FluxgateParams::adapted_hysteretic(0.2);
        match p.core {
            CoreModel::Hysteretic { hc, hk, .. } => {
                assert!((hc.value() - 0.2 * hk.value()).abs() < 1e-12);
            }
            CoreModel::Anhysteretic { .. } => panic!("expected hysteretic core"),
        }
    }

    #[test]
    fn conversion_from_params() {
        let s: Fluxgate = FluxgateParams::adapted().into();
        assert_eq!(s.params(), &FluxgateParams::adapted());
    }

    #[test]
    #[should_panic(expected = "magnetic length")]
    fn zero_length_rejected() {
        let mut p = FluxgateParams::adapted();
        p.magnetic_length = 0.0;
        let _ = Fluxgate::new(p);
    }

    #[test]
    #[should_panic(expected = "turns")]
    fn zero_turns_rejected() {
        let mut p = FluxgateParams::adapted();
        p.turns_pickup = 0;
        let _ = Fluxgate::new(p);
    }
}
