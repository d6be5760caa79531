//! The triangular-waveform generator (paper §3.1, Fig. 7).
//!
//! The paper's oscillator integrates a reference current on a **10 pF**
//! on-chip capacitor (metal2-over-metal1) between two comparator
//! thresholds; the current is set by an external **12.5 MΩ** resistor
//! realised on the MCM substrate. Two views are provided:
//!
//! * [`TriangleWave`] — the behavioural view: an ideal triangle of given
//!   frequency, peak-to-peak amplitude and dc offset, with exact `value`
//!   and `slope` evaluation (what the system-level experiments use);
//! * [`RelaxationOscillator`] — the circuit view: cap + reference current
//!   plus a window comparator, integrated in time, which *derives* the
//!   8 kHz frequency from the paper's component values and exposes the
//!   effect of component tolerances.
//!
//! The oscillator's dc offset matters (the paper: "The linearity of the
//! waveform is not very essential but the dc-offset is") because an
//! offset in the excitation current looks exactly like an external field.
//! [`OffsetCorrection`] models the paper's fix: measure the average of
//! the excitation current and servo it to zero.

use fluxcomp_units::si::{Ampere, Farad, Hertz, Ohm, Seconds, Volt};

/// An ideal triangular current waveform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriangleWave {
    frequency: Hertz,
    amplitude_pp: Ampere,
    dc_offset: Ampere,
}

impl TriangleWave {
    /// The paper's excitation: 12 mA peak-to-peak at 8 kHz, no offset.
    pub fn paper_excitation() -> Self {
        Self::new(Hertz::new(8_000.0), Ampere::new(12e-3), Ampere::ZERO)
    }

    /// Creates a triangle wave.
    ///
    /// # Panics
    ///
    /// Panics if the frequency or peak-to-peak amplitude is not strictly
    /// positive.
    pub fn new(frequency: Hertz, amplitude_pp: Ampere, dc_offset: Ampere) -> Self {
        assert!(frequency.value() > 0.0, "frequency must be positive");
        assert!(amplitude_pp.value() > 0.0, "amplitude must be positive");
        Self {
            frequency,
            amplitude_pp,
            dc_offset,
        }
    }

    /// Oscillation frequency.
    pub fn frequency(&self) -> Hertz {
        self.frequency
    }

    /// Peak-to-peak amplitude.
    pub fn amplitude_pp(&self) -> Ampere {
        self.amplitude_pp
    }

    /// DC offset.
    pub fn dc_offset(&self) -> Ampere {
        self.dc_offset
    }

    /// Returns a copy with a different dc offset (used by the offset
    /// correction servo).
    pub fn with_dc_offset(&self, dc_offset: Ampere) -> Self {
        Self { dc_offset, ..*self }
    }

    /// Returns a copy with a different peak-to-peak amplitude (used for
    /// the sensitivity sweep of experiment E9).
    pub fn with_amplitude_pp(&self, amplitude_pp: Ampere) -> Self {
        assert!(amplitude_pp.value() > 0.0, "amplitude must be positive");
        Self {
            amplitude_pp,
            ..*self
        }
    }

    /// Instantaneous value at time `t` (seconds).
    ///
    /// The wave starts at its minimum at `t = 0`, peaks at `T/2` and
    /// returns to the minimum at `T` — so the *rising* sweep occupies the
    /// first half period.
    pub fn value(&self, t: f64) -> Ampere {
        let period = 1.0 / self.frequency.value();
        let phase = (t / period).rem_euclid(1.0);
        let peak = self.amplitude_pp.value() / 2.0;
        let v = if phase < 0.5 {
            -peak + 4.0 * peak * phase
        } else {
            3.0 * peak - 4.0 * peak * phase
        };
        Ampere::new(v + self.dc_offset.value())
    }

    /// Instantaneous slope `di/dt` in A/s at time `t`.
    pub fn slope(&self, t: f64) -> f64 {
        let period = 1.0 / self.frequency.value();
        let phase = (t / period).rem_euclid(1.0);
        let peak = self.amplitude_pp.value() / 2.0;
        if phase < 0.5 {
            4.0 * peak / period
        } else {
            -4.0 * peak / period
        }
    }

    /// Mean of the waveform over a whole period — equals the dc offset.
    pub fn mean(&self) -> Ampere {
        self.dc_offset
    }

    /// Mean absolute value over a period (sets the average supply current
    /// of the V-I converter): `|offset| ⊕ A_pp/4` for small offsets.
    pub fn mean_abs(&self) -> Ampere {
        // For a triangle of peak a around offset o with |o| <= a:
        // E|x| = (a² + o²) / (2a). For |o| > a the wave never crosses 0.
        let a = self.amplitude_pp.value() / 2.0;
        let o = self.dc_offset.value();
        if o.abs() >= a {
            Ampere::new(o.abs())
        } else {
            Ampere::new((a * a + o * o) / (2.0 * a))
        }
    }
}

/// The circuit-level relaxation oscillator: a capacitor charged and
/// discharged by `±I_ref = ±V_ref/R_ext` between two comparator
/// thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelaxationOscillator {
    /// Integration capacitor (on-chip, 10 pF in the paper).
    pub capacitor: Farad,
    /// External reference resistor (12.5 MΩ on the MCM substrate).
    pub r_ext: Ohm,
    /// Reference voltage across the resistor.
    pub v_ref: Volt,
    /// Lower comparator threshold.
    pub v_low: Volt,
    /// Upper comparator threshold.
    pub v_high: Volt,
}

impl RelaxationOscillator {
    /// The paper's component values: 10 pF, 12.5 MΩ, and a threshold
    /// window chosen to hit 8 kHz.
    ///
    /// `f = I / (2·C·ΔV)` with `I = V_ref/R_ext = 2.5 V / 12.5 MΩ =
    /// 200 nA` gives `ΔV = I/(2·C·f) = 200 nA / (2·10 pF·8 kHz) =
    /// 1.25 V`.
    pub fn paper_values() -> Self {
        Self {
            capacitor: Farad::new(10e-12),
            r_ext: Ohm::new(12.5e6),
            v_ref: Volt::new(2.5),
            v_low: Volt::new(1.25),
            v_high: Volt::new(2.5),
        }
    }

    /// The charging current `I = V_ref / R_ext`.
    pub fn reference_current(&self) -> Ampere {
        self.v_ref / self.r_ext
    }

    /// The oscillation frequency `f = I / (2·C·(V_high − V_low))`.
    ///
    /// # Panics
    ///
    /// Panics if `v_high ≤ v_low`.
    pub fn frequency(&self) -> Hertz {
        let dv = self.v_high - self.v_low;
        assert!(dv.value() > 0.0, "threshold window must be positive");
        let i = self.reference_current().value();
        Hertz::new(i / (2.0 * self.capacitor.value() * dv.value()))
    }

    /// Period of one triangle cycle.
    pub fn period(&self) -> Seconds {
        self.frequency().period()
    }
}

/// The dc-offset correction servo: integrates the measured mean of the
/// excitation current and trims the waveform's offset toward zero —
/// paper §3.1: "the dc-offset … is therefore corrected by measuring the
/// average of the excitation current".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffsetCorrection {
    /// Servo gain per update (fraction of the measured offset removed
    /// each cycle; 1.0 = dead-beat).
    pub gain: f64,
    accumulated: Ampere,
}

impl OffsetCorrection {
    /// Creates a servo with the given per-cycle gain.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < gain ≤ 1`.
    pub fn new(gain: f64) -> Self {
        assert!(gain > 0.0 && gain <= 1.0, "gain must be in (0, 1]");
        Self {
            gain,
            accumulated: Ampere::ZERO,
        }
    }

    /// The trim currently applied.
    pub fn trim(&self) -> Ampere {
        self.accumulated
    }

    /// Feeds one measured cycle-mean and returns the corrected waveform.
    pub fn update(&mut self, wave: &TriangleWave, measured_mean: Ampere) -> TriangleWave {
        self.accumulated += measured_mean * self.gain;
        wave.with_dc_offset(wave.dc_offset() - measured_mean * self.gain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_wave_parameters() {
        let w = TriangleWave::paper_excitation();
        assert_eq!(w.frequency(), Hertz::new(8_000.0));
        assert_eq!(w.amplitude_pp(), Ampere::new(12e-3));
        assert_eq!(w.dc_offset(), Ampere::ZERO);
    }

    #[test]
    fn value_hits_extremes_and_zero_crossings() {
        let w = TriangleWave::paper_excitation();
        let period = 125e-6;
        assert!((w.value(0.0).value() + 6e-3).abs() < 1e-12);
        assert!((w.value(period / 2.0).value() - 6e-3).abs() < 1e-12);
        assert!((w.value(period / 4.0).value()).abs() < 1e-12);
        assert!((w.value(3.0 * period / 4.0).value()).abs() < 1e-12);
        // Periodicity.
        assert!((w.value(period * 3.25).value()).abs() < 1e-10);
    }

    #[test]
    fn slope_magnitude_and_sign() {
        let w = TriangleWave::paper_excitation();
        let period = 125e-6;
        // Rising: 12 mA over half a period = 192 A/s.
        assert!((w.slope(period * 0.25) - 192.0).abs() < 1e-9);
        assert!((w.slope(period * 0.75) + 192.0).abs() < 1e-9);
    }

    #[test]
    fn slope_consistent_with_value() {
        let w = TriangleWave::paper_excitation();
        let dt = 1e-9;
        for &t in &[10e-6, 40e-6, 70e-6, 110e-6] {
            let num = (w.value(t + dt).value() - w.value(t - dt).value()) / (2.0 * dt);
            assert!((num - w.slope(t)).abs() < 1e-3, "t={t}");
        }
    }

    #[test]
    fn dc_offset_shifts_wave_and_mean() {
        let w = TriangleWave::paper_excitation().with_dc_offset(Ampere::new(1e-3));
        assert_eq!(w.mean(), Ampere::new(1e-3));
        assert!((w.value(0.0).value() + 5e-3).abs() < 1e-12);
    }

    #[test]
    fn mean_abs_of_symmetric_triangle() {
        let w = TriangleWave::paper_excitation();
        // E|x| of ±6 mA triangle = 3 mA.
        assert!((w.mean_abs().value() - 3e-3).abs() < 1e-12);
        // Fully offset wave never crosses zero.
        let off = w.with_dc_offset(Ampere::new(10e-3));
        assert!((off.mean_abs().value() - 10e-3).abs() < 1e-12);
    }

    #[test]
    fn numeric_mean_abs_matches_formula() {
        let w = TriangleWave::paper_excitation().with_dc_offset(Ampere::new(2e-3));
        let n = 100_000;
        let period = 125e-6;
        let num: f64 = (0..n)
            .map(|k| w.value(k as f64 / n as f64 * period).value().abs())
            .sum::<f64>()
            / n as f64;
        assert!((num - w.mean_abs().value()).abs() < 1e-7);
    }

    #[test]
    fn relaxation_oscillator_derives_8khz_from_paper_values() {
        let osc = RelaxationOscillator::paper_values();
        assert!((osc.reference_current().value() - 200e-9).abs() < 1e-15);
        assert!((osc.frequency().value() - 8_000.0).abs() < 1e-6);
        assert!((osc.period().value() - 125e-6).abs() < 1e-12);
    }

    #[test]
    fn offset_correction_converges() {
        let mut servo = OffsetCorrection::new(0.5);
        let mut wave = TriangleWave::paper_excitation().with_dc_offset(Ampere::new(1e-3));
        for _ in 0..30 {
            let measured = wave.mean();
            wave = servo.update(&wave, measured);
        }
        assert!(wave.dc_offset().value().abs() < 1e-12);
        assert!((servo.trim().value() - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn deadbeat_correction_in_one_step() {
        let mut servo = OffsetCorrection::new(1.0);
        let wave = TriangleWave::paper_excitation().with_dc_offset(Ampere::new(-0.5e-3));
        let corrected = servo.update(&wave, wave.mean());
        assert!(corrected.dc_offset().value().abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "frequency")]
    fn zero_frequency_rejected() {
        let _ = TriangleWave::new(Hertz::new(0.0), Ampere::new(1e-3), Ampere::ZERO);
    }

    #[test]
    #[should_panic(expected = "gain")]
    fn bad_servo_gain_rejected() {
        let _ = OffsetCorrection::new(1.5);
    }
}
