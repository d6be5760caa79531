//! The **second-harmonic readout** baseline (paper §2.1).
//!
//! "Most common is the so called second harmonic measurement" — the
//! classical fluxgate readout (\[Rip92\], \[Got95\], \[Kaw95\]): with a
//! symmetric excitation the pickup spectrum contains only odd harmonics;
//! an external field breaks the symmetry and produces **even harmonics
//! whose amplitude is proportional to the field**. A synchronous
//! demodulator at `2·f_exc` extracts that amplitude — which then needs an
//! **A/D converter** to reach the digital domain.
//!
//! The paper rejects this method precisely because of the ADC; this
//! module implements it as the baseline for experiment E8 so the
//! comparison (hardware cost and accuracy vs. ADC resolution) can be
//! reproduced.

use fluxcomp_units::si::Hertz;

/// A synchronous (lock-in) demodulator at the second harmonic of the
/// excitation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondHarmonicDemodulator {
    excitation_frequency: Hertz,
}

impl SecondHarmonicDemodulator {
    /// Creates a demodulator locked to `2 × excitation_frequency`.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not strictly positive.
    pub fn new(excitation_frequency: Hertz) -> Self {
        assert!(
            excitation_frequency.value() > 0.0,
            "excitation frequency must be positive"
        );
        Self {
            excitation_frequency,
        }
    }

    /// Demodulates a pickup waveform sampled at interval `dt` seconds,
    /// starting at `t = 0`, returning the in-phase and quadrature
    /// components of the second harmonic.
    ///
    /// The samples should span an integer number of excitation periods
    /// for an unbiased result; fractional remainders leak other
    /// harmonics.
    pub fn demodulate_iq(&self, samples: &[f64], dt: f64) -> (f64, f64) {
        let w = 2.0 * std::f64::consts::TAU * self.excitation_frequency.value();
        let mut i_acc = 0.0;
        let mut q_acc = 0.0;
        for (k, &v) in samples.iter().enumerate() {
            let t = k as f64 * dt;
            i_acc += v * (w * t).cos();
            q_acc += v * (w * t).sin();
        }
        let n = samples.len().max(1) as f64;
        (2.0 * i_acc / n, 2.0 * q_acc / n)
    }

    /// The *signed* second-harmonic output: the component projected onto
    /// the phase reference established by a calibration run. `reference`
    /// is the `(I, Q)` of a known positive field; the return value is the
    /// projection of this signal onto that direction, preserving sign.
    pub fn signed_output(&self, samples: &[f64], dt: f64, reference: (f64, f64)) -> f64 {
        let (i, q) = self.demodulate_iq(samples, dt);
        let norm = (reference.0 * reference.0 + reference.1 * reference.1).sqrt();
        if norm == 0.0 {
            return 0.0;
        }
        (i * reference.0 + q * reference.1) / norm
    }
}

/// Hardware-cost comparison data for the two readout methods (used by
/// experiment E8 together with the `sog` crate's transistor budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadoutCost {
    /// Whether the method needs an A/D converter.
    pub needs_adc: bool,
    /// Analogue blocks beyond the excitation source.
    pub analog_blocks: u32,
    /// Approximate comparator count.
    pub comparators: u32,
}

/// Cost profile of the pulse-position method: two comparators and a
/// latch; the "converter" is the digital counter that exists anyway.
pub const PULSE_POSITION_COST: ReadoutCost = ReadoutCost {
    needs_adc: false,
    analog_blocks: 1, // the pulse detector
    comparators: 2,
};

/// Cost profile of the second-harmonic method: multiplier/demodulator,
/// low-pass filter, and a multi-bit ADC.
pub const SECOND_HARMONIC_COST: ReadoutCost = ReadoutCost {
    needs_adc: true,
    analog_blocks: 3, // demodulator, filter, sample/hold
    comparators: 1,   // inside the SAR ADC
};

#[cfg(test)]
mod tests {
    use super::*;

    const F: f64 = 8_000.0;

    /// Synthesises `periods` of a signal with given 1st/2nd/3rd harmonic
    /// amplitudes, `n` samples per period.
    fn synth(h1: f64, h2: f64, h3: f64, n: usize, periods: usize, phase2: f64) -> (Vec<f64>, f64) {
        let dt = 1.0 / F / n as f64;
        let w = std::f64::consts::TAU * F;
        let samples = (0..n * periods)
            .map(|k| {
                let t = k as f64 * dt;
                h1 * (w * t).sin() + h2 * (2.0 * w * t + phase2).cos() + h3 * (3.0 * w * t).sin()
            })
            .collect();
        (samples, dt)
    }

    /// The second-harmonic amplitude `√(I² + Q²)`.
    fn amplitude(demod: &SecondHarmonicDemodulator, samples: &[f64], dt: f64) -> f64 {
        let (i, q) = demod.demodulate_iq(samples, dt);
        i.hypot(q)
    }

    #[test]
    fn extracts_second_harmonic_amplitude() {
        let demod = SecondHarmonicDemodulator::new(Hertz::new(F));
        let (samples, dt) = synth(1.0, 0.25, 0.5, 512, 4, 0.0);
        let amp = amplitude(&demod, &samples, dt);
        assert!((amp - 0.25).abs() < 1e-6, "amp = {amp}");
    }

    #[test]
    fn rejects_odd_harmonics() {
        let demod = SecondHarmonicDemodulator::new(Hertz::new(F));
        let (samples, dt) = synth(1.0, 0.0, 0.7, 512, 4, 0.0);
        let amp = amplitude(&demod, &samples, dt);
        assert!(amp < 1e-6, "odd-harmonic leakage: {amp}");
    }

    #[test]
    fn amplitude_is_phase_invariant() {
        let demod = SecondHarmonicDemodulator::new(Hertz::new(F));
        for phase in [0.0, 0.7, 1.9, 3.1] {
            let (samples, dt) = synth(1.0, 0.3, 0.0, 512, 4, phase);
            let amp = amplitude(&demod, &samples, dt);
            assert!((amp - 0.3).abs() < 1e-6, "phase {phase}: {amp}");
        }
    }

    #[test]
    fn signed_output_preserves_field_sign() {
        let demod = SecondHarmonicDemodulator::new(Hertz::new(F));
        // "Calibration": a positive field gives phase 0.
        let (cal, dt) = synth(1.0, 0.2, 0.0, 512, 4, 0.0);
        let reference = demod.demodulate_iq(&cal, dt);
        // A negative field flips the 2nd-harmonic phase by π.
        let (neg, _) = synth(1.0, 0.2, 0.0, 512, 4, std::f64::consts::PI);
        let s_pos = demod.signed_output(&cal, dt, reference);
        let s_neg = demod.signed_output(&neg, dt, reference);
        assert!(s_pos > 0.19 && s_neg < -0.19, "{s_pos} / {s_neg}");
    }

    #[test]
    fn signed_output_zero_reference() {
        let demod = SecondHarmonicDemodulator::new(Hertz::new(F));
        let (samples, dt) = synth(1.0, 0.2, 0.0, 512, 2, 0.0);
        assert_eq!(demod.signed_output(&samples, dt, (0.0, 0.0)), 0.0);
    }

    #[test]
    fn cost_comparison_favors_pulse_position() {
        // Read through locals so the comparison survives const folding
        // (the costs are compile-time constants by design).
        let (pp, sh) = (PULSE_POSITION_COST, SECOND_HARMONIC_COST);
        assert!(!pp.needs_adc);
        assert!(sh.needs_adc);
        assert!(pp.analog_blocks < sh.analog_blocks);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = SecondHarmonicDemodulator::new(Hertz::new(0.0));
    }
}
