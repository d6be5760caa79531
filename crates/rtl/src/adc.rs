//! A successive-approximation ADC — the converter the **second-harmonic
//! baseline** needs and the pulse-position method avoids (paper §3.2:
//! "a complicated AD-converter is not necessary, which would have been
//! the case for methods based on second harmonic measurements").
//!
//! The model is bit-accurate SAR: N decision cycles, one comparator and
//! an ideal binary-weighted DAC. A transistor-cost estimate feeds the
//! hardware-cost side of E8.

use fluxcomp_units::si::Volt;

/// A successive-approximation register ADC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SarAdc {
    bits: u32,
    /// Full-scale input range: codes span `[-vref, +vref)`.
    vref: Volt,
}

impl SarAdc {
    /// Creates an ideal N-bit SAR ADC with the given reference.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ bits ≤ 24` and `vref > 0`.
    pub fn new(bits: u32, vref: Volt) -> Self {
        assert!((2..=24).contains(&bits), "bits must be in 2..=24");
        assert!(vref.value() > 0.0, "vref must be positive");
        Self { bits, vref }
    }

    /// The LSB size in volts.
    pub fn lsb(&self) -> Volt {
        self.vref * 2.0 / (1u64 << self.bits) as f64
    }

    /// Converts an input voltage to a signed code in
    /// `[-2^(bits-1), 2^(bits-1))`, running the SAR loop bit by bit.
    pub fn convert(&self, input: Volt) -> i64 {
        let vin = input.value();
        let full = self.vref.value();
        let half_codes = 1i64 << (self.bits - 1);
        // SAR loop over an offset-binary accumulator.
        let mut code: i64 = 0;
        for bit in (0..self.bits).rev() {
            let trial = code | (1i64 << bit);
            // DAC output for offset-binary `trial`: (trial/2^bits)*2V − V.
            let vdac = (trial as f64 / (1u64 << self.bits) as f64) * 2.0 * full - full;
            if vin >= vdac {
                code = trial;
            }
        }
        code - half_codes
    }

    /// The voltage a code maps back to (mid-tread reconstruction).
    pub fn reconstruct(&self, code: i64) -> Volt {
        Volt::new(code as f64 * self.lsb().value() + self.lsb().value() / 2.0)
    }

    /// Rough transistor cost: comparator (≈40) + SAR logic (≈30/bit) +
    /// binary-weighted cap DAC switches (≈12/bit) + sample/hold (≈20).
    /// Consistent with mid-90s SAR designs on gate arrays; the E8
    /// comparison only relies on this growing linearly with resolution.
    pub fn transistor_estimate(&self) -> u32 {
        40 + 42 * self.bits + 20
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adc8() -> SarAdc {
        SarAdc::new(8, Volt::new(1.0))
    }

    #[test]
    fn zero_maps_near_zero_code() {
        let code = adc8().convert(Volt::ZERO);
        assert!(code.abs() <= 1, "code = {code}");
    }

    #[test]
    fn full_scale_codes() {
        let adc = adc8();
        assert_eq!(adc.convert(Volt::new(2.0)), 127);
        assert_eq!(adc.convert(Volt::new(-2.0)), -128);
    }

    #[test]
    fn transfer_is_monotonic() {
        let adc = adc8();
        let mut prev = i64::MIN;
        for k in -1000..=1000 {
            let v = Volt::new(k as f64 * 1e-3);
            let code = adc.convert(v);
            assert!(code >= prev, "non-monotonic at {v}");
            prev = code;
        }
    }

    #[test]
    fn quantisation_error_within_one_lsb() {
        let adc = adc8();
        let lsb = adc.lsb().value();
        for k in -500..=500 {
            let v = k as f64 * 1.9e-3;
            let code = adc.convert(Volt::new(v));
            let back = adc.reconstruct(code).value();
            assert!((back - v).abs() <= lsb, "at {v}: {back}");
        }
    }

    #[test]
    fn lsb_size() {
        let adc = adc8();
        assert!((adc.lsb().value() - 2.0 / 256.0).abs() < 1e-15);
        let adc12 = SarAdc::new(12, Volt::new(1.0));
        assert!(adc12.lsb().value() < adc.lsb().value());
    }

    #[test]
    fn cost_scales_with_bits() {
        let a8 = adc8();
        let a12 = SarAdc::new(12, Volt::new(1.0));
        assert!(a12.transistor_estimate() > a8.transistor_estimate());
        assert_eq!(a8.transistor_estimate(), 40 + 42 * 8 + 20);
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn one_bit_rejected() {
        let _ = SarAdc::new(1, Volt::new(1.0));
    }

    #[test]
    #[should_panic(expected = "vref")]
    fn zero_vref_rejected() {
        let _ = SarAdc::new(8, Volt::ZERO);
    }
}
