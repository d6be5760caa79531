//! The pulse-position detector (paper §3.2).
//!
//! The sensor's pickup voltage consists of alternating positive and
//! negative pulses, one per excitation half-sweep, whose *positions in
//! time* encode the external field. The paper's detector:
//!
//! > "The pulse position detector processes a digital 1 after the falling
//! > edge of the positive pulse, which changes to a digital 0 after the
//! > rising edge of the negative pulse, and vice versa."
//!
//! i.e. an SR-latch toggled by the **trailing edges** of the two pulse
//! polarities. Using trailing edges on both polarities makes the
//! comparator lag cancel to first order, so the sampled model carries
//! none. The result is a single **digital-compatible** signal whose
//! high fraction per period is
//!
//! ```text
//! duty = 1/2 − H_ext / (2·H_peak)
//! ```
//!
//! — a *time-domain* representation of the field that a plain up/down
//! counter can digitise. **No A/D converter is needed**, the paper's key
//! argument for pulse-position over second-harmonic readout.

use crate::comparator::Comparator;
use fluxcomp_units::si::Volt;

/// Configuration of the detector's two comparators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Pulse detection threshold (applied at `+threshold` for positive
    /// pulses and `−threshold` for negative pulses).
    pub threshold: Volt,
    /// Comparator hysteresis width.
    pub hysteresis: Volt,
    /// Input-referred comparator offset.
    pub offset: Volt,
}

impl DetectorConfig {
    /// A reasonable SoG design point: threshold at a third of the nominal
    /// pulse height (≈58 mV pulses → 20 mV threshold), 4 mV hysteresis,
    /// no offset.
    pub fn paper_design() -> Self {
        Self {
            threshold: Volt::new(0.02),
            hysteresis: Volt::new(0.004),
            offset: Volt::ZERO,
        }
    }

    /// Validates the design: threshold and offset finite, hysteresis
    /// finite and non-negative.
    pub fn check(&self) -> Result<(), &'static str> {
        if !self.threshold.value().is_finite() {
            return Err("threshold must be finite");
        }
        if !self.offset.value().is_finite() {
            return Err("offset must be finite");
        }
        if !(self.hysteresis.value() >= 0.0 && self.hysteresis.value().is_finite()) {
            return Err("hysteresis must be finite and non-negative");
        }
        Ok(())
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self::paper_design()
    }
}

/// The latched output state plus edge bookkeeping of the detector.
#[derive(Debug, Clone, PartialEq)]
pub struct PulsePositionDetector {
    positive: Comparator,
    negative: Comparator,
    prev_positive: bool,
    prev_negative: bool,
    output: bool,
}

impl PulsePositionDetector {
    /// Creates a detector; output starts low.
    pub fn new(config: DetectorConfig) -> Self {
        Self {
            positive: Comparator::new(config.threshold, config.hysteresis, config.offset),
            negative: Comparator::new(config.threshold, config.hysteresis, config.offset),
            prev_positive: false,
            prev_negative: false,
            output: false,
        }
    }

    /// The current latched output.
    pub fn output(&self) -> bool {
        self.output
    }

    /// Resets all internal state.
    pub fn reset(&mut self) {
        self.positive.reset();
        self.negative.reset();
        self.prev_positive = false;
        self.prev_negative = false;
        self.output = false;
    }

    /// Feeds one pickup-voltage sample and returns the (possibly updated)
    /// latched output.
    ///
    /// * Trailing edge of a **positive** pulse (the `positive` comparator
    ///   releasing) **sets** the output;
    /// * trailing edge of a **negative** pulse (the `negative` comparator
    ///   releasing) **clears** it.
    ///
    /// `#[inline]`: the front-end kernel steps it once per analogue
    /// sample.
    #[inline]
    pub fn step(&mut self, pickup: Volt) -> bool {
        let pos = self.positive.step(pickup);
        let neg = self.negative.step(-pickup);
        if self.prev_positive && !pos {
            self.output = true;
        }
        if self.prev_negative && !neg {
            self.output = false;
        }
        self.prev_positive = pos;
        self.prev_negative = neg;
        self.output
    }

    /// The step whose comparator verdict bits are `verdicts` (see
    /// [`verdicts`](Self::verdicts)), with bit operations in place of
    /// branches, in the comparators and in the latch:
    /// `step_verdict(verdicts(v))` leaves the state and output that
    /// `step(v)` does.
    ///
    /// The state it leaves is a fixed point of `verdicts`: each
    /// comparator's output is one its verdict keeps, and the `prev_*`
    /// bits equal those outputs, so a second step with the same bits
    /// neither sets nor clears the latch. The kernel steps the detector
    /// only where a quiet sample's verdicts differ from the last ones.
    #[inline]
    pub(crate) fn step_verdict(&mut self, verdicts: u8) -> bool {
        let pos = self.positive.step_verdict(verdicts & 0b11);
        let neg = self.negative.step_verdict(verdicts >> 2);
        let set = self.prev_positive & !pos;
        let clear = self.prev_negative & !neg;
        self.output = (self.output | set) & !clear;
        self.prev_positive = pos;
        self.prev_negative = neg;
        self.output
    }

    /// Whether a step to `a` and a step to `b` leave the detector in the
    /// same state, whatever state it is in: each comparator gives both
    /// inputs the same [`verdict`](Comparator::verdict). One compare of
    /// the four verdict bits of each input, with no branch.
    #[inline]
    pub(crate) fn steps_alike(&self, a: Volt, b: Volt) -> bool {
        self.verdicts(a) == self.verdicts(b)
    }

    /// Both comparators' verdict bits on `pickup`, the negative one's
    /// shifted above the positive one's: a code below 16 that fixes the
    /// state a step to `pickup` leaves from any state. The kernel steps
    /// on these codes, not on the pickup voltages.
    #[inline]
    pub(crate) fn verdicts(&self, pickup: Volt) -> u8 {
        self.positive.verdict(pickup) | self.negative.verdict(-pickup) << 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a synthetic pickup waveform: a negative pulse centred at
    /// `t_neg` and a positive pulse at `t_pos`, over one period of
    /// `n` samples.
    fn synth_waveform(n: usize, t_neg: f64, t_pos: f64, height: f64) -> Vec<Volt> {
        let width = 0.02; // pulse width as fraction of the period
        (0..n)
            .map(|k| {
                let t = k as f64 / n as f64;
                let g = |c: f64| (-((t - c) / width).powi(2)).exp();
                Volt::new(height * (g(t_pos) - g(t_neg)))
            })
            .collect()
    }

    #[test]
    fn set_after_positive_pulse_clear_after_negative() {
        let mut det = PulsePositionDetector::new(DetectorConfig::paper_design());
        // Period: negative pulse at 25 %, positive pulse at 75 %.
        let wave = synth_waveform(4000, 0.25, 0.75, 0.058);
        let mut out = Vec::with_capacity(wave.len());
        // Run two periods so the latch settles.
        for _ in 0..2 {
            for &v in &wave {
                out.push(det.step(v));
            }
        }
        let second: &[bool] = &out[4000..];
        // High between the positive pulse (75 %) and the next negative
        // pulse (25 % of the following period): duty ≈ 50 %.
        let duty = second.iter().filter(|&&s| s).count() as f64 / second.len() as f64;
        assert!((duty - 0.5).abs() < 0.03, "duty = {duty}");
        // Check polarity at sample points: low just before 75 %, high
        // just after; high before 25 %, low after.
        assert!(!second[2900]);
        assert!(second[3500]);
        assert!(second[500]);
        assert!(!second[1500]);
    }

    #[test]
    fn shifted_pulses_shift_duty_linearly() {
        // Move both pulses by +5 % of the period (what an external field
        // does): the high interval from positive→negative pulse is
        // unchanged at exactly 50 % only when symmetric; moving *only*
        // the pulse pair apart changes the duty.
        let mut det = PulsePositionDetector::new(DetectorConfig::paper_design());
        // Negative pulse earlier, positive pulse later: high interval
        // (pos → next neg) shrinks.
        let wave = synth_waveform(4000, 0.20, 0.80, 0.058);
        let mut out = Vec::new();
        for _ in 0..2 {
            for &v in &wave {
                out.push(det.step(v));
            }
        }
        let second = &out[4000..];
        let duty = second.iter().filter(|&&s| s).count() as f64 / second.len() as f64;
        assert!((duty - 0.40).abs() < 0.03, "duty = {duty}");
    }

    #[test]
    fn small_pulses_below_threshold_are_ignored() {
        let mut det = PulsePositionDetector::new(DetectorConfig::paper_design());
        let wave = synth_waveform(2000, 0.25, 0.75, 0.01); // < 20 mV
        let mut any_high = false;
        for &v in &wave {
            any_high |= det.step(v);
        }
        assert!(!any_high);
    }

    /// The pickup voltages at which one of `config`'s comparators trips:
    /// the release and set points of the positive comparator and their
    /// mirror images for the negative one.
    fn trip_points(config: &DetectorConfig) -> [f64; 4] {
        let half = config.hysteresis.value() / 2.0;
        let (threshold, offset) = (config.threshold.value(), config.offset.value());
        [
            threshold - half - offset,
            threshold + half - offset,
            offset - threshold + half,
            offset - threshold - half,
        ]
    }

    /// The step on a verdict code leaves the output and state the step on
    /// the voltage does, bit for bit: on random input, on NaN and both
    /// zeros, and on each trip point and its two neighbouring floats, for
    /// designs with and without hysteresis and offset.
    #[test]
    fn verdict_step_matches_step() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x10AD);
        let designs = [
            DetectorConfig::paper_design(),
            DetectorConfig {
                hysteresis: Volt::ZERO,
                ..DetectorConfig::paper_design()
            },
            DetectorConfig {
                offset: Volt::new(0.003),
                ..DetectorConfig::paper_design()
            },
        ];
        for config in designs {
            let mut special = vec![f64::NAN, 0.0, -0.0];
            for trip in trip_points(&config) {
                special.extend([trip.next_down(), trip, trip.next_up()]);
            }
            let mut branchy = PulsePositionDetector::new(config);
            let mut coded = branchy.clone();
            for index in 0..20_000 {
                let v = if index % 3 == 0 {
                    special[rng.gen_range(0..special.len())]
                } else {
                    rng.gen_range(-0.03..0.03)
                };
                let out = branchy.step(Volt::new(v));
                let verdicts = coded.verdicts(Volt::new(v));
                assert_eq!(coded.step_verdict(verdicts), out, "{config:?} at {v}");
                assert_eq!(coded, branchy, "{config:?} at {v}");
            }
        }
    }

    /// Every state the detector can reach is left as it is by a second
    /// step with the verdict code of the first, for all 16 codes.
    #[test]
    fn a_repeated_verdict_changes_nothing() {
        let mut reached = vec![PulsePositionDetector::new(DetectorConfig::paper_design())];
        let mut next = 0;
        while next < reached.len() {
            for code in 0..16 {
                let mut stepped = reached[next].clone();
                stepped.step_verdict(code);
                if !reached.contains(&stepped) {
                    reached.push(stepped);
                }
            }
            next += 1;
        }
        assert_eq!(reached.len(), 8, "both comparator outputs × the latch");
        for state in &reached {
            for code in 0..16 {
                let mut once = state.clone();
                let out = once.step_verdict(code);
                let mut twice = once.clone();
                assert_eq!(twice.step_verdict(code), out, "{state:?}, code {code}");
                assert_eq!(twice, once, "{state:?}, code {code}");
            }
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut det = PulsePositionDetector::new(DetectorConfig::paper_design());
        for &v in &synth_waveform(2000, 0.25, 0.75, 0.058) {
            det.step(v);
        }
        det.reset();
        assert!(!det.output());
    }
}
