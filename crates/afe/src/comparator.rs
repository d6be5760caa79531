//! A clocked-free (continuous) comparator with hysteresis — the building
//! block of the pulse-position detector.
//!
//! Sea-of-Gates comparators (cf. \[Haa95\], \[Don94\]: analogue design on a
//! digital SoG) are modest: we model the two non-idealities that move
//! pulse timing — input offset and hysteresis. Both feed the
//! detector-robustness ablation of experiment E1. Propagation delay is not
//! modelled: the detector toggles on the trailing edges of both pulse
//! polarities, so a lag common to both comparators cancels to first
//! order, and the sampled model switches within the sample.

use fluxcomp_units::si::Volt;

/// A continuous-time comparator with hysteresis.
///
/// Output is `true` when the input has exceeded `threshold + hysteresis/2`
/// and stays `true` until the input drops below
/// `threshold − hysteresis/2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparator {
    /// Nominal switching threshold.
    pub threshold: Volt,
    /// Full hysteresis width (centred on the threshold).
    pub hysteresis: Volt,
    /// Input-referred offset voltage.
    pub offset: Volt,
    state: bool,
}

impl Comparator {
    /// Creates a comparator; initial output is low.
    ///
    /// # Panics
    ///
    /// Panics if `hysteresis` is negative.
    pub fn new(threshold: Volt, hysteresis: Volt, offset: Volt) -> Self {
        assert!(hysteresis.value() >= 0.0, "hysteresis must be non-negative");
        Self {
            threshold,
            hysteresis,
            offset,
            state: false,
        }
    }

    /// Resets the output to low.
    pub fn reset(&mut self) {
        self.state = false;
    }

    /// Evaluates the comparator on a new input sample, returning the new
    /// output.
    #[inline]
    pub fn step(&mut self, input: Volt) -> bool {
        self.state = self.verdict(input).unwrap_or(self.state);
        self.state
    }

    /// The output a step to `input` leaves from either state:
    /// `Some(false)` below the release point, `Some(true)` above the set
    /// point and `None` inside the hold band, where the output keeps its
    /// state. It is monotone in `input`: if two inputs get the same
    /// verdict, so does every input between them.
    #[inline]
    pub(crate) fn verdict(&self, input: Volt) -> Option<bool> {
        let half = self.hysteresis / 2.0;
        let eff = input + self.offset;
        if eff < self.threshold - half {
            Some(false)
        } else if eff > self.threshold + half {
            Some(true)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_switches_at_threshold() {
        let mut c = Comparator::new(Volt::new(1.0), Volt::ZERO, Volt::ZERO);
        assert!(!c.step(Volt::new(0.99)));
        assert!(c.step(Volt::new(1.01)));
        assert!(!c.step(Volt::new(0.99)));
    }

    #[test]
    fn hysteresis_creates_dead_band() {
        let mut c = Comparator::new(Volt::new(0.0), Volt::new(0.2), Volt::ZERO);
        assert!(!c.step(Volt::new(0.09))); // below upper trip (0.1)
        assert!(c.step(Volt::new(0.11))); // above upper trip
        assert!(c.step(Volt::new(-0.09))); // still high inside band
        assert!(!c.step(Volt::new(-0.11))); // below lower trip (-0.1)
        assert!(!c.step(Volt::new(0.09))); // stays low inside band
    }

    #[test]
    fn hysteresis_rejects_noise_chatter() {
        let mut ideal = Comparator::new(Volt::ZERO, Volt::ZERO, Volt::ZERO);
        let mut hyst = Comparator::new(Volt::ZERO, Volt::new(0.1), Volt::ZERO);
        // A slow ramp with superimposed deterministic ripple.
        let mut ideal_edges = 0;
        let mut hyst_edges = 0;
        let mut prev_i = false;
        let mut prev_h = false;
        for k in 0..1000 {
            let t = k as f64 / 1000.0;
            let v = Volt::new((t - 0.5) * 0.5 + 0.03 * (t * 400.0).sin());
            let i = ideal.step(v);
            let h = hyst.step(v);
            if i != prev_i {
                ideal_edges += 1;
            }
            if h != prev_h {
                hyst_edges += 1;
            }
            prev_i = i;
            prev_h = h;
        }
        assert!(ideal_edges > 5, "ripple should chatter: {ideal_edges}");
        assert_eq!(hyst_edges, 1, "hysteresis should produce one clean edge");
    }

    #[test]
    fn offset_shifts_effective_threshold() {
        let mut c = Comparator::new(Volt::new(1.0), Volt::ZERO, Volt::new(0.1));
        // Effective input = v + 0.1, so switching happens at v = 0.9.
        assert!(!c.step(Volt::new(0.89)));
        assert!(c.step(Volt::new(0.91)));
    }

    #[test]
    fn reset_forces_low() {
        let mut c = Comparator::new(Volt::ZERO, Volt::ZERO, Volt::ZERO);
        assert!(c.step(Volt::new(1.0)));
        c.reset();
        // An input exactly on the threshold holds the output.
        assert!(!c.step(Volt::ZERO));
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn negative_hysteresis_rejected() {
        let _ = Comparator::new(Volt::ZERO, Volt::new(-0.1), Volt::ZERO);
    }
}
