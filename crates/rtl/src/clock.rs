//! Clocking of the digital section.
//!
//! The paper's counter clock is **4.194304 MHz = 2²² Hz** — the classic
//! watch-crystal multiple: dividing by 2⁷ gives the 32 768 Hz watch tick,
//! dividing that by 2¹⁵ gives 1 Hz. This is why the "common watch
//! options" of §4 come almost for free. [`ClockTree`] holds the master
//! clock the counter runs at.

use fluxcomp_units::si::Hertz;

/// The paper's master clock frequency, 2²² Hz.
pub const MASTER_CLOCK_HZ: f64 = 4_194_304.0;

/// The clock tree of the digital section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockTree {
    master: Hertz,
}

impl ClockTree {
    /// The paper's clock tree rooted at 4.194304 MHz.
    pub fn paper() -> Self {
        Self {
            master: Hertz::new(MASTER_CLOCK_HZ),
        }
    }

    /// A clock tree rooted at an arbitrary master frequency (used by the
    /// E5 counter-resolution sweep).
    ///
    /// # Panics
    ///
    /// Panics if `master` is not strictly positive.
    pub fn with_master(master: Hertz) -> Self {
        assert!(master.value() > 0.0, "master clock must be positive");
        Self { master }
    }

    /// The master (counter) clock.
    pub fn master(&self) -> Hertz {
        self.master
    }
}

impl Default for ClockTree {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_is_power_of_two() {
        assert_eq!(MASTER_CLOCK_HZ as u64, 1 << 22);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_master_rejected() {
        let _ = ClockTree::with_master(Hertz::new(0.0));
    }
}
