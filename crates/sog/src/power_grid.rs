//! Supply-grid IR drop — why the paper gives each quarter its own
//! supply.
//!
//! "Since each quarter has a separate power supply, we have used two
//! different power supplies for both the digital and analogue parts."
//! The engineering reason is noise/droop isolation: the digital
//! section's switching current develops an IR drop across the fishbone's
//! supply spine, and a shared rail would inject that droop straight into
//! the analogue comparators' thresholds. This module models the spine as
//! a ladder of sheet-resistance segments and quantifies the droop — and
//! the isolation the paper's choice buys.

use fluxcomp_units::si::{Ampere, Ohm, Volt};

/// The supply spine of one quarter, as a uniform resistive ladder from
/// the pad to the far end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplySpine {
    /// Total spine resistance pad→far-end.
    pub resistance: Ohm,
    /// Number of ladder segments (tap points) the current is spread
    /// over.
    pub segments: u32,
}

impl SupplySpine {
    /// The fishbone's quarter spine: a couple of ohms of metal end to
    /// end (mid-90s 2-metal aluminium), 10 tap points.
    pub fn fishbone_quarter() -> Self {
        Self {
            resistance: Ohm::new(2.0),
            segments: 10,
        }
    }

    /// Worst-case (far-end) droop when `total_current` is drawn
    /// uniformly along the spine: `V = I·R/2` for a uniform load (the
    /// triangular current profile integrates to half the lumped drop).
    ///
    /// # Panics
    ///
    /// Panics if `segments == 0`.
    pub fn far_end_droop(&self, total_current: Ampere) -> Volt {
        assert!(self.segments > 0, "spine needs segments");
        // Discrete ladder: segment k (1-based from pad) carries the
        // current of segments k..=N, each N-th of the total.
        let n = self.segments as f64;
        let r_seg = self.resistance.value() / n;
        let i_seg = total_current.value() / n;
        let mut v = 0.0;
        for k in 1..=self.segments {
            let downstream = (self.segments - k + 1) as f64;
            v += r_seg * i_seg * downstream;
        }
        Volt::new(v)
    }
}

/// The supply-sharing comparison of the paper's floorplan decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsolationReport {
    /// Droop the digital load causes on its own quarter's rail.
    pub digital_droop: Volt,
    /// Droop the analogue blocks see on a **separate** supply (their own
    /// tiny current only).
    pub analog_droop_separate: Volt,
    /// Droop the analogue blocks would see on a **shared** rail (digital
    /// + analogue current on one spine).
    pub analog_droop_shared: Volt,
}

impl IsolationReport {
    /// How much supply disturbance the separate-supply choice removes
    /// from the analogue section.
    pub fn isolation_factor(&self) -> f64 {
        self.analog_droop_shared.value() / self.analog_droop_separate.value().max(1e-12)
    }
}

/// Evaluates the paper's separate-supply decision for given digital and
/// analogue supply currents.
pub fn isolation_report(
    spine: &SupplySpine,
    digital_current: Ampere,
    analog_current: Ampere,
) -> IsolationReport {
    IsolationReport {
        digital_droop: spine.far_end_droop(digital_current),
        analog_droop_separate: spine.far_end_droop(analog_current),
        analog_droop_shared: spine.far_end_droop(digital_current + analog_current),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_load_droop_approaches_half_lumped() {
        let spine = SupplySpine {
            resistance: Ohm::new(2.0),
            segments: 1000,
        };
        let i = Ampere::new(2e-3);
        let uniform = spine.far_end_droop(i).value();
        // The whole current drawn at the far end: the full I·R.
        let lumped = i.value() * spine.resistance.value();
        assert!(
            (uniform / lumped - 0.5).abs() < 0.01,
            "{uniform} vs {lumped}"
        );
    }

    #[test]
    fn coarse_ladder_still_bounded_by_lumped() {
        let spine = SupplySpine::fishbone_quarter();
        let i = Ampere::new(2e-3);
        let droop = spine.far_end_droop(i);
        assert!(droop.value() < i.value() * spine.resistance.value());
        assert!(droop.value() > 0.0);
    }

    #[test]
    fn digital_droop_is_millivolts_not_microvolts() {
        // ~2 mA of counter/logic current on a 2 Ω spine: ≈2 mV of
        // droop — harmless to logic, poisonous to a 20 mV comparator
        // threshold if shared.
        let spine = SupplySpine::fishbone_quarter();
        let report = isolation_report(&spine, Ampere::new(2e-3), Ampere::new(150e-6));
        assert!(
            (1e-3..5e-3).contains(&report.digital_droop.value()),
            "digital droop {}",
            report.digital_droop
        );
    }

    #[test]
    fn separate_supplies_buy_an_order_of_magnitude() {
        // The paper's decision quantified: the analogue rail sees ~14x
        // less droop on its own supply than shared with the digital
        // section.
        let spine = SupplySpine::fishbone_quarter();
        let report = isolation_report(&spine, Ampere::new(2e-3), Ampere::new(150e-6));
        assert!(
            report.isolation_factor() > 10.0,
            "isolation {}",
            report.isolation_factor()
        );
        assert!(report.analog_droop_separate < report.analog_droop_shared);
    }

    #[test]
    fn droop_scales_linearly_with_current() {
        let spine = SupplySpine::fishbone_quarter();
        let d1 = spine.far_end_droop(Ampere::new(1e-3)).value();
        let d2 = spine.far_end_droop(Ampere::new(2e-3)).value();
        assert!((d2 - 2.0 * d1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "segments")]
    fn zero_segments_rejected() {
        let spine = SupplySpine {
            resistance: Ohm::new(1.0),
            segments: 0,
        };
        let _ = spine.far_end_droop(Ampere::new(1e-3));
    }
}
