//! Hard-iron calibration.
//!
//! The paper's system has no calibration step (an ideal MCM carries no
//! magnetic material), but any *worn* compass — the compass-watch use
//! case of \[Hol94\] — picks up hard-iron offsets from the strap buckle
//! and case. The classic remedy is a rotation calibration: turn the
//! platform through a full circle, record the (x, y) counter outputs,
//! and take the centre of the traced circle as the offset to subtract.
//!
//! This module implements that procedure on top of the full pipeline and
//! is exercised by the calibration ablation in the E4 bench.

use crate::system::CompassDesign;
use fluxcomp_units::angle::Degrees;

/// A hard-iron offset in counter LSBs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CountOffset {
    /// X offset.
    pub x: f64,
    /// Y offset.
    pub y: f64,
}

/// Result of a rotation calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// The estimated offset.
    pub offset: CountOffset,
    /// The raw `(x, y)` counter pairs recorded during the rotation
    /// (sign-corrected so they are ∝ field).
    pub samples: Vec<(i64, i64)>,
}

impl Calibration {
    /// Runs a rotation calibration: `n` equally spaced headings.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (the min/max centre estimate needs all four
    /// cardinal regions).
    pub fn rotate(compass: &CompassDesign, n: usize) -> Self {
        assert!(n >= 4, "rotation calibration needs at least 4 points");
        let mut samples = Vec::with_capacity(n);
        for k in 0..n {
            let heading = Degrees::new(k as f64 * 360.0 / n as f64);
            let r = compass.measure_heading(heading);
            samples.push((-r.x.count, -r.y.count));
        }
        let (min_x, max_x) = samples
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), &(x, _)| {
                (lo.min(x), hi.max(x))
            });
        let (min_y, max_y) = samples
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), &(_, y)| {
                (lo.min(y), hi.max(y))
            });
        Self {
            offset: CountOffset {
                x: (min_x + max_x) as f64 / 2.0,
                y: (min_y + max_y) as f64 / 2.0,
            },
            samples,
        }
    }

    /// Applies the calibration to a raw (sign-corrected) counter pair.
    pub fn apply(&self, x: i64, y: i64) -> (i64, i64) {
        (
            x - self.offset.x.round() as i64,
            y - self.offset.y.round() as i64,
        )
    }

    /// A corrected heading measurement: one fix, offset-compensated,
    /// recomputed through the same CORDIC.
    pub fn corrected_heading(&self, compass: &CompassDesign, truth: Degrees) -> Degrees {
        let r = compass.measure_heading(truth);
        let (cx, cy) = self.apply(-r.x.count, -r.y.count);
        fluxcomp_rtl::cordic::CordicArctan::new(compass.config().cordic_iterations)
            .heading(cx, cy)
            .map(|h| h.heading)
            .unwrap_or(Degrees::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompassConfig;
    use fluxcomp_fluxgate::earth::MagneticDisturbance;
    use fluxcomp_units::Tesla;

    fn disturbed_compass(offset_ut: f64) -> CompassDesign {
        let mut cfg = CompassConfig::paper_design();
        cfg.pair.disturbance = MagneticDisturbance::hard(
            Tesla::from_microtesla(offset_ut),
            Tesla::from_microtesla(-offset_ut / 2.0),
        );
        CompassDesign::new(cfg).unwrap()
    }

    #[test]
    fn clean_compass_calibrates_to_zero_offset() {
        let c = CompassDesign::new(CompassConfig::paper_design()).unwrap();
        let cal = Calibration::rotate(&c, 8);
        assert!(cal.offset.x.abs() < 3.0, "x offset {}", cal.offset.x);
        assert!(cal.offset.y.abs() < 3.0, "y offset {}", cal.offset.y);
        assert_eq!(cal.samples.len(), 8);
    }

    #[test]
    fn hard_iron_shows_up_as_circle_center() {
        let c = disturbed_compass(4.0);
        let cal = Calibration::rotate(&c, 16);
        // 4 µT on a 15 µT field ≈ 27 % of the radius — clearly nonzero.
        assert!(cal.offset.x > 10.0, "x offset {}", cal.offset.x);
        assert!(cal.offset.y < -5.0, "y offset {}", cal.offset.y);
    }

    #[test]
    fn calibration_recovers_accuracy_under_hard_iron() {
        let c = disturbed_compass(4.0);
        let cal = Calibration::rotate(&c, 16);
        let mut worst_raw = 0.0f64;
        let mut worst_cal = 0.0f64;
        for deg in [20.0, 110.0, 200.0, 290.0] {
            let truth = Degrees::new(deg);
            let raw = c.measure_heading(truth).heading;
            let corrected = cal.corrected_heading(&c, truth);
            worst_raw = worst_raw.max(raw.angular_distance(truth).value());
            worst_cal = worst_cal.max(corrected.angular_distance(truth).value());
        }
        assert!(
            worst_raw > 5.0,
            "hard iron should break the raw compass: {worst_raw}"
        );
        assert!(
            worst_cal < 2.0,
            "calibration should restore accuracy: {worst_cal}"
        );
        assert!(worst_cal < worst_raw / 3.0);
    }

    #[test]
    fn apply_subtracts_offset() {
        let cal = Calibration {
            offset: CountOffset { x: 10.0, y: -5.0 },
            samples: vec![],
        };
        assert_eq!(cal.apply(110, 10), (100, 15));
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn too_few_points_rejected() {
        let c = CompassDesign::new(CompassConfig::paper_design()).unwrap();
        let _ = Calibration::rotate(&c, 3);
    }
}
