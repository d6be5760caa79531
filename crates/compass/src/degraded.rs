//! Degraded-mode fixes: per-axis health scoring, single-axis fallback
//! and hold-last-heading, surfaced through a typed [`FixQuality`].
//!
//! The paper's smart-sensor argument (§5–6) is that an integrated
//! sensor system must stay *usable* — visibly degraded, never silently
//! wrong — when part of the signal chain fails. `selftest` *detects*
//! faults offline; this module keeps the fix path alive online:
//!
//! 1. **Per-axis health scoring** ([`HealthPolicy::score`]): every
//!    [`AxisMeasurement`] is checked against two plausibility
//!    invariants that need no extra hardware, only the duty-cycle
//!    physics the compass is built on —
//!    * *duty plausibility*: `duty = 1/2 − H/(2·H_peak)` bounds the
//!      legitimate duty to a narrow band around ½ (the earth field is
//!      tiny against `H_peak`); an open pickup or stuck comparator
//!      pins the duty at 0 or 1, far outside the band;
//!    * *count/duty consistency*: the counter integrates the same
//!      detector stream the duty is computed from, so
//!      `count ≈ full_scale·(2·duty − 1)`; a corrupted counter or
//!      torn scratch breaks the identity.
//! 2. **Single-axis fallback**: with one healthy axis the heading is
//!    recovered from that axis alone — `H_x = H_h·cos θ` (or
//!    `H_y = H_h·sin θ`) gives two candidate headings; the one nearest
//!    the last good heading wins. Quality: [`FixQuality::Degraded`].
//! 3. **Hold-last-heading**: with no healthy axis the last good heading
//!    is held (0° before any good fix, like the hardware's cleared
//!    result register). Quality: [`FixQuality::Invalid`], confidence 0.
//!
//! [`DegradedTracker`] carries the cross-fix state (last good heading);
//! one lives per serve worker next to its `MeasureScratch`. Scoring
//! itself is stateless and pure, so health verdicts are deterministic
//! under any worker count.

use crate::system::{AxisMeasurement, CompassDesign, Reading};
use fluxcomp_fluxgate::pair::Axis;
use fluxcomp_units::angle::Degrees;
use std::fmt;

/// The trust level of a fix, in decreasing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FixQuality {
    /// Both axes passed their health checks; the heading is the full
    /// two-axis CORDIC fix.
    Good,
    /// Exactly one axis passed; the heading is the single-axis
    /// fallback anchored to the last good heading.
    Degraded,
    /// Neither axis passed; the heading is the held last good heading
    /// and must not be trusted for navigation.
    Invalid,
}

impl FixQuality {
    /// Stable lowercase name (used by obs counters and reports).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FixQuality::Good => "good",
            FixQuality::Degraded => "degraded",
            FixQuality::Invalid => "invalid",
        }
    }
}

impl fmt::Display for FixQuality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The health verdict for one axis measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisHealth {
    /// `|duty − ½|` — distance from the null-field duty.
    pub duty_deviation: f64,
    /// `|count − full_scale·(2·duty − 1)|` in counter LSBs.
    pub count_residual: f64,
    /// Duty within the band a real earth field can produce.
    pub plausible_duty: bool,
    /// Count consistent with the duty it was integrated alongside.
    pub consistent_count: bool,
    /// Scalar summary in `[0, 1]`: 1.0 healthy, 0.5 one check failed,
    /// 0.0 both failed.
    pub score: f64,
}

impl AxisHealth {
    /// Both invariants hold.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.plausible_duty && self.consistent_count
    }
}

/// Thresholds for [`AxisHealth`], derived from a design's physics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Maximum plausible `|duty − ½|`.
    pub max_duty_deviation: f64,
    /// Maximum count-vs-duty residual in counter LSBs.
    pub max_count_residual: f64,
    /// Counter full scale (edges per measurement window).
    pub full_scale: f64,
    /// Peak excitation field `H_peak` in A/m.
    pub h_peak: f64,
    /// Horizontal earth-field magnitude in A/m.
    pub h_horizontal: f64,
}

impl HealthPolicy {
    /// Thresholds for `design`.
    ///
    /// The duty band is the widest legitimate deviation — the full
    /// horizontal field on one axis, `H_h/(2·H_peak)` — with 2.5×
    /// headroom for noise, hard-iron offsets and calibration drift,
    /// plus a 1 % quantisation floor. The count residual allows the
    /// edge-granularity error of the clock schedule (a few edges per
    /// detector pulse boundary) as 2 % of full scale plus 8 LSBs.
    #[must_use]
    pub fn for_design(design: &CompassDesign) -> Self {
        let h_peak = design.peak_excitation_field().value();
        let h_horizontal = design
            .config()
            .field
            .horizontal_magnitude()
            .to_ampere_per_meter_in_air()
            .value();
        let full_scale = design.counter_full_scale() as f64;
        Self {
            max_duty_deviation: h_horizontal / (2.0 * h_peak) * 2.5 + 0.01,
            max_count_residual: 0.02 * full_scale + 8.0,
            full_scale,
            h_peak,
            h_horizontal,
        }
    }

    /// Scores one axis measurement against the policy.
    #[must_use]
    pub fn score(&self, m: &AxisMeasurement) -> AxisHealth {
        let duty_deviation = (m.duty - 0.5).abs();
        let plausible_duty =
            duty_deviation.is_finite() && duty_deviation <= self.max_duty_deviation;
        let expected = self.full_scale * (2.0 * m.duty - 1.0);
        let count_residual = (m.count as f64 - expected).abs();
        let consistent_count =
            count_residual.is_finite() && count_residual <= self.max_count_residual;
        let score = match (plausible_duty, consistent_count) {
            (true, true) => 1.0,
            (true, false) | (false, true) => 0.5,
            (false, false) => 0.0,
        };
        AxisHealth {
            duty_deviation,
            count_residual,
            plausible_duty,
            consistent_count,
            score,
        }
    }
}

/// A [`Reading`] plus its health verdict.
///
/// `reading.heading` is already the *published* heading: the two-axis
/// fix when `Good`, the single-axis fallback when `Degraded`, the held
/// last good heading when `Invalid`.
#[derive(Debug, Clone)]
pub struct CheckedReading {
    /// The fix, with `heading` replaced by the fallback/held value for
    /// non-`Good` qualities.
    pub reading: Reading,
    /// The typed trust level.
    pub quality: FixQuality,
    /// X-axis verdict.
    pub x_health: AxisHealth,
    /// Y-axis verdict.
    pub y_health: AxisHealth,
    /// Heading confidence in `[0, 1]`: 1.0 for `Good`, 0.5 for a
    /// `Degraded` fix anchored to a known-good heading (0.25 without an
    /// anchor), 0.0 for `Invalid`.
    pub confidence: f64,
    /// `true` when the heading is a held value, not derived from this
    /// fix's measurements at all.
    pub held: bool,
}

/// Cross-fix degraded-mode state: the health policy plus the last
/// heading that passed both axis checks.
///
/// One tracker lives wherever fixes are sequential — per serve worker,
/// per mission leg. It is deliberately *not* shared across workers:
/// the fallback anchor is advisory, and sharing it would make degraded
/// headings depend on worker interleaving.
#[derive(Debug, Clone)]
pub struct DegradedTracker {
    policy: HealthPolicy,
    last_good: Option<Degrees>,
    held_fixes: u64,
}

impl DegradedTracker {
    /// A fresh tracker with an explicit policy.
    #[must_use]
    pub fn new(policy: HealthPolicy) -> Self {
        Self {
            policy,
            last_good: None,
            held_fixes: 0,
        }
    }

    /// A fresh tracker with [`HealthPolicy::for_design`].
    #[must_use]
    pub fn for_design(design: &CompassDesign) -> Self {
        Self::new(HealthPolicy::for_design(design))
    }

    /// Clears the anchor and the held-fix count, so the next fix is
    /// scored as the first of a fresh run (e.g. a new sweep pass).
    pub fn reset(&mut self) {
        self.last_good = None;
        self.held_fixes = 0;
    }

    /// Scores both axes of `reading` and produces the published fix.
    ///
    /// See the module docs for the three-way policy. The verdict for a
    /// given reading is pure; only the fallback anchor is stateful.
    pub fn assess(&mut self, reading: Reading) -> CheckedReading {
        let x_health = self.policy.score(&reading.x);
        let y_health = self.policy.score(&reading.y);
        let mut reading = reading;
        let (quality, confidence, held) = match (x_health.healthy(), y_health.healthy()) {
            (true, true) => {
                self.last_good = Some(reading.heading);
                self.held_fixes = 0;
                (FixQuality::Good, 1.0, false)
            }
            (true, false) | (false, true) => {
                self.held_fixes += 1;
                let (axis, count) = if x_health.healthy() {
                    (Axis::X, reading.x.count)
                } else {
                    (Axis::Y, reading.y.count)
                };
                let anchor = self.last_good.unwrap_or(reading.heading);
                reading.heading = single_axis_heading(&self.policy, axis, count, anchor);
                let confidence = if self.last_good.is_some() { 0.5 } else { 0.25 };
                (FixQuality::Degraded, confidence, false)
            }
            (false, false) => {
                self.held_fixes += 1;
                reading.heading = self.last_good.unwrap_or(Degrees::ZERO);
                (FixQuality::Invalid, 0.0, true)
            }
        };
        fluxcomp_obs::counter_add(
            match quality {
                FixQuality::Good => "compass.fix_good",
                FixQuality::Degraded => "compass.fix_degraded",
                FixQuality::Invalid => "compass.fix_invalid",
            },
            1,
        );
        CheckedReading {
            reading,
            quality,
            x_health,
            y_health,
            confidence,
            held,
        }
    }
}

/// Recovers a heading from one healthy axis.
///
/// `count → H_axis` inverts the counter transfer
/// (`count = −full_scale·H/H_peak`); `H_x = H_h·cos θ` (resp.
/// `H_y = H_h·sin θ`) then admits two candidate headings, and the one
/// with the smaller angular distance to `anchor` is returned.
fn single_axis_heading(policy: &HealthPolicy, axis: Axis, count: i64, anchor: Degrees) -> Degrees {
    let h_axis = -(count as f64) * policy.h_peak / policy.full_scale;
    let ratio = (h_axis / policy.h_horizontal).clamp(-1.0, 1.0);
    let (a, b) = match axis {
        Axis::X => {
            let t = ratio.acos().to_degrees();
            (t, 360.0 - t)
        }
        Axis::Y => {
            let t = ratio.asin().to_degrees();
            (t, 180.0 - t)
        }
    };
    let (a, b) = (Degrees::new(a).normalized(), Degrees::new(b).normalized());
    if a.angular_distance(anchor).value() <= b.angular_distance(anchor).value() {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompassConfig;
    use crate::system::MeasureScratch;
    use fluxcomp_faults::{AxisSel, FaultKind, FaultPlan, FaultSpec};

    fn design() -> CompassDesign {
        CompassDesign::new(CompassConfig::paper_design()).unwrap()
    }

    fn open_pickup(axis: AxisSel) -> FaultPlan {
        FaultPlan::new(5).with(FaultSpec {
            kind: FaultKind::OpenPickup,
            axis,
            rate: 1.0,
        })
    }

    #[test]
    fn clean_fixes_are_good_with_full_confidence() {
        let design = design();
        let mut scratch = MeasureScratch::for_design(&design);
        let mut tracker = DegradedTracker::for_design(&design);
        for truth in [0.0, 45.0, 123.0, 359.0] {
            let checked = design.measure_heading_checked(
                Degrees::new(truth),
                7,
                &mut scratch,
                None,
                &mut tracker,
            );
            assert_eq!(checked.quality, FixQuality::Good, "at {truth}°");
            assert_eq!(checked.confidence, 1.0);
            assert!(!checked.held);
            assert!(checked.x_health.healthy() && checked.y_health.healthy());
            // The published heading is the untouched two-axis fix.
            let direct = design.measure_heading_scratch(Degrees::new(truth), 7, &mut scratch);
            assert_eq!(
                checked.reading.heading.value().to_bits(),
                direct.heading.value().to_bits()
            );
        }
        assert!(tracker.last_good.is_some());
    }

    #[test]
    fn zero_plan_checked_fix_is_bit_identical_to_unchecked() {
        let design = design();
        let mut scratch = MeasureScratch::for_design(&design);
        let mut tracker = DegradedTracker::for_design(&design);
        let plan = FaultPlan::none();
        for truth in [10.0, 200.0] {
            let direct = design.measure_heading_scratch(Degrees::new(truth), 3, &mut scratch);
            let checked = design.measure_heading_checked(
                Degrees::new(truth),
                3,
                &mut scratch,
                Some(&plan),
                &mut tracker,
            );
            assert_eq!(
                checked.reading.heading.value().to_bits(),
                direct.heading.value().to_bits()
            );
            assert_eq!(checked.reading.x.count, direct.x.count);
            assert_eq!(checked.reading.y.count, direct.y.count);
            assert_eq!(checked.reading.x.duty.to_bits(), direct.x.duty.to_bits());
        }
    }

    #[test]
    fn single_axis_open_pickup_degrades_with_bounded_heading_error() {
        let design = design();
        let mut scratch = MeasureScratch::for_design(&design);
        let mut tracker = DegradedTracker::for_design(&design);
        // Anchor the tracker with a good fix near the truth we'll lose
        // an axis at.
        let good = design.measure_heading_checked(
            Degrees::new(120.0),
            1,
            &mut scratch,
            None,
            &mut tracker,
        );
        assert_eq!(good.quality, FixQuality::Good);
        let plan = open_pickup(AxisSel::Y);
        let checked = design.measure_heading_checked(
            Degrees::new(123.0),
            2,
            &mut scratch,
            Some(&plan),
            &mut tracker,
        );
        assert_eq!(checked.quality, FixQuality::Degraded);
        assert!(checked.x_health.healthy());
        assert!(!checked.y_health.healthy());
        assert_eq!(checked.confidence, 0.5);
        // Single-axis fallback from the healthy X axis: the heading
        // error stays within a few degrees of the truth.
        let err = checked
            .reading
            .heading
            .angular_distance(Degrees::new(123.0))
            .value();
        assert!(err < 5.0, "degraded heading error {err}° too large");
    }

    #[test]
    fn both_axes_dead_holds_last_good_heading() {
        let design = design();
        let mut scratch = MeasureScratch::for_design(&design);
        let mut tracker = DegradedTracker::for_design(&design);
        let good =
            design.measure_heading_checked(Degrees::new(77.0), 1, &mut scratch, None, &mut tracker);
        let anchor = good.reading.heading;
        let plan = open_pickup(AxisSel::Both);
        let checked = design.measure_heading_checked(
            Degrees::new(200.0),
            2,
            &mut scratch,
            Some(&plan),
            &mut tracker,
        );
        assert_eq!(checked.quality, FixQuality::Invalid);
        assert!(checked.held);
        assert_eq!(checked.confidence, 0.0);
        assert_eq!(
            checked.reading.heading.value().to_bits(),
            anchor.value().to_bits(),
            "invalid fix must hold the last good heading"
        );
        assert_eq!(tracker.held_fixes, 1);
        // With no anchor at all, the held heading is 0°.
        let mut fresh = DegradedTracker::for_design(&design);
        let held = design.measure_heading_checked(
            Degrees::new(200.0),
            2,
            &mut scratch,
            Some(&plan),
            &mut fresh,
        );
        assert_eq!(held.quality, FixQuality::Invalid);
        assert_eq!(held.reading.heading.value(), 0.0);
    }

    #[test]
    fn stuck_comparator_is_flagged_not_trusted() {
        let design = design();
        let mut scratch = MeasureScratch::for_design(&design);
        let mut tracker = DegradedTracker::for_design(&design);
        let plan = FaultPlan::new(9).with(FaultSpec {
            kind: FaultKind::StuckComparator { output: true },
            axis: AxisSel::X,
            rate: 1.0,
        });
        let checked = design.measure_heading_checked(
            Degrees::new(10.0),
            4,
            &mut scratch,
            Some(&plan),
            &mut tracker,
        );
        // A welded-high comparator pins the duty at 1.0 — far outside
        // the plausible band — so the fix can never be Good.
        assert_ne!(checked.quality, FixQuality::Good);
        assert!(!checked.x_health.plausible_duty);
    }

    #[test]
    fn faulted_fixes_are_deterministic_across_tracker_instances() {
        let design = design();
        let plan = FaultPlan::new(33)
            .with(FaultSpec {
                kind: FaultKind::OpenPickup,
                axis: AxisSel::Both,
                rate: 0.4,
            })
            .with(FaultSpec {
                kind: FaultKind::HkDriftRamp { h_end: 120.0 },
                axis: AxisSel::Both,
                rate: 0.3,
            });
        let run = || {
            let mut scratch = MeasureScratch::for_design(&design);
            let mut tracker = DegradedTracker::for_design(&design);
            (0..24u64)
                .map(|i| {
                    let c = design.measure_heading_checked(
                        Degrees::new(15.0 * i as f64),
                        i,
                        &mut scratch,
                        Some(&plan),
                        &mut tracker,
                    );
                    (c.quality, c.reading.heading.value().to_bits())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn health_policy_thresholds_are_physical() {
        let design = design();
        let policy = HealthPolicy::for_design(&design);
        // Earth field ≈ 11.94 A/m, H_peak = 240 A/m: the duty band is
        // narrow but clears the legitimate deviation with headroom.
        let legit = policy.h_horizontal / (2.0 * policy.h_peak);
        assert!(policy.max_duty_deviation > legit);
        assert!(policy.max_duty_deviation < 0.25);
        assert!(policy.full_scale > 0.0);
    }
}
