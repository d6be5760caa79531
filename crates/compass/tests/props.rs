//! Property tests for the compass-level algorithms that don't need the
//! (expensive) transient pipeline.

use fluxcomp_compass::filter::HeadingSmoother;
use fluxcomp_compass::mission::{Leg, Position};
use fluxcomp_compass::tilt::{body_field, tilt_compensated_heading, Attitude};
use fluxcomp_fluxgate::earth::EarthField;
use fluxcomp_units::{Degrees, Tesla};
use proptest::prelude::*;

proptest! {
    /// Tilt compensation exactly inverts the body rotation for any
    /// attitude and heading (up to angle wrap-around).
    #[test]
    fn tilt_compensation_inverts_rotation(
        heading in 0.0f64..360.0,
        pitch in -60.0f64..60.0,
        roll in -60.0f64..60.0,
        ut in 10.0f64..70.0,
        dip in -80.0f64..80.0,
    ) {
        let field = EarthField::with_magnitude(
            Tesla::from_microtesla(ut),
            Degrees::new(dip),
        );
        // Degenerate horizontal field (|dip|→90°) makes the heading
        // unobservable; keep a usable horizontal component.
        prop_assume!(field.horizontal_magnitude().as_microtesla() > 1.0);
        let att = Attitude::new(Degrees::new(pitch), Degrees::new(roll));
        let (bx, by, bz) = body_field(&field, Degrees::new(heading), att);
        let got = tilt_compensated_heading(bx, by, bz, att);
        prop_assert!(
            got.angular_distance(Degrees::new(heading)).value() < 1e-6,
            "({pitch},{roll}) at {heading}: {got}"
        );
    }

    /// The rotation preserves |B| for any attitude.
    #[test]
    fn body_rotation_is_an_isometry(
        heading in 0.0f64..360.0,
        pitch in -89.0f64..89.0,
        roll in -89.0f64..89.0,
    ) {
        let field = EarthField::with_magnitude(
            Tesla::from_microtesla(48.0),
            Degrees::new(60.0),
        );
        let att = Attitude::new(Degrees::new(pitch), Degrees::new(roll));
        let (bx, by, bz) = body_field(&field, Degrees::new(heading), att);
        let mag = (bx.value().powi(2) + by.value().powi(2) + bz.value().powi(2)).sqrt();
        prop_assert!((mag - field.total().value()).abs() < 1e-15 + 1e-9 * mag);
    }

    /// The smoother is a contraction toward a constant input from any
    /// start.
    #[test]
    fn smoother_contracts(start in 0.0f64..360.0, target in 0.0f64..360.0, alpha_pct in 5u32..100) {
        let mut f = HeadingSmoother::new(alpha_pct as f64 / 100.0);
        let mut prev = f.update(Degrees::new(start)).angular_distance(Degrees::new(target)).value();
        // Opposed vectors can cancel exactly; skip the measure-zero case.
        prop_assume!((prev - 180.0).abs() > 1.0);
        // Enough steps for the slowest alpha to converge: the state
        // vector approaches the target as (1-alpha)^n along the chord.
        let steps = ((1e-4f64).ln() / (1.0 - alpha_pct as f64 / 100.0).ln()).ceil() as usize + 10;
        for _ in 0..steps {
            let out = f.update(Degrees::new(target));
            let dist = out.angular_distance(Degrees::new(target)).value();
            prop_assert!(dist <= prev + 1e-9, "{dist} > {prev}");
            prev = dist;
        }
        prop_assert!(prev < 1.0, "should converge: {prev}");
    }

    /// Walking out and exactly back returns to the start.
    #[test]
    fn out_and_back_closes(heading in 0.0f64..360.0, dist in 1.0f64..10_000.0) {
        let there = Leg::new(Degrees::new(heading), dist);
        let back = Leg::new(Degrees::new(heading + 180.0), dist);
        let mut p = Position::default();
        for leg in [there, back] {
            p = Position {
                north: p.north + leg.distance * leg.heading.cos(),
                east: p.east + leg.distance * leg.heading.sin(),
            };
        }
        prop_assert!(p.distance_to(&Position::default()) < 1e-6 * dist.max(1.0));
    }
}
