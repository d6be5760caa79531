//! Dead-reckoning missions — the compass in its application.
//!
//! The paper's intro motivates navigation; this module closes that loop:
//! walk a planned path of legs (heading + distance), navigate each leg
//! by compass, and measure where you actually end up. The position
//! error after a long walk is the *integrated* form of the heading
//! error — a 1° systematic error displaces you by ~1.7 % of the distance
//! walked, which is why the paper's accuracy target is what it is.

use crate::system::CompassDesign;
use fluxcomp_units::angle::Degrees;

/// One leg of a planned route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Leg {
    /// The intended heading.
    pub heading: Degrees,
    /// Distance walked on the leg, metres.
    pub distance: f64,
}

impl Leg {
    /// Creates a leg.
    ///
    /// # Panics
    ///
    /// Panics if the distance is negative or not finite.
    pub fn new(heading: Degrees, distance: f64) -> Self {
        assert!(
            distance >= 0.0 && distance.is_finite(),
            "distance must be finite and non-negative"
        );
        Self { heading, distance }
    }
}

/// A 2-D position (north, east) in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// Northing.
    pub north: f64,
    /// Easting.
    pub east: f64,
}

impl Position {
    /// Euclidean distance to another position.
    pub fn distance_to(&self, other: &Position) -> f64 {
        (self.north - other.north).hypot(self.east - other.east)
    }

    /// Advances along a heading by a distance.
    fn advance(&self, heading: Degrees, distance: f64) -> Position {
        Position {
            north: self.north + distance * heading.cos(),
            east: self.east + distance * heading.sin(),
        }
    }
}

/// The outcome of walking a route by compass.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionResult {
    /// The position the route was supposed to reach.
    pub intended: Position,
    /// The position dead reckoning by compass actually reached.
    pub reached: Position,
    /// Total distance walked.
    pub total_distance: f64,
    /// The per-leg headings the compass indicated.
    pub indicated_headings: Vec<Degrees>,
}

impl MissionResult {
    /// The closing error: distance between intended and reached points.
    pub fn position_error(&self) -> f64 {
        self.intended.distance_to(&self.reached)
    }

    /// The closing error as a fraction of the distance walked.
    pub fn relative_error(&self) -> f64 {
        if self.total_distance == 0.0 {
            0.0
        } else {
            self.position_error() / self.total_distance
        }
    }
}

/// Walks a route by compass: on each leg the walker *intends* the leg's
/// heading, but steers by the compass — so the walked direction is off
/// by the compass's heading error on that leg (the standard
/// dead-reckoning model: you turn until the needle reads the planned
/// value, so your true heading carries the negated instrument error).
pub fn walk_route(compass: &CompassDesign, route: &[Leg]) -> MissionResult {
    let mut intended = Position::default();
    let mut reached = Position::default();
    let mut total = 0.0;
    let mut indicated = Vec::with_capacity(route.len());
    for leg in route {
        intended = intended.advance(leg.heading, leg.distance);
        // The walker rotates until the display shows `leg.heading`;
        // solve one step of that servo: measure at the planned heading,
        // take the error, and walk along `heading − error`.
        let reading = compass.measure_heading(leg.heading).heading;
        let error = reading.signed_error_from(leg.heading);
        let walked_heading = (leg.heading - error).normalized();
        reached = reached.advance(walked_heading, leg.distance);
        total += leg.distance;
        indicated.push(reading);
    }
    MissionResult {
        intended,
        reached,
        total_distance: total,
        indicated_headings: indicated,
    }
}

/// A square test route of the given side length: N, E, S, W — ideally
/// it closes exactly, so the closing error is pure instrument error.
pub fn square_route(side: f64) -> Vec<Leg> {
    [0.0, 90.0, 180.0, 270.0]
        .into_iter()
        .map(|h| Leg::new(Degrees::new(h), side))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompassConfig;
    use fluxcomp_fluxgate::earth::MagneticDisturbance;
    use fluxcomp_units::Tesla;

    #[test]
    fn square_route_nearly_closes_with_paper_compass() {
        let compass = CompassDesign::new(CompassConfig::paper_design()).expect("valid");
        let result = walk_route(&compass, &square_route(1_000.0));
        // 4 km walked; sub-degree headings → closing error well under
        // 2 % of distance (1° ≈ 1.75 %, and errors partly cancel).
        assert!(result.intended.distance_to(&Position::default()) < 1e-9);
        let rel = result.relative_error();
        assert!(
            rel < 0.02,
            "closing error {:.1} m ({rel:.4})",
            result.position_error()
        );
        assert_eq!(result.total_distance, 4_000.0);
        assert_eq!(result.indicated_headings.len(), 4);
    }

    #[test]
    fn hard_iron_ruins_dead_reckoning() {
        let mut cfg = CompassConfig::paper_design();
        cfg.pair.disturbance =
            MagneticDisturbance::hard(Tesla::from_microtesla(4.0), Tesla::from_microtesla(-2.0));
        let bad = CompassDesign::new(cfg).expect("valid");
        let good = CompassDesign::new(CompassConfig::paper_design()).expect("valid");
        let route = square_route(1_000.0);
        let bad_err = walk_route(&bad, &route).position_error();
        let good_err = walk_route(&good, &route).position_error();
        assert!(
            bad_err > 10.0 * good_err.max(1.0),
            "hard iron {bad_err} m vs clean {good_err} m"
        );
    }

    #[test]
    fn zero_length_route() {
        let compass = CompassDesign::new(CompassConfig::paper_design()).expect("valid");
        let result = walk_route(&compass, &[]);
        assert_eq!(result.position_error(), 0.0);
        assert_eq!(result.relative_error(), 0.0);
    }

    #[test]
    fn single_leg_error_matches_heading_error() {
        let compass = CompassDesign::new(CompassConfig::paper_design()).expect("valid");
        let leg = Leg::new(Degrees::new(123.0), 1_000.0);
        let result = walk_route(&compass, &[leg]);
        // Position error ≈ distance × heading error in radians.
        let heading_err = result.indicated_headings[0]
            .angular_distance(Degrees::new(123.0))
            .to_radians()
            .value();
        let expect = 2.0 * 1_000.0 * (heading_err / 2.0).sin();
        assert!(
            (result.position_error() - expect).abs() < 0.01 * expect.max(0.1),
            "{} vs {}",
            result.position_error(),
            expect
        );
    }

    #[test]
    fn position_geometry() {
        let p = Position::default().advance(Degrees::new(0.0), 3.0);
        assert!((p.north - 3.0).abs() < 1e-12 && p.east.abs() < 1e-12);
        let p = p.advance(Degrees::new(90.0), 4.0);
        assert!((p.east - 4.0).abs() < 1e-12);
        assert!((p.distance_to(&Position::default()) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "distance")]
    fn negative_leg_rejected() {
        let _ = Leg::new(Degrees::ZERO, -5.0);
    }
}
