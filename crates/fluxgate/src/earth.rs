//! The magnetic environment: a simple geomagnetic model plus platform
//! disturbances.
//!
//! The paper's key robustness claim (C9 in `DESIGN.md`) is that the
//! ratio-based heading computation is "insensitive to local variations of
//! the magnitude of the earth's magnetic field, which … varies between
//! 25 µT in South America and 65 µT near the south pole". [`Location`]
//! encodes exactly those extremes plus intermediate points;
//! [`EarthField`] turns a location + device heading into the axial field
//! components the two sensors experience; [`MagneticDisturbance`] adds
//! hard-iron and soft-iron effects for calibration experiments.

use fluxcomp_units::angle::Degrees;
use fluxcomp_units::magnetics::Tesla;

/// Representative locations spanning the paper's stated field range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// ~25 µT total field, shallow inclination — the paper's low extreme.
    SouthAmerica,
    /// ~65 µT total field near the (magnetic) south pole — the paper's
    /// high extreme. Inclination is steep, which stresses the compass:
    /// only a small horizontal component remains.
    SouthPole,
    /// Enschede, The Netherlands — where the authors' lab is. ~49 µT
    /// total, ~67° inclination.
    Enschede,
    /// Magnetic equator: the entire field is horizontal.
    Equator,
    /// Mid-northern latitudes (e.g. central Europe / USA).
    MidNorth,
}

impl Location {
    /// All predefined locations, ordered by total field magnitude.
    pub const ALL: [Location; 5] = [
        Location::SouthAmerica,
        Location::Equator,
        Location::MidNorth,
        Location::Enschede,
        Location::SouthPole,
    ];

    /// Total field magnitude at the location.
    pub fn total_field(self) -> Tesla {
        match self {
            Location::SouthAmerica => Tesla::from_microtesla(25.0),
            Location::Equator => Tesla::from_microtesla(31.0),
            Location::MidNorth => Tesla::from_microtesla(48.0),
            Location::Enschede => Tesla::from_microtesla(49.0),
            Location::SouthPole => Tesla::from_microtesla(65.0),
        }
    }

    /// Magnetic inclination (dip angle) at the location.
    pub fn inclination(self) -> Degrees {
        match self {
            Location::SouthAmerica => Degrees::new(-20.0),
            Location::Equator => Degrees::new(0.0),
            Location::MidNorth => Degrees::new(60.0),
            Location::Enschede => Degrees::new(67.0),
            Location::SouthPole => Degrees::new(-85.0),
        }
    }
}

/// The earth's field as the compass experiences it: a horizontal
/// component (what the two in-plane fluxgates measure) plus the dip
/// angle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarthField {
    total: Tesla,
    inclination: Degrees,
}

impl EarthField {
    /// Builds the field model for a predefined location.
    pub fn at(location: Location) -> Self {
        Self {
            total: location.total_field(),
            inclination: location.inclination(),
        }
    }

    /// Builds a field model from explicit total magnitude and dip angle.
    ///
    /// # Panics
    ///
    /// Panics if `total` is negative.
    pub fn with_magnitude(total: Tesla, inclination: Degrees) -> Self {
        assert!(total.value() >= 0.0, "field magnitude must be non-negative");
        Self { total, inclination }
    }

    /// A purely horizontal field of the given magnitude — the idealised
    /// test condition.
    pub fn horizontal(b: Tesla) -> Self {
        Self::with_magnitude(b, Degrees::ZERO)
    }

    /// Total field magnitude.
    pub fn total(&self) -> Tesla {
        self.total
    }

    /// Dip angle.
    pub fn inclination(&self) -> Degrees {
        self.inclination
    }

    /// Horizontal field magnitude `B_h = B·cos(inclination)` — the only
    /// part a levelled two-axis compass can use.
    pub fn horizontal_magnitude(&self) -> Tesla {
        self.total * self.inclination.cos().abs()
    }

    /// Vertical component `B_v = B·sin(inclination)` (positive downward
    /// in the northern hemisphere).
    pub fn vertical_component(&self) -> Tesla {
        self.total * self.inclination.sin()
    }

    /// The flux-density components along the compass's X (forward) and Y
    /// (right) axes when the platform points at `heading` (clockwise from
    /// magnetic north, the navigation convention).
    ///
    /// `B_x = B_h·cos(θ)`, `B_y = B_h·sin(θ)`, so that
    /// `atan2(B_y, B_x) = θ` recovers the heading.
    pub fn body_components(&self, heading: Degrees) -> (Tesla, Tesla) {
        let bh = self.horizontal_magnitude();
        (bh * heading.cos(), bh * heading.sin())
    }
}

/// Hard-iron and soft-iron disturbances of the platform (a wristwatch
/// strap buckle, a vehicle body …), applied in the body frame.
///
/// * **Hard iron**: a constant offset field added to both axes.
/// * **Soft iron**: a 2×2 gain/cross-coupling matrix distorting the
///   field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MagneticDisturbance {
    /// Constant offset on (x, y).
    pub hard_iron: (Tesla, Tesla),
    /// Row-major 2×2 soft-iron matrix `[[sxx, sxy], [syx, syy]]`.
    pub soft_iron: [[f64; 2]; 2],
}

impl MagneticDisturbance {
    /// No disturbance: zero offset, identity matrix.
    pub fn none() -> Self {
        Self {
            hard_iron: (Tesla::ZERO, Tesla::ZERO),
            soft_iron: [[1.0, 0.0], [0.0, 1.0]],
        }
    }

    /// Pure hard-iron offset.
    pub fn hard(bx: Tesla, by: Tesla) -> Self {
        Self {
            hard_iron: (bx, by),
            ..Self::none()
        }
    }

    /// Applies the disturbance to clean body-frame components.
    pub fn apply(&self, bx: Tesla, by: Tesla) -> (Tesla, Tesla) {
        let dx = Tesla::new(self.soft_iron[0][0] * bx.value() + self.soft_iron[0][1] * by.value())
            + self.hard_iron.0;
        let dy = Tesla::new(self.soft_iron[1][0] * bx.value() + self.soft_iron[1][1] * by.value())
            + self.hard_iron.1;
        (dx, dy)
    }
}

impl Default for MagneticDisturbance {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_extremes() {
        assert!((Location::SouthAmerica.total_field().as_microtesla() - 25.0).abs() < 1e-9);
        assert!((Location::SouthPole.total_field().as_microtesla() - 65.0).abs() < 1e-9);
    }

    #[test]
    fn locations_ordered_by_magnitude() {
        let mags: Vec<f64> = Location::ALL
            .iter()
            .map(|l| l.total_field().as_microtesla())
            .collect();
        assert!(mags.windows(2).all(|w| w[0] <= w[1]), "{mags:?}");
    }

    #[test]
    fn horizontal_magnitude_respects_dip() {
        let f = EarthField::at(Location::Equator);
        assert!((f.horizontal_magnitude() / f.total() - 1.0).abs() < 1e-12);
        let steep = EarthField::at(Location::SouthPole);
        // cos(85°) ≈ 0.0872: only ~5.7 µT horizontal remains.
        let h = steep.horizontal_magnitude().as_microtesla();
        assert!((h - 65.0 * (85f64).to_radians().cos()).abs() < 1e-6);
        assert!(h < 6.0);
    }

    #[test]
    fn cardinal_directions() {
        let f = EarthField::horizontal(Tesla::from_microtesla(20.0));
        let (bx, by) = f.body_components(Degrees::new(0.0));
        assert!((bx.as_microtesla() - 20.0).abs() < 1e-9 && by.as_microtesla().abs() < 1e-9);
        let (bx, by) = f.body_components(Degrees::new(90.0));
        assert!(bx.as_microtesla().abs() < 1e-9 && (by.as_microtesla() - 20.0).abs() < 1e-9);
        let (bx, by) = f.body_components(Degrees::new(180.0));
        assert!((bx.as_microtesla() + 20.0).abs() < 1e-9 && by.as_microtesla().abs() < 1e-9);
        let (bx, by) = f.body_components(Degrees::new(270.0));
        assert!(bx.as_microtesla().abs() < 1e-9 && (by.as_microtesla() + 20.0).abs() < 1e-9);
    }

    #[test]
    fn vertical_component_sign() {
        let north = EarthField::at(Location::Enschede);
        assert!(north.vertical_component().value() > 0.0);
        let south = EarthField::at(Location::SouthPole);
        assert!(south.vertical_component().value() < 0.0);
    }

    #[test]
    fn hard_iron_offsets_components() {
        let d =
            MagneticDisturbance::hard(Tesla::from_microtesla(5.0), Tesla::from_microtesla(-3.0));
        let (x, y) = d.apply(Tesla::from_microtesla(10.0), Tesla::from_microtesla(10.0));
        assert!((x.as_microtesla() - 15.0).abs() < 1e-9);
        assert!((y.as_microtesla() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn soft_iron_scales_and_couples() {
        let d = MagneticDisturbance {
            soft_iron: [[1.1, 0.0], [0.2, 0.9]],
            ..MagneticDisturbance::none()
        };
        let (x, y) = d.apply(Tesla::from_microtesla(10.0), Tesla::from_microtesla(20.0));
        assert!((x.as_microtesla() - 11.0).abs() < 1e-9);
        assert!((y.as_microtesla() - 20.0).abs() < 1e-9); // 0.2·10 + 0.9·20
    }

    #[test]
    fn none_disturbance_is_identity() {
        let d = MagneticDisturbance::none();
        assert_eq!(d, MagneticDisturbance::default());
        let (x, y) = d.apply(Tesla::from_microtesla(7.0), Tesla::from_microtesla(-7.0));
        assert!((x.as_microtesla() - 7.0).abs() < 1e-12);
        assert!((y.as_microtesla() + 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_magnitude_rejected() {
        let _ = EarthField::with_magnitude(Tesla::from_microtesla(-1.0), Degrees::ZERO);
    }
}
