//! Tilt behaviour — the two-axis compass's real-world Achilles heel,
//! and the three-axis "future work" extension.
//!
//! The paper's compass "functions by measuring the magnetic field in a
//! horizontal plane" — i.e. it assumes the watch is held level. When the
//! platform pitches or rolls, the earth's **vertical** field component
//! (large at the paper's latitude: tan(67°) ≈ 2.36× the horizontal
//! part) leaks into the sensor plane and corrupts the heading. This
//! module quantifies that error and implements the standard remedy the
//! paper's architecture could grow into: a third orthogonal fluxgate and
//! tilt compensation from a (simulated) inclinometer.
//!
//! Frames and conventions: navigation frame N/E/D (down positive),
//! heading ψ (clockwise from north), pitch θ (nose up positive), roll φ
//! (right side down positive), body axes x (forward), y (right),
//! z (down). The field in the body frame is
//! `B_b = R_x(φ)·R_y(θ)·R_z(ψ)·B_n`.

use fluxcomp_fluxgate::earth::EarthField;
use fluxcomp_units::angle::Degrees;
use fluxcomp_units::magnetics::Tesla;

/// The platform attitude.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Attitude {
    /// Pitch (nose up positive).
    pub pitch: Degrees,
    /// Roll (right side down positive).
    pub roll: Degrees,
}

impl Attitude {
    /// Creates an attitude.
    pub fn new(pitch: Degrees, roll: Degrees) -> Self {
        Self { pitch, roll }
    }
}

/// The field vector the three body-frame sensors see for a platform at
/// `heading` with `attitude` in `field`. Returns `(bx, by, bz)`.
pub fn body_field(
    field: &EarthField,
    heading: Degrees,
    attitude: Attitude,
) -> (Tesla, Tesla, Tesla) {
    let bh = field.horizontal_magnitude().value();
    let bv = field.vertical_component().value();
    let psi = heading.to_radians().value();
    // Navigation-frame field with x toward magnetic north.
    let bn = [bh, 0.0, bv];
    // Yaw: the workspace's heading convention (see
    // `EarthField::body_components`) has `B_y = +B_h·sin(ψ)` on a level
    // platform, so the body-from-nav yaw rotation is R_z(−ψ).
    let (s, c) = psi.sin_cos();
    let after_yaw = [c * bn[0] - s * bn[1], s * bn[0] + c * bn[1], bn[2]];
    // R_y(θ): pitch.
    let (sp, cp) = attitude.pitch.to_radians().value().sin_cos();
    let after_pitch = [
        cp * after_yaw[0] - sp * after_yaw[2],
        after_yaw[1],
        sp * after_yaw[0] + cp * after_yaw[2],
    ];
    // R_x(φ): roll.
    let (sr, cr) = attitude.roll.to_radians().value().sin_cos();
    let body = [
        after_pitch[0],
        cr * after_pitch[1] + sr * after_pitch[2],
        -sr * after_pitch[1] + cr * after_pitch[2],
    ];
    (
        Tesla::new(body[0]),
        Tesla::new(body[1]),
        Tesla::new(body[2]),
    )
}

/// The heading a naive two-axis compass (the paper's) indicates for a
/// tilted platform: `atan2(by, bx)` of the in-plane components, no
/// compensation.
pub fn two_axis_heading(field: &EarthField, heading: Degrees, attitude: Attitude) -> Degrees {
    let (bx, by, _) = body_field(field, heading, attitude);
    Degrees::atan2(by.value(), bx.value()).normalized()
}

/// The tilt-compensated heading from all three body components plus the
/// known attitude — the standard de-rotation:
///
/// ```text
/// Bx' = Bx·cosθ + Bz·sinθ ... (undo pitch/roll, then atan2)
/// ```
pub fn tilt_compensated_heading(bx: Tesla, by: Tesla, bz: Tesla, attitude: Attitude) -> Degrees {
    let (sp, cp) = attitude.pitch.to_radians().value().sin_cos();
    let (sr, cr) = attitude.roll.to_radians().value().sin_cos();
    // Undo roll on (y, z).
    let y1 = cr * by.value() - sr * bz.value();
    let z1 = sr * by.value() + cr * bz.value();
    // Undo pitch on (x, z).
    let x2 = cp * bx.value() + sp * z1;
    Degrees::atan2(y1, x2).normalized()
}

/// Worst-case two-axis heading error over the full circle for a given
/// tilt, sampled at `n` headings.
///
/// The headings are evaluated according to `policy` and the maximum
/// folded in sweep order, so the result is bit-identical at any worker
/// count.
pub fn worst_tilt_error(
    field: &EarthField,
    attitude: Attitude,
    n: usize,
    policy: &fluxcomp_exec::ExecPolicy,
) -> Degrees {
    assert!(n > 0, "need at least one heading");
    let errors = fluxcomp_exec::par_map_range(policy, n, |k| {
        let truth = Degrees::new(k as f64 * 360.0 / n as f64);
        let indicated = two_axis_heading(field, truth, attitude);
        indicated.angular_distance(truth).value()
    });
    Degrees::new(errors.into_iter().fold(0.0f64, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxcomp_fluxgate::earth::Location;

    fn enschede() -> EarthField {
        EarthField::at(Location::Enschede)
    }

    #[test]
    fn level_platform_has_no_tilt_error() {
        let f = enschede();
        for deg in [0.0, 77.0, 191.0, 333.0] {
            let h = Degrees::new(deg);
            let indicated = two_axis_heading(&f, h, Attitude::default());
            assert!(indicated.angular_distance(h).value() < 1e-9);
        }
    }

    #[test]
    fn body_field_magnitude_is_invariant() {
        // Rotations preserve |B|.
        let f = enschede();
        let total = f.total().value();
        for (p, r) in [(0.0, 0.0), (10.0, -5.0), (-30.0, 45.0)] {
            let (bx, by, bz) = body_field(
                &f,
                Degrees::new(123.0),
                Attitude::new(Degrees::new(p), Degrees::new(r)),
            );
            let mag = (bx.value().powi(2) + by.value().powi(2) + bz.value().powi(2)).sqrt();
            assert!((mag - total).abs() < 1e-12 * total.max(1.0), "at ({p},{r})");
        }
    }

    #[test]
    fn tilt_error_grows_with_inclination_and_tilt() {
        // At the paper's latitude (67° dip), 10° of pitch is disastrous
        // for a two-axis compass; at the equator (no vertical field)
        // pitch only compresses the x component — a far smaller effect.
        let serial = fluxcomp_exec::ExecPolicy::serial();
        let tilt = Attitude::new(Degrees::new(10.0), Degrees::ZERO);
        let err_nl = worst_tilt_error(&enschede(), tilt, 36, &serial).value();
        let err_eq =
            worst_tilt_error(&EarthField::at(Location::Equator), tilt, 36, &serial).value();
        assert!(err_nl > 10.0, "Enschede 10° pitch: {err_nl}°");
        assert!(err_eq < 1.0, "equator 10° pitch: {err_eq}°");
        // More tilt, more error.
        let err_nl_20 = worst_tilt_error(
            &enschede(),
            Attitude::new(Degrees::new(20.0), Degrees::ZERO),
            36,
            &serial,
        )
        .value();
        assert!(err_nl_20 > err_nl);
    }

    #[test]
    fn compensation_recovers_the_heading_exactly() {
        let f = enschede();
        for (p, r) in [(10.0, 0.0), (0.0, 15.0), (20.0, -25.0), (-35.0, 40.0)] {
            let att = Attitude::new(Degrees::new(p), Degrees::new(r));
            for deg in [0.0, 45.0, 123.0, 200.0, 300.0] {
                let truth = Degrees::new(deg);
                let (bx, by, bz) = body_field(&f, truth, att);
                let comp = tilt_compensated_heading(bx, by, bz, att);
                assert!(
                    comp.angular_distance(truth).value() < 1e-9,
                    "({p},{r}) at {deg}: {comp}"
                );
            }
        }
    }

    #[test]
    fn compensation_without_z_would_fail() {
        // Sanity that the third sensor genuinely matters: compensating
        // with bz forced to zero leaves a large residual at steep dip.
        let f = enschede();
        let att = Attitude::new(Degrees::new(15.0), Degrees::new(10.0));
        let truth = Degrees::new(60.0);
        let (bx, by, _) = body_field(&f, truth, att);
        let bad = tilt_compensated_heading(bx, by, Tesla::ZERO, att);
        assert!(bad.angular_distance(truth).value() > 3.0);
    }

    #[test]
    fn roll_couples_vertical_into_y() {
        let f = enschede();
        // Facing north, rolled right: the down component leaks into +y…
        let (_, by_level, _) = body_field(&f, Degrees::ZERO, Attitude::default());
        let (_, by_rolled, _) = body_field(
            &f,
            Degrees::ZERO,
            Attitude::new(Degrees::ZERO, Degrees::new(10.0)),
        );
        assert!(by_level.value().abs() < 1e-15);
        assert!(by_rolled.value() > 1e-6, "vertical leakage expected");
    }

    #[test]
    fn parallel_scan_matches_serial_bitwise() {
        let tilt = Attitude::new(Degrees::new(12.0), Degrees::new(-7.0));
        let serial = worst_tilt_error(&enschede(), tilt, 360, &fluxcomp_exec::ExecPolicy::serial());
        for threads in [2, 4, 8] {
            let par = worst_tilt_error(
                &enschede(),
                tilt,
                360,
                &fluxcomp_exec::ExecPolicy::parallel(threads),
            );
            assert_eq!(serial.value().to_bits(), par.value().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "at least one heading")]
    fn empty_sweep_rejected() {
        let _ = worst_tilt_error(
            &enschede(),
            Attitude::default(),
            0,
            &fluxcomp_exec::ExecPolicy::serial(),
        );
    }
}
