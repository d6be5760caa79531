//! The CORDIC-like arctangent unit — a faithful transliteration of the
//! paper's Fig. 8 VHDL.
//!
//! The paper's algorithm is a **greedy, unidirectional vectoring CORDIC**
//! (\[Spa76\]): starting from the prescaled registers `y_reg = y·128`,
//! `x_reg = x·128`, iteration `i` performs the micro-rotation
//!
//! ```text
//! if y_reg >= x_reg >> i {
//!     (y_reg, x_reg) = (y_reg - (x_reg >> i), x_reg + (y_reg >> i));
//!     res += atanrom(i);
//! }
//! ```
//!
//! The guard `y_reg ≥ x_reg·2⁻ⁱ` is exactly `remaining angle ≥ atan(2⁻ⁱ)`,
//! so the residual never goes negative and after 8 iterations it is
//! bounded by `atan(2⁻⁷) ≈ 0.45°` — which is how the paper achieves
//! "one degree accuracy … in only 8 cycles".
//!
//! The Fig. 8 kernel covers the first quadrant (`x, y ≥ 0`); the full
//! 0–360° heading is recovered by the standard sign-based quadrant
//! folding, two trivial XOR/mux stages in hardware
//! ([`CordicArctan::heading`]).
//!
//! The paper also notes the method "is insensitive to local variations of
//! the magnitude of the earth's magnetic field" — only the *ratio* `y/x`
//! enters, which experiment E4 verifies end-to-end.

use crate::atan_rom::{AtanRom, ANGLE_SCALE};
use fluxcomp_units::angle::Degrees;
use std::error::Error;
use std::fmt;

/// The Fig. 8 prescale factor (`y_reg := y * 128`).
pub const PRESCALE_SHIFT: u32 = 7;

/// Error computing a heading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ComputeHeadingError {
    /// Both inputs are zero: the field vector has no direction. Occurs in
    /// practice only with a fully shielded sensor.
    ZeroVector,
    /// An input magnitude would overflow the prescaled registers.
    Overflow,
}

impl fmt::Display for ComputeHeadingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputeHeadingError::ZeroVector => write!(f, "both field components are zero"),
            ComputeHeadingError::Overflow => write!(f, "input exceeds the datapath range"),
        }
    }
}

impl Error for ComputeHeadingError {}

/// Result of one full heading computation, including the hardware-visible
/// timing (the Fig. 8 VHDL drives `dir` after `total_delay` and raises
/// `ready`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadingResult {
    /// The computed heading in `[0, 360)`.
    pub heading: Degrees,
    /// The raw accumulated angle in Q8 degrees.
    pub angle_q8: i64,
    /// Number of clock cycles the computation took (= iterations; the
    /// quadrant fold is combinational).
    pub cycles: u32,
    /// How many micro-rotations were actually performed.
    pub rotations: u32,
}

/// The CORDIC arctangent unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CordicArctan {
    rom: AtanRom,
}

impl CordicArctan {
    /// A unit with the given iteration count (1..=16).
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is out of range (see [`AtanRom::new`]).
    pub fn new(iterations: u32) -> Self {
        Self {
            rom: AtanRom::new(iterations),
        }
    }

    /// The paper's 8-iteration unit.
    pub fn paper() -> Self {
        Self::new(8)
    }

    /// Configured iteration count.
    pub fn iterations(&self) -> u32 {
        self.rom.len() as u32
    }

    /// The Fig. 8 kernel: first-quadrant angle of the vector `(x, y)`
    /// with `x, y ≥ 0`, in Q8 degrees.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if either input is negative (the hardware
    /// kernel receives folded magnitudes only).
    pub fn first_quadrant_q8(&self, x: i64, y: i64) -> i64 {
        debug_assert!(x >= 0 && y >= 0, "kernel inputs must be non-negative");
        // Degenerate verticals the iteration cannot reach: x = 0 means
        // exactly 90°.
        if y == 0 {
            return 0;
        }
        if x == 0 {
            return 90 * ANGLE_SCALE;
        }
        let mut x_reg = x << PRESCALE_SHIFT;
        let mut y_reg = y << PRESCALE_SHIFT;
        let mut res: i64 = 0;
        for i in 0..self.iterations() {
            if y_reg >= (x_reg >> i) {
                let x_prev = x_reg;
                let y_prev = y_reg;
                y_reg = y_prev - (x_prev >> i);
                x_reg = x_prev + (y_prev >> i);
                res += self.rom.entry(i);
            }
        }
        res
    }

    /// Full 0–360° heading of the integer field vector `(x, y)` — the
    /// counter outputs of the X and Y channels.
    ///
    /// # Errors
    ///
    /// * [`ComputeHeadingError::ZeroVector`] when `x == y == 0`;
    /// * [`ComputeHeadingError::Overflow`] when `|x|` or `|y|` exceeds
    ///   the prescaled register range (2⁴⁸ — unreachable with realistic
    ///   counter widths, but checked like hardware would at synthesis).
    pub fn heading(&self, x: i64, y: i64) -> Result<HeadingResult, ComputeHeadingError> {
        if x == 0 && y == 0 {
            return Err(ComputeHeadingError::ZeroVector);
        }
        const LIMIT: i64 = 1 << 48;
        if x.abs() >= LIMIT || y.abs() >= LIMIT {
            return Err(ComputeHeadingError::Overflow);
        }
        let q8 = self.first_quadrant_q8(x.abs(), y.abs());
        // Quadrant fold (sign decode + adder in hardware).
        let folded = match (x >= 0, y >= 0) {
            (true, true) => q8,
            (false, true) => 180 * ANGLE_SCALE - q8,
            (false, false) => 180 * ANGLE_SCALE + q8,
            (true, false) => 360 * ANGLE_SCALE - q8,
        };
        let folded = folded.rem_euclid(360 * ANGLE_SCALE);
        let rotations = self.count_rotations(x.abs(), y.abs());
        Ok(HeadingResult {
            heading: Degrees::new(AtanRom::to_degrees(folded)).normalized(),
            angle_q8: folded,
            cycles: self.iterations(),
            rotations,
        })
    }

    /// Worst-case angular error bound of the kernel: the convergence
    /// residual `atan(2^-(n-1))` plus accumulated ROM rounding.
    pub fn error_bound(&self) -> Degrees {
        let n = self.iterations();
        let residual = 2f64.powi(-(n as i32 - 1)).atan().to_degrees();
        let rom_rounding = n as f64 * 0.5 / ANGLE_SCALE as f64;
        Degrees::new(residual + rom_rounding)
    }

    fn count_rotations(&self, x: i64, y: i64) -> u32 {
        if x == 0 || y == 0 {
            return 0;
        }
        let mut x_reg = x << PRESCALE_SHIFT;
        let mut y_reg = y << PRESCALE_SHIFT;
        let mut rot = 0;
        for i in 0..self.iterations() {
            if y_reg >= (x_reg >> i) {
                let x_prev = x_reg;
                let y_prev = y_reg;
                y_reg = y_prev - (x_prev >> i);
                x_reg = x_prev + (y_prev >> i);
                rot += 1;
            }
        }
        rot
    }
}

impl Default for CordicArctan {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_heading(x: f64, y: f64) -> Degrees {
        Degrees::atan2(y, x).normalized()
    }

    #[test]
    fn cardinal_directions_exact() {
        let c = CordicArctan::paper();
        assert_eq!(c.heading(1000, 0).unwrap().heading, Degrees::new(0.0));
        assert_eq!(c.heading(0, 1000).unwrap().heading, Degrees::new(90.0));
        assert_eq!(c.heading(-1000, 0).unwrap().heading, Degrees::new(180.0));
        assert_eq!(c.heading(0, -1000).unwrap().heading, Degrees::new(270.0));
    }

    #[test]
    fn diagonal_is_45_degrees() {
        let c = CordicArctan::paper();
        let r = c.heading(1000, 1000).unwrap();
        assert!(r.heading.angular_distance(Degrees::new(45.0)).value() < 0.5);
    }

    #[test]
    fn paper_claim_one_degree_over_full_circle() {
        // The headline claim (C1/C8): 8 iterations, 1° accuracy, over the
        // full circle at realistic counter magnitudes.
        let c = CordicArctan::paper();
        let radius = 2096.0; // 4 measurement periods of counter output
        let mut worst = 0.0f64;
        for k in 0..1440 {
            let truth = k as f64 * 0.25;
            let x = (radius * Degrees::new(truth).cos()).round() as i64;
            let y = (radius * Degrees::new(truth).sin()).round() as i64;
            if x == 0 && y == 0 {
                continue;
            }
            let got = c.heading(x, y).unwrap().heading;
            let reference = reference_heading(x as f64, y as f64);
            let err = got.angular_distance(reference).value();
            worst = worst.max(err);
        }
        assert!(worst < 1.0, "worst-case CORDIC error {worst}° ≥ 1°");
    }

    #[test]
    fn eight_cycles_reported() {
        let c = CordicArctan::paper();
        let r = c.heading(100, 57).unwrap();
        assert_eq!(r.cycles, 8);
        assert!(r.rotations <= 8);
    }

    #[test]
    fn error_shrinks_with_iterations() {
        let radius = 3000.0;
        let worst_for = |n: u32| {
            let c = CordicArctan::new(n);
            let mut worst = 0.0f64;
            for k in 0..720 {
                let truth = k as f64 * 0.5;
                let x = (radius * Degrees::new(truth).cos()).round() as i64;
                let y = (radius * Degrees::new(truth).sin()).round() as i64;
                if x == 0 && y == 0 {
                    continue;
                }
                let got = c.heading(x, y).unwrap().heading;
                let err = got
                    .angular_distance(reference_heading(x as f64, y as f64))
                    .value();
                worst = worst.max(err);
            }
            worst
        };
        let e4 = worst_for(4);
        let e8 = worst_for(8);
        let e12 = worst_for(12);
        assert!(e4 > e8, "{e4} vs {e8}");
        assert!(e8 > e12, "{e8} vs {e12}");
        assert!(e4 > 1.0, "4 iterations should NOT meet the 1° spec: {e4}");
        assert!(e8 < 1.0);
    }

    #[test]
    fn magnitude_invariance() {
        // C9: only the ratio matters. Same angle at 25 µT-scale and
        // 65 µT-scale counter outputs.
        let c = CordicArctan::paper();
        let a = c.heading(250, 190).unwrap().heading;
        let b = c.heading(650, 494).unwrap().heading;
        assert!(a.angular_distance(b).value() < 0.3, "{a} vs {b}");
    }

    #[test]
    fn residual_is_one_sided() {
        // The greedy kernel never overshoots: computed ≤ true angle.
        let c = CordicArctan::paper();
        for k in 1..90 {
            let truth = k as f64;
            let x = (10_000.0 * Degrees::new(truth).cos()).round() as i64;
            let y = (10_000.0 * Degrees::new(truth).sin()).round() as i64;
            let got = AtanRom::to_degrees(c.first_quadrant_q8(x, y));
            let actual = reference_heading(x as f64, y as f64).value();
            assert!(
                got <= actual + 0.02,
                "kernel overshot at {truth}°: {got} > {actual}"
            );
        }
    }

    #[test]
    fn zero_vector_is_an_error() {
        let c = CordicArctan::paper();
        assert_eq!(c.heading(0, 0), Err(ComputeHeadingError::ZeroVector));
        assert_eq!(
            c.heading(0, 0).unwrap_err().to_string(),
            "both field components are zero"
        );
    }

    #[test]
    fn overflow_is_an_error() {
        let c = CordicArctan::paper();
        assert_eq!(c.heading(1 << 50, 1), Err(ComputeHeadingError::Overflow));
    }

    #[test]
    fn error_bound_is_honest() {
        // The analytic bound must dominate the measured worst case.
        let c = CordicArctan::paper();
        let bound = c.error_bound().value();
        assert!((0.4..1.0).contains(&bound), "bound {bound}");
    }

    #[test]
    fn small_counter_values_still_work() {
        // Near-zero field on one axis: tiny integer inputs.
        let c = CordicArctan::paper();
        let r = c.heading(3, 1).unwrap();
        let reference = reference_heading(3.0, 1.0);
        // Prescale by 128 keeps ~2 fractional bits of ratio resolution
        // even for tiny inputs; accuracy degrades but stays bounded.
        assert!(r.heading.angular_distance(reference).value() < 2.0);
    }

    #[test]
    fn negative_quadrants_mirror_positive() {
        let c = CordicArctan::paper();
        let q1 = c.heading(800, 600).unwrap().heading;
        let q2 = c.heading(-800, 600).unwrap().heading;
        let q3 = c.heading(-800, -600).unwrap().heading;
        let q4 = c.heading(800, -600).unwrap().heading;
        assert!((q2.value() - (180.0 - q1.value())).abs() < 1e-9);
        assert!((q3.value() - (180.0 + q1.value())).abs() < 1e-9);
        assert!((q4.value() - (360.0 - q1.value())).abs() < 1e-9);
    }
}
