//! The arctangent ROM of the CORDIC unit (Fig. 8's `atanrom(shift)`).
//!
//! One entry per CORDIC iteration: `atan(2⁻ⁱ)` stored as an integer in
//! **Q8 degrees** (1 LSB = 1/256°). Q8 keeps the ROM rounding error per
//! entry below 0.002°, far under the 1° system budget, while the whole
//! table fits in 16 words of 14 bits — trivially realisable on the
//! Sea-of-Gates array.

/// Fixed-point scale of the ROM: LSB = 1/256 degree.
pub const ANGLE_SCALE: i64 = 256;

/// Maximum number of iterations the ROM supports.
pub const MAX_ITERATIONS: u32 = 16;

/// The arctangent lookup table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtanRom {
    entries: Vec<i64>,
}

impl AtanRom {
    /// Builds a ROM with `iterations` entries (`atan(2⁰) … atan(2⁻⁽ⁿ⁻¹⁾)`).
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is 0 or exceeds [`MAX_ITERATIONS`].
    pub fn new(iterations: u32) -> Self {
        assert!(
            (1..=MAX_ITERATIONS).contains(&iterations),
            "iterations must be in 1..=16"
        );
        let entries = (0..iterations)
            .map(|i| {
                let angle_deg = (2f64.powi(-(i as i32))).atan().to_degrees();
                (angle_deg * ANGLE_SCALE as f64).round() as i64
            })
            .collect();
        Self { entries }
    }

    /// The paper's 8-entry ROM.
    pub fn paper() -> Self {
        Self::new(8)
    }

    /// Number of entries (= iterations supported).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the ROM is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry for iteration `i`: `atan(2⁻ⁱ)` in Q8 degrees.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range — in hardware this would be an
    /// address-decoder synthesis error.
    pub fn entry(&self, i: u32) -> i64 {
        self.entries[i as usize]
    }

    /// Converts a Q8-degree angle to floating-point degrees.
    pub fn to_degrees(angle_q8: i64) -> f64 {
        angle_q8 as f64 / ANGLE_SCALE as f64
    }
}

impl Default for AtanRom {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_entry_is_45_degrees() {
        let rom = AtanRom::paper();
        assert_eq!(rom.entry(0), 45 * 256);
    }

    #[test]
    fn entries_match_atan() {
        let rom = AtanRom::new(16);
        for i in 0..16 {
            let expect = (2f64.powi(-(i as i32))).atan().to_degrees();
            let got = AtanRom::to_degrees(rom.entry(i));
            assert!((got - expect).abs() < 0.5 / 256.0, "entry {i}");
        }
    }

    #[test]
    fn entries_halve_asymptotically() {
        let rom = AtanRom::new(12);
        // For small angles atan(2^-i) ≈ 2^-i, so successive entries halve
        // (up to the ±1 LSB of the Q8 ROM quantisation).
        for i in 4..11 {
            let diff = (rom.entry(i) - 2 * rom.entry(i + 1)).abs();
            assert!(
                diff <= 2,
                "i={i}: {} vs 2×{}",
                rom.entry(i),
                rom.entry(i + 1)
            );
        }
    }

    #[test]
    fn residual_after_8_iterations_is_under_half_degree() {
        // The convergence residual of the greedy CORDIC is bounded by the
        // last ROM entry: atan(2⁻⁷) ≈ 0.4476° < 0.5° — the basis for the
        // paper's 1° accuracy claim at 8 cycles.
        let rom = AtanRom::paper();
        let last = AtanRom::to_degrees(rom.entry(7));
        assert!((0.4..0.5).contains(&last), "last = {last}");
    }

    #[test]
    fn paper_rom_size() {
        let rom = AtanRom::paper();
        assert_eq!(rom.len(), 8);
        assert!(!rom.is_empty());
    }

    #[test]
    #[should_panic(expected = "iterations")]
    fn zero_iterations_rejected() {
        let _ = AtanRom::new(0);
    }

    #[test]
    #[should_panic(expected = "iterations")]
    fn too_many_iterations_rejected() {
        let _ = AtanRom::new(17);
    }
}
