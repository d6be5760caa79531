//! A daisy-chained TAP ring — the real MCM topology.
//!
//! On a production MCM every die carries its own TAP, wired
//! `TDI → die0 → die1 → … → TDO` with shared TMS/TCK. \[Oli96\]'s whole
//! point is that the *substrate* can carry such structures. This module
//! chains multiple [`TapController`]s and provides the chain-level
//! operations a board tester uses: concatenated IR loads, per-die DR
//! access with bypass padding, and chain integrity checks.

use crate::bscan::{Instruction, TapController};

/// A serial chain of TAPs sharing TMS/TCK.
#[derive(Debug, Clone)]
pub struct TapChain {
    taps: Vec<TapController>,
    /// What the pins see on the bare chain: all low, as wide as the widest
    /// boundary register; each die captures its own prefix.
    pins_low: Vec<bool>,
}

impl TapChain {
    /// Builds a chain of TAPs; `boundary_cells[i]` is die `i`'s boundary
    /// register length. Die 0 is nearest TDI.
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty.
    pub fn new(boundary_cells: &[usize]) -> Self {
        assert!(!boundary_cells.is_empty(), "a chain needs at least one TAP");
        let widest = boundary_cells.iter().copied().max().unwrap_or(0);
        Self {
            taps: boundary_cells
                .iter()
                .map(|&n| TapController::new(n))
                .collect(),
            pins_low: vec![false; widest],
        }
    }

    /// One TCK on the whole chain: TMS is common, data ripples
    /// TDI → die0 → … → TDO. Returns the chain's TDO.
    pub fn clock(&mut self, tms: bool, tdi: bool) -> Option<bool> {
        let mut data = Some(tdi);
        for tap in &mut self.taps {
            let pins = &self.pins_low[..tap.boundary.len()];
            data = tap.clock(tms, data.unwrap_or(false), pins);
        }
        data
    }

    /// Resets every TAP (five TMS-high clocks).
    pub fn reset(&mut self) {
        for _ in 0..5 {
            self.clock(true, false);
        }
    }

    /// Loads a per-die instruction vector through one IR scan.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the chain length.
    pub fn load_instructions(&mut self, instructions: &[Instruction]) {
        assert_eq!(instructions.len(), self.taps.len(), "one opcode per die");
        // Navigate to Shift-IR: RTI, SelectDR, SelectIR, CaptureIR,
        // then shift 4 bits per die, then Exit1 → Update.
        self.clock(false, false); // (from reset) RunTestIdle
        self.clock(true, false); // SelectDrScan
        self.clock(true, false); // SelectIrScan
        self.clock(false, false); // CaptureIr
        self.clock(false, false); // ShiftIr
                                  // The die nearest TDO gets its opcode shifted first.
        let total_bits = 4 * self.taps.len();
        let mut bits = Vec::with_capacity(total_bits);
        for inst in instructions.iter().rev() {
            let op = inst.opcode();
            for b in 0..4 {
                bits.push((op >> b) & 1 == 1);
            }
        }
        for (k, bit) in bits.iter().enumerate() {
            let last = k == total_bits - 1;
            self.clock(last, *bit); // last bit exits ShiftIr
        }
        self.clock(true, false); // UpdateIr
        self.clock(false, false); // RunTestIdle
    }

    /// Total scan-path length in the current instruction configuration
    /// (1 bit per bypassed die, boundary length per EXTEST/SAMPLE die,
    /// 32 per IDCODE die).
    pub fn scan_path_bits(&self) -> usize {
        self.taps
            .iter()
            .map(|t| match t.instruction() {
                Instruction::Bypass | Instruction::Clamp | Instruction::Highz => 1,
                Instruction::Extest | Instruction::Sample => t.boundary.len(),
                Instruction::Idcode => 32,
            })
            .sum()
    }

    /// Measures the actual scan-path length by flushing zeros and timing
    /// a marker bit through Shift-DR — the classic chain-integrity test.
    pub fn measure_scan_path(&mut self) -> usize {
        // Enter Shift-DR.
        self.clock(false, false); // RTI
        self.clock(true, false); // SelectDR
        self.clock(false, false); // CaptureDR
        self.clock(false, false); // ShiftDR
        let flush = self.scan_path_bits() + 64;
        for _ in 0..flush {
            self.clock(false, false);
        }
        // Launch a 1 and count clocks until it emerges.
        let mut length = None;
        self.clock(false, true);
        for k in 0..flush {
            if let Some(true) = self.clock(false, false) {
                length = Some(k + 1);
                break;
            }
        }
        // Leave Shift-DR cleanly.
        self.clock(true, false); // Exit1
        self.clock(true, false); // Update
        self.clock(false, false); // RTI
        length.unwrap_or(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's MCM: the SoG die (9 boundary cells toward the
    /// substrate) plus two sensor dies (4 cells each — their pads).
    fn paper_chain() -> TapChain {
        TapChain::new(&[9, 4, 4])
    }

    #[test]
    fn reset_selects_idcode_everywhere() {
        let mut chain = paper_chain();
        chain.reset();
        for tap in &chain.taps {
            assert_eq!(tap.instruction(), Instruction::Idcode);
        }
    }

    #[test]
    fn ir_scan_loads_distinct_instructions() {
        let mut chain = paper_chain();
        chain.reset();
        chain.load_instructions(&[Instruction::Extest, Instruction::Bypass, Instruction::Clamp]);
        assert_eq!(chain.taps[0].instruction(), Instruction::Extest);
        assert_eq!(chain.taps[1].instruction(), Instruction::Bypass);
        assert_eq!(chain.taps[2].instruction(), Instruction::Clamp);
    }

    #[test]
    fn all_bypass_scan_path_is_one_bit_per_die() {
        let mut chain = paper_chain();
        chain.reset();
        chain.load_instructions(&[Instruction::Bypass; 3]);
        assert_eq!(chain.scan_path_bits(), 3);
        assert_eq!(chain.measure_scan_path(), 3);
    }

    #[test]
    fn extest_everywhere_sums_boundary_lengths() {
        let mut chain = paper_chain();
        chain.reset();
        chain.load_instructions(&[Instruction::Extest; 3]);
        assert_eq!(chain.scan_path_bits(), 9 + 4 + 4);
        assert_eq!(chain.measure_scan_path(), 17);
    }

    #[test]
    fn mixed_configuration_path_length() {
        let mut chain = paper_chain();
        chain.reset();
        chain.load_instructions(&[
            Instruction::Extest,
            Instruction::Bypass,
            Instruction::Bypass,
        ]);
        assert_eq!(chain.scan_path_bits(), 9 + 1 + 1);
        assert_eq!(chain.measure_scan_path(), 11);
    }

    #[test]
    fn idcode_path_is_32_bits_per_die() {
        let mut chain = paper_chain();
        chain.reset();
        // Reset selects IDCODE everywhere.
        assert_eq!(chain.scan_path_bits(), 96);
    }

    #[test]
    #[should_panic(expected = "at least one TAP")]
    fn empty_chain_rejected() {
        let _ = TapChain::new(&[]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        const ALL: [Instruction; 6] = [
            Instruction::Bypass,
            Instruction::Extest,
            Instruction::Sample,
            Instruction::Idcode,
            Instruction::Clamp,
            Instruction::Highz,
        ];

        proptest! {
            /// One IR scan leaves every die holding its own opcode, and the
            /// measured scan path matches the computed one.
            #[test]
            fn ir_scan_reaches_each_die(picks in prop::collection::vec(0usize..6, 1..5)) {
                let lengths: Vec<usize> = (0..picks.len()).map(|k| 3 + k).collect();
                let mut chain = TapChain::new(&lengths);
                chain.reset();
                let instructions: Vec<Instruction> = picks.iter().map(|&p| ALL[p]).collect();
                chain.load_instructions(&instructions);
                for (tap, inst) in chain.taps.iter().zip(&instructions) {
                    prop_assert_eq!(tap.instruction(), *inst);
                }
                prop_assert_eq!(chain.measure_scan_path(), chain.scan_path_bits());
            }
        }
    }
}
