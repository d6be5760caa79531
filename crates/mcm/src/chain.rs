//! A daisy-chained TAP ring — the real MCM topology.
//!
//! On a production MCM every die carries its own TAP, wired
//! `TDI → die0 → die1 → … → TDO` with shared TMS/TCK. \[Oli96\]'s whole
//! point is that the *substrate* can carry such structures. This module
//! chains the module's dies' [`TapController`]s over the substrate and
//! provides the chain-level operations a module tester uses:
//! concatenated IR loads, DR scans, and chain integrity checks. At
//! Capture-DR every die samples its pins: the substrate's response to
//! what the dice in EXTEST or CLAMP launch from their update latches.

use crate::bscan::{Instruction, TapController, TapState};
use crate::substrate::{Die, McmAssembly};

/// The serial chain of the module's TAPs, sharing TMS/TCK.
#[derive(Debug, Clone)]
pub struct TapChain<'a> {
    assembly: &'a McmAssembly,
    /// Per die, in chain order: the die and its boundary register.
    registers: Vec<(Die, Vec<usize>)>,
    taps: Vec<TapController>,
}

impl<'a> TapChain<'a> {
    /// The chain of `assembly`'s dies in [`Die::CHAIN`] order, each TAP
    /// sized by the die's [`McmAssembly::boundary_register`].
    pub fn new(assembly: &'a McmAssembly) -> Self {
        let registers = Die::CHAIN.map(|die| (die, assembly.boundary_register(die)));
        let taps = registers.iter().map(|(_, r)| TapController::new(r.len()));
        Self {
            assembly,
            taps: taps.collect(),
            registers: registers.into(),
        }
    }

    /// The boundary cells as `(die, net)`, TDI first: the scan path when
    /// every die selects its boundary register.
    pub fn cells(&self) -> impl Iterator<Item = (Die, usize)> + '_ {
        self.registers
            .iter()
            .flat_map(|(die, nets)| nets.iter().map(move |&net| (*die, net)))
    }

    /// What every net carries now: the substrate's response to the values
    /// launched by each net's driver die, low where the driver is not
    /// under test.
    fn pins(&self) -> Vec<bool> {
        let nets = self.assembly.nets();
        let mut launched = vec![false; nets.len()];
        for ((die, register), tap) in self.registers.iter().zip(&self.taps) {
            for (&net, &value) in register.iter().zip(tap.launched().unwrap_or(&[])) {
                if nets[net].driver == *die {
                    launched[net] = value;
                }
            }
        }
        self.assembly.propagate(&launched)
    }

    /// One TCK on the whole chain: TMS is common, data ripples
    /// TDI → die0 → … → TDO. Returns the chain's TDO.
    pub fn clock(&mut self, tms: bool, tdi: bool) -> Option<bool> {
        // Shared TMS keeps every TAP in the same state, so they all enter
        // Capture-DR on this edge or none does.
        let pins = (self.taps[0].state().next(tms) == TapState::CaptureDr).then(|| self.pins());
        let mut data = Some(tdi);
        for ((_, register), tap) in self.registers.iter().zip(&mut self.taps) {
            let observed: Vec<bool> = pins
                .as_ref()
                .map_or_else(Vec::new, |p| register.iter().map(|&net| p[net]).collect());
            data = tap.clock(tms, data.unwrap_or(false), &observed);
        }
        data
    }

    /// Resets every TAP (five TMS-high clocks).
    pub fn reset(&mut self) {
        for _ in 0..5 {
            self.clock(true, false);
        }
    }

    /// Clocks the TMS walk `entry` (from Run-Test/Idle or
    /// Test-Logic-Reset), then shifts `bits` in, leaving on the last one,
    /// updates and returns to Run-Test/Idle. Returns TDO per shifted bit.
    fn scan(&mut self, entry: &[bool], bits: &[bool]) -> Vec<bool> {
        for &tms in entry {
            self.clock(tms, false);
        }
        let last = bits.len() - 1;
        let tdo = bits
            .iter()
            .enumerate()
            .map(|(k, &bit)| self.clock(k == last, bit).unwrap_or(false))
            .collect();
        self.clock(true, false); // Update
        self.clock(false, false); // RunTestIdle
        tdo
    }

    /// Loads a per-die instruction vector through one IR scan.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the chain length.
    pub fn load_instructions(&mut self, instructions: &[Instruction]) {
        assert_eq!(instructions.len(), self.taps.len(), "one opcode per die");
        // The die nearest TDO gets its opcode shifted first, LSB first.
        let bits: Vec<bool> = instructions
            .iter()
            .rev()
            .flat_map(|inst| {
                let op = inst.opcode();
                (0..4).map(move |b| (op >> b) & 1 == 1)
            })
            .collect();
        self.scan(&IR_SCAN, &bits);
    }

    /// One DR scan: Capture-DR, shift `bits` in, Update-DR. `bits[p]`
    /// lands in scan-path stage `p` (0 nearest TDI); the result holds
    /// what each stage captured, in the same order.
    ///
    /// # Panics
    ///
    /// Panics unless there is one bit per scan-path stage.
    pub fn scan_dr(&mut self, bits: &[bool]) -> Vec<bool> {
        assert_eq!(bits.len(), self.scan_path_bits(), "one bit per stage");
        // The stage nearest TDO is shifted in, and out, first.
        let reversed: Vec<bool> = bits.iter().rev().copied().collect();
        let mut captured = self.scan(&DR_SCAN, &reversed);
        captured.reverse();
        captured
    }

    /// Total scan-path length in the current instruction configuration
    /// (1 bit per bypassed die, boundary length per EXTEST/SAMPLE die,
    /// 32 per IDCODE die).
    pub fn scan_path_bits(&self) -> usize {
        self.taps.iter().map(TapController::dr_len).sum()
    }

    /// Measures the actual scan-path length by flushing zeros and timing
    /// a marker bit through Shift-DR — the classic chain-integrity test.
    pub fn measure_scan_path(&mut self) -> usize {
        let flush = self.scan_path_bits() + 64;
        let mut bits = vec![false; 2 * flush + 1];
        bits[flush] = true;
        let tdo = self.scan(&DR_SCAN, &bits);
        tdo[flush..].iter().position(|&b| b).unwrap_or(usize::MAX)
    }
}

/// TMS from Run-Test/Idle to Shift-IR: Select-DR, Select-IR, Capture-IR.
const IR_SCAN: [bool; 5] = [false, true, true, false, false];
/// TMS from Run-Test/Idle to Shift-DR, through Capture-DR.
const DR_SCAN: [bool; 4] = [false, true, false, false];

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's MCM: the SoG die (9 boundary cells, one per substrate
    /// net) plus two sensor dies (4 cells each — their pads).
    fn paper_module() -> McmAssembly {
        McmAssembly::paper_module()
    }

    #[test]
    fn chain_follows_the_register_map() {
        let module = paper_module();
        let mut chain = TapChain::new(&module);
        chain.load_instructions(&[Instruction::Extest; 3]);
        let lengths: Vec<usize> = chain.taps.iter().map(TapController::dr_len).collect();
        assert_eq!(lengths, [9, 4, 4]);
        assert_eq!(chain.cells().count(), 17);
        assert_eq!(chain.cells().nth(9), Some((Die::SensorX, 0)));
    }

    #[test]
    fn reset_selects_idcode_everywhere() {
        let module = paper_module();
        let mut chain = TapChain::new(&module);
        chain.reset();
        for tap in &chain.taps {
            assert_eq!(tap.instruction(), Instruction::Idcode);
        }
        assert_eq!(chain.scan_path_bits(), 96);
    }

    #[test]
    fn all_bypass_scan_path_is_one_bit_per_die() {
        let module = paper_module();
        let mut chain = TapChain::new(&module);
        chain.reset();
        chain.load_instructions(&[Instruction::Bypass; 3]);
        assert_eq!(chain.scan_path_bits(), 3);
        assert_eq!(chain.measure_scan_path(), 3);
    }

    #[test]
    fn idcode_reads_out_through_a_dr_scan() {
        let module = paper_module();
        let mut chain = TapChain::new(&module);
        chain.reset();
        let bits = chain.scan_dr(&[false; 96]);
        for die in bits.chunks(32) {
            let code = die.iter().fold(0u32, |code, &b| code << 1 | u32::from(b));
            assert_eq!(code, crate::bscan::IDCODE);
        }
    }

    /// An IR scan reaches every die and the measured scan path matches
    /// the computed one, for every one of the 6³ instruction assignments.
    #[test]
    fn ir_scan_reaches_each_die() {
        let module = paper_module();
        for a in Instruction::TABLE {
            for b in Instruction::TABLE {
                for c in Instruction::TABLE {
                    let instructions = [a.0, b.0, c.0];
                    let mut chain = TapChain::new(&module);
                    chain.reset();
                    chain.load_instructions(&instructions);
                    for (tap, inst) in chain.taps.iter().zip(&instructions) {
                        assert_eq!(tap.instruction(), *inst);
                    }
                    assert_eq!(chain.measure_scan_path(), chain.scan_path_bits());
                }
            }
        }
    }

    /// EXTEST launches a pattern on Update-DR and not before: after a
    /// shift that parks in Pause-DR the pins still carry the old pattern.
    #[test]
    fn extest_launches_only_on_update_dr() {
        let module = paper_module();
        let mut chain = TapChain::new(&module);
        let old: Vec<bool> = (0..17).map(|k| k % 3 == 0).collect();
        let new: Vec<bool> = old.iter().map(|&b| !b).collect();
        // Each net as its driver die's cell launches it.
        let cells: Vec<(Die, usize)> = chain.cells().collect();
        let launched = |bits: &[bool]| -> Vec<bool> {
            let mut nets = vec![false; 9];
            for ((die, net), &b) in cells.iter().zip(bits) {
                if module.nets()[*net].driver == *die {
                    nets[*net] = b;
                }
            }
            nets
        };
        chain.reset();
        chain.load_instructions(&[Instruction::Sample; 3]);
        chain.scan_dr(&old);
        chain.load_instructions(&[Instruction::Extest; 3]);
        assert_eq!(chain.pins(), launched(&old));

        chain.clock(true, false); // SelectDrScan
        chain.clock(false, false); // CaptureDr
        chain.clock(false, false); // ShiftDr
        for (k, &b) in new.iter().rev().enumerate() {
            chain.clock(k == 16, b); // the last bit exits to Exit1Dr
        }
        chain.clock(false, false); // PauseDr
        assert_eq!(chain.taps[0].state(), TapState::PauseDr);
        assert_eq!(chain.pins(), launched(&old), "launched before Update-DR");

        chain.clock(true, false); // Exit2Dr
        chain.clock(true, false); // UpdateDr
        assert_eq!(chain.pins(), launched(&new));
    }
}
