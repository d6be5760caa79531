//! IEEE 1149.1 boundary scan (\[Oli96\]: "Test Structures on MCM Active
//! Substrate").
//!
//! The MCM is "equipped with boundary scan test structures" so the
//! die-to-die interconnect can be tested after assembly. This module
//! implements the standard's machinery:
//!
//! * [`TapController`] — the full 16-state TAP FSM driven by TMS/TCK,
//!   with its instruction and data registers. The boundary register's
//!   update latches drive the MCM nets under EXTEST, and its shift
//!   stages capture them;
//! * [`Instruction`] — the IR table: BYPASS, EXTEST, SAMPLE/PRELOAD,
//!   IDCODE, CLAMP and HIGHZ.

use std::fmt;

/// The 16 TAP controller states of IEEE 1149.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[allow(missing_docs)]
pub enum TapState {
    #[default]
    TestLogicReset,
    RunTestIdle,
    SelectDrScan,
    CaptureDr,
    ShiftDr,
    Exit1Dr,
    PauseDr,
    Exit2Dr,
    UpdateDr,
    SelectIrScan,
    CaptureIr,
    ShiftIr,
    Exit1Ir,
    PauseIr,
    Exit2Ir,
    UpdateIr,
}

impl TapState {
    /// The IEEE 1149.1 state transition on a TCK rising edge with the
    /// given TMS value.
    pub fn next(self, tms: bool) -> TapState {
        use TapState::*;
        match (self, tms) {
            (TestLogicReset, false) => RunTestIdle,
            (TestLogicReset, true) => TestLogicReset,
            (RunTestIdle, false) => RunTestIdle,
            (RunTestIdle, true) => SelectDrScan,
            (SelectDrScan, false) => CaptureDr,
            (SelectDrScan, true) => SelectIrScan,
            (CaptureDr, false) => ShiftDr,
            (CaptureDr, true) => Exit1Dr,
            (ShiftDr, false) => ShiftDr,
            (ShiftDr, true) => Exit1Dr,
            (Exit1Dr, false) => PauseDr,
            (Exit1Dr, true) => UpdateDr,
            (PauseDr, false) => PauseDr,
            (PauseDr, true) => Exit2Dr,
            (Exit2Dr, false) => ShiftDr,
            (Exit2Dr, true) => UpdateDr,
            (UpdateDr, false) => RunTestIdle,
            (UpdateDr, true) => SelectDrScan,
            (SelectIrScan, false) => CaptureIr,
            (SelectIrScan, true) => TestLogicReset,
            (CaptureIr, false) => ShiftIr,
            (CaptureIr, true) => Exit1Ir,
            (ShiftIr, false) => ShiftIr,
            (ShiftIr, true) => Exit1Ir,
            (Exit1Ir, false) => PauseIr,
            (Exit1Ir, true) => UpdateIr,
            (PauseIr, false) => PauseIr,
            (PauseIr, true) => Exit2Ir,
            (Exit2Ir, false) => ShiftIr,
            (Exit2Ir, true) => UpdateIr,
            (UpdateIr, false) => RunTestIdle,
            (UpdateIr, true) => SelectDrScan,
        }
    }
}

impl fmt::Display for TapState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The public instructions the module's TAP supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Instruction {
    /// Mandatory single-bit bypass (all-ones opcode per the standard).
    #[default]
    Bypass,
    /// Drive/capture the boundary cells from the chip pins — the MCM
    /// interconnect test instruction.
    Extest,
    /// Sample the functional values without disturbing the mission mode.
    Sample,
    /// Shift out the 32-bit device identification code.
    Idcode,
    /// Drive the boundary update latches onto the pins while the scan
    /// path is the 1-bit bypass — used to hold safe values on one die
    /// while testing another.
    Clamp,
    /// Float all outputs (high impedance); scan path is bypass.
    Highz,
}

impl Instruction {
    /// The IR table: every instruction with its BSDL name and 4-bit
    /// opcode, in BSDL listing order. BYPASS is all ones, as the standard
    /// requires.
    pub const TABLE: [(Instruction, &'static str, u8); 6] = [
        (Instruction::Bypass, "BYPASS", 0b1111),
        (Instruction::Extest, "EXTEST", 0b0000),
        (Instruction::Sample, "SAMPLE", 0b0001),
        (Instruction::Idcode, "IDCODE", 0b0010),
        (Instruction::Clamp, "CLAMP", 0b0011),
        (Instruction::Highz, "HIGHZ", 0b0100),
    ];

    /// The 4-bit opcode.
    pub fn opcode(self) -> u8 {
        Self::TABLE
            .iter()
            .find(|e| e.0 == self)
            .map(|e| e.2)
            .expect("every instruction is in the IR table")
    }

    /// Decodes an opcode; unknown opcodes select BYPASS, as the standard
    /// requires.
    pub fn decode(op: u8) -> Self {
        Self::TABLE
            .iter()
            .find(|e| e.2 == op & 0xF)
            .map_or(Instruction::Bypass, |e| e.0)
    }
}

/// The device ID code of the reproduction's MCM (version 1, invented
/// part number, the mandatory trailing 1).
pub const IDCODE: u32 = 0x1_C0_4A_5F | 1;

/// One die's TAP controller plus its instruction and data registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapController {
    state: TapState,
    ir_shift: u8,
    instruction: Instruction,
    bypass: bool,
    idcode_shift: u32,
    /// The boundary register's shift stages, TDI end first (shared by
    /// EXTEST and SAMPLE).
    boundary_shift: Vec<bool>,
    /// The boundary register's update latches: what EXTEST and CLAMP
    /// drive onto the pins.
    boundary_update: Vec<bool>,
}

impl TapController {
    /// A TAP with a boundary register of `boundary_cells` cells, all
    /// low, held in Test-Logic-Reset.
    ///
    /// # Panics
    ///
    /// Panics if `boundary_cells` is zero.
    pub fn new(boundary_cells: usize) -> Self {
        assert!(
            boundary_cells > 0,
            "a boundary register needs at least one cell"
        );
        Self {
            state: TapState::TestLogicReset,
            ir_shift: 0,
            instruction: Instruction::Idcode, // reset selects IDCODE/BYPASS
            bypass: false,
            idcode_shift: IDCODE,
            boundary_shift: vec![false; boundary_cells],
            boundary_update: vec![false; boundary_cells],
        }
    }

    /// Current FSM state.
    pub fn state(&self) -> TapState {
        self.state
    }

    /// Current instruction.
    pub fn instruction(&self) -> Instruction {
        self.instruction
    }

    /// The length of the data register the current instruction selects.
    pub(crate) fn dr_len(&self) -> usize {
        match self.instruction {
            Instruction::Bypass | Instruction::Clamp | Instruction::Highz => 1,
            Instruction::Extest | Instruction::Sample => self.boundary_shift.len(),
            Instruction::Idcode => 32,
        }
    }

    /// What the boundary cells drive onto the pins: the update latches
    /// under EXTEST and CLAMP, `None` while the pins are not under test.
    pub(crate) fn launched(&self) -> Option<&[bool]> {
        matches!(self.instruction, Instruction::Extest | Instruction::Clamp)
            .then_some(&self.boundary_update[..])
    }

    /// One TCK rising edge. `observed` supplies the pin values, one per
    /// boundary cell, for a Capture-DR in EXTEST/SAMPLE; no other edge
    /// reads it. Returns TDO where defined.
    pub fn clock(&mut self, tms: bool, tdi: bool, observed: &[bool]) -> Option<bool> {
        let mut tdo = None;
        // Actions happen in the state being *exited* for shift, per the
        // standard's timing; modelling at the granularity of "state
        // acts on entry" is the usual software simplification and is
        // what we do here, acting on the *current* state.
        match self.state {
            TapState::ShiftIr => {
                tdo = Some(self.ir_shift & 1 == 1);
                self.ir_shift = (self.ir_shift >> 1) | ((tdi as u8) << 3);
            }
            TapState::ShiftDr => match self.instruction {
                Instruction::Bypass | Instruction::Clamp | Instruction::Highz => {
                    tdo = Some(self.bypass);
                    self.bypass = tdi;
                }
                Instruction::Idcode => {
                    tdo = Some(self.idcode_shift & 1 == 1);
                    self.idcode_shift = (self.idcode_shift >> 1) | ((tdi as u32) << 31);
                }
                Instruction::Extest | Instruction::Sample => {
                    // The last cell leaves at TDO; `tdi` enters cell 0.
                    self.boundary_shift.rotate_right(1);
                    tdo = Some(self.boundary_shift[0]);
                    self.boundary_shift[0] = tdi;
                }
            },
            _ => {}
        }
        let next = self.state.next(tms);
        match next {
            TapState::TestLogicReset => {
                self.instruction = Instruction::Idcode;
                self.idcode_shift = IDCODE;
            }
            TapState::CaptureIr => {
                // The standard mandates capturing ...01 into the IR.
                self.ir_shift = 0b0001;
            }
            TapState::CaptureDr => match self.instruction {
                Instruction::Idcode => self.idcode_shift = IDCODE,
                Instruction::Extest | Instruction::Sample => {
                    self.boundary_shift.copy_from_slice(observed)
                }
                Instruction::Bypass | Instruction::Clamp | Instruction::Highz => {
                    self.bypass = false
                }
            },
            TapState::UpdateIr => {
                self.instruction = Instruction::decode(self.ir_shift);
            }
            // SAMPLE/PRELOAD loads the latches too, so EXTEST launches a
            // known pattern the moment it is selected.
            TapState::UpdateDr
                if matches!(self.instruction, Instruction::Extest | Instruction::Sample) =>
            {
                self.boundary_update.clone_from(&self.boundary_shift);
            }
            _ => {}
        }
        self.state = next;
        tdo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_tms_highs_reach_reset_from_anywhere() {
        use TapState::*;
        for start in [
            TestLogicReset,
            RunTestIdle,
            ShiftDr,
            PauseDr,
            ShiftIr,
            PauseIr,
            UpdateDr,
            UpdateIr,
            Exit2Dr,
        ] {
            let mut s = start;
            for _ in 0..5 {
                s = s.next(true);
            }
            assert_eq!(s, TestLogicReset, "from {start:?}");
        }
    }

    #[test]
    fn dr_scan_path() {
        use TapState::*;
        let mut s = RunTestIdle;
        for (tms, expect) in [
            (true, SelectDrScan),
            (false, CaptureDr),
            (false, ShiftDr),
            (false, ShiftDr),
            (true, Exit1Dr),
            (true, UpdateDr),
            (false, RunTestIdle),
        ] {
            s = s.next(tms);
            assert_eq!(s, expect);
        }
    }

    #[test]
    fn pause_and_resume_shifting() {
        use TapState::*;
        let mut s = ShiftDr;
        s = s.next(true); // Exit1Dr
        s = s.next(false); // PauseDr
        assert_eq!(s, PauseDr);
        s = s.next(true); // Exit2Dr
        s = s.next(false); // back to ShiftDr
        assert_eq!(s, ShiftDr);
    }

    #[test]
    fn opcode_round_trip_and_bypass_default() {
        for (i, _, op) in Instruction::TABLE {
            assert_eq!(i.opcode(), op);
            assert_eq!(Instruction::decode(op), i);
        }
        // Unknown opcodes fall back to BYPASS.
        assert_eq!(Instruction::decode(0b0111), Instruction::Bypass);
        assert_eq!(Instruction::Bypass.opcode(), 0b1111);
    }

    /// A TAP in Shift-DR under SAMPLE, with its boundary register
    /// holding `cells`.
    fn shifting(cells: &[bool]) -> TapController {
        let mut tap = TapController::new(cells.len());
        tap.instruction = Instruction::Sample;
        tap.state = TapState::ShiftDr;
        tap.boundary_shift = cells.to_vec();
        tap
    }

    #[test]
    fn boundary_shift_is_a_shift_register() {
        let mut tap = shifting(&[false; 3]);
        assert_eq!(tap.clock(false, true, &[]), Some(false));
        assert_eq!(tap.clock(false, false, &[]), Some(false));
        assert_eq!(tap.clock(false, true, &[]), Some(false));
        // First bit now reaches the end.
        assert_eq!(tap.clock(false, false, &[]), Some(true));
    }

    #[test]
    fn update_loads_the_latches_only_under_extest_and_sample() {
        for (inst, _, _) in Instruction::TABLE {
            let mut tap = shifting(&[true]);
            tap.instruction = inst;
            tap.state = TapState::Exit1Dr;
            tap.clock(true, false, &[]); // UpdateDr
            let loaded = matches!(inst, Instruction::Extest | Instruction::Sample);
            assert_eq!(tap.boundary_update, [loaded], "{inst:?}");
        }
    }

    #[test]
    fn capture_then_shift_out_reads_pins() {
        let mut tap = shifting(&[false; 4]);
        tap.state = TapState::SelectDrScan;
        // Deliberately non-palindromic to pin the ordering: the last cell
        // leaves first.
        tap.clock(false, false, &[true, true, false, true]); // CaptureDr
        tap.clock(false, false, &[]); // ShiftDr
        let out: Vec<bool> = (0..4).flat_map(|_| tap.clock(false, false, &[])).collect();
        assert_eq!(out, vec![true, false, true, true]);
    }

    #[test]
    fn idcode_reads_out_after_reset() {
        let mut tap = TapController::new(4);
        assert_eq!(tap.instruction(), Instruction::Idcode);
        // Walk to Shift-DR.
        let obs = vec![false; 4];
        tap.clock(false, false, &obs); // RunTestIdle
        tap.clock(true, false, &obs); // SelectDrScan
        tap.clock(false, false, &obs); // CaptureDr
        tap.clock(false, false, &obs); // now in ShiftDr
        let mut code: u32 = 0;
        for bit in 0..32 {
            let tdo = tap.clock(false, false, &obs).expect("in ShiftDr");
            code |= (tdo as u32) << bit;
        }
        assert_eq!(code, IDCODE);
        // Mandatory LSB-1 of every IDCODE.
        assert_eq!(IDCODE & 1, 1);
    }

    #[test]
    fn ir_scan_loads_extest() {
        let mut tap = TapController::new(4);
        let obs = vec![false; 4];
        // Navigate: RTI → SelectDR → SelectIR → CaptureIR → ShiftIR ×4 →
        // Exit1IR → UpdateIR.
        tap.clock(false, false, &obs);
        tap.clock(true, false, &obs);
        tap.clock(true, false, &obs);
        tap.clock(false, false, &obs); // CaptureIr
        let op = Instruction::Extest.opcode();
        for bit in 0..3 {
            tap.clock(false, (op >> bit) & 1 == 1, &obs);
        }
        tap.clock(true, (op >> 3) & 1 == 1, &obs); // last bit, to Exit1Ir
        tap.clock(true, false, &obs); // UpdateIr
        assert_eq!(tap.instruction(), Instruction::Extest);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn empty_boundary_register_rejected() {
        let _ = TapController::new(0);
    }
}
