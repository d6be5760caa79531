//! Property tests for the MCM substrate and boundary-scan machinery.

use fluxcomp_mcm::bscan::{Instruction, TapController, TapState};
use fluxcomp_mcm::chain::TapChain;
use fluxcomp_mcm::substrate::{Fault, McmAssembly};
use proptest::prelude::*;

/// From Shift-DR: shifts `bits` in, stage 0 (nearest TDI) last, and parks
/// in Pause-DR. Returns what the stages held, in stage order.
fn shift_and_pause(chain: &mut TapChain, bits: &[bool]) -> Vec<bool> {
    let last = bits.len() - 1;
    let mut out: Vec<bool> = bits
        .iter()
        .rev()
        .enumerate()
        .map(|(k, &b)| chain.clock(k == last, b).expect("Shift-DR drives TDO"))
        .collect();
    chain.clock(false, false); // PauseDr
    out.reverse();
    out
}

proptest! {
    /// A fault-free substrate is transparent for any drive pattern.
    #[test]
    fn clean_substrate_transparent(bits in prop::collection::vec(any::<bool>(), 9)) {
        let m = McmAssembly::paper_module();
        prop_assert_eq!(m.propagate(&bits), bits);
    }

    /// With a short injected, the bridged nets always read the AND of
    /// their drives; all other nets are untouched.
    #[test]
    fn short_is_wired_and(bits in prop::collection::vec(any::<bool>(), 9), a in 0usize..9, b in 0usize..9) {
        prop_assume!(a != b);
        let mut m = McmAssembly::paper_module();
        m.inject(Fault::Short { a, b });
        let seen = m.propagate(&bits);
        let expect_group = bits[a] && bits[b];
        prop_assert_eq!(seen[a], expect_group);
        prop_assert_eq!(seen[b], expect_group);
        for i in 0..9 {
            if i != a && i != b {
                prop_assert_eq!(seen[i], bits[i], "net {} disturbed", i);
            }
        }
    }

    /// An open forces its net low regardless of drive; others untouched.
    #[test]
    fn open_floats_low(bits in prop::collection::vec(any::<bool>(), 9), net in 0usize..9) {
        let mut m = McmAssembly::paper_module();
        m.inject(Fault::Open { net });
        let seen = m.propagate(&bits);
        prop_assert!(!seen[net]);
        for i in 0..9 {
            if i != net {
                prop_assert_eq!(seen[i], bits[i]);
            }
        }
    }

    /// The boundary scan path is a bijection: shifting the 17 bits of a
    /// second pattern through the chain's SAMPLE path shifts out exactly
    /// the first, when a Pause-DR between them keeps Capture-DR away.
    #[test]
    fn chain_shift_bijection(first in prop::collection::vec(any::<bool>(), 17),
                             second in prop::collection::vec(any::<bool>(), 17)) {
        let module = McmAssembly::paper_module();
        let mut chain = TapChain::new(&module);
        chain.reset();
        chain.load_instructions(&[Instruction::Sample; 3]);
        chain.clock(true, false); // SelectDrScan
        chain.clock(false, false); // CaptureDr
        chain.clock(false, false); // ShiftDr
        shift_and_pause(&mut chain, &first);
        chain.clock(true, false); // Exit2Dr
        chain.clock(false, false); // ShiftDr
        prop_assert_eq!(shift_and_pause(&mut chain, &second), first);
    }

    /// Five TMS-high clocks reach Test-Logic-Reset from any state the
    /// FSM can be walked into by an arbitrary TMS sequence.
    #[test]
    fn reset_from_any_walk(walk in prop::collection::vec(any::<bool>(), 0..64)) {
        let mut s = TapState::TestLogicReset;
        for tms in walk {
            s = s.next(tms);
        }
        for _ in 0..5 {
            s = s.next(true);
        }
        prop_assert_eq!(s, TapState::TestLogicReset);
    }

    /// The TAP never panics and its instruction register always decodes
    /// to a defined instruction under random stimulation.
    #[test]
    fn tap_total_under_random_stimuli(stimuli in prop::collection::vec(any::<(bool, bool)>(), 0..256)) {
        let mut tap = TapController::new(4);
        let obs = vec![false; 4];
        for (tms, tdi) in stimuli {
            tap.clock(tms, tdi, &obs);
            // Any reachable instruction is one of the IR table's.
            let inst = tap.instruction();
            let defined = Instruction::TABLE.iter().any(|e| e.0 == inst);
            prop_assert!(defined, "undefined instruction {inst:?}");
        }
    }
}

/// Chain scan-path measurement equals the computed length for every one
/// of the 6³ per-die instruction assignments on the paper chain, and both
/// equal one bit per bypassing die, 32 per IDCODE die and the boundary
/// length of every other die. (That each die holds its own opcode is
/// checked in the `chain` unit tests.)
#[test]
fn chain_path_measurement() {
    let module = McmAssembly::paper_module();
    let lengths = [9, 4, 4];
    for a in Instruction::TABLE {
        for b in Instruction::TABLE {
            for c in Instruction::TABLE {
                let instructions = [a.0, b.0, c.0];
                let mut chain = TapChain::new(&module);
                chain.reset();
                chain.load_instructions(&instructions);
                let expected: usize = instructions
                    .iter()
                    .zip(lengths)
                    .map(|(inst, len)| match inst {
                        Instruction::Extest | Instruction::Sample => len,
                        Instruction::Idcode => 32,
                        _ => 1,
                    })
                    .sum();
                assert_eq!(chain.scan_path_bits(), expected, "{instructions:?}");
                assert_eq!(chain.measure_scan_path(), expected, "{instructions:?}");
            }
        }
    }
}
