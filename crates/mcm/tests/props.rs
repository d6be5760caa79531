//! Property tests for the MCM substrate and boundary-scan machinery.

use fluxcomp_mcm::bscan::{BoundaryScanChain, Instruction, TapController, TapState};
use fluxcomp_mcm::chain::TapChain;
use fluxcomp_mcm::substrate::{Fault, McmAssembly};
use proptest::prelude::*;

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

    /// The boundary chain is a bijection: shifting N bits through an
    /// N-cell chain returns exactly what was loaded before.
    #[test]
    fn chain_shift_bijection(first in prop::collection::vec(any::<bool>(), 1..48),
                             second_seed in any::<u64>()) {
        let n = first.len();
        let second: Vec<bool> = (0..n).map(|k| (second_seed >> (k % 60)) & 1 == 1).collect();
        let mut chain = BoundaryScanChain::new(n);
        chain.shift_pattern(&first);
        let out = chain.shift_pattern(&second);
        prop_assert_eq!(out, first);
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
            // Any reachable instruction is one of the defined set.
            let inst = tap.instruction();
            let defined = matches!(
                inst,
                Instruction::Bypass
                    | Instruction::Extest
                    | Instruction::Sample
                    | Instruction::Idcode
                    | Instruction::Clamp
                    | Instruction::Highz
            );
            prop_assert!(defined, "undefined instruction {inst:?}");
        }
    }

    /// Chain scan-path measurement equals the computed length for any
    /// per-die instruction assignment, and both equal the sum of one bit
    /// per bypassed die and the boundary length of every other die. (That
    /// each die holds its own opcode is checked in the `chain` unit tests.)
    #[test]
    fn chain_path_measurement(assignments in prop::collection::vec(0u8..3, 1..5)) {
        let lengths: Vec<usize> = (0..assignments.len()).map(|k| 3 + k).collect();
        let mut chain = TapChain::new(&lengths);
        chain.reset();
        let instructions: Vec<Instruction> = assignments
            .iter()
            .map(|&a| match a {
                0 => Instruction::Bypass,
                1 => Instruction::Extest,
                _ => Instruction::Sample,
            })
            .collect();
        chain.load_instructions(&instructions);
        let expected: usize = assignments
            .iter()
            .zip(&lengths)
            .map(|(&a, &len)| if a == 0 { 1 } else { len })
            .sum();
        prop_assert_eq!(chain.scan_path_bits(), expected);
        prop_assert_eq!(chain.measure_scan_path(), expected);
    }
}
