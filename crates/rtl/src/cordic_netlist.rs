//! The complete Fig. 8 kernel as one gate-level netlist.
//!
//! [`crate::synth::cordic_step`] builds a single micro-rotation; this
//! module unrolls the full first-quadrant kernel — prescale wiring,
//! `iterations` conditional micro-rotations, and the angle accumulator
//! that adds the ROM constant whenever a rotation fires — into one
//! combinational netlist. (The paper's hardware iterates one stage for
//! 8 cycles; the unrolled form computes the identical function and its
//! transistor count is the honest upper bound used by experiment E6.)
//!
//! The netlist is equivalence-checked against
//! [`crate::cordic::CordicArctan::first_quadrant_q8`] in the integration
//! tests — the reproduction's version of the RTL-vs-netlist formal
//! check a real flow would run.

use crate::atan_rom::AtanRom;
use crate::cordic::PRESCALE_SHIFT;
use crate::gates::{NetId, Netlist};
use crate::synth::{arith_shift_right, bus_mux, ripple_adder, ripple_subtractor};

/// The buses of a built CORDIC kernel netlist.
#[derive(Debug, Clone)]
pub struct CordicKernelNets {
    /// The netlist itself.
    pub netlist: Netlist,
    /// Input: x magnitude (unsigned value in a two's-complement bus).
    pub x_in: Vec<NetId>,
    /// Input: y magnitude.
    pub y_in: Vec<NetId>,
    /// Output: accumulated angle in Q8 degrees.
    pub angle_out: Vec<NetId>,
    /// Output: the per-iteration rotate flags.
    pub rotates: Vec<NetId>,
}

/// Left shift by a constant: rewiring with zero fill (no gates).
fn shift_left_const(nl: &mut Netlist, bus: &[NetId], k: u32) -> Vec<NetId> {
    let zero = nl.constant(false);
    let w = bus.len();
    (0..w)
        .map(|i| {
            if i < k as usize {
                zero
            } else {
                bus[i - k as usize]
            }
        })
        .collect()
}

/// Builds the full first-quadrant CORDIC kernel.
///
/// `data_width` is the register width *after* the ×128 prescale; inputs
/// are `data_width − PRESCALE_SHIFT` bits wide. `angle_width` must hold
/// the largest possible accumulated angle (Σ ROM entries ≈ 99.88° in Q8
/// needs 16 bits; 18 gives margin).
///
/// # Panics
///
/// Panics if the widths cannot hold the prescale or the ROM sum.
pub fn cordic_kernel_netlist(
    data_width: u32,
    angle_width: u32,
    iterations: u32,
) -> CordicKernelNets {
    assert!(data_width > PRESCALE_SHIFT + 2, "data width too small");
    assert!(data_width <= 48, "data width too large");
    let rom = AtanRom::new(iterations);
    let rom_sum: i64 = (0..iterations).map(|i| rom.entry(i)).sum();
    assert!(
        rom_sum < (1 << (angle_width - 1)),
        "angle width cannot hold the ROM sum"
    );

    let mut nl = Netlist::new();
    let input_width = data_width - PRESCALE_SHIFT;
    let x_in = nl.input_bus(input_width);
    let y_in = nl.input_bus(input_width);

    // Sign-extend to data_width, then prescale (<< 7) by rewiring.
    let extend = |_nl: &mut Netlist, bus: &[NetId]| -> Vec<NetId> {
        let sign = *bus.last().expect("nonempty bus");
        let mut out = bus.to_vec();
        while (out.len() as u32) < data_width {
            out.push(sign);
        }
        out
    };
    let x_ext = extend(&mut nl, &x_in);
    let y_ext = extend(&mut nl, &y_in);
    let mut x = shift_left_const(&mut nl, &x_ext, PRESCALE_SHIFT);
    let mut y = shift_left_const(&mut nl, &y_ext, PRESCALE_SHIFT);

    // Angle accumulator, starting at zero.
    let zero = nl.constant(false);
    let mut angle: Vec<NetId> = vec![zero; angle_width as usize];
    let mut rotates = Vec::with_capacity(iterations as usize);

    for i in 0..iterations {
        let x_shifted = arith_shift_right(&mut nl, &x, i);
        let y_shifted = arith_shift_right(&mut nl, &y, i);
        let y_minus = ripple_subtractor(&mut nl, &y, &x_shifted);
        let x_plus = ripple_adder(&mut nl, &x, &y_shifted);
        let rotate = nl.not(y_minus[data_width as usize - 1]);
        y = bus_mux(&mut nl, rotate, &y, &y_minus);
        x = bus_mux(&mut nl, rotate, &x, &x_plus);
        // Angle increment: the ROM constant gated by `rotate`. A set
        // constant bit ANDed with `rotate` is just the `rotate` wire; a
        // clear bit is constant-0 — the whole "multiplexer" is free.
        let entry = rom.entry(i);
        let operand: Vec<NetId> = (0..angle_width)
            .map(|b| if (entry >> b) & 1 == 1 { rotate } else { zero })
            .collect();
        angle = ripple_adder(&mut nl, &angle, &operand);
        rotates.push(rotate);
    }

    for (k, &b) in angle.iter().enumerate() {
        nl.mark_output(format!("angle{k}"), b);
    }
    for (i, &r) in rotates.iter().enumerate() {
        nl.mark_output(format!("rotate{i}"), r);
    }
    CordicKernelNets {
        netlist: nl,
        x_in,
        y_in,
        angle_out: angle,
        rotates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atan_rom::ANGLE_SCALE;
    use crate::cordic::CordicArctan;
    use crate::netsim::GateSim;

    #[test]
    fn kernel_netlist_matches_behavioral_on_grid() {
        let nets = cordic_kernel_netlist(24, 18, 8);
        let mut sim = GateSim::new(nets.netlist.clone());
        let cordic = CordicArctan::paper();
        for &(x, y) in &[
            (1000i64, 0i64),
            (1000, 1000),
            (0, 1000),
            (3, 1),
            (210, 146),
            (16_000, 9_000),
            (1, 16_000),
            (12_345, 5_432),
        ] {
            sim.set_bus(&nets.x_in, x);
            sim.set_bus(&nets.y_in, y);
            sim.settle();
            let got = sim.bus_value_signed(&nets.angle_out);
            let expect = cordic.first_quadrant_q8(x, y);
            // The behavioural kernel special-cases x == 0 (exact 90°);
            // the netlist runs the iterations, which converge to the
            // same within the residual. Compare accordingly.
            if x == 0 {
                assert!(
                    (got - expect).abs() <= ANGLE_SCALE / 2, // 0.5°
                    "x=0: {got} vs {expect}"
                );
            } else {
                assert_eq!(got, expect, "({x},{y})");
            }
        }
    }

    #[test]
    fn rotate_flags_match_behavioral_count() {
        let nets = cordic_kernel_netlist(24, 18, 8);
        let mut sim = GateSim::new(nets.netlist.clone());
        let cordic = CordicArctan::paper();
        sim.set_bus(&nets.x_in, 800);
        sim.set_bus(&nets.y_in, 600);
        sim.settle();
        let netlist_rotations = nets.rotates.iter().filter(|&&r| sim.value(r)).count() as u32;
        let behavioral = cordic.heading(800, 600).unwrap().rotations;
        assert_eq!(netlist_rotations, behavioral);
    }

    #[test]
    fn transistor_count_is_sane_for_e6() {
        let nets = cordic_kernel_netlist(24, 18, 8);
        let t = nets.netlist.stats().transistors;
        // 8 stages of ~2.4k plus the angle adders: 20k–32k.
        assert!(
            (18_000..36_000).contains(&t),
            "unrolled kernel {t} transistors"
        );
    }

    #[test]
    fn more_iterations_cost_more_gates() {
        let t4 = cordic_kernel_netlist(24, 18, 4).netlist.stats().transistors;
        let t8 = cordic_kernel_netlist(24, 18, 8).netlist.stats().transistors;
        assert!(t8 > 3 * t4 / 2, "t4={t4} t8={t8}");
    }

    #[test]
    #[should_panic(expected = "angle width")]
    fn angle_overflow_rejected() {
        let _ = cordic_kernel_netlist(24, 8, 8);
    }
}
