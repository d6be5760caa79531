//! Structural datapath builders — the "synthesis" step of the
//! reproduction's digital flow.
//!
//! Each builder emits a gate-level [`Netlist`] for one of the paper's
//! digital blocks, which the event-driven simulator validates against the
//! behavioural model and the `sog` crate maps onto the array:
//!
//! * [`ripple_adder`] / [`ripple_subtractor`] — the arithmetic
//!   primitives;
//! * [`updown_counter`] — the 4.194304 MHz pulse counter (a registered
//!   ±1 adder);
//! * [`cordic_step`] — one Fig. 8 micro-rotation (shift, compare,
//!   conditional add/sub) as pure combinational logic;
//! * [`full_compass_inventory`] — the transistor inventory of the whole
//!   digital section, assembled from the builders plus standard-cell
//!   estimates for control/ROM/display, feeding experiment E6.

use crate::gates::{NetId, Netlist};

/// A full adder cell; returns `(sum, carry_out)`.
fn full_adder(nl: &mut Netlist, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
    let axb = nl.xor(a, b);
    let sum = nl.xor(axb, cin);
    let t1 = nl.and(axb, cin);
    let t2 = nl.and(a, b);
    let cout = nl.or(t1, t2);
    (sum, cout)
}

/// Builds a `width`-bit ripple-carry adder over existing buses
/// (LSB first). Returns the sum bus (same width; carry-out discarded,
/// two's-complement wrap).
///
/// # Panics
///
/// Panics if the bus widths differ or are empty.
pub fn ripple_adder(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    assert_eq!(a.len(), b.len(), "adder bus widths must match");
    assert!(!a.is_empty(), "adder width must be nonzero");
    let mut carry = nl.constant(false);
    let mut sum = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        let (s, c) = full_adder(nl, a[i], b[i], carry);
        sum.push(s);
        carry = c;
    }
    sum
}

/// Builds `a − b` (two's complement: `a + !b + 1`). Returns the
/// difference bus.
pub fn ripple_subtractor(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    assert_eq!(a.len(), b.len(), "subtractor bus widths must match");
    assert!(!a.is_empty(), "subtractor width must be nonzero");
    let mut carry = nl.constant(true);
    let mut diff = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        let nb = nl.not(b[i]);
        let (s, c) = full_adder(nl, a[i], nb, carry);
        diff.push(s);
        carry = c;
    }
    diff
}

/// Arithmetic right shift by a constant: pure rewiring, zero gates.
pub fn arith_shift_right(nl: &mut Netlist, bus: &[NetId], k: u32) -> Vec<NetId> {
    let _ = nl;
    let w = bus.len();
    let sign = bus[w - 1];
    (0..w)
        .map(|i| {
            let src = i + k as usize;
            if src < w {
                bus[src]
            } else {
                sign
            }
        })
        .collect()
}

/// A 2:1 mux over buses.
pub fn bus_mux(nl: &mut Netlist, sel: NetId, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    assert_eq!(a.len(), b.len(), "mux bus widths must match");
    a.iter().zip(b).map(|(&x, &y)| nl.mux(sel, x, y)).collect()
}

/// The synthesised up/down counter: a `width`-bit register plus a ±1
/// ripple adder; the `up` input selects the increment. Returns the
/// netlist with outputs `count0..count{width-1}` and input `up`.
pub fn updown_counter(width: u32) -> (Netlist, NetId, Vec<NetId>) {
    assert!((2..=32).contains(&width), "width must be in 2..=32");
    let mut nl = Netlist::new();
    let up = nl.input();
    // State register (connected after next-state logic exists).
    let zero = nl.constant(false);
    let state: Vec<NetId> = (0..width).map(|_| nl.dff(zero)).collect();
    // Increment operand: up ? +1 : −1 (−1 = all ones): bit0 = 1,
    // bit_i = !up for i > 0.
    let one = nl.constant(true);
    let not_up = nl.not(up);
    let operand: Vec<NetId> = (0..width as usize)
        .map(|i| if i == 0 { one } else { not_up })
        .collect();
    let next = ripple_adder(&mut nl, &state, &operand);
    for (ff, d) in state.iter().zip(&next) {
        nl.connect_dff(*ff, *d);
    }
    for (i, &s) in state.iter().enumerate() {
        nl.mark_output(format!("count{i}"), s);
    }
    (nl, up, state)
}

/// One combinational CORDIC micro-rotation (Fig. 8, iteration `i`):
///
/// ```text
/// rotate = (y − (x >> i)) ≥ 0
/// y' = rotate ? y − (x >> i) : y
/// x' = rotate ? x + (y >> i) : x
/// ```
///
/// Returns `(netlist, x_in, y_in, x_out, y_out, rotate)`. Inputs are
/// treated as non-negative two's-complement values of `width` bits (the
/// quadrant-folded magnitudes, as in the paper's kernel).
#[allow(clippy::type_complexity)]
pub fn cordic_step(
    width: u32,
    i: u32,
) -> (
    Netlist,
    Vec<NetId>,
    Vec<NetId>,
    Vec<NetId>,
    Vec<NetId>,
    NetId,
) {
    assert!((2..=48).contains(&width), "width must be in 2..=48");
    assert!(i < width, "shift must be less than the width");
    let mut nl = Netlist::new();
    let x = nl.input_bus(width);
    let y = nl.input_bus(width);
    let x_shifted = arith_shift_right(&mut nl, &x, i);
    let y_shifted = arith_shift_right(&mut nl, &y, i);
    let y_minus = ripple_subtractor(&mut nl, &y, &x_shifted);
    let x_plus = ripple_adder(&mut nl, &x, &y_shifted);
    // rotate ⇔ (y − x>>i) ≥ 0 ⇔ sign bit clear.
    let rotate = nl.not(y_minus[width as usize - 1]);
    let y_out = bus_mux(&mut nl, rotate, &y, &y_minus);
    let x_out = bus_mux(&mut nl, rotate, &x, &x_plus);
    for (k, &b) in x_out.iter().enumerate() {
        nl.mark_output(format!("x{k}"), b);
    }
    for (k, &b) in y_out.iter().enumerate() {
        nl.mark_output(format!("y{k}"), b);
    }
    nl.mark_output("rotate", rotate);
    (nl, x, y, x_out, y_out, rotate)
}

/// A named block in the digital-section inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInventory {
    /// Block name.
    pub name: String,
    /// Transistor count.
    pub transistors: u32,
    /// `true` for synthesised (counted from a real netlist), `false` for
    /// estimated standard blocks.
    pub synthesized: bool,
}

/// The transistor inventory of the complete digital section (experiment
/// E6). Synthesised blocks are counted exactly from their netlists; the
/// remaining blocks (control FSM, ROM, watch divider chain, LCD driver,
/// bus/glue) carry engineering estimates in line with the builders'
/// per-bit costs.
pub fn full_compass_inventory() -> Vec<BlockInventory> {
    let mut inv = Vec::new();

    // Two 16-bit up/down counters (X and Y result registers share the
    // counter in the paper via the control logic, but a result latch of the
    // same width is still needed — model as two counter-equivalents).
    let (counter, _, _) = updown_counter(16);
    let c = counter.stats().transistors;
    inv.push(BlockInventory {
        name: "updown_counter_16".into(),
        transistors: c,
        synthesized: true,
    });
    inv.push(BlockInventory {
        name: "result_latch_16".into(),
        transistors: c,
        synthesized: true,
    });

    // The CORDIC: 8 unrolled 24-bit micro-rotations' datapath (in the
    // paper it is a single iterated stage, but the unrolled transistor
    // count equals iterations × stage cost; an iterated implementation
    // replaces 7 stages with mux+control of similar per-stage share, so
    // the unrolled figure is the honest upper bound the array must fit).
    let stage = {
        let (nl, ..) = cordic_step(24, 3);
        nl.stats().transistors
    };
    inv.push(BlockInventory {
        name: "cordic_datapath_8x24".into(),
        transistors: stage * 8,
        synthesized: true,
    });

    // Angle accumulator: 16-bit adder + register.
    let acc = {
        let mut nl = Netlist::new();
        let a = nl.input_bus(16);
        let b = nl.input_bus(16);
        let s = ripple_adder(&mut nl, &a, &b);
        let regs: Vec<NetId> = s.iter().map(|&bit| nl.dff(bit)).collect();
        let _ = regs;
        nl.stats().transistors
    };
    inv.push(BlockInventory {
        name: "angle_accumulator_16".into(),
        transistors: acc,
        synthesized: true,
    });

    // Estimated standard blocks.
    for (name, t) in [
        ("atan_rom_8x14", 8u32 * 14 * 6),  // ROM bits as wired NOR array
        ("sequencer_fsm", 1_200),          // ~30 flops + decode
        ("watch_divider_22", 22 * 30),     // 22 ripple stages
        ("watch_time_counters", 2_400),    // hh:mm:ss BCD chain
        ("lcd_driver_6x7seg", 6 * 7 * 40), // segment latch + driver
        ("display_mux_glue", 1_500),
        ("clock_gating_power_ctl", 600),
        ("bscan_interface", 900),
    ] {
        inv.push(BlockInventory {
            name: name.into(),
            transistors: t,
            synthesized: false,
        });
    }
    inv
}

/// Total transistors of an inventory.
pub fn inventory_total(inv: &[BlockInventory]) -> u32 {
    inv.iter().map(|b| b.transistors).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::GateSim;

    #[test]
    fn adder_matches_integers() {
        let mut nl = Netlist::new();
        let a = nl.input_bus(8);
        let b = nl.input_bus(8);
        let s = ripple_adder(&mut nl, &a, &b);
        let mut sim = GateSim::new(nl);
        for (x, y) in [
            (0i64, 0i64),
            (1, 1),
            (100, 27),
            (-5, 3),
            (-128, 127),
            (77, -77),
        ] {
            sim.set_bus(&a, x);
            sim.set_bus(&b, y);
            sim.settle();
            let expect = (x + y) & 0xFF;
            let expect = if expect >= 128 { expect - 256 } else { expect };
            assert_eq!(sim.bus_value_signed(&s), expect, "{x}+{y}");
        }
    }

    #[test]
    fn subtractor_matches_integers() {
        let mut nl = Netlist::new();
        let a = nl.input_bus(10);
        let b = nl.input_bus(10);
        let d = ripple_subtractor(&mut nl, &a, &b);
        let mut sim = GateSim::new(nl);
        for (x, y) in [(0i64, 0i64), (5, 3), (3, 5), (-100, 200), (511, -512)] {
            sim.set_bus(&a, x);
            sim.set_bus(&b, y);
            sim.settle();
            let m = 1i64 << 10;
            let expect = ((x - y).rem_euclid(m) + m) % m;
            let expect = if expect >= m / 2 { expect - m } else { expect };
            assert_eq!(sim.bus_value_signed(&d), expect, "{x}-{y}");
        }
    }

    #[test]
    fn shift_right_is_arithmetic() {
        let mut nl = Netlist::new();
        let a = nl.input_bus(8);
        let s2 = arith_shift_right(&mut nl, &a, 2);
        let mut sim = GateSim::new(nl);
        sim.set_bus(&a, -20);
        sim.settle();
        assert_eq!(sim.bus_value_signed(&s2), -5);
        sim.set_bus(&a, 21);
        sim.settle();
        assert_eq!(sim.bus_value_signed(&s2), 5);
    }

    #[test]
    fn counter_netlist_matches_behavioral() {
        let (nl, up, state) = updown_counter(8);
        let mut sim = GateSim::new(nl);
        let mut behavioral = crate::counter::UpDownCounter::new(8);
        // Deterministic pseudo-random up/down pattern.
        let mut lfsr: u32 = 0xACE1;
        for _ in 0..200 {
            lfsr = lfsr.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            let dir = (lfsr >> 16) & 1 == 1;
            sim.set_input(up, dir);
            sim.settle();
            sim.clock_edge();
            behavioral.clock(dir);
            // The netlist wraps while the behavioural model saturates;
            // they agree while within range — the pattern keeps the value
            // small, so assert equality throughout.
            assert_eq!(sim.bus_value_signed(&state), behavioral.value());
        }
    }

    #[test]
    fn cordic_step_matches_behavioral_iteration() {
        for i in [0u32, 1, 3, 5] {
            let (nl, x_in, y_in, x_out, y_out, rotate) = cordic_step(20, i);
            let mut sim = GateSim::new(nl);
            for (x, y) in [
                (1000i64, 600i64),
                (500, 500),
                (12345, 7),
                (3, 12345),
                (1, 0),
            ] {
                sim.set_bus(&x_in, x);
                sim.set_bus(&y_in, y);
                sim.settle();
                // Behavioural Fig. 8 iteration.
                let (bx, by, brot) = if y >= (x >> i) {
                    (x + (y >> i), y - (x >> i), true)
                } else {
                    (x, y, false)
                };
                assert_eq!(sim.bus_value_signed(&x_out), bx, "x @i={i} ({x},{y})");
                assert_eq!(sim.bus_value_signed(&y_out), by, "y @i={i} ({x},{y})");
                assert_eq!(sim.value(rotate), brot, "rot @i={i} ({x},{y})");
            }
        }
    }

    #[test]
    fn inventory_totals_are_consistent() {
        let inv = full_compass_inventory();
        let total = inventory_total(&inv);
        // Sanity: tens of thousands of transistors — the digital section
        // of a 200k-transistor array.
        assert!(
            (20_000..200_000).contains(&total),
            "digital inventory total {total}"
        );
        // Synthesised blocks present and dominant enough to be honest.
        let synth: u32 = inv
            .iter()
            .filter(|b| b.synthesized)
            .map(|b| b.transistors)
            .sum();
        assert!(
            synth * 2 > total,
            "synthesised share too small: {synth}/{total}"
        );
        assert!(inv.iter().any(|b| b.name.starts_with("cordic")));
    }

    #[test]
    fn counter_cost_scales_with_width() {
        let (c8, ..) = updown_counter(8);
        let (c16, ..) = updown_counter(16);
        let t8 = c8.stats().transistors;
        let t16 = c16.stats().transistors;
        assert!(t16 > 18 * 8 && t16 < 2 * t8 + 64, "t8={t8} t16={t16}");
    }

    #[test]
    #[should_panic(expected = "widths must match")]
    fn adder_width_mismatch_rejected() {
        let mut nl = Netlist::new();
        let a = nl.input_bus(4);
        let b = nl.input_bus(5);
        let _ = ripple_adder(&mut nl, &a, &b);
    }

    #[test]
    #[should_panic(expected = "shift must be less")]
    fn cordic_shift_too_large_rejected() {
        let _ = cordic_step(8, 8);
    }
}
