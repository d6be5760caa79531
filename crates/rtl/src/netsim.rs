//! An event-driven gate-level simulator.
//!
//! Plays the role of the Compass Design Automation digital simulator in
//! the paper's flow: it executes the structural netlists of
//! [`crate::synth`] so they can be checked cycle-by-cycle against the
//! behavioural models (counter, CORDIC iteration).
//!
//! Semantics: unit-delay, two-valued. A change on a net schedules the
//! evaluation of its fanout; evaluation continues until the network is
//! quiescent ([`GateSim::settle`]). Flip-flops update atomically on
//! [`GateSim::clock_edge`] (all sample their `D` before any `Q`
//! changes). The number of evaluation events is reported — a standard
//! activity proxy for dynamic power.

use crate::gates::{GateKind, NetId, Netlist};
use std::collections::VecDeque;

/// Event-driven simulator state over a [`Netlist`].
#[derive(Debug, Clone)]
pub struct GateSim {
    netlist: Netlist,
    values: Vec<bool>,
    fanout: Vec<Vec<u32>>,
    queue: VecDeque<u32>,
    queued: Vec<bool>,
    events: u64,
}

impl GateSim {
    /// Builds a simulator; all nets start at 0, then constants are
    /// applied and the network settled.
    pub fn new(netlist: Netlist) -> Self {
        let n = netlist.len();
        let mut fanout = vec![Vec::new(); n];
        for (idx, gate) in netlist.gates.iter().enumerate() {
            for inp in &gate.inputs {
                // DFF inputs are sampled only on clock edges, but keeping
                // them out of combinational fanout is the important part:
                // a DFF never re-evaluates during settle().
                if netlist.gates[idx].kind != GateKind::Dff {
                    fanout[inp.index()].push(idx as u32);
                }
            }
        }
        let mut sim = Self {
            values: vec![false; n],
            fanout,
            queue: VecDeque::new(),
            queued: vec![false; n],
            events: 0,
            netlist,
        };
        // Apply constants and settle the initial state.
        for idx in 0..n {
            if let GateKind::Const(v) = sim.netlist.gates[idx].kind {
                sim.values[idx] = v;
                sim.schedule_fanout(idx);
            } else {
                sim.enqueue(idx as u32);
            }
        }
        sim.settle();
        sim.events = 0;
        sim
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Total evaluation events since construction (activity proxy).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Reads a bus (LSB first) as an unsigned integer.
    pub fn bus_value(&self, bus: &[NetId]) -> u64 {
        bus.iter()
            .enumerate()
            .fold(0, |acc, (i, &n)| acc | ((self.value(n) as u64) << i))
    }

    /// Reads a bus (LSB first) as a two's-complement signed integer.
    pub fn bus_value_signed(&self, bus: &[NetId]) -> i64 {
        let raw = self.bus_value(bus);
        let w = bus.len() as u32;
        if w == 0 || w > 63 {
            return raw as i64;
        }
        let sign = 1u64 << (w - 1);
        if raw & sign != 0 {
            (raw as i64) - (1i64 << w)
        } else {
            raw as i64
        }
    }

    /// Drives a primary input.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        assert_eq!(
            self.netlist.gates[net.index()].kind,
            GateKind::Input,
            "set_input target must be a primary input"
        );
        if self.values[net.index()] != value {
            self.values[net.index()] = value;
            self.schedule_fanout(net.index());
        }
    }

    /// Drives a bus of inputs from an integer (LSB first).
    pub fn set_bus(&mut self, bus: &[NetId], value: i64) {
        for (i, &net) in bus.iter().enumerate() {
            self.set_input(net, (value >> i) & 1 == 1);
        }
    }

    fn enqueue(&mut self, idx: u32) {
        if !self.queued[idx as usize] {
            self.queued[idx as usize] = true;
            self.queue.push_back(idx);
        }
    }

    fn schedule_fanout(&mut self, idx: usize) {
        // Clone-free double loop: indices only.
        for k in 0..self.fanout[idx].len() {
            let f = self.fanout[idx][k];
            self.enqueue(f);
        }
    }

    fn eval(&mut self, idx: usize) -> bool {
        let gate = &self.netlist.gates[idx];
        let v = |n: NetId| self.values[n.index()];
        match gate.kind {
            GateKind::Input | GateKind::Const(_) | GateKind::Dff => self.values[idx],
            GateKind::Not => !v(gate.inputs[0]),
            GateKind::And => v(gate.inputs[0]) && v(gate.inputs[1]),
            GateKind::Or => v(gate.inputs[0]) || v(gate.inputs[1]),
            GateKind::Nand => !(v(gate.inputs[0]) && v(gate.inputs[1])),
            GateKind::Nor => !(v(gate.inputs[0]) || v(gate.inputs[1])),
            GateKind::Xor => v(gate.inputs[0]) ^ v(gate.inputs[1]),
            GateKind::Xnor => !(v(gate.inputs[0]) ^ v(gate.inputs[1])),
            GateKind::Mux => {
                if v(gate.inputs[0]) {
                    v(gate.inputs[2])
                } else {
                    v(gate.inputs[1])
                }
            }
        }
    }

    /// Propagates until quiescent; returns the number of evaluation
    /// events this call consumed.
    ///
    /// # Panics
    ///
    /// Panics if the network oscillates (a combinational loop) — more
    /// than `64 × gate count` events without quiescence.
    pub fn settle(&mut self) -> u64 {
        let budget = 64 * self.netlist.len() as u64 + 1024;
        let mut spent = 0u64;
        while let Some(idx) = self.queue.pop_front() {
            self.queued[idx as usize] = false;
            spent += 1;
            assert!(
                spent <= budget,
                "combinational loop: no quiescence after {budget} events"
            );
            let new = self.eval(idx as usize);
            if new != self.values[idx as usize] {
                self.values[idx as usize] = new;
                self.schedule_fanout(idx as usize);
            }
        }
        self.events += spent;
        // One recorder call per settle (per clock tick at most), never
        // per gate evaluation.
        fluxcomp_obs::counter_add("rtl.gate_events", spent);
        fluxcomp_obs::counter_add("rtl.settles", 1);
        spent
    }

    /// One positive clock edge: every DFF samples its `D`, then the
    /// resulting changes propagate.
    pub fn clock_edge(&mut self) {
        fluxcomp_obs::counter_add("rtl.clock_edges", 1);
        // Phase 1: sample all D inputs with pre-edge values.
        let mut updates = Vec::new();
        for (idx, gate) in self.netlist.gates.iter().enumerate() {
            if gate.kind == GateKind::Dff {
                let d = self.values[gate.inputs[0].index()];
                if d != self.values[idx] {
                    updates.push((idx, d));
                }
            }
        }
        // Phase 2: commit and propagate.
        for (idx, d) in updates {
            self.values[idx] = d;
            self.schedule_fanout(idx);
        }
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinational_gates_evaluate() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let and = nl.and(a, b);
        let or = nl.or(a, b);
        let xor = nl.xor(a, b);
        let nand = nl.nand(a, b);
        let nor = nl.nor(a, b);
        let xnor = nl.xnor(a, b);
        let not = nl.not(a);
        let mut sim = GateSim::new(nl);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            sim.set_input(a, va);
            sim.set_input(b, vb);
            sim.settle();
            assert_eq!(sim.value(and), va && vb);
            assert_eq!(sim.value(or), va || vb);
            assert_eq!(sim.value(xor), va ^ vb);
            assert_eq!(sim.value(nand), !(va && vb));
            assert_eq!(sim.value(nor), !(va || vb));
            assert_eq!(sim.value(xnor), !(va ^ vb));
            assert_eq!(sim.value(not), !va);
        }
    }

    #[test]
    fn mux_selects() {
        let mut nl = Netlist::new();
        let sel = nl.input();
        let a = nl.input();
        let b = nl.input();
        let m = nl.mux(sel, a, b);
        let mut sim = GateSim::new(nl);
        sim.set_input(a, true);
        sim.set_input(b, false);
        sim.set_input(sel, false);
        sim.settle();
        assert!(sim.value(m));
        sim.set_input(sel, true);
        sim.settle();
        assert!(!sim.value(m));
    }

    #[test]
    fn constants_propagate_at_startup() {
        let mut nl = Netlist::new();
        let one = nl.constant(true);
        let zero = nl.constant(false);
        let or = nl.or(one, zero);
        let sim = GateSim::new(nl);
        assert!(sim.value(or));
    }

    #[test]
    fn toggle_flop_divides_by_two() {
        let mut nl = Netlist::new();
        let ff = {
            let seed = nl.constant(false);
            nl.dff(seed)
        };
        let inv = nl.not(ff);
        nl.connect_dff(ff, inv);
        let mut sim = GateSim::new(nl);
        let mut seq = Vec::new();
        for _ in 0..6 {
            sim.clock_edge();
            seq.push(sim.value(ff));
        }
        assert_eq!(seq, vec![true, false, true, false, true, false]);
    }

    #[test]
    fn dffs_sample_before_update() {
        // Two-stage shift register: both flops must not collapse into one.
        let mut nl = Netlist::new();
        let d_in = nl.input();
        let ff1 = nl.dff(d_in);
        let ff2 = nl.dff(ff1);
        let mut sim = GateSim::new(nl);
        sim.set_input(d_in, true);
        sim.settle();
        sim.clock_edge();
        assert!(sim.value(ff1));
        assert!(!sim.value(ff2), "ff2 must lag one cycle");
        sim.clock_edge();
        assert!(sim.value(ff2));
    }

    #[test]
    fn bus_values_signed_and_unsigned() {
        let mut nl = Netlist::new();
        let bus = nl.input_bus(4);
        let mut sim = GateSim::new(nl);
        sim.set_bus(&bus, 0b1010);
        sim.settle();
        assert_eq!(sim.bus_value(&bus), 10);
        assert_eq!(sim.bus_value_signed(&bus), -6);
        sim.set_bus(&bus, 5);
        sim.settle();
        assert_eq!(sim.bus_value_signed(&bus), 5);
    }

    #[test]
    fn events_count_activity() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let chain0 = nl.not(a);
        let chain1 = nl.not(chain0);
        let _chain2 = nl.not(chain1);
        let mut sim = GateSim::new(nl);
        let before = sim.events();
        sim.set_input(a, true);
        let spent = sim.settle();
        assert!(spent >= 3, "three inverters must evaluate: {spent}");
        assert_eq!(sim.events(), before + spent);
    }

    #[test]
    fn deep_chains_settle_within_budget() {
        // The builder API is loop-free by construction (gates may only
        // reference earlier nets, and the one rewiring hook,
        // `connect_dff`, targets DFFs, which break combinational paths) —
        // so the oscillation guard in `settle` is purely defensive. This
        // test pins the design property it relies on: even a maximally
        // deep combinational chain settles in one pass per gate.
        let mut nl = Netlist::new();
        let a = nl.input();
        let mut n = a;
        for _ in 0..5_000 {
            n = nl.not(n);
        }
        let mut sim = GateSim::new(nl);
        sim.set_input(a, true);
        let spent = sim.settle();
        assert!(spent <= 2 * 5_000 + 2, "settle took {spent} events");
        assert!(sim.value(n)); // 5000 inversions (even) → output = input
    }
}
