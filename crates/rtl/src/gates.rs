//! Gate-level netlists.
//!
//! The paper's digital section was synthesised onto the fishbone
//! Sea-of-Gates array with the Compass Design Automation flow. This
//! module is the corresponding substrate in the reproduction: a
//! structural netlist of CMOS gates with per-gate transistor costs, which
//!
//! * the event-driven simulator ([`crate::netsim`]) executes to validate
//!   the datapath builders ([`crate::synth`]) against the behavioural
//!   models, and
//! * the `sog` crate maps onto the array to reproduce the paper's
//!   occupancy claim (experiment E6).

use std::fmt;

/// A net (the output of one gate). Nets and gates are 1:1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `NetId` from an index obtained via
    /// [`NetId::index`]. Only meaningful for nets of the same netlist.
    pub fn from_index(idx: usize) -> Self {
        NetId(idx as u32)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Gate varieties. Static-CMOS transistor costs are given per kind
/// ([`GateKind::transistors`]); the counts follow standard schematics
/// (inverter 2, AND/OR 6, XOR 10, MUX2 12, transmission-gate DFF 26).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input (no transistors).
    Input,
    /// Constant 0 or 1 (tie cell).
    Const(bool),
    /// Inverter.
    Not,
    /// 2-input AND.
    And,
    /// 2-input OR.
    Or,
    /// 2-input XOR.
    Xor,
    /// 2:1 multiplexer, inputs `[sel, a, b]`: output = `sel ? b : a`.
    Mux,
    /// Positive-edge D flip-flop (one global clock domain).
    Dff,
}

impl GateKind {
    /// Static-CMOS transistor count of the gate.
    pub fn transistors(self) -> u32 {
        match self {
            GateKind::Input | GateKind::Const(_) => 0,
            GateKind::Not => 2,
            GateKind::And | GateKind::Or => 6,
            GateKind::Xor => 10,
            GateKind::Mux => 12,
            GateKind::Dff => 26,
        }
    }

    /// Number of data inputs the kind expects.
    pub fn arity(self) -> usize {
        match self {
            GateKind::Input | GateKind::Const(_) => 0,
            GateKind::Not | GateKind::Dff => 1,
            GateKind::Mux => 3,
            _ => 2,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Gate {
    pub(crate) kind: GateKind,
    pub(crate) inputs: Vec<NetId>,
}

/// Aggregate statistics of a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Combinational gate count (everything except inputs, consts, DFFs).
    pub combinational: u32,
    /// Flip-flop count.
    pub flip_flops: u32,
    /// Primary inputs.
    pub inputs: u32,
    /// Total transistors.
    pub transistors: u32,
}

/// A structural gate-level netlist with one global clock.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    pub(crate) gates: Vec<Gate>,
    outputs: Vec<(String, NetId)>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, kind: GateKind, inputs: Vec<NetId>) -> NetId {
        debug_assert_eq!(inputs.len(), kind.arity(), "arity mismatch for {kind:?}");
        debug_assert!(inputs.iter().all(|n| n.index() < self.gates.len()));
        let id = NetId(self.gates.len() as u32);
        self.gates.push(Gate { kind, inputs });
        id
    }

    /// Adds a primary input.
    pub fn input(&mut self) -> NetId {
        self.push(GateKind::Input, vec![])
    }

    /// Adds a constant net.
    pub fn constant(&mut self, value: bool) -> NetId {
        self.push(GateKind::Const(value), vec![])
    }

    /// Inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.push(GateKind::Not, vec![a])
    }

    /// 2-input AND.
    pub fn and(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::And, vec![a, b])
    }

    /// 2-input OR.
    pub fn or(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::Or, vec![a, b])
    }

    /// 2-input XOR.
    pub fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::Xor, vec![a, b])
    }

    /// 2:1 mux: `sel ? b : a`.
    pub fn mux(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::Mux, vec![sel, a, b])
    }

    /// Positive-edge D flip-flop on the global clock.
    pub fn dff(&mut self, d: NetId) -> NetId {
        self.push(GateKind::Dff, vec![d])
    }

    /// Replaces a DFF's data input after creation — needed to close
    /// feedback loops (build the state register first, the next-state
    /// logic after).
    ///
    /// # Panics
    ///
    /// Panics if `ff` is not a DFF.
    pub fn connect_dff(&mut self, ff: NetId, d: NetId) {
        assert_eq!(
            self.gates[ff.index()].kind,
            GateKind::Dff,
            "connect_dff target must be a DFF"
        );
        self.gates[ff.index()].inputs = vec![d];
    }

    /// Names a net as a primary output.
    pub fn mark_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// The named outputs.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Looks an output up by name.
    pub fn output(&self, name: &str) -> Option<NetId> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, id)| id)
    }

    /// Number of nets/gates (including inputs and constants).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` when the netlist is empty.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The kind of the gate driving `net`.
    pub fn kind(&self, net: NetId) -> GateKind {
        self.gates[net.index()].kind
    }

    /// The input nets of the gate driving `net`.
    pub fn gate_inputs(&self, net: NetId) -> &[NetId] {
        &self.gates[net.index()].inputs
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> NetlistStats {
        let mut s = NetlistStats::default();
        for g in &self.gates {
            s.transistors += g.kind.transistors();
            match g.kind {
                GateKind::Input => s.inputs += 1,
                GateKind::Const(_) => {}
                GateKind::Dff => s.flip_flops += 1,
                _ => s.combinational += 1,
            }
        }
        s
    }

    /// A bus of `width` fresh primary inputs, LSB first.
    pub fn input_bus(&mut self, width: u32) -> Vec<NetId> {
        (0..width).map(|_| self.input()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transistor_costs() {
        assert_eq!(GateKind::Not.transistors(), 2);
        assert_eq!(GateKind::Xor.transistors(), 10);
        assert_eq!(GateKind::Dff.transistors(), 26);
        assert_eq!(GateKind::Input.transistors(), 0);
    }

    #[test]
    fn build_and_count() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let x = nl.xor(a, b);
        let q = nl.dff(x);
        nl.mark_output("q", q);
        let s = nl.stats();
        assert_eq!(s.inputs, 2);
        assert_eq!(s.combinational, 1);
        assert_eq!(s.flip_flops, 1);
        assert_eq!(s.transistors, 10 + 26);
        assert_eq!(nl.len(), 4);
        assert_eq!(nl.output("q"), Some(q));
        assert_eq!(nl.output("missing"), None);
    }

    #[test]
    fn dff_feedback_connection() {
        let mut nl = Netlist::new();
        let ff = {
            let tmp = nl.constant(false);
            nl.dff(tmp)
        };
        let inv = nl.not(ff);
        nl.connect_dff(ff, inv); // toggle flop
        assert_eq!(nl.kind(ff), GateKind::Dff);
    }

    #[test]
    #[should_panic(expected = "must be a DFF")]
    fn connect_dff_rejects_non_dff() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.not(a);
        nl.connect_dff(b, a);
    }

    #[test]
    fn input_bus_width() {
        let mut nl = Netlist::new();
        let bus = nl.input_bus(16);
        assert_eq!(bus.len(), 16);
        assert!(!nl.is_empty());
        assert_eq!(nl.stats().inputs, 16);
    }
}
