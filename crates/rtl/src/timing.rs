//! Static timing analysis of the gate-level netlists.
//!
//! The paper's counter runs at 4.194304 MHz and the CORDIC takes "8
//! cycles" — claims that are only implementable if the synthesised
//! datapaths *close timing* on mid-90s Sea-of-Gates gates. This module
//! is the STA-lite that checks it: per-gate-kind delays, longest
//! register-to-register (and input-to-register/output) combinational
//! path by levelised traversal, and the resulting maximum clock
//! frequency.
//!
//! Delay numbers are loaded 2-input gates in a 0.7–1 µm CMOS gate array
//! (FO2-ish): ~0.8 ns for simple gates, ~1.5 ns for XOR/MUX, 1.2 ns
//! clock-to-Q plus 0.5 ns setup for the DFFs.

use crate::gates::{GateKind, NetId, Netlist};
use fluxcomp_units::si::Hertz;

/// Per-kind gate delays, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayModel {
    /// Inverter.
    pub not_ns: f64,
    /// AND/OR (NAND/NOR + inverter).
    pub and_or_ns: f64,
    /// XOR.
    pub xor_ns: f64,
    /// 2:1 mux.
    pub mux_ns: f64,
    /// Flip-flop clock-to-Q.
    pub clk_to_q_ns: f64,
    /// Flip-flop setup time.
    pub setup_ns: f64,
}

impl DelayModel {
    /// The mid-90s Sea-of-Gates numbers described in the module docs.
    pub fn sog_1um() -> Self {
        Self {
            not_ns: 0.5,
            and_or_ns: 1.1,
            xor_ns: 1.5,
            mux_ns: 1.5,
            clk_to_q_ns: 1.2,
            setup_ns: 0.5,
        }
    }

    /// Propagation delay of one gate kind (zero for inputs/constants;
    /// DFFs contribute via clock-to-Q at path starts instead).
    pub fn gate_delay_ns(&self, kind: GateKind) -> f64 {
        match kind {
            GateKind::Input | GateKind::Const(_) | GateKind::Dff => 0.0,
            GateKind::Not => self.not_ns,
            GateKind::And | GateKind::Or => self.and_or_ns,
            GateKind::Xor => self.xor_ns,
            GateKind::Mux => self.mux_ns,
        }
    }
}

impl Default for DelayModel {
    fn default() -> Self {
        Self::sog_1um()
    }
}

/// The timing report of one netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Longest combinational path delay (ns), including clock-to-Q at
    /// the launching register and setup at the capturing one when the
    /// path is register-to-register.
    pub critical_path_ns: f64,
    /// The nets on the critical path, source to sink.
    pub critical_path: Vec<NetId>,
    /// The maximum clock frequency implied by the critical path.
    pub fmax: Hertz,
    /// Logic depth (gate count) of the critical path.
    pub depth: u32,
}

impl TimingReport {
    /// `true` when the netlist closes timing at `clock`.
    pub fn meets(&self, clock: Hertz) -> bool {
        self.fmax.value() >= clock.value()
    }
}

/// Runs static timing analysis on a netlist.
///
/// Arrival times: inputs and constants start at 0; DFF outputs start at
/// clock-to-Q. Every combinational gate adds its delay on top of its
/// latest input. The critical path is the maximum arrival at any DFF
/// data input (plus setup) or any marked output. Netlists built by the
/// `synth` builders are acyclic through combinational gates, which the
/// traversal relies on (gates only reference earlier nets; DFF feedback
/// goes through registers).
pub fn analyze(netlist: &Netlist, delays: &DelayModel) -> TimingReport {
    let n = netlist.len();
    let mut arrival = vec![0.0f64; n];
    let mut pred: Vec<Option<NetId>> = vec![None; n];
    let mut depth = vec![0u32; n];
    for idx in 0..n {
        let id = NetId::from_index(idx);
        match netlist.kind(id) {
            GateKind::Input | GateKind::Const(_) => {}
            GateKind::Dff => arrival[idx] = delays.clk_to_q_ns,
            kind => {
                let mut worst = 0.0;
                let mut worst_in = None;
                for &input in netlist.gate_inputs(id) {
                    if arrival[input.index()] >= worst {
                        worst = arrival[input.index()];
                        worst_in = Some(input);
                    }
                }
                arrival[idx] = worst + delays.gate_delay_ns(kind);
                pred[idx] = worst_in;
                depth[idx] = worst_in.map(|i| depth[i.index()] + 1).unwrap_or(1);
            }
        }
    }
    // Endpoints: DFF data inputs (+setup) and marked outputs.
    let mut worst = 0.0f64;
    let mut endpoint: Option<NetId> = None;
    for idx in 0..n {
        let id = NetId::from_index(idx);
        if netlist.kind(id) == GateKind::Dff {
            let d = netlist.gate_inputs(id)[0];
            let t = arrival[d.index()] + delays.setup_ns;
            if t > worst {
                worst = t;
                endpoint = Some(d);
            }
        }
    }
    for (_, net) in netlist.outputs() {
        let t = arrival[net.index()];
        if t > worst {
            worst = t;
            endpoint = Some(*net);
        }
    }
    // Trace the path back.
    let mut path = Vec::new();
    let mut cursor = endpoint;
    while let Some(id) = cursor {
        path.push(id);
        cursor = pred[id.index()];
    }
    path.reverse();
    let critical_depth = endpoint.map(|e| depth[e.index()]).unwrap_or(0);
    let fmax = if worst > 0.0 {
        Hertz::new(1e9 / worst)
    } else {
        Hertz::new(f64::INFINITY)
    };
    TimingReport {
        critical_path_ns: worst,
        critical_path: path,
        fmax,
        depth: critical_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cordic_netlist::cordic_kernel_netlist;
    use crate::synth::{ripple_adder, updown_counter};

    #[test]
    fn inverter_chain_depth_and_delay() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let mut x = a;
        for _ in 0..10 {
            x = nl.not(x);
        }
        nl.mark_output("out", x);
        let report = analyze(&nl, &DelayModel::sog_1um());
        assert_eq!(report.depth, 10);
        assert!((report.critical_path_ns - 5.0).abs() < 1e-9);
        assert_eq!(report.critical_path.len(), 11); // input + 10 gates
    }

    #[test]
    fn the_papers_counter_closes_timing_at_2_22_hz() {
        // The headline check: the 16-bit up/down counter must run at
        // 4.194304 MHz (238 ns period) on 1-µm SoG gates.
        let (nl, _, _) = updown_counter(16);
        let report = analyze(&nl, &DelayModel::sog_1um());
        let clock = Hertz::new(4_194_304.0);
        assert!(
            report.meets(clock),
            "counter fmax {:.1} MHz < 4.194304 MHz (path {:.1} ns)",
            report.fmax.value() / 1e6,
            report.critical_path_ns
        );
        // And the margin is comfortable but not absurd (ripple carry!).
        assert!(
            report.critical_path_ns > 20.0,
            "{}",
            report.critical_path_ns
        );
    }

    #[test]
    fn iterated_cordic_stage_is_fast_enough_but_unrolled_is_not() {
        // One micro-rotation (what the paper iterates 8x) must fit a
        // 238 ns cycle; the fully unrolled 8-stage kernel must NOT —
        // that asymmetry is exactly why the paper iterates.
        let one_stage = {
            let (nl, ..) = crate::synth::cordic_step(24, 3);
            analyze(&nl, &DelayModel::sog_1um())
        };
        let clock = Hertz::new(4_194_304.0);
        assert!(
            one_stage.meets(clock),
            "single stage path {:.1} ns",
            one_stage.critical_path_ns
        );
        let unrolled = analyze(
            &cordic_kernel_netlist(24, 18, 8).netlist,
            &DelayModel::sog_1um(),
        );
        assert!(
            unrolled.critical_path_ns > one_stage.critical_path_ns * 4.0,
            "unrolled {:.1} ns vs stage {:.1} ns",
            unrolled.critical_path_ns,
            one_stage.critical_path_ns
        );
    }

    #[test]
    fn wider_adders_are_slower() {
        let path = |w: u32| {
            let mut nl = Netlist::new();
            let a = nl.input_bus(w);
            let b = nl.input_bus(w);
            let s = ripple_adder(&mut nl, &a, &b);
            for (i, &bit) in s.iter().enumerate() {
                nl.mark_output(format!("s{i}"), bit);
            }
            analyze(&nl, &DelayModel::sog_1um()).critical_path_ns
        };
        assert!(path(16) > path(8));
        assert!(path(32) > path(16));
    }

    #[test]
    fn pure_register_netlist_has_flop_bound_path() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let q1 = nl.dff(a);
        let _q2 = nl.dff(q1);
        let report = analyze(&nl, &DelayModel::sog_1um());
        // clk-to-Q + setup, no logic.
        assert!((report.critical_path_ns - 1.7).abs() < 1e-9);
        assert_eq!(report.depth, 0);
    }

    #[test]
    fn empty_netlist_is_infinitely_fast() {
        let nl = Netlist::new();
        let report = analyze(&nl, &DelayModel::sog_1um());
        assert!(report.fmax.value().is_infinite());
        assert!(report.critical_path.is_empty());
    }
}
