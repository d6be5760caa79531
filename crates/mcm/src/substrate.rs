//! The multi-chip module substrate (paper §2, §3.1, \[Oli96\]).
//!
//! The MCM carries three dies — the Sea-of-Gates die and the two
//! micro-machined fluxgate sensor dies — plus the passives that do not
//! fit on chip: the 12.5 MΩ oscillator reference resistor and any
//! capacitor above 400 pF. [`McmAssembly`] is the module netlist:
//! substrate nets connecting die pads, with injectable manufacturing
//! faults (opens and shorts) for the boundary-scan interconnect test of
//! experiment E10.

use fluxcomp_units::si::{Farad, Ohm};
use std::collections::BTreeMap;

/// A die mounted on the substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Die {
    /// The 200k-transistor Sea-of-Gates die.
    SeaOfGates,
    /// The X-axis fluxgate sensor die.
    SensorX,
    /// The Y-axis fluxgate sensor die.
    SensorY,
}

impl Die {
    /// Every die, in scan-chain order: the Sea-of-Gates die is nearest
    /// TDI.
    pub const CHAIN: [Die; 3] = [Die::SeaOfGates, Die::SensorX, Die::SensorY];
}

/// A passive component realised on the substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubstratePassive {
    /// A thick-film resistor.
    Resistor(Ohm),
    /// A substrate capacitor (> 400 pF per the paper's rule).
    Capacitor(Farad),
}

/// A substrate net: one driver pad, any number of receiver pads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McmNet {
    /// Net name.
    pub name: String,
    /// The driving die (boundary-scan drivable in EXTEST).
    pub driver: Die,
    /// Receiving dies.
    pub receivers: Vec<Die>,
}

/// A manufacturing defect on the substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Net `net` is broken: receivers see a floating (weakly low) value
    /// instead of the driven one.
    Open {
        /// Index of the broken net.
        net: usize,
    },
    /// Nets `a` and `b` are bridged (wired-AND, the usual model for
    /// metal shorts on a substrate).
    Short {
        /// First net.
        a: usize,
        /// Second net.
        b: usize,
    },
}

/// The assembled module.
#[derive(Debug, Clone, PartialEq)]
pub struct McmAssembly {
    nets: Vec<McmNet>,
    passives: Vec<(String, SubstratePassive)>,
    faults: Vec<Fault>,
}

impl McmAssembly {
    /// The paper's module: SoG die + two sensors, with the excitation and
    /// pickup interconnect per sensor (balanced pairs), the oscillator's
    /// 12.5 MΩ reference resistor and a 470 pF supply-decoupling
    /// capacitor on the substrate.
    pub fn paper_module() -> Self {
        let mut nets = Vec::new();
        for (axis, die) in [("x", Die::SensorX), ("y", Die::SensorY)] {
            // Balanced excitation pair: SoG drives the sensor.
            nets.push(McmNet {
                name: format!("exc_{axis}_p"),
                driver: Die::SeaOfGates,
                receivers: vec![die],
            });
            nets.push(McmNet {
                name: format!("exc_{axis}_n"),
                driver: Die::SeaOfGates,
                receivers: vec![die],
            });
            // Pickup pair: sensor drives the SoG detector. For EXTEST the
            // direction only matters for who launches the pattern.
            nets.push(McmNet {
                name: format!("pick_{axis}_p"),
                driver: die,
                receivers: vec![Die::SeaOfGates],
            });
            nets.push(McmNet {
                name: format!("pick_{axis}_n"),
                driver: die,
                receivers: vec![Die::SeaOfGates],
            });
        }
        // The oscillator reference node routed through the substrate R.
        nets.push(McmNet {
            name: "osc_ref".into(),
            driver: Die::SeaOfGates,
            receivers: vec![Die::SeaOfGates],
        });
        Self {
            nets,
            passives: vec![
                (
                    "r_osc_ref".into(),
                    SubstratePassive::Resistor(Ohm::new(12.5e6)),
                ),
                (
                    "c_decouple".into(),
                    SubstratePassive::Capacitor(Farad::new(470e-12)),
                ),
            ],
            faults: Vec::new(),
        }
    }

    /// The substrate nets.
    pub fn nets(&self) -> &[McmNet] {
        &self.nets
    }

    /// The substrate passives.
    pub fn passives(&self) -> &[(String, SubstratePassive)] {
        &self.passives
    }

    /// Die `die`'s boundary register: one cell per net the die drives or
    /// receives, in net order, so cell `k` sits on net `register[k]`.
    /// This one map sizes each die's TAP, lists the BSDL boundary
    /// register and places each net's launch and capture cells.
    pub fn boundary_register(&self, die: Die) -> Vec<usize> {
        (0..self.nets.len())
            .filter(|&i| self.nets[i].driver == die || self.nets[i].receivers.contains(&die))
            .collect()
    }

    /// Injects a fault.
    ///
    /// # Panics
    ///
    /// Panics if a fault references a nonexistent net, or a short bridges
    /// a net with itself.
    pub fn inject(&mut self, fault: Fault) {
        match fault {
            Fault::Open { net } => assert!(net < self.nets.len(), "no such net"),
            Fault::Short { a, b } => {
                assert!(a < self.nets.len() && b < self.nets.len(), "no such net");
                assert_ne!(a, b, "a net cannot short to itself");
            }
        }
        self.faults.push(fault);
    }

    /// Removes all injected faults.
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// Every possible single fault on this module: one open per net and
    /// one short per adjacent net pair (substrate shorts occur between
    /// neighbouring traces).
    pub fn all_single_faults(&self) -> Vec<Fault> {
        let mut out: Vec<Fault> = (0..self.nets.len())
            .map(|net| Fault::Open { net })
            .collect();
        for a in 0..self.nets.len().saturating_sub(1) {
            out.push(Fault::Short { a, b: a + 1 });
        }
        out
    }

    /// Propagates driven values through the (possibly faulty) substrate:
    /// `driven[i]` is what net `i`'s driver launches; the return value is
    /// what net `i`'s receivers observe.
    pub fn propagate(&self, driven: &[bool]) -> Vec<bool> {
        assert_eq!(driven.len(), self.nets.len(), "one value per net");
        // Union shorted nets, then wire-AND within each group.
        let mut group: Vec<usize> = (0..driven.len()).collect();
        fn find(group: &mut [usize], mut i: usize) -> usize {
            while group[i] != i {
                group[i] = group[group[i]];
                i = group[i];
            }
            i
        }
        for f in &self.faults {
            if let Fault::Short { a, b } = *f {
                let ra = find(&mut group, a);
                let rb = find(&mut group, b);
                group[ra] = rb;
            }
        }
        let mut group_value: BTreeMap<usize, bool> = BTreeMap::new();
        for (i, &d) in driven.iter().enumerate() {
            let r = find(&mut group, i);
            let entry = group_value.entry(r).or_insert(true);
            *entry &= d; // wired-AND
        }
        (0..driven.len())
            .map(|i| {
                let is_open = self
                    .faults
                    .iter()
                    .any(|f| matches!(f, Fault::Open { net } if *net == i));
                if is_open {
                    false // broken trace floats weakly low
                } else {
                    let r = find(&mut group, i);
                    group_value[&r]
                }
            })
            .collect()
    }
}

impl Default for McmAssembly {
    fn default() -> Self {
        Self::paper_module()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_module_inventory() {
        let m = McmAssembly::paper_module();
        assert_eq!(m.nets().len(), 9); // 4 per sensor + osc_ref
        assert_eq!(m.passives().len(), 2);
        // The famous 12.5 MΩ resistor is on the substrate.
        assert!(m.passives().iter().any(|(n, p)| n == "r_osc_ref"
            && matches!(p, SubstratePassive::Resistor(r) if (r.value() - 12.5e6).abs() < 1.0)));
        // The decoupling capacitor obeys the > 400 pF rule.
        assert!(m
            .passives()
            .iter()
            .any(|(_, p)| matches!(p, SubstratePassive::Capacitor(c) if c.value() > 400e-12)));
    }

    #[test]
    fn fault_free_propagation_is_identity() {
        let m = McmAssembly::paper_module();
        let driven: Vec<bool> = (0..9).map(|k| k % 3 == 0).collect();
        assert_eq!(m.propagate(&driven), driven);
    }

    #[test]
    fn open_floats_low() {
        let mut m = McmAssembly::paper_module();
        m.inject(Fault::Open { net: 2 });
        let driven = vec![true; 9];
        let seen = m.propagate(&driven);
        assert!(!seen[2]);
        assert!(seen.iter().enumerate().all(|(i, &v)| v || i == 2));
    }

    #[test]
    fn short_wire_ands_the_pair() {
        let mut m = McmAssembly::paper_module();
        m.inject(Fault::Short { a: 0, b: 1 });
        let mut driven = vec![true; 9];
        driven[1] = false;
        let seen = m.propagate(&driven);
        assert!(!seen[0], "net 0 pulled low by shorted net 1");
        assert!(!seen[1]);
        // Opposite pattern also detected.
        driven[0] = false;
        driven[1] = true;
        let seen = m.propagate(&driven);
        assert!(!seen[1]);
    }

    #[test]
    fn transitive_shorts_group() {
        let mut m = McmAssembly::paper_module();
        m.inject(Fault::Short { a: 0, b: 1 });
        m.inject(Fault::Short { a: 1, b: 2 });
        let mut driven = vec![true; 9];
        driven[2] = false;
        let seen = m.propagate(&driven);
        assert!(!seen[0] && !seen[1] && !seen[2]);
    }

    #[test]
    fn boundary_registers_cover_each_die_pads() {
        let m = McmAssembly::paper_module();
        let lengths = Die::CHAIN.map(|die| m.boundary_register(die).len());
        assert_eq!(lengths, [9, 4, 4]);
        assert_eq!(m.boundary_register(Die::SensorY), [4, 5, 6, 7]);
    }

    #[test]
    fn single_fault_universe() {
        let m = McmAssembly::paper_module();
        let faults = m.all_single_faults();
        assert_eq!(faults.len(), 9 + 8);
    }

    #[test]
    fn clear_faults_restores_identity() {
        let mut m = McmAssembly::paper_module();
        m.inject(Fault::Open { net: 0 });
        m.clear_faults();
        assert!(m.faults.is_empty());
        let driven = vec![true; 9];
        assert_eq!(m.propagate(&driven), driven);
    }

    #[test]
    #[should_panic(expected = "no such net")]
    fn bad_fault_rejected() {
        let mut m = McmAssembly::paper_module();
        m.inject(Fault::Open { net: 99 });
    }

    #[test]
    #[should_panic(expected = "short to itself")]
    fn self_short_rejected() {
        let mut m = McmAssembly::paper_module();
        m.inject(Fault::Short { a: 1, b: 1 });
    }
}
