//! The compass fix computed through the **gate-level** digital section —
//! RTL-in-the-loop, the reproduction's strongest equivalence statement.
//!
//! [`GateLevelCompass`] replaces the behavioural counter and CORDIC with
//! the synthesised netlists running on the event-driven gate simulator:
//! the detector stream clocks the real up/down-counter netlist edge by
//! edge, and the two integers go through the unrolled Fig. 8 kernel
//! netlist plus a software quadrant fold. A test asserts the result is
//! **bit-identical** to [`CompassDesign`] — the digital section's
//! implementation is the specification.

use crate::config::{BuildError, CompassConfig};
use crate::system::CompassDesign;
use fluxcomp_rtl::atan_rom::{AtanRom, ANGLE_SCALE};
use fluxcomp_rtl::cordic_netlist::{cordic_kernel_netlist, CordicKernelNets};
use fluxcomp_rtl::netsim::GateSim;
use fluxcomp_rtl::synth::updown_counter;
use fluxcomp_units::angle::Degrees;
use fluxcomp_units::magnetics::AmperePerMeter;

/// A compass whose digital section runs at gate level.
#[derive(Debug, Clone)]
pub struct GateLevelCompass {
    design: CompassDesign,
    cordic_nets: CordicKernelNets,
    /// The kernel simulator at power-on, cloned for every fix.
    cordic_sim: GateSim,
}

/// One gate-level fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateLevelReading {
    /// The heading.
    pub heading: Degrees,
    /// Gate-level counter outputs (sign-corrected, ∝ field).
    pub x: i64,
    /// Gate-level counter outputs (sign-corrected, ∝ field).
    pub y: i64,
    /// Gate-evaluation events spent on this fix (activity proxy), counted
    /// from power-on of the counter and kernel simulators.
    pub gate_events: u64,
}

impl GateLevelCompass {
    /// Builds the gate-level system from the same configuration as the
    /// behavioural [`CompassDesign`].
    ///
    /// # Errors
    ///
    /// Same validation as [`CompassDesign::new`]. The CORDIC iteration
    /// count is fixed at the paper's 8 (the kernel netlist is built for
    /// it).
    pub fn new(config: CompassConfig) -> Result<Self, BuildError> {
        let got = config.cordic_iterations;
        let design = CompassDesign::new(config)?;
        if got != 8 {
            return Err(BuildError::BadCordicIterations { got });
        }
        let cordic_nets = cordic_kernel_netlist(24, 18, 8);
        Ok(Self {
            design,
            cordic_sim: GateSim::new(cordic_nets.netlist.clone()),
            cordic_nets,
        })
    }

    /// Runs one axis's field through the front-end and the gate-level
    /// counter, clocking the netlist once per master-clock edge. Returns
    /// the count and the gate events spent.
    fn measure_axis_gate_level(&self, h_ext: AmperePerMeter) -> (i64, u64) {
        let noise_seed = self.design.config().frontend.noise_seed;
        // The counter netlist has no reset pin (matching the paper-era
        // minimal counter): each axis gets a fresh simulator, which powers
        // up at zero like silicon after POR.
        let (counter_nl, up, bus) = updown_counter(16);
        let mut sim = GateSim::new(counter_nl);
        self.design.clock_edges(h_ext, noise_seed, |bit| {
            sim.set_input(up, bit);
            sim.settle();
            sim.clock_edge();
        });
        (sim.bus_value_signed(&bus), sim.events())
    }

    /// One full fix through the gate-level digital section.
    pub fn measure_heading(&self, true_heading: Degrees) -> GateLevelReading {
        let (hx, hy) = self.design.axial_fields(true_heading);
        let (x, ev_x) = self.measure_axis_gate_level(hx);
        let (y, ev_y) = self.measure_axis_gate_level(hy);
        let (x, y) = (-x, -y);
        let mut cordic = self.cordic_sim.clone();

        // Quadrant fold in "hardware-trivial" logic (sign decode), then
        // the gate-level first-quadrant kernel.
        let heading = if x == 0 && y == 0 {
            Degrees::ZERO
        } else {
            cordic.set_bus(&self.cordic_nets.x_in, x.abs());
            cordic.set_bus(&self.cordic_nets.y_in, y.abs());
            cordic.settle();
            let q8 = cordic.bus_value_signed(&self.cordic_nets.angle_out);
            let folded = match (x >= 0, y >= 0) {
                (true, true) => q8,
                (false, true) => 180 * ANGLE_SCALE - q8,
                (false, false) => 180 * ANGLE_SCALE + q8,
                (true, false) => 360 * ANGLE_SCALE - q8,
            }
            .rem_euclid(360 * ANGLE_SCALE);
            Degrees::new(AtanRom::to_degrees(folded)).normalized()
        };
        GateLevelReading {
            heading,
            x,
            y,
            gate_events: ev_x + ev_y + cordic.events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_level_fix_is_bit_identical_to_behavioral() {
        let behavioral = CompassDesign::new(CompassConfig::paper_design()).expect("valid");
        let gate_level = GateLevelCompass::new(CompassConfig::paper_design()).expect("valid");
        for deg in [0.0, 33.0, 123.0, 200.0, 300.0, 359.0] {
            let truth = Degrees::new(deg);
            let b = behavioral.measure_heading(truth);
            let g = gate_level.measure_heading(truth);
            assert_eq!(g.x, -b.x.count, "x at {deg}");
            assert_eq!(g.y, -b.y.count, "y at {deg}");
            // x == 0 cases take the behavioural 90°-shortcut vs. the
            // netlist's iterated value; both are within the residual —
            // everywhere else the heading must match exactly.
            if g.x != 0 && g.y != 0 {
                assert_eq!(g.heading, b.heading, "heading at {deg}");
            } else {
                assert!(
                    g.heading.angular_distance(b.heading).value() < 0.5,
                    "degenerate axis at {deg}: {} vs {}",
                    g.heading,
                    b.heading
                );
            }
        }
    }

    #[test]
    fn gate_level_meets_the_one_degree_claim_alone() {
        let c = GateLevelCompass::new(CompassConfig::paper_design()).expect("valid");
        for deg in [45.0, 137.0, 222.0, 313.0] {
            let truth = Degrees::new(deg);
            let got = c.measure_heading(truth);
            assert!(
                got.heading.angular_distance(truth).value() <= 1.0,
                "at {deg}: {}",
                got.heading
            );
        }
    }

    #[test]
    fn activity_is_reported() {
        let c = GateLevelCompass::new(CompassConfig::paper_design()).expect("valid");
        let r = c.measure_heading(Degrees::new(77.0));
        // Thousands of clocked counter evaluations plus the kernel.
        assert!(r.gate_events > 10_000, "events {}", r.gate_events);
    }

    #[test]
    fn identical_fixes_spend_identical_gate_events() {
        let truth = Degrees::new(77.0);
        let fresh = GateLevelCompass::new(CompassConfig::paper_design())
            .expect("valid")
            .measure_heading(truth);
        let c = GateLevelCompass::new(CompassConfig::paper_design()).expect("valid");
        for fix in 0..3 {
            assert_eq!(c.measure_heading(truth), fresh, "fix {fix}");
        }
    }

    #[test]
    fn non_paper_iteration_count_rejected() {
        let mut cfg = CompassConfig::paper_design();
        cfg.cordic_iterations = 12;
        assert!(matches!(
            GateLevelCompass::new(cfg),
            Err(BuildError::BadCordicIterations { got: 12 })
        ));
    }
}
