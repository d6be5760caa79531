//! The voltage-to-current converters driving the sensors (paper §3.1).
//!
//! The paper's design points:
//!
//! * the sensors have a **high series resistance**, so the converter uses
//!   a **balanced differential output** — each side only needs to swing
//!   half the compliance voltage;
//! * with a 5 V supply, "sensors with a resistance as high as **800 Ω**
//!   can be driven" at the 12 mA p-p excitation level;
//! * "the resistive character of the sensors is used to **linearise** the
//!   excitation current sources".
//!
//! [`ViConverter`] models exactly these properties: a transconductance
//! stage with the balanced output's compliance set by supply and
//! headroom, and hard clipping when compliance is exceeded.

use fluxcomp_units::si::{Ampere, Ohm, Volt};

/// A V-I converter channel (one per sensor; two in the system).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViConverter {
    /// Supply voltage (5 V in the paper, scalable to 3.5 V).
    pub supply: Volt,
    /// Saturation headroom each output transistor needs.
    pub headroom: Volt,
}

impl ViConverter {
    /// The paper's converter: 5 V supply, balanced differential,
    /// 0.2 V headroom per side.
    pub fn paper_design() -> Self {
        Self {
            supply: Volt::new(5.0),
            headroom: Volt::new(0.2),
        }
    }

    /// The maximum voltage the converter can place across the load. The
    /// output is balanced differential, so both rails contribute
    /// headroom: `V_dd − 2·V_headroom`.
    pub fn compliance(&self) -> Volt {
        self.supply - self.headroom * 2.0
    }

    /// The largest peak current that can be forced through `load`.
    pub fn max_current(&self, load: Ohm) -> Ampere {
        self.compliance() / load
    }

    /// Drives `demanded` current through `load`, clipping at the
    /// compliance limit. Returns the actual current delivered.
    ///
    /// Inside compliance the converter is ideal (the sensor's resistive
    /// character linearises it, per the paper); outside it clamps.
    pub fn drive(&self, demanded: Ampere, load: Ohm) -> Ampere {
        let limit = self.max_current(load).value();
        Ampere::new(demanded.value().clamp(-limit, limit))
    }

    /// `true` if `demanded` would clip on `load`.
    pub fn clips(&self, demanded: Ampere, load: Ohm) -> bool {
        demanded.value().abs() > self.max_current(load).value()
    }
}

impl Default for ViConverter {
    fn default() -> Self {
        Self::paper_design()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_drives_800_ohm_sensor() {
        // The paper's claim: at 5 V, sensors up to 800 Ω can be driven
        // (12 mA p-p = ±6 mA peak).
        let vi = ViConverter::paper_design();
        let r_max = vi.compliance() / Ampere::new(6e-3);
        assert!(
            r_max.value() >= 766.0,
            "r_max = {r_max} — should be around 800 Ω"
        );
        assert!(!vi.clips(Ampere::new(6e-3), Ohm::new(760.0)));
    }

    #[test]
    fn low_voltage_supply_still_drives_77_ohm_kaw95() {
        // At 3.5 V the measured [Kaw95] sensor (77 Ω) is still drivable…
        let vi = ViConverter {
            supply: Volt::new(3.5),
            ..ViConverter::paper_design()
        };
        assert!(!vi.clips(Ampere::new(6e-3), Ohm::new(77.0)));
        // …but the 800 Ω headline no longer holds.
        assert!(vi.clips(Ampere::new(6e-3), Ohm::new(800.0)));
    }

    #[test]
    fn drive_is_linear_inside_compliance() {
        let vi = ViConverter::paper_design();
        for ma in [-6.0, -3.0, 0.0, 2.5, 6.0] {
            let i = Ampere::new(ma * 1e-3);
            assert_eq!(vi.drive(i, Ohm::new(77.0)), i);
        }
    }

    #[test]
    fn drive_clips_symmetrically() {
        let vi = ViConverter::paper_design();
        let load = Ohm::new(2_000.0);
        let lim = vi.max_current(load);
        assert_eq!(vi.drive(Ampere::new(10e-3), load), lim);
        assert_eq!(vi.drive(Ampere::new(-10e-3), load), -lim);
    }

    #[test]
    fn compliance_arithmetic() {
        let vi = ViConverter::paper_design();
        assert!((vi.compliance().value() - 4.6).abs() < 1e-12);
    }

    #[test]
    fn default_is_paper_design() {
        assert_eq!(ViConverter::default(), ViConverter::paper_design());
    }
}
