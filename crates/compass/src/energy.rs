//! Battery-life estimation for the compass watch.
//!
//! The paper's power levers (multiplexing, enable gating, supply
//! scaling) exist because the target is a *watch*: a CR2025-class coin
//! cell. This module turns the `afe` power model plus a fix schedule
//! into the number a product manager would ask for — years of battery
//! life — and quantifies what each lever buys.

use fluxcomp_afe::power::{PowerModel, Schedule};
use fluxcomp_units::si::Seconds;

/// A coin cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    /// Capacity in milliamp-hours.
    pub capacity_mah: f64,
    /// Nominal voltage.
    pub voltage: f64,
}

impl Battery {
    /// A CR2025 lithium coin cell: 160 mAh at 3 V.
    pub fn cr2025() -> Self {
        Self {
            capacity_mah: 160.0,
            voltage: 3.0,
        }
    }

    /// The stored energy in joules.
    pub fn energy_joules(&self) -> f64 {
        self.capacity_mah * 1e-3 * 3600.0 * self.voltage
    }
}

/// The watch's usage profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageProfile {
    /// Compass fixes per day.
    pub fixes_per_day: f64,
    /// Excitation periods per fix per axis.
    pub periods_per_axis: u32,
    /// Excitation frequency (Hz).
    pub excitation_hz: f64,
}

impl UsageProfile {
    /// A hiker's day: a fix every 10 seconds for 2 hours, plus
    /// occasional glances — ~1000 fixes/day.
    pub fn hiker() -> Self {
        Self {
            fixes_per_day: 1_000.0,
            periods_per_axis: 8,
            excitation_hz: 8_000.0,
        }
    }

    /// Continuous compass mode: one fix per second, all day.
    pub fn continuous() -> Self {
        Self {
            fixes_per_day: 86_400.0,
            ..Self::hiker()
        }
    }

    /// The fraction of each day the measurement chain is active.
    pub fn measurement_duty(&self) -> f64 {
        let fix_seconds = 2.0 * self.periods_per_axis as f64 / self.excitation_hz;
        (self.fixes_per_day * fix_seconds / 86_400.0).min(1.0)
    }
}

/// Estimated battery life for a power model, schedule template and
/// usage profile.
///
/// Returns the life in days.
pub fn battery_life_days(power: &PowerModel, profile: &UsageProfile, battery: &Battery) -> f64 {
    let schedule = Schedule::duty_cycled(profile.measurement_duty());
    let avg_watts = power.average_power(&schedule).value();
    let seconds = battery.energy_joules() / avg_watts;
    Seconds::new(seconds).value() / 86_400.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_energy() {
        // 160 mAh × 3 V = 1728 J.
        let e = Battery::cr2025().energy_joules();
        assert!((e - 1_728.0).abs() < 1e-9);
    }

    #[test]
    fn hiker_profile_duty_is_tiny() {
        let duty = UsageProfile::hiker().measurement_duty();
        // 1000 fixes × 2 ms / 86400 s ≈ 2.3e-5.
        assert!((duty - 1_000.0 * 2e-3 / 86_400.0).abs() < 1e-9);
        assert!(duty < 1e-4);
    }

    #[test]
    fn gated_hiker_watch_lasts_months() {
        // The headline the paper's power story buys: with enable gating
        // the life is set by the always-on watch/LCD floor (~80 µW at
        // 5 V), not by the compass — months on a small cell.
        let pm = PowerModel::at_5v();
        let small = battery_life_days(&pm, &UsageProfile::hiker(), &Battery::cr2025());
        assert!(small > 180.0, "hiker life {small} days on CR2025");
    }

    #[test]
    fn continuous_mode_sits_in_between() {
        let pm = PowerModel::at_5v();
        let battery = Battery::cr2025();
        let hiker = battery_life_days(&pm, &UsageProfile::hiker(), &battery);
        let continuous = battery_life_days(&pm, &UsageProfile::continuous(), &battery);
        // Without the enable gating the analogue section and counter are
        // always on: ~26 mW kills a 1728 J cell in under a day — the
        // quantitative version of §4's justification.
        let always_watts = pm.average_power(&Schedule::paper_multiplexed()).value();
        let always = battery.energy_joules() / always_watts / 86_400.0;
        assert!(always < 2.0, "always-on life {always} days");
        assert!(continuous < hiker);
        assert!(continuous > always);
    }

    #[test]
    fn low_voltage_supply_extends_life() {
        let battery = Battery::cr2025();
        let profile = UsageProfile::continuous();
        let life_5v = battery_life_days(&PowerModel::at_5v(), &profile, &battery);
        let life_35 = battery_life_days(&PowerModel::at_3v5(), &profile, &battery);
        assert!(life_35 > life_5v, "{life_35} vs {life_5v}");
    }

    #[test]
    fn duty_clamps_at_continuous_measurement() {
        let mut p = UsageProfile::continuous();
        p.fixes_per_day = 1e9; // absurd
        assert_eq!(p.measurement_duty(), 1.0);
    }
}
