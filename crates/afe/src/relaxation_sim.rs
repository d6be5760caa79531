//! Circuit-level transient simulation of the relaxation oscillator.
//!
//! [`crate::oscillator::RelaxationOscillator`] computes the frequency
//! analytically from the paper's component values. This module *runs*
//! the circuit instead: the 10 pF capacitor is integrated through time
//! with the reference current steered by the window comparator, using
//! the `msim` ODE solver — the ELDO-style verification that the analytic
//! 8 kHz really emerges from `10 pF × 12.5 MΩ` plus the threshold
//! window, including comparator delay (which real oscillators run
//! *slow* by).

use crate::oscillator::RelaxationOscillator;
use fluxcomp_msim::solver::OdeSolver;
use fluxcomp_msim::time::SimTime;
use fluxcomp_msim::trace::{Trace, TraceSet};
use fluxcomp_units::si::{Hertz, Seconds};

/// Result of a transient oscillator run.
#[derive(Debug, Clone)]
pub struct RelaxationRun {
    /// The capacitor-voltage waveform.
    pub traces: TraceSet,
    /// Frequency measured from the waveform's rising threshold
    /// crossings (`None` if fewer than two full cycles completed).
    pub measured_frequency: Option<Hertz>,
}

/// Simulates the oscillator for `duration`, with an explicit comparator
/// propagation delay (0 for the ideal case).
///
/// # Panics
///
/// Panics if `dt` or `duration` is not positive.
pub fn simulate_relaxation(
    osc: &RelaxationOscillator,
    comparator_delay: Seconds,
    duration: Seconds,
    dt: Seconds,
) -> RelaxationRun {
    assert!(dt.value() > 0.0, "dt must be positive");
    assert!(duration.value() > 0.0, "duration must be positive");
    let i_ref = osc.reference_current().value();
    let c = osc.capacitor.value();
    let v_low = osc.v_low.value();
    let v_high = osc.v_high.value();
    let delay_steps = (comparator_delay.value() / dt.value()).round() as u64;

    let mut solver = OdeSolver::new(1);
    // Start at the lower threshold, charging.
    let mut v = [v_low];
    let mut charging = true;
    // Pending comparator decision: steps until the direction flips.
    let mut flip_countdown: Option<u64> = None;

    let mut traces = TraceSet::new();
    let ch = traces.add("v_cap");
    let steps = (duration.value() / dt.value()).ceil() as u64;
    let mut t = 0.0;
    for k in 0..steps {
        traces.record(ch, SimTime::from_seconds(Seconds::new(t)), v[0]);
        // Comparator: schedule a flip `delay_steps` after the crossing.
        if flip_countdown.is_none() {
            let crossed = if charging {
                v[0] >= v_high
            } else {
                v[0] <= v_low
            };
            if crossed {
                flip_countdown = Some(delay_steps);
            }
        }
        if let Some(n) = flip_countdown {
            if n == 0 {
                charging = !charging;
                flip_countdown = None;
            } else {
                flip_countdown = Some(n - 1);
            }
        }
        // Integrate dv/dt = ±I/C.
        let slope = if charging { i_ref / c } else { -i_ref / c };
        solver.step(t, dt.value(), &mut v, |_t, _y, dy| dy[0] = slope);
        t = (k + 1) as f64 * dt.value();
    }
    solver.publish_obs();

    let measured_frequency =
        measure_frequency(traces.by_name("v_cap").expect("recorded"), v_low, v_high);
    RelaxationRun {
        traces,
        measured_frequency,
    }
}

/// Measures the oscillation frequency from the mid-threshold rising
/// crossings of the capacitor waveform.
fn measure_frequency(trace: &Trace, v_low: f64, v_high: f64) -> Option<Hertz> {
    let mid = (v_low + v_high) / 2.0;
    let crossings = trace.crossings(mid, true);
    if crossings.len() < 3 {
        return None;
    }
    // Average period over all full cycles, skipping the first (startup).
    let first = crossings[1];
    let last = *crossings.last()?;
    let cycles = (crossings.len() - 2) as f64;
    let period = (last - first).as_secs_f64() / cycles;
    Some(Hertz::new(1.0 / period))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_circuit_oscillates_at_8khz() {
        let osc = RelaxationOscillator::paper_values();
        let run = simulate_relaxation(
            &osc,
            Seconds::ZERO,
            Seconds::new(2e-3), // 16 nominal periods
            Seconds::new(20e-9),
        );
        let f = run.measured_frequency.expect("oscillates").value();
        assert!(
            (f - 8_000.0).abs() < 40.0,
            "measured {f} Hz, expected ≈8000"
        );
    }

    #[test]
    fn waveform_stays_inside_thresholds() {
        let osc = RelaxationOscillator::paper_values();
        let run = simulate_relaxation(&osc, Seconds::ZERO, Seconds::new(1e-3), Seconds::new(20e-9));
        let (lo, hi) = run.traces.by_name("v_cap").unwrap().value_range().unwrap();
        // One integration step of overshoot is allowed.
        let step_v = 200e-9 / 10e-12 * 20e-9; // I/C × dt = 40 mV
        assert!(lo >= osc.v_low.value() - 2.0 * step_v, "lo = {lo}");
        assert!(hi <= osc.v_high.value() + 2.0 * step_v, "hi = {hi}");
    }

    #[test]
    fn comparator_delay_slows_the_oscillator() {
        let osc = RelaxationOscillator::paper_values();
        let ideal =
            simulate_relaxation(&osc, Seconds::ZERO, Seconds::new(2e-3), Seconds::new(20e-9))
                .measured_frequency
                .unwrap();
        let delayed = simulate_relaxation(
            &osc,
            Seconds::new(2e-6), // a slow comparator
            Seconds::new(2e-3),
            Seconds::new(20e-9),
        )
        .measured_frequency
        .unwrap();
        assert!(
            delayed.value() < ideal.value(),
            "delay should slow it: {delayed} vs {ideal}"
        );
        // Each half period stretches by 2·delay: the comparator reacts
        // `delay` late, and the overshoot it allowed must be retraced,
        // costing another `delay` — so f ≈ 1/(T + 4·delay).
        let expect = 1.0 / (1.0 / ideal.value() + 4.0 * 2e-6);
        assert!(
            (delayed.value() - expect).abs() < 0.03 * expect,
            "{delayed} vs {expect}"
        );
    }

    #[test]
    fn larger_capacitor_oscillates_slower() {
        let mut osc = RelaxationOscillator::paper_values();
        osc.capacitor *= 2.0;
        let run = simulate_relaxation(&osc, Seconds::ZERO, Seconds::new(2e-3), Seconds::new(20e-9));
        let f = run.measured_frequency.unwrap().value();
        assert!((f - 4_000.0).abs() < 40.0, "doubled C: {f} Hz");
    }

    #[test]
    fn too_short_run_reports_no_frequency() {
        let osc = RelaxationOscillator::paper_values();
        let run = simulate_relaxation(
            &osc,
            Seconds::ZERO,
            Seconds::new(50e-6), // less than half a period
            Seconds::new(20e-9),
        );
        assert!(run.measured_frequency.is_none());
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_rejected() {
        let osc = RelaxationOscillator::paper_values();
        let _ = simulate_relaxation(&osc, Seconds::ZERO, Seconds::new(1e-3), Seconds::ZERO);
    }
}
