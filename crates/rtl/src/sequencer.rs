//! The control logic / measurement sequencer (paper §4).
//!
//! "The digital control logic has two main functions. It enables the
//! analogue section and the digital high speed up-down counter only when
//! they are needed, in order to diminish the power consumption further,
//! and it controls the multiplexing of the two sensors."
//!
//! [`Sequencer`] is that FSM: it walks a compass fix through
//! `MeasureX → MeasureY → Compute → Display`; the state names the one
//! sensor and the blocks that are powered, and
//! [`Sequencer::analog_duty_per_fix`] is what the power model consumes.

/// The FSM states of one compass fix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SequencerState {
    /// Everything but the watch is powered down.
    #[default]
    Idle,
    /// The X sensor is excited and the counter accumulates.
    MeasureX,
    /// The Y sensor is excited and the counter accumulates.
    MeasureY,
    /// The CORDIC computes the heading (8 cycles).
    Compute,
    /// The result is latched to the display driver.
    Display,
}

/// The measurement sequencer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequencer {
    state: SequencerState,
    /// Excitation periods to integrate per axis.
    periods_per_axis: u32,
    /// Progress within the current measurement, in periods.
    periods_done: u32,
    /// CORDIC cycles remaining in `Compute`.
    compute_cycles_left: u32,
}

impl Sequencer {
    /// Creates a sequencer integrating `periods_per_axis` excitation
    /// periods per sensor (the reproduction default is 4) and taking
    /// `cordic_cycles` for the computation (8 in the paper).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(periods_per_axis: u32, cordic_cycles: u32) -> Self {
        assert!(periods_per_axis > 0, "need at least one period per axis");
        assert!(cordic_cycles > 0, "need at least one compute cycle");
        Self {
            state: SequencerState::Idle,
            periods_per_axis,
            periods_done: 0,
            compute_cycles_left: cordic_cycles,
        }
    }

    /// The reproduction's default schedule: 4 periods per axis, 8 CORDIC
    /// cycles.
    pub fn paper_design() -> Self {
        Self::new(4, 8)
    }

    /// Current state.
    pub fn state(&self) -> SequencerState {
        self.state
    }

    /// Periods integrated per axis.
    pub fn periods_per_axis(&self) -> u32 {
        self.periods_per_axis
    }

    /// Kicks off a fix from `Idle` (or restarts from `Display`).
    /// No effect mid-measurement.
    pub fn start_fix(&mut self) {
        if matches!(self.state, SequencerState::Idle | SequencerState::Display) {
            self.state = SequencerState::MeasureX;
            self.periods_done = 0;
        }
    }

    /// Advances the FSM by one *event*: an excitation period completing
    /// (in the measure states) or a clock cycle (in `Compute`). Returns
    /// the new state.
    pub fn advance(&mut self) -> SequencerState {
        match self.state {
            SequencerState::Idle | SequencerState::Display => {}
            SequencerState::MeasureX => {
                self.periods_done += 1;
                if self.periods_done >= self.periods_per_axis {
                    self.state = SequencerState::MeasureY;
                    self.periods_done = 0;
                }
            }
            SequencerState::MeasureY => {
                self.periods_done += 1;
                if self.periods_done >= self.periods_per_axis {
                    self.state = SequencerState::Compute;
                    self.compute_cycles_left = 8;
                }
            }
            SequencerState::Compute => {
                self.compute_cycles_left -= 1;
                if self.compute_cycles_left == 0 {
                    self.state = SequencerState::Display;
                }
            }
        }
        self.state
    }

    /// Fraction of one fix spent with the analogue section enabled —
    /// input to the duty-cycled power schedule of experiment E7. The
    /// measurement dominates: 2·periods_per_axis excitation periods vs.
    /// 8 cycles of a 4.19 MHz clock.
    pub fn analog_duty_per_fix(&self, fix_interval_periods: f64) -> f64 {
        assert!(
            fix_interval_periods >= 2.0 * self.periods_per_axis as f64,
            "fix interval shorter than the measurement itself"
        );
        2.0 * self.periods_per_axis as f64 / fix_interval_periods
    }
}

impl Default for Sequencer {
    fn default() -> Self {
        Self::paper_design()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_fix_walks_all_states() {
        let mut s = Sequencer::paper_design();
        assert_eq!(s.state(), SequencerState::Idle);
        s.start_fix();
        assert_eq!(s.state(), SequencerState::MeasureX);
        for _ in 0..4 {
            s.advance();
        }
        assert_eq!(s.state(), SequencerState::MeasureY);
        for _ in 0..4 {
            s.advance();
        }
        assert_eq!(s.state(), SequencerState::Compute);
        for _ in 0..8 {
            s.advance();
        }
        assert_eq!(s.state(), SequencerState::Display);
    }

    #[test]
    fn restart_from_display() {
        let mut s = Sequencer::paper_design();
        s.start_fix();
        for _ in 0..16 {
            s.advance();
        }
        assert_eq!(s.state(), SequencerState::Display);
        s.start_fix();
        assert_eq!(s.state(), SequencerState::MeasureX);
    }

    #[test]
    fn start_is_ignored_mid_fix() {
        let mut s = Sequencer::paper_design();
        s.start_fix();
        s.advance();
        s.start_fix(); // must not restart
        assert_eq!(s.state(), SequencerState::MeasureX);
        for _ in 0..3 {
            s.advance();
        }
        assert_eq!(s.state(), SequencerState::MeasureY);
    }

    #[test]
    fn advance_in_idle_is_a_no_op() {
        let mut s = Sequencer::paper_design();
        assert_eq!(s.advance(), SequencerState::Idle);
    }

    #[test]
    fn analog_duty_computation() {
        let s = Sequencer::paper_design();
        // One fix per second at 8 kHz: 8000 periods → duty = 8/8000.
        let duty = s.analog_duty_per_fix(8_000.0);
        assert!((duty - 0.001).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "fix interval")]
    fn impossible_fix_interval_rejected() {
        let s = Sequencer::paper_design();
        let _ = s.analog_duty_per_fix(4.0);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_periods_rejected() {
        let _ = Sequencer::new(0, 8);
    }
}
