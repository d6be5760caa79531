//! The watch logic (paper §4: "The digital part contains also common
//! watch options as added features").
//!
//! The 4.194304 MHz counter clock is 2²² Hz precisely so that a binary
//! divider chain yields the 32 768 Hz watch tick and, fifteen stages
//! further, a 1 Hz heartbeat — a standard digital watch is a by-product
//! of the compass's clock tree. [`Watch`] keeps hh:mm:ss time from that
//! heartbeat and exposes the set/advance operations a two-button watch
//! would have.

use std::fmt;

/// Time of day kept by the watch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeOfDay {
    /// Hours, `0..24`.
    pub hours: u8,
    /// Minutes, `0..60`.
    pub minutes: u8,
    /// Seconds, `0..60`.
    pub seconds: u8,
}

impl TimeOfDay {
    /// Constructs a time of day.
    ///
    /// # Panics
    ///
    /// Panics if any field is out of range.
    pub fn new(hours: u8, minutes: u8, seconds: u8) -> Self {
        assert!(hours < 24, "hours out of range");
        assert!(minutes < 60, "minutes out of range");
        assert!(seconds < 60, "seconds out of range");
        Self {
            hours,
            minutes,
            seconds,
        }
    }
}

impl fmt::Display for TimeOfDay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02}:{:02}:{:02}",
            self.hours, self.minutes, self.seconds
        )
    }
}

/// The watch: a seconds counter with carry chains into minutes and
/// hours, clocked at 1 Hz from the divider chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Watch {
    time: TimeOfDay,
}

impl Watch {
    /// A watch at midnight.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current time.
    pub fn time(&self) -> TimeOfDay {
        self.time
    }

    /// Sets the time (the watch's "set" buttons).
    pub fn set_time(&mut self, time: TimeOfDay) {
        self.time = time;
    }

    /// One 1 Hz heartbeat.
    pub fn tick_second(&mut self) {
        let mut s = self.time.seconds + 1;
        let mut m = self.time.minutes;
        let mut h = self.time.hours;
        if s == 60 {
            s = 0;
            m += 1;
            if m == 60 {
                m = 0;
                h += 1;
                if h == 24 {
                    h = 0;
                }
            }
        }
        self.time = TimeOfDay::new(h, m, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_roll_into_minutes_and_hours() {
        let mut w = Watch::new();
        w.set_time(TimeOfDay::new(23, 59, 58));
        w.tick_second();
        assert_eq!(w.time(), TimeOfDay::new(23, 59, 59));
        w.tick_second();
        assert_eq!(w.time(), TimeOfDay::new(0, 0, 0));
    }

    #[test]
    fn display_format() {
        assert_eq!(TimeOfDay::new(9, 5, 3).to_string(), "09:05:03");
    }

    #[test]
    #[should_panic(expected = "minutes")]
    fn invalid_time_rejected() {
        let _ = TimeOfDay::new(0, 60, 0);
    }
}
