//! The "common watch options" (paper §4) beyond basic timekeeping:
//! alarm, stopwatch and calendar — the features a compass *watch*
//! (\[Hol94\]) ships with, all driven from the same 2²² Hz clock tree.

use crate::watch::TimeOfDay;
use std::fmt;

/// A daily alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Alarm {
    /// The set time, if armed.
    set_point: Option<TimeOfDay>,
}

impl Alarm {
    /// An unarmed alarm.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the alarm.
    pub fn arm(&mut self, at: TimeOfDay) {
        self.set_point = Some(at);
    }

    /// Clock the alarm with the current time (call once per second);
    /// returns `true` on the second it fires (again the next day).
    pub fn tick(&self, now: TimeOfDay) -> bool {
        self.set_point == Some(now)
    }
}

/// A centisecond stopwatch driven by a 128 Hz tap of the divider chain
/// (the closest binary rate to 100 Hz; real watch stopwatches do exactly
/// this and display 1/100 s by gearing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stopwatch {
    running: bool,
    /// Elapsed time in 1/128 s ticks.
    ticks: u64,
}

impl Stopwatch {
    /// A stopped, zeroed stopwatch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts (or resumes) timing.
    pub fn start(&mut self) {
        self.running = true;
    }

    /// One 128 Hz tick.
    pub fn tick_128hz(&mut self) {
        if self.running {
            self.ticks += 1;
        }
    }

    /// Elapsed seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.ticks as f64 / 128.0
    }
}

/// A calendar date with correct month lengths and Gregorian leap years.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CalendarDate {
    /// Full year (e.g. 1997).
    pub year: u16,
    /// Month, 1..=12.
    pub month: u8,
    /// Day of month, 1-based.
    pub day: u8,
}

impl CalendarDate {
    /// Constructs a date.
    ///
    /// # Panics
    ///
    /// Panics on an invalid month or day.
    pub fn new(year: u16, month: u8, day: u8) -> Self {
        assert!((1..=12).contains(&month), "month out of range");
        let d = Self {
            year,
            month,
            day: 1,
        };
        assert!(
            day >= 1 && day <= d.days_in_month(),
            "day out of range for the month"
        );
        Self { year, month, day }
    }

    /// `true` for Gregorian leap years.
    pub fn is_leap_year(&self) -> bool {
        (self.year.is_multiple_of(4) && !self.year.is_multiple_of(100))
            || self.year.is_multiple_of(400)
    }

    /// Days in the current month.
    pub fn days_in_month(&self) -> u8 {
        match self.month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 => {
                if self.is_leap_year() {
                    29
                } else {
                    28
                }
            }
            _ => unreachable!("validated month"),
        }
    }

    /// Advances to the next day (the midnight carry from the watch).
    pub fn advance_day(&mut self) {
        if self.day < self.days_in_month() {
            self.day += 1;
        } else {
            self.day = 1;
            if self.month < 12 {
                self.month += 1;
            } else {
                self.month = 1;
                self.year += 1;
            }
        }
    }
}

impl fmt::Display for CalendarDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alarm_fires_at_set_point_only() {
        let mut alarm = Alarm::new();
        alarm.arm(TimeOfDay::new(7, 30, 0));
        assert!(!alarm.tick(TimeOfDay::new(7, 29, 59)));
        assert!(alarm.tick(TimeOfDay::new(7, 30, 0)));
        assert!(!alarm.tick(TimeOfDay::new(7, 30, 1)));
    }

    #[test]
    fn stopwatch_counts_only_while_running() {
        let mut sw = Stopwatch::new();
        for _ in 0..128 {
            sw.tick_128hz();
        }
        assert_eq!(sw.elapsed_seconds(), 0.0, "stopped: no counting");
        sw.start();
        for _ in 0..192 {
            sw.tick_128hz();
        }
        assert!((sw.elapsed_seconds() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn month_lengths() {
        assert_eq!(CalendarDate::new(1997, 1, 1).days_in_month(), 31);
        assert_eq!(CalendarDate::new(1997, 4, 1).days_in_month(), 30);
        assert_eq!(CalendarDate::new(1997, 2, 1).days_in_month(), 28);
        assert_eq!(CalendarDate::new(1996, 2, 1).days_in_month(), 29);
        assert_eq!(CalendarDate::new(2000, 2, 1).days_in_month(), 29);
        assert_eq!(CalendarDate::new(1900, 2, 1).days_in_month(), 28);
    }

    #[test]
    fn day_advance_carries() {
        let mut d = CalendarDate::new(1996, 2, 28);
        d.advance_day();
        assert_eq!(d, CalendarDate::new(1996, 2, 29));
        d.advance_day();
        assert_eq!(d, CalendarDate::new(1996, 3, 1));
        let mut d = CalendarDate::new(1996, 12, 31);
        d.advance_day();
        assert_eq!(d, CalendarDate::new(1997, 1, 1));
    }

    #[test]
    fn full_year_has_right_day_count() {
        let mut d = CalendarDate::new(1997, 1, 1);
        let mut days = 0;
        while d != CalendarDate::new(1998, 1, 1) {
            d.advance_day();
            days += 1;
        }
        assert_eq!(days, 365);
        let mut d = CalendarDate::new(1996, 1, 1);
        let mut days = 0;
        while d != CalendarDate::new(1997, 1, 1) {
            d.advance_day();
            days += 1;
        }
        assert_eq!(days, 366);
    }

    #[test]
    fn date_display() {
        assert_eq!(CalendarDate::new(1997, 3, 7).to_string(), "1997-03-07");
    }

    #[test]
    #[should_panic(expected = "day out of range")]
    fn invalid_date_rejected() {
        let _ = CalendarDate::new(1997, 2, 29);
    }
}
