//! The LCD display driver (paper §4, Fig. 1: "The display driver selects
//! either the direction or the time to display").
//!
//! A six-digit seven-segment display, as on a digital watch. In compass
//! mode it shows the heading in whole degrees (`H-123`-style content is
//! not needed; three digits suffice for 0–359) plus a cardinal
//! abbreviation on the remaining digits; in watch mode it shows
//! `hh:mm:ss`. The driver renders to segment bitmaps, and for tests and
//! terminal examples those bitmaps render to ASCII art — so a test can
//! assert on exactly what a user would see.

use crate::watch::TimeOfDay;
use fluxcomp_units::angle::Degrees;
use std::fmt;

/// What the display shows — the paper's display-select multiplexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DisplayMode {
    /// Show the most recent compass heading.
    #[default]
    Direction,
    /// Show the time of day.
    Time,
}

/// Segment bitmap of one 7-segment digit, bits `0..=6` = `a..=g`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SegmentPattern(pub u8);

impl SegmentPattern {
    const DIGITS: [u8; 10] = [
        0b011_1111, // 0: abcdef
        0b000_0110, // 1: bc
        0b101_1011, // 2: abdeg
        0b100_1111, // 3: abcdg
        0b110_0110, // 4: bcfg
        0b110_1101, // 5: acdfg
        0b111_1101, // 6: acdefg
        0b000_0111, // 7: abc
        0b111_1111, // 8
        0b110_1111, // 9: abcdfg
    ];

    /// Pattern for a decimal digit.
    ///
    /// # Panics
    ///
    /// Panics if `d > 9`.
    pub fn digit(d: u8) -> Self {
        Self(Self::DIGITS[d as usize])
    }

    /// Blank digit.
    pub fn blank() -> Self {
        Self(0)
    }

    /// Pattern for the letters the compass display uses (N, E, S, W —
    /// rendered with the usual 7-segment conventions; W is approximated
    /// by `U` as real watch LCDs do).
    pub fn letter(c: char) -> Option<Self> {
        Some(Self(match c.to_ascii_uppercase() {
            'N' => 0b011_0111,       // abcef
            'E' => 0b111_1001,       // adefg
            'S' => 0b110_1101,       // same as 5
            'W' | 'U' => 0b011_1110, // bcdef (a "U")
            '-' => 0b100_0000,       // g only
            _ => return None,
        }))
    }

    /// `true` when segment `seg` (0=a … 6=g) is lit.
    pub fn segment(&self, seg: u8) -> bool {
        (self.0 >> seg) & 1 == 1
    }
}

/// The six-digit display frame produced by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DisplayFrame {
    /// Digit patterns, most significant first.
    pub digits: [SegmentPattern; 6],
    /// The two colon separators (lit in time mode).
    pub colons: bool,
}

impl DisplayFrame {
    /// Renders the frame as three lines of ASCII art.
    pub fn to_ascii(&self) -> String {
        let mut lines = [String::new(), String::new(), String::new()];
        for (idx, d) in self.digits.iter().enumerate() {
            let a = if d.segment(0) { " _ " } else { "   " };
            let f = if d.segment(5) { "|" } else { " " };
            let g = if d.segment(6) { "_" } else { " " };
            let b = if d.segment(1) { "|" } else { " " };
            let e = if d.segment(4) { "|" } else { " " };
            let dd = if d.segment(3) { "_" } else { " " };
            let c = if d.segment(2) { "|" } else { " " };
            lines[0].push_str(a);
            lines[1].push_str(&format!("{f}{g}{b}"));
            lines[2].push_str(&format!("{e}{dd}{c}"));
            if self.colons && (idx == 1 || idx == 3) {
                lines[0].push(' ');
                lines[1].push(':');
                lines[2].push(':');
            } else {
                lines[0].push(' ');
                lines[1].push(' ');
                lines[2].push(' ');
            }
        }
        format!("{}\n{}\n{}\n", lines[0], lines[1], lines[2])
    }
}

impl fmt::Display for DisplayFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ascii())
    }
}

/// The display driver: latches a heading and a time, multiplexes one of
/// them onto the LCD.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DisplayDriver {
    mode: DisplayMode,
    heading: Option<Degrees>,
    time: TimeOfDay,
}

impl DisplayDriver {
    /// A driver in direction mode with nothing latched.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects what to display (the watch's mode button).
    pub fn set_mode(&mut self, mode: DisplayMode) {
        self.mode = mode;
    }

    /// Latches a new heading from the arctan unit.
    pub fn latch_heading(&mut self, heading: Degrees) {
        self.heading = Some(heading.normalized());
    }

    /// Latches the time of day.
    pub fn latch_time(&mut self, time: TimeOfDay) {
        self.time = time;
    }

    /// The cardinal/intercardinal abbreviation for a heading.
    pub fn cardinal(heading: Degrees) -> &'static str {
        let h = heading.normalized().value();
        const NAMES: [&str; 8] = ["N", "NE", "E", "SE", "S", "SW", "W", "NW"];
        let sector = ((h + 22.5) / 45.0) as usize % 8;
        NAMES[sector]
    }

    /// Produces the current frame.
    pub fn frame(&self) -> DisplayFrame {
        match self.mode {
            DisplayMode::Time => {
                let t = self.time;
                DisplayFrame {
                    digits: [
                        SegmentPattern::digit(t.hours / 10),
                        SegmentPattern::digit(t.hours % 10),
                        SegmentPattern::digit(t.minutes / 10),
                        SegmentPattern::digit(t.minutes % 10),
                        SegmentPattern::digit(t.seconds / 10),
                        SegmentPattern::digit(t.seconds % 10),
                    ],
                    colons: true,
                }
            }
            DisplayMode::Direction => {
                let mut digits = [SegmentPattern::blank(); 6];
                match self.heading {
                    None => {
                        // No fix yet: dashes.
                        for d in &mut digits {
                            *d = SegmentPattern::letter('-').expect("dash pattern");
                        }
                    }
                    Some(h) => {
                        let deg = h.value().round() as u32 % 360;
                        digits[0] = SegmentPattern::digit((deg / 100) as u8);
                        digits[1] = SegmentPattern::digit((deg / 10 % 10) as u8);
                        digits[2] = SegmentPattern::digit((deg % 10) as u8);
                        let card = Self::cardinal(h);
                        let mut chars = card.chars();
                        if let Some(c) = chars.next() {
                            digits[4] =
                                SegmentPattern::letter(c).unwrap_or_else(SegmentPattern::blank);
                        }
                        if let Some(c) = chars.next() {
                            digits[5] =
                                SegmentPattern::letter(c).unwrap_or_else(SegmentPattern::blank);
                        }
                    }
                }
                DisplayFrame {
                    digits,
                    colons: false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_patterns_have_expected_segment_counts() {
        // 8 lights all 7 segments; 1 lights two.
        let lit = |d: u8| {
            (0..7)
                .filter(|&s| SegmentPattern::digit(d).segment(s))
                .count()
        };
        assert_eq!(lit(8), 7);
        assert_eq!(lit(1), 2);
        assert_eq!(lit(0), 6);
    }

    #[test]
    fn cardinal_sectors() {
        assert_eq!(DisplayDriver::cardinal(Degrees::new(0.0)), "N");
        assert_eq!(DisplayDriver::cardinal(Degrees::new(22.0)), "N");
        assert_eq!(DisplayDriver::cardinal(Degrees::new(23.0)), "NE");
        assert_eq!(DisplayDriver::cardinal(Degrees::new(90.0)), "E");
        assert_eq!(DisplayDriver::cardinal(Degrees::new(180.0)), "S");
        assert_eq!(DisplayDriver::cardinal(Degrees::new(270.0)), "W");
        assert_eq!(DisplayDriver::cardinal(Degrees::new(337.0)), "NW");
        assert_eq!(DisplayDriver::cardinal(Degrees::new(338.0)), "N");
    }

    #[test]
    fn direction_mode_shows_heading_digits() {
        let mut drv = DisplayDriver::new();
        drv.latch_heading(Degrees::new(123.0));
        let frame = drv.frame();
        assert_eq!(frame.digits[0], SegmentPattern::digit(1));
        assert_eq!(frame.digits[1], SegmentPattern::digit(2));
        assert_eq!(frame.digits[2], SegmentPattern::digit(3));
        // 123° is SE.
        assert_eq!(frame.digits[4], SegmentPattern::letter('S').unwrap());
        assert_eq!(frame.digits[5], SegmentPattern::letter('E').unwrap());
        assert!(!frame.colons);
    }

    #[test]
    fn no_fix_shows_dashes() {
        let drv = DisplayDriver::new();
        let frame = drv.frame();
        for d in frame.digits {
            assert_eq!(d, SegmentPattern::letter('-').unwrap());
        }
    }

    #[test]
    fn time_mode_shows_hhmmss_with_colons() {
        let mut drv = DisplayDriver::new();
        drv.latch_time(TimeOfDay::new(12, 34, 56));
        drv.set_mode(DisplayMode::Time);
        assert_eq!(drv.mode, DisplayMode::Time);
        let frame = drv.frame();
        assert!(frame.colons);
        let expect = [1u8, 2, 3, 4, 5, 6];
        for (i, &d) in expect.iter().enumerate() {
            assert_eq!(frame.digits[i], SegmentPattern::digit(d), "digit {i}");
        }
    }

    #[test]
    fn heading_rounds_and_wraps() {
        let mut drv = DisplayDriver::new();
        drv.latch_heading(Degrees::new(359.7)); // rounds to 360 → 000
        let frame = drv.frame();
        assert_eq!(frame.digits[0], SegmentPattern::digit(0));
        assert_eq!(frame.digits[1], SegmentPattern::digit(0));
        assert_eq!(frame.digits[2], SegmentPattern::digit(0));
    }

    #[test]
    fn ascii_rendering_shape() {
        let mut drv = DisplayDriver::new();
        drv.latch_time(TimeOfDay::new(1, 2, 3));
        drv.set_mode(DisplayMode::Time);
        let art = drv.frame().to_ascii();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains(':'));
        // All rows equal width.
        assert_eq!(lines[0].len(), lines[1].len());
        assert_eq!(lines[1].len(), lines[2].len());
    }

    #[test]
    fn letters_cover_cardinals() {
        for c in ['N', 'E', 'S', 'W', '-'] {
            assert!(SegmentPattern::letter(c).is_some(), "{c}");
        }
        assert!(SegmentPattern::letter('Q').is_none());
    }
}
