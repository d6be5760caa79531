//! Property tests for the digital back-end, including randomized
//! netlist-vs-integer equivalence of the synthesised datapaths.

use fluxcomp_rtl::cordic::CordicArctan;
use fluxcomp_rtl::counter::UpDownCounter;
use fluxcomp_rtl::lcd::SegmentPattern;
use fluxcomp_rtl::netsim::GateSim;
use fluxcomp_rtl::synth::{arith_shift_right, ripple_adder, ripple_subtractor};
use fluxcomp_rtl::watch::Watch;
use fluxcomp_rtl::watch_extras::CalendarDate;
use fluxcomp_rtl::Netlist;
use proptest::prelude::*;

fn wrap(v: i64, width: u32) -> i64 {
    let m = 1i64 << width;
    let r = v.rem_euclid(m);
    if r >= m / 2 {
        r - m
    } else {
        r
    }
}

proptest! {
    /// The synthesised adder equals two's-complement integer addition
    /// for random operands and widths.
    #[test]
    fn adder_equivalence(a in -2_000_000i64..2_000_000, b in -2_000_000i64..2_000_000, w in 4u32..24) {
        let a = wrap(a, w);
        let b = wrap(b, w);
        let mut nl = Netlist::new();
        let ba = nl.input_bus(w);
        let bb = nl.input_bus(w);
        let sum = ripple_adder(&mut nl, &ba, &bb);
        let mut sim = GateSim::new(nl);
        sim.set_bus(&ba, a);
        sim.set_bus(&bb, b);
        sim.settle();
        prop_assert_eq!(sim.bus_value_signed(&sum), wrap(a + b, w));
    }

    /// The synthesised subtractor likewise.
    #[test]
    fn subtractor_equivalence(a in -2_000_000i64..2_000_000, b in -2_000_000i64..2_000_000, w in 4u32..24) {
        let a = wrap(a, w);
        let b = wrap(b, w);
        let mut nl = Netlist::new();
        let ba = nl.input_bus(w);
        let bb = nl.input_bus(w);
        let diff = ripple_subtractor(&mut nl, &ba, &bb);
        let mut sim = GateSim::new(nl);
        sim.set_bus(&ba, a);
        sim.set_bus(&bb, b);
        sim.settle();
        prop_assert_eq!(sim.bus_value_signed(&diff), wrap(a - b, w));
    }

    /// Arithmetic shift right matches `>>` on signed integers.
    #[test]
    fn shift_equivalence(v in -500_000i64..500_000, k in 0u32..12) {
        let w = 20u32;
        let v = wrap(v, w);
        let mut nl = Netlist::new();
        let bus = nl.input_bus(w);
        let shifted = arith_shift_right(&mut nl, &bus, k);
        let mut sim = GateSim::new(nl);
        sim.set_bus(&bus, v);
        sim.settle();
        prop_assert_eq!(sim.bus_value_signed(&shifted), v >> k);
    }

    /// The CORDIC kernel's greedy residual is one-sided for any
    /// first-quadrant vector: the computed angle never exceeds the true
    /// one by more than the integer-truncation wobble.
    #[test]
    fn cordic_one_sided(x in 64i64..100_000, y in 0i64..100_000) {
        let c = CordicArctan::paper();
        let got = c.first_quadrant_q8(x, y) as f64 / 256.0;
        let truth = (y as f64).atan2(x as f64).to_degrees();
        prop_assert!(got <= truth + 0.05, "({x},{y}): {got} > {truth}");
        prop_assert!(got >= truth - 0.55, "({x},{y}): {got} too low vs {truth}");
    }

    /// The counter saturates rather than wrapping for any stream length.
    #[test]
    fn counter_never_exceeds_width(ups in 0usize..5_000) {
        let mut c = UpDownCounter::new(8);
        for _ in 0..ups {
            c.clock(true);
        }
        prop_assert!(c.value() <= c.max_value());
        for _ in 0..2 * ups {
            c.clock(false);
        }
        prop_assert!(c.value() >= -c.max_value() - 1);
    }

    /// Watch time advances modulo 24 h: N seconds from midnight is
    /// N mod 86400 in total seconds.
    #[test]
    fn watch_modular_arithmetic(n in 0u32..200_000) {
        let mut w = Watch::new();
        for _ in 0..n {
            w.tick_second();
        }
        let t = w.time();
        let total = u32::from(t.hours) * 3600 + u32::from(t.minutes) * 60 + u32::from(t.seconds);
        prop_assert_eq!(total, n % 86_400);
    }

    /// Every pair of decimal digits maps to distinct 7-segment patterns.
    #[test]
    fn digit_patterns_distinct(a in 0u8..10, b in 0u8..10) {
        if a != b {
            prop_assert_ne!(SegmentPattern::digit(a), SegmentPattern::digit(b));
        }
    }

    /// Calendar day-advance is a bijection day-by-day: advancing from a
    /// valid date always yields a valid date, and day numbers stay in
    /// range for the month.
    #[test]
    fn calendar_stays_valid(year in 1900u16..2100, month in 1u8..13, steps in 0usize..800) {
        let mut d = CalendarDate::new(year, month, 1);
        for _ in 0..steps {
            d.advance_day();
            prop_assert!(d.day >= 1 && d.day <= d.days_in_month());
            prop_assert!((1..=12).contains(&d.month));
        }
    }
}
