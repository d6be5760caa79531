//! Property tests: every line the JSON-lines exporter writes must parse
//! back through the strict reader to exactly the values that went in —
//! for hostile metric names (quotes, backslashes, control characters,
//! astral-plane unicode) and for extreme `f64`s (subnormals, signed
//! zero, the finite boundary, and the non-finite values that must
//! become `null`).

use fluxcomp_obs::export::write_json_lines;
use fluxcomp_obs::json::{parse, Value};
use fluxcomp_obs::{Profile, Recorder};
use proptest::prelude::*;

/// Builds a valid Rust string from arbitrary code points, biased toward
/// the characters JSON escaping actually has to work for: quotes,
/// backslashes, control characters, and multi-byte UTF-8.
fn string_from_points(points: &[u32]) -> String {
    points
        .iter()
        .map(|&p| {
            match p % 8 {
                0 => '"',
                1 => '\\',
                // Control characters, including NUL and DEL-adjacent.
                2 => char::from_u32(p % 0x20).unwrap(),
                3 => 'µ',
                4 => '\u{1F9ED}', // astral plane (compass emoji)
                // Any scalar value: skip the surrogate gap.
                _ => char::from_u32(p % 0x11_0000).unwrap_or('\u{FFFD}'),
            }
        })
        .collect()
}

fn export_lines(profile: &Profile) -> Vec<String> {
    let mut out = Vec::new();
    write_json_lines(profile, &mut out).unwrap();
    String::from_utf8(out)
        .expect("exporter must emit UTF-8")
        .lines()
        .map(str::to_owned)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn counter_names_round_trip_exactly(
        points in prop::collection::vec(any::<u32>(), 0..32),
        value in any::<u64>(),
    ) {
        let name = string_from_points(&points);
        let profile = Profile {
            counters: vec![(name.clone(), value)],
            ..Profile::default()
        };
        let lines = export_lines(&profile);
        prop_assert_eq!(lines.len(), 2);
        let v = parse(&lines[1]).map_err(|e| {
            TestCaseError::Fail(format!("unparsable line {:?}: {e}", lines[1]))
        })?;
        prop_assert_eq!(v.get("name").and_then(Value::as_str), Some(name.as_str()));
        // u64 counters above 2^53 lose integer precision through the
        // f64-valued reader; the parsed number still equals the emitted
        // value under f64 comparison, which is the strongest guarantee
        // an f64 JSON reader can give.
        prop_assert_eq!(v.get("value"), Some(&Value::Number(value as f64)));
    }

    #[test]
    fn gauge_values_round_trip_bit_exactly_or_become_null(bits in any::<u64>()) {
        let value = f64::from_bits(bits);
        let profile = Profile {
            gauges: vec![("serve.extreme".to_owned(), value)],
            ..Profile::default()
        };
        let lines = export_lines(&profile);
        let v = parse(&lines[1]).map_err(|e| {
            TestCaseError::Fail(format!("unparsable line {:?}: {e}", lines[1]))
        })?;
        match v.get("value") {
            Some(Value::Number(parsed)) => {
                prop_assert!(value.is_finite(), "non-finite must not parse as a number");
                // `{:?}` prints the shortest representation that
                // round-trips, so the bits must match exactly — except
                // -0.0's sign, which JSON `-0.0` does preserve too, so
                // even that matches.
                prop_assert_eq!(parsed.to_bits(), value.to_bits());
            }
            Some(Value::Null) => prop_assert!(!value.is_finite()),
            other => return Err(TestCaseError::Fail(format!("bad value {other:?}"))),
        }
    }

    #[test]
    fn histogram_lines_round_trip_for_extreme_samples(
        a_bits in any::<u64>(),
        b in -1e300f64..1e300,
    ) {
        // One deliberately extreme sample (any bit pattern) and one
        // merely huge one, recorded through the real recorder.
        let a = f64::from_bits(a_bits);
        let recorder = fluxcomp_obs::AggregatingRecorder::new();
        recorder.histogram_record("h", a);
        recorder.histogram_record("h", b);
        for line in export_lines(&recorder.snapshot()) {
            let v = parse(&line).map_err(|e| {
                TestCaseError::Fail(format!("unparsable line {line:?}: {e}"))
            })?;
            prop_assert!(v.get("kind").and_then(Value::as_str).is_some());
        }
    }

    #[test]
    fn span_names_with_hostile_characters_still_export_cleanly(
        points in prop::collection::vec(any::<u32>(), 1..16),
        nanos in any::<u64>(),
    ) {
        let name = string_from_points(&points);
        let profile = Profile {
            spans: vec![(
                name.clone(),
                fluxcomp_obs::SpanSummary {
                    count: 1,
                    total_nanos: nanos,
                    min_nanos: nanos,
                    max_nanos: nanos,
                },
            )],
            ..Profile::default()
        };
        let lines = export_lines(&profile);
        let v = parse(&lines[1]).map_err(|e| {
            TestCaseError::Fail(format!("unparsable line {:?}: {e}", lines[1]))
        })?;
        prop_assert_eq!(v.get("name").and_then(Value::as_str), Some(name.as_str()));
        prop_assert_eq!(v.get("count").and_then(Value::as_u64), Some(1));
    }
}
