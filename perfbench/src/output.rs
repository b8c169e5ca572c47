//! The benchmark's result line: one JSON object with `correct`,
//! `attempted`, `failed` and every metric by name with its unit.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `count`, `1/s`.
    pub unit: &'static str,
}

/// Whether `name` is a legal metric name: non-empty, made of letters,
/// digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Renders the result line.  Non-finite values would not be JSON, so they
/// are a bug in the benchmark and panic here.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(m.name), "illegal metric name {:?}", m.name);
        assert!(
            m.value.is_finite(),
            "metric {} is not finite: {}",
            m.name,
            m.value
        );
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_obs::json::{parse, Json};

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("gfa.negotiate_s"));
        assert!(valid_name("run_s"));
        assert!(valid_name("a-b.c_9"));
        assert!(!valid_name(""));
        assert!(!valid_name("bad name"));
        assert!(!valid_name("quote/ns"));
    }

    #[test]
    fn result_line_parses_with_every_metric() {
        let metrics = [
            Metric {
                name: "run_s",
                value: 2.877_916_529,
                unit: "s",
            },
            Metric {
                name: "des.events",
                value: 6_712_345.0,
                unit: "count",
            },
            Metric {
                name: "obs.overhead_frac",
                value: -0.012_5,
                unit: "ratio",
            },
        ];
        let line = result_line(true, 7, 0, &metrics);
        assert!(!line.contains('\n'));
        let doc = parse(&line).expect("the result line is JSON");
        assert!(matches!(doc.get("correct"), Some(Json::Bool(true))));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(7.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        let parsed = doc.get("metrics").expect("metrics object");
        for m in &metrics {
            let entry = parsed.get(m.name).expect("metric present");
            assert_eq!(entry.get("value").and_then(Json::as_f64), Some(m.value));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        }
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_values_are_refused() {
        let _ = result_line(
            true,
            1,
            0,
            &[Metric {
                name: "x",
                value: f64::NAN,
                unit: "s",
            }],
        );
    }
}
