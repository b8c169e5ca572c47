//! `perf_gate` — the CI perf-regression gate.
//!
//! Compares a freshly generated `BENCH_perf.json` against the committed
//! baseline and fails (exit code 1) when a gated metric regressed beyond
//! the tolerance band:
//!
//! * **estimator ns/quote** (`fcfs_incremental_ns_per_quote`,
//!   `easy_incremental_ns_per_quote`) — lower is better;
//! * **event-queue events/s** (`dary_index_heap_events_per_sec`) — higher
//!   is better;
//! * **directory cursor-advance ns/rank** (`advance_ns`, both backends:
//!   ideal and the distributed MAAN range index) — lower is better, gated so the cursor path cannot silently decay back into
//!   query-per-rank costs;
//! * **engine dispatch events/s** (`dispatch.events_per_sec`) — higher is
//!   better;
//! * **workload generation jobs/s** (`workload.jobs_per_sec`) — higher is
//!   better, promoted from informational to gated once the streaming
//!   refactor landed so eager-materialisation regressions in the
//!   generation path fail CI instead of only moving a tracked number;
//! * **workload streaming jobs/s** (`workload.stream_jobs_per_sec`) —
//!   higher is better, promoted alongside the observability layer: the
//!   lazy stream is the path million-job runs drain through, so a decay
//!   back toward eager-materialisation throughput fails CI.
//!
//! The gated figures are *absolute* per-op numbers, so the comparison is
//! only meaningful when baseline and current ran on comparable hardware.
//! On a single-machine setup (this repo's committed baseline) the 30 %
//! band is a real signal; on a heterogeneous CI fleet, either regenerate
//! the baseline on the runner class that executes the gate or widen
//! `--tolerance` — a hard failure on a slower host is the gate working as
//! configured, not a bug in the gate.  Host-independent ratios the JSON
//! also carries (`fcfs_speedup`, `dary_vs_binary_speedup`,
//! `fresh_vs_advance_speedup`) are deliberately *not* gated: they stay
//! stable when both sides of a ratio regress together, which is exactly
//! the failure the absolute gates exist to catch.
//!
//! Usage: `perf_gate [--baseline PATH] [--current PATH] [--tolerance 0.30]`

use std::process::ExitCode;

struct Args {
    baseline: String,
    current: String,
    tolerance: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        baseline: "BENCH_perf.json".to_string(),
        current: "BENCH_perf.ci.json".to_string(),
        tolerance: 0.30,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--baseline" => args.baseline = argv.next().expect("--baseline needs a path"),
            "--current" => args.current = argv.next().expect("--current needs a path"),
            "--tolerance" => {
                args.tolerance = argv
                    .next()
                    .expect("--tolerance needs a fraction")
                    .parse()
                    .expect("tolerance must be a number like 0.30");
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    args
}

/// Extracts the number following `"key":` in `json`.  `key` must be unique
/// as a quoted key in the document (the flat names emitted by `bench_perf`
/// are); nested duplicates (like `advance_ns` per backend) are addressed by
/// scoping the search to the **braced object value** of an `anchor` key —
/// the anchor must be a key whose value is an object (`"anchor": { … }`),
/// and only that object's balanced-brace extent is searched, so document
/// ordering and stray mentions of the anchor string elsewhere cannot
/// redirect the lookup.
fn extract(json: &str, anchor: Option<&str>, key: &str) -> Option<f64> {
    let hay = match anchor {
        Some(a) => anchored_object(json, a)?,
        None => json,
    };
    let needle = format!("\"{key}\":");
    let at = hay.find(&needle)? + needle.len();
    let rest = hay[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The balanced-brace object value of `"anchor": { … }`, or `None` when the
/// anchor is absent or not followed by an object.
fn anchored_object<'a>(json: &'a str, anchor: &str) -> Option<&'a str> {
    let needle = format!("\"{anchor}\":");
    let after = &json[json.find(&needle)? + needle.len()..];
    let open = after.find(|c: char| !c.is_whitespace())?;
    if after.as_bytes()[open] != b'{' {
        return None;
    }
    let mut depth = 0usize;
    for (i, b) in after.bytes().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&after[open..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Lower is better (latencies): regression = current > baseline.
    LowerIsBetter,
    /// Higher is better (throughputs): regression = current < baseline.
    HigherIsBetter,
}

/// A gated metric's verdict: the regression fraction (positive = worse than
/// baseline), or `None` when either side is missing from its JSON.
fn regression(baseline: f64, current: f64, direction: Direction) -> f64 {
    match direction {
        Direction::LowerIsBetter => current / baseline - 1.0,
        Direction::HigherIsBetter => baseline / current - 1.0,
    }
}

struct Gate {
    label: &'static str,
    anchor: Option<&'static str>,
    key: &'static str,
    direction: Direction,
}

const GATES: [Gate; 8] = [
    Gate {
        label: "event queue (4-ary heap + FIFO lane events/s)",
        anchor: None,
        key: "dary_index_heap_events_per_sec",
        direction: Direction::HigherIsBetter,
    },
    Gate {
        label: "estimator FCFS (ns/quote)",
        anchor: None,
        key: "fcfs_incremental_ns_per_quote",
        direction: Direction::LowerIsBetter,
    },
    Gate {
        label: "estimator EASY (ns/quote)",
        anchor: None,
        key: "easy_incremental_ns_per_quote",
        direction: Direction::LowerIsBetter,
    },
    Gate {
        label: "directory ideal cursor advance (ns/rank)",
        anchor: Some("ideal"),
        key: "advance_ns",
        direction: Direction::LowerIsBetter,
    },
    Gate {
        label: "directory maan cursor advance (ns/rank)",
        anchor: Some("maan"),
        key: "advance_ns",
        direction: Direction::LowerIsBetter,
    },
    Gate {
        label: "engine dispatch (events/s)",
        anchor: Some("dispatch"),
        key: "events_per_sec",
        direction: Direction::HigherIsBetter,
    },
    Gate {
        label: "workload generation (jobs/s)",
        anchor: Some("workload"),
        key: "jobs_per_sec",
        direction: Direction::HigherIsBetter,
    },
    Gate {
        label: "workload streaming (stream jobs/s)",
        anchor: Some("workload"),
        key: "stream_jobs_per_sec",
        direction: Direction::HigherIsBetter,
    },
];

/// Runs every gate; returns the failing labels.
fn run_gates(baseline_json: &str, current_json: &str, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for gate in &GATES {
        let base = extract(baseline_json, gate.anchor, gate.key);
        let cur = extract(current_json, gate.anchor, gate.key);
        let (Some(base), Some(cur)) = (base, cur) else {
            // A missing metric means the baseline predates it (or the run
            // was truncated): fail loudly rather than silently skipping.
            failures.push(format!("{}: metric missing (baseline {base:?}, current {cur:?})", gate.label));
            continue;
        };
        let reg = regression(base, cur, gate.direction);
        let verdict = if reg > tolerance { "FAIL" } else { "ok" };
        println!(
            "[{verdict}] {label}: baseline {base:.2}, current {cur:.2} ({delta:+.1}% vs tolerance +{tol:.0}%)",
            label = gate.label,
            delta = reg * 100.0,
            tol = tolerance * 100.0,
        );
        if reg > tolerance {
            failures.push(gate.label.to_string());
        }
    }
    failures
}

fn main() -> ExitCode {
    let args = parse_args();
    let baseline_json = std::fs::read_to_string(&args.baseline)
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", args.baseline));
    let current_json = std::fs::read_to_string(&args.current)
        .unwrap_or_else(|e| panic!("cannot read current {}: {e}", args.current));
    println!(
        "perf gate: {} vs {} (tolerance {:.0}%)",
        args.baseline,
        args.current,
        args.tolerance * 100.0
    );
    let failures = run_gates(&baseline_json, &current_json, args.tolerance);
    if failures.is_empty() {
        println!("perf gate passed: no gated metric regressed beyond the tolerance band");
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate FAILED: {}", failures.join("; "));
        // The gate compares absolute per-op numbers, so a failure on a host
        // that differs from the baseline host may be the cross-host caveat
        // (see the module docs), not a code regression.  Print the exact
        // command that rebuilds the baseline *here*, so the fix is
        // copy-pasteable.
        eprintln!(
            "if this host is not comparable to the baseline host, regenerate the baseline on it:"
        );
        eprintln!(
            "    cargo run --release --bin bench_perf -- --out {}",
            args.baseline
        );
        eprintln!("then commit the refreshed {} with the change that moved the numbers", args.baseline);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "event_queue": { "dary_index_heap_events_per_sec": 2000000.00 },
  "estimator": {
    "fcfs_incremental_ns_per_quote": 8.00,
    "easy_incremental_ns_per_quote": 9.00
  },
  "directory": {
    "ideal": { "advance_ns": 2.00, "fresh_query_ns": 14.00 },
    "chord": { "advance_ns": 2.50, "fresh_query_ns": 60.00 },
    "maan": { "advance_ns": 3.00, "fresh_query_ns": 70.00 }
  },
  "dispatch": { "events": 200000, "events_per_sec": 30000000.00 },
  "workload": {
    "jobs": 6655,
    "jobs_per_sec": 6000000.00,
    "stream_jobs_per_sec": 4500000.00
  }
}"#;

    fn tweaked(key_value: &str, replacement: &str) -> String {
        SAMPLE.replace(key_value, replacement)
    }

    #[test]
    fn extract_reads_flat_and_anchored_keys() {
        assert_eq!(extract(SAMPLE, None, "fcfs_incremental_ns_per_quote"), Some(8.0));
        assert_eq!(extract(SAMPLE, None, "dary_index_heap_events_per_sec"), Some(2_000_000.0));
        // Anchored: the two advance_ns figures are distinguished by backend.
        assert_eq!(extract(SAMPLE, Some("ideal"), "advance_ns"), Some(2.0));
        assert_eq!(extract(SAMPLE, Some("chord"), "advance_ns"), Some(2.5));
        assert_eq!(extract(SAMPLE, None, "no_such_key"), None);
        assert_eq!(extract(SAMPLE, Some("no_such_anchor"), "advance_ns"), None);
    }

    #[test]
    fn anchored_extraction_is_scoped_to_the_object_not_document_order() {
        // A stray mention of the anchor string *before* the real section
        // (like exp5's `"backends": ["ideal", "chord"]` list) must not
        // redirect the lookup: a non-object anchor value yields None rather
        // than silently reading a later section's key, and the real
        // anchored object is found wherever it sits in the document.
        let reordered = r#"{
  "sweep": { "backends": "chord-and-ideal", "advance_ns": 999.0 },
  "directory": {
    "chord": { "advance_ns": 2.50 },
    "ideal": { "advance_ns": 2.00 }
  }
}"#;
        assert_eq!(extract(reordered, Some("chord"), "advance_ns"), Some(2.5));
        assert_eq!(extract(reordered, Some("ideal"), "advance_ns"), Some(2.0));
        // An anchor whose value is not an object never falls through to an
        // unrelated section's numbers.
        let string_anchor = r#"{ "note": { "chord": "see below" }, "chord": 7 }"#;
        assert_eq!(extract(string_anchor, Some("chord"), "advance_ns"), None);
        // The anchored scope *ends* at the object's closing brace.
        let scoped = r#"{ "ideal": { "open_ns": 1.0 }, "advance_ns": 5.0 }"#;
        assert_eq!(extract(scoped, Some("ideal"), "advance_ns"), None);
    }

    #[test]
    fn regression_direction_math() {
        // Latency up 50% = 0.5 regression; throughput down to half = 1.0.
        assert!((regression(10.0, 15.0, Direction::LowerIsBetter) - 0.5).abs() < 1e-12);
        assert!((regression(10.0, 5.0, Direction::HigherIsBetter) - 1.0).abs() < 1e-12);
        // Improvements are negative.
        assert!(regression(10.0, 8.0, Direction::LowerIsBetter) < 0.0);
        assert!(regression(10.0, 12.0, Direction::HigherIsBetter) < 0.0);
    }

    #[test]
    fn identical_runs_pass() {
        assert!(run_gates(SAMPLE, SAMPLE, 0.30).is_empty());
    }

    #[test]
    fn small_wobble_within_tolerance_passes() {
        let current = tweaked("\"fcfs_incremental_ns_per_quote\": 8.00", "\"fcfs_incremental_ns_per_quote\": 9.50");
        assert!(run_gates(SAMPLE, &current, 0.30).is_empty());
    }

    #[test]
    fn estimator_regression_beyond_tolerance_fails() {
        let current = tweaked("\"fcfs_incremental_ns_per_quote\": 8.00", "\"fcfs_incremental_ns_per_quote\": 12.00");
        let failures = run_gates(SAMPLE, &current, 0.30);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("FCFS"));
    }

    #[test]
    fn event_queue_throughput_drop_fails() {
        let current = tweaked(
            "\"dary_index_heap_events_per_sec\": 2000000.00",
            "\"dary_index_heap_events_per_sec\": 1200000.00",
        );
        let failures = run_gates(SAMPLE, &current, 0.30);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("event queue"));
    }

    #[test]
    fn directory_advance_regression_fails_per_backend() {
        let current = tweaked("\"maan\": { \"advance_ns\": 3.00", "\"maan\": { \"advance_ns\": 9.00");
        let failures = run_gates(SAMPLE, &current, 0.30);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("maan"));
    }

    #[test]
    fn workload_throughput_drop_fails() {
        // Gated via the "workload" anchor; the sibling stream_jobs_per_sec
        // key (whose name *contains* jobs_per_sec) must not shadow it.
        let current = tweaked("\"jobs_per_sec\": 6000000.00", "\"jobs_per_sec\": 3000000.00");
        let failures = run_gates(SAMPLE, &current, 0.30);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("workload generation"));
    }

    #[test]
    fn stream_throughput_drop_fails() {
        let current = tweaked(
            "\"stream_jobs_per_sec\": 4500000.00",
            "\"stream_jobs_per_sec\": 2000000.00",
        );
        let failures = run_gates(SAMPLE, &current, 0.30);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("streaming"));
    }

    #[test]
    fn dispatch_throughput_drop_fails() {
        let current = tweaked("\"events_per_sec\": 30000000.00", "\"events_per_sec\": 15000000.00");
        let failures = run_gates(SAMPLE, &current, 0.30);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("dispatch"));
    }

    #[test]
    fn missing_metric_fails_loudly() {
        let current = SAMPLE.replace("\"easy_incremental_ns_per_quote\": 9.00", "\"other\": 9.00");
        // The stray comma-less replacement still parses for the remaining
        // keys; only the missing one must fail.
        let failures = run_gates(SAMPLE, &current, 0.30);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"));
    }

    #[test]
    fn real_bench_perf_output_satisfies_the_gate_against_itself() {
        // The committed baseline must gate cleanly against itself — this
        // also pins the key names used by GATES to the ones `bench_perf`
        // actually emits (a rename would surface here as "metric missing").
        let committed = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_perf.json"),
        )
        .expect("committed BENCH_perf.json must exist at the workspace root");
        assert!(run_gates(&committed, &committed, 0.0).is_empty());
    }
}
