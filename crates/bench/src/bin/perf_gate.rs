//! `perf_gate` — the CI perf-regression gate.
//!
//! Compares fresh `bench_perf` measurements against the committed
//! `BENCH_perf.json` and fails (exit code 1) when a gated row regressed
//! beyond the tolerance band:
//!
//! * **event-queue events/s** (`dary_index_heap_events_per_sec`, the
//!   leg-shaped hold model) — higher is better;
//! * **estimator ns/quote** (`fcfs_incremental_ns_per_quote`,
//!   `easy_incremental_ns_per_quote`) and **ns per FCFS accept cycle**
//!   (`fcfs_accept_cycle_ns`, the one row that keeps the quote profile
//!   across submits and finishes) — lower is better;
//! * **directory cursor-advance ns/rank** (`advance_ns`, both backends:
//!   ideal and the distributed MAAN range index) — lower is better, gated
//!   so the cursor path cannot silently decay back into query-per-rank
//!   costs;
//! * **engine dispatch events/s** (`dispatch.events_per_sec`) — higher is
//!   better;
//! * **workload generation and streaming jobs/s** (`workload.jobs_per_sec`,
//!   `workload.stream_jobs_per_sec`) — higher is better, so a decay back
//!   toward eager materialisation fails CI.
//!
//! Each `--current` file is one `bench_perf` process; pass several.  Per
//! row the gate compares the median over them with the baseline and prints
//! the interquartile range next to it, so one process that lands on a busy
//! neighbour or an unlucky memory layout cannot fail the gate, while a
//! regression every process shows does.  The committed baseline holds the
//! per-row medians of at least ten processes on one host; `bench_perf`
//! scales every row to a reference host by a fixed-kernel probe taken just
//! before it.  Host-independent ratios the JSON also carries
//! (`fcfs_speedup`, `dary_vs_binary_speedup`, `fresh_vs_advance_speedup`)
//! are deliberately *not* gated: they stay stable when both sides of a
//! ratio regress together, which is exactly the failure the absolute gates
//! exist to catch.
//!
//! Usage: `perf_gate [--baseline PATH] --current PATH [--current PATH …]
//! [--tolerance 0.30]`

use std::process::ExitCode;

use grid_obs::json::{self, Json};

struct Args {
    baseline: String,
    currents: Vec<String>,
    tolerance: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        baseline: "BENCH_perf.json".to_string(),
        currents: Vec::new(),
        tolerance: 0.30,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--baseline" => args.baseline = argv.next().expect("--baseline needs a path"),
            "--current" => args.currents.push(argv.next().expect("--current needs a path")),
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
    assert!(!args.currents.is_empty(), "pass at least one --current measurement");
    args
}

/// The number at key path `path` of `doc`, e.g.
/// `["directory", "maan", "advance_ns"]`.
fn extract(doc: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(doc, |value, key| value.get(key))?.as_f64()
}

/// The `q`-quantile of `sorted` (ascending, non-empty), interpolating
/// linearly between neighbours.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Lower is better (latencies): regression = current > baseline.
    LowerIsBetter,
    /// Higher is better (throughputs): regression = current < baseline.
    HigherIsBetter,
}

/// The regression fraction of `current` against `baseline` (positive =
/// worse than baseline).
fn regression(baseline: f64, current: f64, direction: Direction) -> f64 {
    match direction {
        Direction::LowerIsBetter => current / baseline - 1.0,
        Direction::HigherIsBetter => baseline / current - 1.0,
    }
}

struct Gate {
    label: &'static str,
    path: &'static [&'static str],
    direction: Direction,
}

const GATES: [Gate; 9] = [
    Gate {
        label: "event queue (4-ary heap + FIFO lane events/s)",
        path: &["event_queue", "dary_index_heap_events_per_sec"],
        direction: Direction::HigherIsBetter,
    },
    Gate {
        label: "estimator FCFS (ns/quote)",
        path: &["estimator", "fcfs_incremental_ns_per_quote"],
        direction: Direction::LowerIsBetter,
    },
    Gate {
        label: "estimator EASY (ns/quote)",
        path: &["estimator", "easy_incremental_ns_per_quote"],
        direction: Direction::LowerIsBetter,
    },
    Gate {
        label: "estimator FCFS accept cycle (ns/cycle)",
        path: &["estimator", "fcfs_accept_cycle_ns"],
        direction: Direction::LowerIsBetter,
    },
    Gate {
        label: "directory ideal cursor advance (ns/rank)",
        path: &["directory", "ideal", "advance_ns"],
        direction: Direction::LowerIsBetter,
    },
    Gate {
        label: "directory maan cursor advance (ns/rank)",
        path: &["directory", "maan", "advance_ns"],
        direction: Direction::LowerIsBetter,
    },
    Gate {
        label: "engine dispatch (events/s)",
        path: &["dispatch", "events_per_sec"],
        direction: Direction::HigherIsBetter,
    },
    Gate {
        label: "workload generation (jobs/s)",
        path: &["workload", "jobs_per_sec"],
        direction: Direction::HigherIsBetter,
    },
    Gate {
        label: "workload streaming (stream jobs/s)",
        path: &["workload", "stream_jobs_per_sec"],
        direction: Direction::HigherIsBetter,
    },
];

/// Runs every gate on the medians of `currents`; returns the failing
/// labels.
fn run_gates(baseline: &Json, currents: &[Json], tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for gate in &GATES {
        let base = extract(baseline, gate.path);
        let cur: Option<Vec<f64>> = currents.iter().map(|doc| extract(doc, gate.path)).collect();
        let (Some(base), Some(mut cur)) = (base, cur) else {
            // A missing metric means the baseline predates it (or a run was
            // truncated): fail loudly rather than silently skipping.
            failures.push(format!("{}: metric missing from the baseline or a measurement", gate.label));
            continue;
        };
        cur.sort_by(f64::total_cmp);
        let median = quantile(&cur, 0.5);
        let reg = regression(base, median, gate.direction);
        let verdict = if reg > tolerance { "FAIL" } else { "ok" };
        println!(
            "[{verdict}] {label}: baseline {base:.2}, median {median:.2} of {runs} (IQR {q1:.2}–{q3:.2}) \
             ({delta:+.1}% vs tolerance +{tol:.0}%)",
            label = gate.label,
            runs = cur.len(),
            q1 = quantile(&cur, 0.25),
            q3 = quantile(&cur, 0.75),
            delta = reg * 100.0,
            tol = tolerance * 100.0,
        );
        if reg > tolerance {
            failures.push(gate.label.to_string());
        }
    }
    failures
}

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path} is not JSON: {e}"))
}

fn main() -> ExitCode {
    let args = parse_args();
    let baseline = read_json(&args.baseline);
    let currents: Vec<Json> = args.currents.iter().map(|path| read_json(path)).collect();
    println!(
        "perf gate: {} vs the median of {} measurement(s) (tolerance {:.0}%)",
        args.baseline,
        currents.len(),
        args.tolerance * 100.0
    );
    let failures = run_gates(&baseline, &currents, args.tolerance);
    if failures.is_empty() {
        println!("perf gate passed: no gated metric regressed beyond the tolerance band");
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate FAILED: {}", failures.join("; "));
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": 2,
  "event_queue": { "dary_index_heap_events_per_sec": 2000000.00 },
  "estimator": {
    "fcfs_incremental_ns_per_quote": 8.00,
    "easy_incremental_ns_per_quote": 9.00,
    "fcfs_accept_cycle_ns": 200.00
  },
  "directory": {
    "ideal": { "advance_ns": 2.00, "fresh_query_ns": 14.00 },
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

    /// Gates `currents` (one JSON text per process) against [`SAMPLE`].
    fn gate(currents: &[&str]) -> Vec<String> {
        let baseline = json::parse(SAMPLE).unwrap();
        let currents: Vec<Json> = currents.iter().map(|text| json::parse(text).unwrap()).collect();
        run_gates(&baseline, &currents, 0.30)
    }

    #[test]
    fn extract_reads_flat_and_anchored_keys() {
        let doc = json::parse(SAMPLE).unwrap();
        assert_eq!(extract(&doc, &["schema"]), Some(2.0));
        assert_eq!(extract(&doc, &["estimator", "fcfs_incremental_ns_per_quote"]), Some(8.0));
        // The two advance_ns figures are told apart by their backend key.
        assert_eq!(extract(&doc, &["directory", "ideal", "advance_ns"]), Some(2.0));
        assert_eq!(extract(&doc, &["directory", "maan", "advance_ns"]), Some(3.0));
        assert_eq!(extract(&doc, &["directory", "chord", "advance_ns"]), None);
        // A path must name a number, not an object.
        assert_eq!(extract(&doc, &["directory", "maan"]), None);
    }

    #[test]
    fn quantiles_interpolate_between_processes() {
        let runs = [1.0, 2.0, 3.0, 4.0, 10.0];
        assert_eq!(quantile(&runs, 0.5), 3.0);
        assert_eq!(quantile(&runs, 0.25), 2.0);
        assert_eq!(quantile(&runs, 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
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
        assert!(gate(&[SAMPLE]).is_empty());
        assert!(gate(&[SAMPLE; 5]).is_empty());
    }

    #[test]
    fn small_wobble_within_tolerance_passes() {
        let current = tweaked("\"fcfs_incremental_ns_per_quote\": 8.00", "\"fcfs_incremental_ns_per_quote\": 9.50");
        assert!(gate(&[&current]).is_empty());
    }

    #[test]
    fn the_median_process_decides_not_an_outlier() {
        let slow = tweaked("\"fcfs_accept_cycle_ns\": 200.00", "\"fcfs_accept_cycle_ns\": 400.00");
        // Two of five processes twice as slow: the median is still quiet.
        assert!(gate(&[SAMPLE, &slow, SAMPLE, &slow, SAMPLE]).is_empty());
        // Three of five: the median regressed.
        let failures = gate(&[&slow, &slow, SAMPLE, &slow, SAMPLE]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("accept cycle"));
    }

    #[test]
    fn estimator_regression_beyond_tolerance_fails() {
        let current = tweaked("\"fcfs_incremental_ns_per_quote\": 8.00", "\"fcfs_incremental_ns_per_quote\": 12.00");
        let failures = gate(&[&current]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("FCFS"));
    }

    #[test]
    fn event_queue_throughput_drop_fails() {
        let current = tweaked(
            "\"dary_index_heap_events_per_sec\": 2000000.00",
            "\"dary_index_heap_events_per_sec\": 1200000.00",
        );
        let failures = gate(&[&current]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("event queue"));
    }

    #[test]
    fn directory_advance_regression_fails_per_backend() {
        let current = tweaked("\"maan\": { \"advance_ns\": 3.00", "\"maan\": { \"advance_ns\": 9.00");
        let failures = gate(&[&current]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("maan"));
    }

    #[test]
    fn workload_throughput_drop_fails() {
        // The sibling stream_jobs_per_sec key (whose name *contains*
        // jobs_per_sec) must not shadow it.
        let current = tweaked("\"jobs_per_sec\": 6000000.00", "\"jobs_per_sec\": 3000000.00");
        let failures = gate(&[&current]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("workload generation"));
    }

    #[test]
    fn stream_throughput_drop_fails() {
        let current = tweaked(
            "\"stream_jobs_per_sec\": 4500000.00",
            "\"stream_jobs_per_sec\": 2000000.00",
        );
        let failures = gate(&[&current]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("streaming"));
    }

    #[test]
    fn dispatch_throughput_drop_fails() {
        let current = tweaked("\"events_per_sec\": 30000000.00", "\"events_per_sec\": 15000000.00");
        let failures = gate(&[&current]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("dispatch"));
    }

    #[test]
    fn missing_metric_fails_loudly() {
        let current = SAMPLE.replace("\"easy_incremental_ns_per_quote\"", "\"other\"");
        // Missing from one measurement of several is enough.
        let failures = gate(&[SAMPLE, &current, SAMPLE]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"));
    }

    #[test]
    fn real_bench_perf_output_satisfies_the_gate_against_itself() {
        // The committed baseline must gate cleanly against itself — this
        // also pins the key paths used by GATES to the ones `bench_perf`
        // actually emits (a rename would surface here as "metric missing").
        let committed = read_json(
            &std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../BENCH_perf.json")
                .to_string_lossy(),
        );
        assert!(run_gates(&committed, std::slice::from_ref(&committed), 0.0).is_empty());
    }
}
