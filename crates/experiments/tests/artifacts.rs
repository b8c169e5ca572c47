//! Validity and freshness of the committed observability artifacts
//! (`artifacts/exp1_quick_metrics.json`, `artifacts/exp1_quick_trace.json`):
//! both must parse, the trace must be a well-formed Chrome Trace document
//! with per-track monotone timestamps, and re-running the quick workload
//! with the sinks armed must reproduce both files **byte for byte** — the
//! same determinism pin `MANIFEST_digests.txt` gives the result CSVs.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use grid_experiments::exp1;
use grid_experiments::workloads::WorkloadOptions;
use grid_federation_core::SpanCollector;
use grid_obs::json::{parse, Json};

fn artifact(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts").join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed artifact {} must exist: {e}", path.display()));
    (path, text)
}

#[test]
fn committed_metrics_artifact_parses_and_carries_the_registry_sections() {
    let (_, text) = artifact("exp1_quick_metrics.json");
    let doc = parse(&text).expect("metrics artifact must parse as JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_f64), Some(1.0));
    for section in ["counters", "sums", "histograms", "per_gfa"] {
        assert!(doc.get(section).is_some(), "metrics artifact must carry {section:?}");
    }
    // The quick run records waits, so the wait histogram cannot be empty.
    let wait_count = doc
        .get("histograms")
        .and_then(|h| h.get("job_wait_seconds"))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_f64)
        .expect("job_wait_seconds histogram with a count");
    assert!(wait_count > 0.0, "the committed quick run must have observed waits");
}

#[test]
fn committed_trace_artifact_is_valid_chrome_trace() {
    let (_, text) = artifact("exp1_quick_trace.json");
    let doc = parse(&text).expect("trace artifact must parse as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents must be an array");
    assert!(!events.is_empty(), "the committed trace must carry events");
    let mut last: Vec<((u64, u64), f64)> = Vec::new();
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).expect("every event has ph");
        assert!(matches!(ph, "M" | "X" | "s" | "f"), "unexpected phase {ph:?}");
        if ph == "M" {
            continue;
        }
        let pid = event.get("pid").and_then(Json::as_f64).expect("pid") as u64;
        let tid = event.get("tid").and_then(Json::as_f64).expect("tid") as u64;
        let ts = event.get("ts").and_then(Json::as_f64).expect("ts");
        match last.iter_mut().find(|(k, _)| *k == (pid, tid)) {
            Some((_, prev)) => {
                assert!(ts >= *prev, "track ({pid},{tid}) went backwards: {ts} < {prev}");
                *prev = ts;
            }
            None => last.push(((pid, tid), ts)),
        }
    }
}

#[test]
fn committed_artifacts_are_bitwise_reproducible() {
    let tracer = Rc::new(RefCell::new(SpanCollector::new()));
    let result = exp1::run_traced(&WorkloadOptions::quick(), Rc::clone(&tracer));
    let (metrics_path, committed_metrics) = artifact("exp1_quick_metrics.json");
    assert_eq!(
        result.report.metrics.to_json(),
        committed_metrics,
        "stale {}: regenerate with `cargo run --release --bin run_all -- --quick \
         --out results-quick`, then copy results-quick/exp1_metrics.json and \
         results-quick/exp1_trace.json to artifacts/exp1_quick_metrics.json and \
         artifacts/exp1_quick_trace.json",
        metrics_path.display()
    );
    let (trace_path, committed_trace) = artifact("exp1_quick_trace.json");
    assert_eq!(
        tracer.borrow().to_chrome_trace(),
        committed_trace,
        "stale {}: regenerate alongside the metrics artifact",
        trace_path.display()
    );
}
