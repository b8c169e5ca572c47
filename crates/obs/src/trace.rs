//! Causal span collection and Chrome Trace Format export.
//!
//! [`SpanCollector`] is the federation's trace sink: the model pushes completed [`SpanRecord`]s (job lifecycle,
//! negotiation round-trips, directory probes, execution intervals) and
//! [`FlowRecord`]s (cross-GFA dispatch/completion arrows keyed by envelope
//! sequence number), and the collector renders them as a Chrome Trace
//! Format JSON document loadable in Perfetto or `chrome://tracing`.
//!
//! Mapping: one *process* per GFA (`pid` = GFA index), one *thread* per
//! [`SpanTrack`] (`tid` 0 = lifecycle, 1 = negotiation, 2 = directory,
//! 3 = execution).  Timestamps are simulated seconds scaled to
//! microseconds, so they are bit-deterministic across hosts.  The exporter
//! sorts events by `(pid, tid, ts)` before serialising, which makes
//! per-track timestamp monotonicity a structural property of the artifact
//! (the trace-validity test asserts exactly that).

use std::fmt::Write as _;

use grid_des::{FlowRecord, SpanRecord, SpanTrack};

use crate::json::esc;

/// Microseconds per simulated second (Chrome Trace `ts`/`dur` unit).
const US_PER_SEC: f64 = 1e6;

/// Chrome Trace event phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// `ph: "X"` — a complete (duration) event.
    Complete,
    /// `ph: "s"` — a flow start.
    FlowStart,
    /// `ph: "f"` (with `bp: "e"`) — a flow finish bound to the enclosing
    /// slice's end.
    FlowFinish,
}

/// One buffered trace event, pre-rendered to Chrome Trace fields.
#[derive(Debug, Clone)]
struct ChromeEvent {
    pid: u64,
    tid: u64,
    ts_us: f64,
    dur_us: f64,
    phase: Phase,
    name: &'static str,
    /// Flow id (flow phases only).
    id: u64,
    /// Free-form `args.detail` string (complete events only).
    detail: String,
}

/// Buffers spans and flows during a run and exports them as Chrome Trace
/// JSON afterwards.  Purely accumulative: nothing here can observe or
/// influence simulation state.
#[derive(Debug, Default)]
pub struct SpanCollector {
    events: Vec<ChromeEvent>,
}

impl SpanCollector {
    /// An empty collector.
    #[must_use]
    pub fn new() -> SpanCollector {
        SpanCollector::default()
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the buffered events as a Chrome Trace Format document.
    ///
    /// Events are sorted by `(pid, tid, ts)` first, so within every
    /// `(pid, tid)` track the emitted timestamps are non-decreasing, and
    /// per-track metadata (`process_name` = `gfa-<i>`, `thread_name` = the
    /// track label) precedes the data events.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let mut sorted: Vec<&ChromeEvent> = self.events.iter().collect();
        sorted.sort_by(|a, b| {
            (a.pid, a.tid)
                .cmp(&(b.pid, b.tid))
                .then(a.ts_us.total_cmp(&b.ts_us))
        });

        // Deterministic metadata: every (pid, tid) pair that carries data.
        let mut tracks: Vec<(u64, u64)> = sorted.iter().map(|e| (e.pid, e.tid)).collect();
        tracks.dedup();

        let mut out = String::from("{\n\"traceEvents\": [\n");
        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        let mut seen_pids: Vec<u64> = Vec::new();
        for &(pid, tid) in &tracks {
            if !seen_pids.contains(&pid) {
                seen_pids.push(pid);
                push(
                    format!(
                        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"gfa-{pid}\"}}}}"
                    ),
                    &mut out,
                );
            }
            let label = [
                SpanTrack::Lifecycle,
                SpanTrack::Negotiation,
                SpanTrack::Directory,
                SpanTrack::Execution,
            ]
            .iter()
            .find(|t| t.tid() == tid)
            .map_or("track", |t| t.label());
            push(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{label}\"}}}}"
                ),
                &mut out,
            );
        }
        for event in sorted {
            let mut line = String::new();
            let _ = write!(
                line,
                "{{\"name\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{:.3}",
                event.name, event.pid, event.tid, event.ts_us
            );
            match event.phase {
                Phase::Complete => {
                    let _ = write!(line, ",\"ph\":\"X\",\"dur\":{:.3}", event.dur_us);
                    if !event.detail.is_empty() {
                        let _ = write!(line, ",\"args\":{{\"detail\":\"{}\"}}", esc(&event.detail));
                    }
                }
                Phase::FlowStart => {
                    let _ = write!(line, ",\"ph\":\"s\",\"cat\":\"federation\",\"id\":{}", event.id);
                }
                Phase::FlowFinish => {
                    let _ = write!(
                        line,
                        ",\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"federation\",\"id\":{}",
                        event.id
                    );
                }
            }
            line.push('}');
            push(line, &mut out);
        }
        out.push_str("\n]\n}\n");
        out
    }

    /// Buffers a completed causal span.
    pub fn span(&mut self, record: SpanRecord) {
        let start = record.start.as_secs() * US_PER_SEC;
        let end = record.end.as_secs() * US_PER_SEC;
        self.events.push(ChromeEvent {
            pid: record.gfa as u64,
            tid: record.track.tid(),
            ts_us: start,
            dur_us: (end - start).max(0.0),
            phase: Phase::Complete,
            name: record.name,
            id: 0,
            detail: record.detail,
        });
    }

    /// Buffers one endpoint of a cross-entity flow.
    pub fn flow(&mut self, record: FlowRecord) {
        self.events.push(ChromeEvent {
            pid: record.gfa as u64,
            tid: record.track.tid(),
            ts_us: record.time.as_secs() * US_PER_SEC,
            dur_us: 0.0,
            phase: if record.start { Phase::FlowStart } else { Phase::FlowFinish },
            name: "flow",
            id: record.id,
            detail: String::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use grid_des::SimTime;

    fn span(gfa: usize, track: SpanTrack, name: &'static str, t0: f64, t1: f64) -> SpanRecord {
        SpanRecord {
            gfa,
            track,
            name,
            start: SimTime::new(t0),
            end: SimTime::new(t1),
            detail: format!("job {gfa}:{name}"),
        }
    }

    #[test]
    fn export_is_valid_json_with_monotone_tracks() {
        let mut collector = SpanCollector::new();
        // Deliberately out of order within a track.
        collector.span(span(1, SpanTrack::Lifecycle, "job", 50.0, 60.0));
        collector.span(span(0, SpanTrack::Lifecycle, "job", 10.0, 40.0));
        collector.span(span(0, SpanTrack::Lifecycle, "job", 5.0, 8.0));
        collector.span(span(0, SpanTrack::Directory, "probe", 12.0, 12.5));
        collector.flow(FlowRecord {
            id: 9,
            gfa: 0,
            track: SpanTrack::Negotiation,
            time: SimTime::new(20.0),
            start: true,
        });
        collector.flow(FlowRecord {
            id: 9,
            gfa: 1,
            track: SpanTrack::Negotiation,
            time: SimTime::new(21.0),
            start: false,
        });
        let doc = collector.to_chrome_trace();
        let parsed = parse(&doc).expect("chrome trace must parse");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        // Per-(pid, tid) timestamps must be non-decreasing.
        let mut last: Vec<((u64, u64), f64)> = Vec::new();
        for event in events {
            let ph = event.get("ph").and_then(Json::as_str).expect("ph");
            assert!(matches!(ph, "X" | "s" | "f" | "M"), "unexpected phase {ph}");
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
        // Both flow endpoints carry the same id.
        let ids: Vec<f64> = events
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(Json::as_str), Some("s" | "f")))
            .map(|e| e.get("id").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(ids, vec![9.0, 9.0]);
        assert_eq!(SpanTrack::Execution.tid(), 3);
        assert_eq!(SpanTrack::Directory.label(), "directory");
    }

    #[test]
    fn empty_collector_exports_an_empty_event_array() {
        let collector = SpanCollector::new();
        let doc = collector.to_chrome_trace();
        let parsed = parse(&doc).expect("parse");
        assert_eq!(parsed.get("traceEvents").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
        assert!(collector.is_empty());
    }
}
