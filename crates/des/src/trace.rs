//! The observability record types and the handler-profiler hook.
//!
//! Models describe what happened causally with [`SpanRecord`]s (a named
//! interval on one entity's track) and [`FlowRecord`]s (directed
//! cross-entity arrows, e.g. a dispatch linked by its envelope sequence
//! number); the span collector that buffers and exports them lives in
//! `grid-obs`.
//!
//! [`EventProfiler`] is the self-profiling hook: the engine brackets every
//! handler invocation with [`enter`](EventProfiler::enter) /
//! [`exit`](EventProfiler::exit) when a profiler is installed.  The trait
//! deliberately carries no clock — `grid-des` itself stays free of
//! wall-clock reads; a profiler implementation takes its own timestamps and
//! keeps them strictly outside sim state.

use crate::time::SimTime;

/// The conceptual track a span or flow belongs to, rendered as one timeline
/// row per entity in trace viewers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanTrack {
    /// Whole job lifecycles (submit → conclusion).
    Lifecycle,
    /// Negotiation round-trips between GFAs.
    Negotiation,
    /// Directory probes and lookups.
    Directory,
    /// Job execution intervals on the executing cluster.
    Execution,
}

impl SpanTrack {
    /// Stable per-entity track index (Chrome Trace `tid`).
    #[must_use]
    pub fn tid(self) -> u64 {
        match self {
            SpanTrack::Lifecycle => 0,
            SpanTrack::Negotiation => 1,
            SpanTrack::Directory => 2,
            SpanTrack::Execution => 3,
        }
    }

    /// Human-readable track name for trace-viewer metadata.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanTrack::Lifecycle => "lifecycle",
            SpanTrack::Negotiation => "negotiation",
            SpanTrack::Directory => "directory",
            SpanTrack::Execution => "execution",
        }
    }
}

/// A completed causal span: a named interval on one entity's track.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Owning entity index (Chrome Trace `pid`).
    pub gfa: usize,
    /// Track the span renders on.
    pub track: SpanTrack,
    /// Static span name (e.g. `"job"`, `"negotiation"`).
    pub name: &'static str,
    /// Span start, in simulated time.
    pub start: SimTime,
    /// Span end, in simulated time (`end >= start`).
    pub end: SimTime,
    /// Free-form argument string (job id, outcome, …).
    pub detail: String,
}

/// One endpoint of a directed cross-entity flow arrow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// Flow identity; both endpoints carry the same id.  Models derive it
    /// from the envelope sequence number when one exists, so traced flows
    /// stay linked across entities exactly as the wire protocol linked
    /// them.
    pub id: u64,
    /// Entity this endpoint sits on.
    pub gfa: usize,
    /// Track this endpoint renders on.
    pub track: SpanTrack,
    /// Endpoint time, in simulated time.
    pub time: SimTime,
    /// `true` for the producing endpoint, `false` for the consuming one.
    pub start: bool,
}

/// Brackets every delivered-event handler invocation when installed via
/// `Simulation::set_profiler`.  Implementations own their timing source and
/// aggregation; the engine only guarantees `enter` and `exit` are called in
/// strict pairs around `Entity::on_event`.
pub trait EventProfiler<M> {
    /// Called immediately before the handler runs, with the event payload
    /// (for per-event-type classification).
    fn enter(&mut self, payload: &M);
    /// Called immediately after the handler returns.
    fn exit(&mut self);
}
