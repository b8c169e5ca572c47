//! grid-obs — the federation's deterministic observability layer.
//!
//! Three read-only surfaces, threaded through the simulation by
//! `grid-federation-core`:
//!
//! * [`metrics`] — a static-id registry of counters, float accumulators and
//!   log-linear (HDR-style) histograms with per-GFA and per-run scopes.  The
//!   registry is *always on*: recording a sample is an array increment, so
//!   the sim crates use it as their one accounting surface (the ad-hoc
//!   cache/churn/network tallies of earlier PRs now live here) and the
//!   percentile panels (p50/p90/p99 job wait, slowdown, lookup latency,
//!   queue depth) fall out of every run for free.
//! * [`trace`] — a collector for the `grid-des`
//!   [`SpanRecord`](grid_des::SpanRecord)s and
//!   [`FlowRecord`](grid_des::FlowRecord)s the model emits: causal
//!   job-lifecycle spans (submit → probe → negotiation → dispatch →
//!   completion) linked across GFAs by envelope sequence numbers, exported in Chrome Trace
//!   Format for Perfetto / `chrome://tracing`.
//! * [`profile`] — an [`EventProfiler`](grid_des::EventProfiler) measuring
//!   wall-clock per-event-type handler time.  This module is the **only**
//!   place in the workspace outside benches where reading the host clock is
//!   sanctioned; the measurements live strictly outside sim state and feed
//!   `BENCH_perf.json`.
//!
//! Everything here is inert by construction: no method mutates simulation
//! state, consumes simulation randomness, or participates in the audit
//! ledger, so `RunDigest`s are bit-identical with the sinks armed or
//! absent (a differential the core test-suite asserts across backends,
//! churn and network faults).

#![deny(missing_docs)]

pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::{Counter, FSum, HistId, Histogram, MetricsRegistry, Quantiles};
pub use profile::{HandlerProfiler, ProfileEntry, ProfileTable};
pub use trace::SpanCollector;
