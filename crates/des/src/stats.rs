//! Engine-level statistics.
//!
//! These counters describe the *simulation engine* (events, wall-clock cost),
//! not the simulated system.  Model-level metrics (utilization, incentive,
//! message classes, …) live in `grid-federation-core::metrics`.

use crate::time::SimTime;

/// Counters accumulated by [`crate::Simulation`] while running.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Events delivered to entities via `on_event`.
    pub events_delivered: u64,
    /// Events pushed into the future-event list.  A run drains the list, so
    /// at its end this equals `events_delivered`.  A timer an entity
    /// reserved a sequence number for ([`crate::Context::reserve_seqs`])
    /// counts once it is scheduled, not when its number is reserved.
    pub events_scheduled: u64,
    /// Messages between two *different* entities (a subset of
    /// `events_delivered`).
    pub messages_delivered: u64,
    /// Events the future-event list appended to its FIFO lane of in-order
    /// messages instead of sifting them through its heap (see
    /// [`crate::EventQueue`]).
    pub lane_pushes: u64,
    /// Self-timers delivered.
    pub timers_delivered: u64,
    /// Most events the future-event list's heap held at once: timers,
    /// reserved pushes and out-of-order messages pending together (lane
    /// events never count).  A model that scheduled its whole script up
    /// front would show it here.
    pub heap_high_water: u64,
    /// Final simulation clock value.
    pub end_time: SimTime,
}
