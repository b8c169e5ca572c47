//! Events exchanged between entities.

use crate::entity::EntityId;
use crate::time::SimTime;

/// Classification of an event, used mainly for tracing and statistics.
///
/// The engine itself treats all events identically; the distinction matters
/// to consumers (e.g. the federation message accounting distinguishes
/// self-timers from genuine inter-entity messages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A message from one entity to another (possibly itself) that models a
    /// real network message or an internal hand-off.
    Message,
    /// A timer the entity scheduled on itself (e.g. "wake me up when the job
    /// I started finishes").  Timers never model network traffic.
    Timer,
}

/// A timestamped event delivered to a destination entity.
///
/// Events are generic over the payload type `M`, which each simulation model
/// defines (for the Grid-Federation model this is `FedMessage`).
#[derive(Debug, Clone)]
pub struct Event<M> {
    /// Delivery time.
    pub time: SimTime,
    /// Monotonically increasing sequence number assigned at scheduling time.
    /// Guarantees deterministic FIFO ordering among simultaneous events.
    pub seq: u64,
    /// Entity that scheduled the event.
    pub src: EntityId,
    /// Entity the event is delivered to.
    pub dst: EntityId,
    /// Message or timer classification.
    pub kind: EventKind,
    /// Model-specific payload.
    pub payload: M,
}
