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

impl<M> Event<M> {
    /// Returns `true` if this event is a self-scheduled timer.
    #[must_use]
    pub fn is_timer(&self) -> bool {
        self.kind == EventKind::Timer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, src: usize, dst: usize) -> Event<u32> {
        Event {
            time: SimTime::new(1.0),
            seq: 0,
            src: EntityId::new(src),
            dst: EntityId::new(dst),
            kind,
            payload: 7,
        }
    }

    #[test]
    fn timer_classification() {
        assert!(ev(EventKind::Timer, 0, 0).is_timer());
        assert!(!ev(EventKind::Message, 0, 0).is_timer());
    }
}
