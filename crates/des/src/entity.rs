//! Entities and the context handle they use to interact with the engine.

use std::fmt;

use crate::event::{Event, EventKind};
use crate::queue::EventQueue;
use crate::time::SimTime;

/// Identifies an entity registered with a [`crate::Simulation`].
///
/// Ids are dense indices assigned in registration order, which makes them
/// usable as `Vec` indices in model code (e.g. "GFA *i* owns cluster *i*").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(usize);

impl EntityId {
    /// Creates an id from a raw index.  Normally only the engine does this.
    #[must_use]
    pub fn new(index: usize) -> Self {
        EntityId(index)
    }

    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// A simulated actor: a cluster, a GFA, a user population, a directory node…
///
/// Entities never hold references to one another; all interaction goes
/// through timestamped events scheduled via [`Context`], plus the one
/// shared state `S` the simulation owns and lends to each handler in turn
/// ([`Context::shared`]).  This mirrors the message-passing structure of
/// the real distributed system and keeps the model free of aliasing issues.
pub trait Entity<M, S = ()> {
    /// Called once before the first event is delivered.  Entities typically
    /// schedule their initial timers or first job arrivals here.
    fn on_start(&mut self, ctx: &mut Context<'_, M, S>) {
        let _ = ctx;
    }

    /// Called for every event addressed to this entity.
    fn on_event(&mut self, event: Event<M>, ctx: &mut Context<'_, M, S>);
}

/// Handle passed to entities, giving them access to the clock, the event
/// queue and the simulation's shared state.
pub struct Context<'a, M, S = ()> {
    pub(crate) now: SimTime,
    pub(crate) self_id: EntityId,
    pub(crate) queue: &'a mut EventQueue<M>,
    /// The state every entity shares (a federation's directory, bank and
    /// ledgers), lent for the duration of one handler call.
    pub shared: &'a mut S,
}

impl<'a, M, S> Context<'a, M, S> {
    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the entity currently being invoked.
    #[must_use]
    pub fn self_id(&self) -> EntityId {
        self.self_id
    }

    /// Sends a message to `dst`, delivered `delay` seconds from now.
    ///
    /// # Panics
    /// Panics if `delay` is negative or not finite.
    pub fn send(&mut self, dst: EntityId, delay: f64, payload: M) {
        self.schedule(dst, self.now.after(delay), EventKind::Message, payload);
    }

    /// Schedules a timer on the calling entity at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time.
    pub fn timer_at(&mut self, at: SimTime, payload: M) {
        self.assert_not_past(at);
        self.schedule(self.self_id, at, EventKind::Timer, payload);
    }

    /// Reserves `count` consecutive sequence numbers and returns the first.
    ///
    /// An entity that knows its future timers up front reserves one number
    /// per timer here, in the order it would have scheduled them, and
    /// schedules each later with [`Self::timer_at_reserved`].  Each timer
    /// then fires under the `(time, seq)` key an eager schedule would have
    /// given it, so delivery order is unchanged while the queue holds only
    /// the timers scheduled so far.
    pub fn reserve_seqs(&mut self, count: u64) -> u64 {
        self.queue.reserve(count)
    }

    /// Schedules a timer on the calling entity at absolute time `at`, under
    /// `seq`, a number from [`Self::reserve_seqs`].  It must be scheduled
    /// before any event with a later `(time, seq)` key is delivered (an
    /// entity streaming a time-sorted script schedules each timer's
    /// successor when the timer fires), and each number at most once.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time.
    pub fn timer_at_reserved(&mut self, at: SimTime, seq: u64, payload: M) {
        self.assert_not_past(at);
        self.queue.push_reserved(Event {
            time: at,
            seq,
            src: self.self_id,
            dst: self.self_id,
            kind: EventKind::Timer,
            payload,
        });
    }

    /// Corrupting test double: rewinds the earliest pending event to
    /// `new_time` (see [`EventQueue::corrupt_earliest_time`]), so its
    /// delivery trips the engine's time-monotonicity assert if `new_time`
    /// lies in the simulated past.  Returns `false` on an empty queue.
    #[cfg(feature = "invariants")]
    pub fn corrupt_earliest_event_time(&mut self, new_time: SimTime) -> bool {
        self.queue.corrupt_earliest_time(new_time)
    }

    fn assert_not_past(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot schedule a timer in the past ({at} < {})",
            self.now
        );
    }

    fn schedule(&mut self, dst: EntityId, at: SimTime, kind: EventKind, payload: M) {
        self.queue.push(Event {
            time: at,
            seq: 0, // assigned by the queue
            src: self.self_id,
            dst,
            kind,
            payload,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_id_roundtrip_and_display() {
        let id = EntityId::new(5);
        assert_eq!(id.index(), 5);
        assert_eq!(format!("{id}"), "E5");
        assert!(EntityId::new(1) < EntityId::new(2));
    }

    #[test]
    fn context_schedules_messages_and_timers() {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut ctx = Context {
            now: SimTime::new(10.0),
            self_id: EntityId::new(0),
            queue: &mut queue,
            shared: &mut (),
        };
        assert_eq!(ctx.now(), SimTime::new(10.0));
        assert_eq!(ctx.self_id(), EntityId::new(0));
        ctx.send(EntityId::new(1), 5.0, 7);
        ctx.timer_at(SimTime::new(11.0), 9);
        ctx.timer_at(SimTime::new(30.0), 10);
        assert_eq!(queue.len(), 3);
        // Events must come out ordered by time: timer_at(11.0), send(15.0),
        // timer_at(30.0).
        let order: Vec<(f64, u32, EventKind)> = std::iter::from_fn(|| queue.pop())
            .map(|e| (e.time.as_secs(), e.payload, e.kind))
            .collect();
        assert_eq!(
            order,
            vec![
                (11.0, 9, EventKind::Timer),
                (15.0, 7, EventKind::Message),
                (30.0, 10, EventKind::Timer),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn reserved_timer_in_the_past_panics() {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut ctx = Context {
            now: SimTime::new(10.0),
            self_id: EntityId::new(0),
            queue: &mut queue,
            shared: &mut (),
        };
        let seq = ctx.reserve_seqs(1);
        ctx.timer_at_reserved(SimTime::new(5.0), seq, 1);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut ctx = Context {
            now: SimTime::new(10.0),
            self_id: EntityId::new(0),
            queue: &mut queue,
            shared: &mut (),
        };
        ctx.timer_at(SimTime::new(5.0), 1);
    }
}
