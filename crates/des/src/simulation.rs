//! The simulation driver.

use crate::entity::{Context, Entity, EntityId};
use crate::event::EventKind;
use crate::queue::EventQueue;
use crate::stats::SimStats;
use crate::time::SimTime;
use crate::trace::EventProfiler;

/// A single deterministic discrete-event simulation run.
///
/// `M` is the model's message/payload type, `E` its entity type (a model
/// with several kinds of actor uses one enum) and `S` the state every
/// entity shares.  The simulation owns the entities and the shared state by
/// value, lends `&mut S` to each handler through [`Context::shared`] and
/// hands both back from [`Simulation::into_parts`].
pub struct Simulation<M, E, S = ()> {
    entities: Vec<E>,
    shared: S,
    queue: EventQueue<M>,
    clock: SimTime,
    stats: SimStats,
    /// Installed handler profiler, if any.  The disabled path is a single
    /// `Option` discriminant test per event — measured by the dispatch
    /// perf gate, which is exactly the hot path this sits on.
    profiler: Option<Box<dyn EventProfiler<M>>>,
    started: bool,
}

impl<M, E: Entity<M, S>, S> Simulation<M, E, S> {
    /// Creates a simulation owning `shared`.
    #[must_use]
    pub fn new(shared: S) -> Self {
        Simulation {
            entities: Vec::new(),
            shared,
            queue: EventQueue::new(),
            clock: SimTime::ZERO,
            stats: SimStats::default(),
            profiler: None,
            started: false,
        }
    }

    /// Installs a handler profiler whose `enter`/`exit` bracket every
    /// `Entity::on_event` invocation.  The profiler sees only the event
    /// payload (by reference) and cannot touch sim state.
    pub fn set_profiler(&mut self, profiler: Box<dyn EventProfiler<M>>) {
        self.profiler = Some(profiler);
    }

    /// Registers an entity and returns its id.
    ///
    /// # Panics
    /// Panics if called after the simulation has started.
    pub fn add_entity(&mut self, entity: E) -> EntityId {
        assert!(
            !self.started,
            "entities must be registered before the simulation starts"
        );
        self.entities.push(entity);
        EntityId::new(self.entities.len() - 1)
    }

    /// The registered entities, indexed by [`EntityId::index`].
    #[must_use]
    pub fn entities(&self) -> &[E] {
        &self.entities
    }

    /// Ends the simulation, handing back the entities (in registration
    /// order) and the shared state.
    #[must_use]
    pub fn into_parts(self) -> (Vec<E>, S) {
        (self.entities, self.shared)
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Engine statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Runs until the future-event list drains: on the first call every
    /// entity's `on_start`, in registration order, then every event in
    /// `(time, seq)` order.  A model ends by scheduling nothing more, as a
    /// federation does once every job has concluded.
    pub fn run(&mut self) {
        if !self.started {
            self.started = true;
            // Deliver on_start in registration order for determinism.
            for (idx, entity) in self.entities.iter_mut().enumerate() {
                let mut ctx = Context {
                    now: self.clock,
                    self_id: EntityId::new(idx),
                    queue: &mut self.queue,
                    shared: &mut self.shared,
                };
                entity.on_start(&mut ctx);
            }
        }

        // One pop merges the queue's two heads (FIFO lane, heap) directly,
        // instead of a peek followed by a pop.
        while let Some(event) = self.queue.pop() {
            // Time monotonicity: a debug assertion normally, promoted to a
            // hard assert under the `invariants` feature so release-mode CI
            // test runs still catch a clock running backwards.
            #[cfg(feature = "invariants")]
            assert!(
                event.time >= self.clock,
                "event queue returned an event from the past ({:?} < {:?})",
                event.time,
                self.clock
            );
            #[cfg(not(feature = "invariants"))]
            debug_assert!(
                event.time >= self.clock,
                "event queue returned an event from the past"
            );
            self.clock = event.time;

            self.stats.events_delivered += 1;
            match event.kind {
                EventKind::Message if event.src != event.dst => {
                    self.stats.messages_delivered += 1;
                }
                EventKind::Timer => self.stats.timers_delivered += 1,
                EventKind::Message => {}
            }

            let dst = event.dst.index();
            let Some(entity) = self.entities.get_mut(dst) else {
                panic!("event addressed to unknown entity E{dst}");
            };
            let mut ctx = Context {
                now: self.clock,
                self_id: event.dst,
                queue: &mut self.queue,
                shared: &mut self.shared,
            };
            match self.profiler.as_deref_mut() {
                None => entity.on_event(event, &mut ctx),
                Some(profiler) => {
                    profiler.enter(&event.payload);
                    entity.on_event(event, &mut ctx);
                    profiler.exit();
                }
            }
        }

        self.stats.events_scheduled = self.queue.scheduled_total();
        self.stats.lane_pushes = self.queue.lane_pushed();
        self.stats.heap_high_water = self.queue.heap_high_water() as u64;
        self.stats.end_time = self.clock;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Tick,
        Payload(u64),
    }

    /// Entity that re-schedules itself `remaining` times at a fixed period.
    struct Clocker {
        period: f64,
        remaining: u32,
        fired: u32,
    }

    impl Clocker {
        fn new(period: f64, remaining: u32) -> Self {
            Clocker {
                period,
                remaining,
                fired: 0,
            }
        }
    }

    impl Entity<Msg> for Clocker {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if self.remaining > 0 {
                ctx.timer_at(ctx.now().after(self.period), Msg::Tick);
            }
        }
        fn on_event(&mut self, _event: Event<Msg>, ctx: &mut Context<'_, Msg>) {
            self.fired += 1;
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.timer_at(ctx.now().after(self.period), Msg::Tick);
            }
        }
    }

    /// The local entity enum of the tests that mix behaviours: a forwarder
    /// passes each payload on to `next`, a kickoff sends the first one, a
    /// clocker ticks alongside.
    enum Node {
        Forwarder {
            next: Option<EntityId>,
            seen: Vec<u64>,
        },
        Kickoff {
            target: EntityId,
        },
        Clocker(Clocker),
    }

    impl Entity<Msg> for Node {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            match self {
                Node::Forwarder { .. } => {}
                Node::Kickoff { target } => ctx.send(*target, 0.0, Msg::Payload(0)),
                Node::Clocker(clocker) => clocker.on_start(ctx),
            }
        }
        fn on_event(&mut self, event: Event<Msg>, ctx: &mut Context<'_, Msg>) {
            match self {
                Node::Forwarder { next, seen } => {
                    if let Msg::Payload(v) = event.payload {
                        seen.push(v);
                        if let Some(next) = *next {
                            ctx.send(next, 1.0, Msg::Payload(v + 1));
                        }
                    }
                }
                Node::Kickoff { .. } => {}
                Node::Clocker(clocker) => clocker.on_event(event, ctx),
            }
        }
    }

    fn forwarder(next: Option<EntityId>) -> Node {
        Node::Forwarder { next, seen: vec![] }
    }

    #[test]
    fn periodic_timer_runs_to_exhaustion() {
        let mut sim = Simulation::new(());
        sim.add_entity(Clocker::new(2.0, 5));
        sim.run();
        assert_eq!(sim.now(), SimTime::new(10.0));
        assert_eq!(sim.stats().timers_delivered, 5);
        // One timer pending at a time.
        assert_eq!(sim.stats().heap_high_water, 1);
        let clocker = &sim.entities()[0];
        assert_eq!((clocker.fired, clocker.remaining), (5, 0));
    }

    #[test]
    fn chain_of_messages_is_delivered_in_order() {
        let mut sim = Simulation::new(());
        let c = sim.add_entity(forwarder(None));
        let b = sim.add_entity(forwarder(Some(c)));
        let a = sim.add_entity(forwarder(Some(b)));
        sim.add_entity(Node::Kickoff { target: a });
        sim.run();
        assert_eq!(sim.stats().messages_delivered, 3);
        assert_eq!(sim.now(), SimTime::new(2.0));
        let seen: Vec<&[u64]> = sim
            .entities()
            .iter()
            .filter_map(|node| match node {
                Node::Forwarder { seen, .. } => Some(seen.as_slice()),
                _ => None,
            })
            .collect();
        assert_eq!(seen, [&[2][..], &[1], &[0]]);
    }

    #[test]
    fn deterministic_across_runs() {
        fn run_once() -> (u64, f64) {
            let mut sim = Simulation::new(());
            let c = sim.add_entity(forwarder(None));
            let b = sim.add_entity(forwarder(Some(c)));
            sim.add_entity(Node::Kickoff { target: b });
            sim.add_entity(Node::Clocker(Clocker::new(0.7, 20)));
            sim.run();
            (sim.stats().events_delivered, sim.now().as_secs())
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic(expected = "before the simulation starts")]
    fn adding_entity_after_start_panics() {
        let mut sim = Simulation::new(());
        sim.add_entity(Node::Kickoff {
            target: EntityId::new(0),
        });
        sim.run();
        sim.add_entity(Node::Kickoff {
            target: EntityId::new(0),
        });
    }

    #[test]
    fn shared_state_is_lent_to_every_handler_and_handed_back() {
        /// Bumps the shared counter once at start-up and once per tick.
        struct Bumper(Clocker);
        impl Entity<Msg, u64> for Bumper {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg, u64>) {
                *ctx.shared += 1;
                ctx.timer_at(ctx.now().after(self.0.period), Msg::Tick);
            }
            fn on_event(&mut self, _event: Event<Msg>, ctx: &mut Context<'_, Msg, u64>) {
                *ctx.shared += 1;
                self.0.fired += 1;
                self.0.remaining -= 1;
                if self.0.remaining > 0 {
                    ctx.timer_at(ctx.now().after(self.0.period), Msg::Tick);
                }
            }
        }
        let mut sim = Simulation::new(0u64);
        sim.add_entity(Bumper(Clocker::new(1.0, 3)));
        sim.add_entity(Bumper(Clocker::new(2.0, 4)));
        sim.run();
        let (entities, total) = sim.into_parts();
        let fired: Vec<u32> = entities.iter().map(|b| b.0.fired).collect();
        assert_eq!(fired, [3, 4]);
        assert_eq!(total, 2 + 3 + 4);
    }

    #[test]
    fn profiler_brackets_every_handler_in_strict_pairs() {
        use std::cell::RefCell;
        use std::rc::Rc;
        struct CountingProfiler {
            entered: Rc<RefCell<u64>>,
            open: bool,
        }
        impl crate::trace::EventProfiler<Msg> for CountingProfiler {
            fn enter(&mut self, _payload: &Msg) {
                assert!(!self.open, "enter without a matching exit");
                self.open = true;
                *self.entered.borrow_mut() += 1;
            }
            fn exit(&mut self) {
                assert!(self.open, "exit without a matching enter");
                self.open = false;
            }
        }
        let entered = Rc::new(RefCell::new(0u64));
        let mut sim = Simulation::new(());
        sim.add_entity(Clocker::new(1.0, 4));
        sim.set_profiler(Box::new(CountingProfiler {
            entered: Rc::clone(&entered),
            open: false,
        }));
        sim.run();
        assert_eq!(*entered.borrow(), sim.stats().events_delivered);
    }
}
