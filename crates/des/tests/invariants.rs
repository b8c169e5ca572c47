//! Proves the engine's time-monotonicity invariant fires (the `invariants`
//! feature): a corrupting test double rewinds a pending event into the
//! simulated past and the run loop must panic instead of delivering it.
#![cfg(feature = "invariants")]

use grid_des::{Context, Entity, Event, EventQueue, SimTime, Simulation};

/// An entity that schedules three future timers.  With `rewind` set, the
/// first delivery (t = 10) rewinds the earliest pending timer, the heap's
/// t = 20 head, to t = 5.
struct Ticker {
    rewind: bool,
}

impl Entity<u32> for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.timer_at(SimTime::new(10.0), 1);
        ctx.timer_at(SimTime::new(20.0), 2);
        ctx.timer_at(SimTime::new(30.0), 3);
    }

    fn on_event(&mut self, event: Event<u32>, ctx: &mut Context<'_, u32>) {
        if self.rewind && event.payload == 1 {
            assert!(ctx.corrupt_earliest_event_time(SimTime::new(5.0)));
        }
    }
}

#[test]
fn intact_run_delivers_in_order() {
    let mut sim = Simulation::new(());
    sim.add_entity(Ticker { rewind: false });
    sim.run();
    assert_eq!(sim.now(), SimTime::new(30.0));
    assert_eq!(sim.stats().events_delivered, 3);
}

#[test]
#[should_panic(expected = "event from the past")]
fn reordered_event_trips_the_monotonicity_assert() {
    // The clock sits at 10 when the t = 20 timer is rewound to t = 5: the
    // engine must refuse to run its clock backwards.
    let mut sim = Simulation::new(());
    sim.add_entity(Ticker { rewind: true });
    sim.run();
}

/// An entity whose timer sends a message and then rewinds it to t = 5, so
/// the rewound event sits in the queue's FIFO lane: a corruption that
/// missed the lane would find nothing to rewind.
struct Messenger;

impl Entity<u32> for Messenger {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.timer_at(SimTime::new(10.0), 1);
    }

    fn on_event(&mut self, event: Event<u32>, ctx: &mut Context<'_, u32>) {
        if event.payload == 1 {
            ctx.send(ctx.self_id(), 10.0, 2);
            // The t = 20 message, the lane's head, is the only pending event.
            assert!(ctx.corrupt_earliest_event_time(SimTime::new(5.0)));
        }
    }
}

#[test]
#[should_panic(expected = "event from the past")]
fn reordered_lane_event_trips_the_monotonicity_assert() {
    let mut sim = Simulation::new(());
    sim.add_entity(Messenger);
    sim.run();
}

#[test]
fn corrupting_an_empty_queue_reports_false() {
    let mut queue: EventQueue<u32> = EventQueue::new();
    assert!(!queue.corrupt_earliest_time(SimTime::new(1.0)));
}
