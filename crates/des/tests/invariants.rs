//! Proves the engine's time-monotonicity invariant fires (the `invariants`
//! feature): a corrupting test double rewinds a pending event into the
//! simulated past and the run loop must panic instead of delivering it.
#![cfg(feature = "invariants")]

use grid_des::{Context, Entity, Event, EventQueue, SimTime, Simulation};

/// An entity that schedules a few future timers and otherwise does nothing.
struct Ticker;

impl Entity<u32> for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.timer_at(SimTime::new(10.0), 1);
        ctx.timer_at(SimTime::new(20.0), 2);
        ctx.timer_at(SimTime::new(30.0), 3);
    }

    fn on_event(&mut self, _event: Event<u32>, _ctx: &mut Context<'_, u32>) {}
}

#[test]
fn intact_run_delivers_in_order() {
    let mut sim = Simulation::new(7, ());
    sim.add_entity(Ticker);
    sim.run();
    assert_eq!(sim.now(), SimTime::new(30.0));
    assert_eq!(sim.stats().events_delivered, 3);
}

#[test]
#[should_panic(expected = "event from the past")]
fn reordered_event_trips_the_monotonicity_assert() {
    let mut sim = Simulation::new(7, ());
    sim.add_entity(Ticker);
    // Deliver the t=10 event, so the clock sits at 10 with t=20/t=30
    // pending...
    sim.run_to(SimTime::new(15.0));
    assert_eq!(sim.now(), SimTime::new(15.0));
    // ...then corrupt the earliest pending event back to t=5 and keep
    // running: the engine must refuse to run its clock backwards.
    assert!(sim.corrupt_earliest_event_time(SimTime::new(5.0)));
    sim.run();
}

/// An entity whose timer sends a message, so the only pending event
/// afterwards sits in the queue's FIFO lane: a corruption that missed the
/// lane would find nothing to rewind.
struct Messenger;

impl Entity<u32> for Messenger {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.timer_at(SimTime::new(10.0), 1);
    }

    fn on_event(&mut self, event: Event<u32>, ctx: &mut Context<'_, u32>) {
        if event.payload == 1 {
            ctx.send(ctx.self_id(), 10.0, 2);
        }
    }
}

#[test]
#[should_panic(expected = "event from the past")]
fn reordered_lane_event_trips_the_monotonicity_assert() {
    let mut sim = Simulation::new(7, ());
    sim.add_entity(Messenger);
    sim.run_to(SimTime::new(15.0));
    // The t=20 message, the lane's head, is the only pending event.
    assert!(sim.corrupt_earliest_event_time(SimTime::new(5.0)));
    sim.run();
}

#[test]
fn corrupting_an_empty_queue_reports_false() {
    let mut queue: EventQueue<u32> = EventQueue::new();
    assert!(!queue.corrupt_earliest_time(SimTime::new(1.0)));
}
