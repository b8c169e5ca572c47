//! A GFA's scripted timers, streamed.
//!
//! Everything a GFA knows at start-up that it will do later is its
//! *script*: its local users' job arrivals, its scripted departure and
//! repricings, and the churn departures, rejoins and stabilization rounds
//! drawn for it.  Pushed into the event queue up front, the script would
//! hold a heap entry per item, and a boxed job per arrival, for as long as
//! the item waits.
//!
//! Instead `on_start` reserves one block of sequence numbers, one per item
//! in the order an up-front schedule pushes them (arrivals in trace order,
//! then the departure, the repricings, the churn departures, the churn
//! joins and the stabilizations), and keeps at most two timers pending: the
//! next arrival and the next other item.  Each scripted delivery schedules
//! its successor before it is handled.  Every item therefore fires under the
//! `(time, seq)` key the up-front push would have given it, so the order of
//! delivery, and every digest, is the same by construction.

use std::cmp::Reverse;

use grid_des::{Context, SimTime};
use grid_workload::Job;

use crate::federation::GfaSchedule;
use crate::messages::FedMessage;

/// A scripted timer other than an arrival.
#[derive(Debug, Clone, Copy)]
enum Item {
    Depart,
    Reprice(f64),
    ChurnDepart(bool),
    ChurnJoin,
    Stabilize,
}

impl Item {
    fn message(self) -> FedMessage {
        match self {
            Item::Depart => FedMessage::Depart,
            Item::Reprice(price) => FedMessage::Reprice { price },
            Item::ChurnDepart(graceful) => FedMessage::ChurnDepart { graceful },
            Item::ChurnJoin => FedMessage::ChurnJoin,
            Item::Stabilize => FedMessage::Stabilize,
        }
    }
}

/// One GFA's script.  Each entry keeps its offset in the reserved block, so
/// its sequence number is `first_seq + offset`.
#[derive(Debug)]
pub(crate) struct Script {
    /// First number of the reserved block (set by [`Script::start`]).
    first_seq: u64,
    /// Jobs yet to arrive, sorted by `(submit, offset)`, the next arrival
    /// last.  The pending arrival timer carries no job: it stays here until
    /// it arrives.
    arrivals: Vec<(u64, Job)>,
    /// The other items not yet scheduled, sorted by `(time, offset)`, the
    /// next one last.
    rest: Vec<(SimTime, u64, Item)>,
}

impl Script {
    /// The script of a GFA whose local users submit `jobs` and whose other
    /// timers `schedule` lists.
    ///
    /// # Panics
    /// Panics if a submit time or a scheduled time is negative or not
    /// finite.
    pub(crate) fn new(jobs: Vec<Job>, schedule: GfaSchedule) -> Self {
        let GfaSchedule {
            departure,
            repricings,
            churn_departures,
            churn_joins,
            stabilizations,
        } = schedule;
        // The trace reached the engine as one vector already: this tags it
        // with offsets and consumes it, so no second copy stays in memory.
        // fedlint: allow(eager-materialise)
        let mut arrivals: Vec<(u64, Job)> = (0..).zip(jobs).collect();
        let items = departure
            .map(|at| (at, Item::Depart))
            .into_iter()
            .chain(repricings.into_iter().map(|(at, price)| (at, Item::Reprice(price))))
            .chain(
                churn_departures
                    .into_iter()
                    .map(|(at, graceful)| (at, Item::ChurnDepart(graceful))),
            )
            .chain(churn_joins.into_iter().map(|at| (at, Item::ChurnJoin)))
            .chain(stabilizations.into_iter().map(|at| (at, Item::Stabilize)));
        let mut rest: Vec<(SimTime, u64, Item)> = (arrivals.len() as u64..)
            .zip(items)
            .map(|(offset, (at, item))| (SimTime::new(at), offset, item))
            .collect();
        // Offsets are unique, so the unstable sorts are deterministic.
        arrivals.sort_unstable_by_key(|(offset, job)| Reverse((SimTime::new(job.submit), *offset)));
        rest.sort_unstable_by_key(|(at, offset, _)| Reverse((*at, *offset)));
        Script {
            first_seq: 0,
            arrivals,
            rest,
        }
    }

    /// Reserves the script's sequence numbers and schedules its first
    /// arrival and its first other item.
    pub(crate) fn start<S>(&mut self, ctx: &mut Context<'_, FedMessage, S>) {
        self.first_seq = ctx.reserve_seqs((self.arrivals.len() + self.rest.len()) as u64);
        self.schedule_arrival(ctx);
        self.advance(ctx);
    }

    fn schedule_arrival<S>(&self, ctx: &mut Context<'_, FedMessage, S>) {
        if let Some((offset, job)) = self.arrivals.last() {
            let at = SimTime::new(job.submit);
            ctx.timer_at_reserved(at, self.first_seq + offset, FedMessage::JobArrival);
        }
    }

    /// Sees every payload delivered to the GFA, before it is handled.  A
    /// delivered arrival takes its job out of the script, schedules the next
    /// arrival and returns the job; any other scripted item schedules the
    /// next such item.
    pub(crate) fn on_delivery<S>(
        &mut self,
        delivered: &FedMessage,
        ctx: &mut Context<'_, FedMessage, S>,
    ) -> Option<Job> {
        match delivered {
            FedMessage::JobArrival => {
                let (_, job) = self.arrivals.pop()?;
                self.schedule_arrival(ctx);
                Some(job)
            }
            FedMessage::Depart
            | FedMessage::Reprice { .. }
            | FedMessage::ChurnDepart { .. }
            | FedMessage::ChurnJoin
            | FedMessage::Stabilize => {
                self.advance(ctx);
                None
            }
            _ => None,
        }
    }

    /// Schedules the next item other than an arrival, if any.
    fn advance<S>(&mut self, ctx: &mut Context<'_, FedMessage, S>) {
        if let Some((at, offset, item)) = self.rest.pop() {
            ctx.timer_at_reserved(at, self.first_seq + offset, item.message());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_des::{BinaryHeapEventQueue, Entity, EntityId, Event, EventKind, Simulation};
    use grid_workload::{JobId, UserId};

    /// An entity that only plays its script, recording every delivery and
    /// the sequence number of every job that arrives.
    struct Player {
        script: Script,
        delivered: Vec<(SimTime, u64, FedMessage)>,
        arrived: Vec<usize>,
    }

    impl Entity<FedMessage> for Player {
        fn on_start(&mut self, ctx: &mut Context<'_, FedMessage>) {
            self.script.start(ctx);
        }
        fn on_event(&mut self, event: Event<FedMessage>, ctx: &mut Context<'_, FedMessage>) {
            if let Some(job) = self.script.on_delivery(&event.payload, ctx) {
                self.arrived.push(job.id.seq);
            }
            self.delivered.push((event.time, event.seq, event.payload));
        }
    }

    fn timer(at: f64, payload: FedMessage) -> Event<FedMessage> {
        Event {
            time: SimTime::new(at),
            seq: 0,
            src: EntityId::new(0),
            dst: EntityId::new(0),
            kind: EventKind::Timer,
            payload,
        }
    }

    #[test]
    fn an_unsorted_script_streams_in_the_order_of_an_up_front_push() {
        let jobs: Vec<Job> = [30.0, 10.0, 30.0, 0.0, 10.0]
            .into_iter()
            .enumerate()
            .map(|(seq, submit)| {
                let id = JobId { origin: 0, seq };
                let user = UserId { origin: 0, local: 0 };
                Job::from_runtime(id, user, submit, 1, 60.0, 100.0, 0.1)
            })
            .collect();
        // Repricings out of time order, and every kind tied with another
        // at t = 10 or t = 30.
        let schedule = GfaSchedule {
            departure: Some(30.0),
            repricings: vec![(20.0, 2.0), (10.0, 1.5), (30.0, 3.0)],
            churn_departures: vec![(5.0, true)],
            churn_joins: vec![10.0],
            stabilizations: vec![0.0, 30.0],
        };

        // Everything pushed up front, in the order the script reserves it.
        let mut reference = BinaryHeapEventQueue::new();
        for job in &jobs {
            reference.push(timer(job.submit, FedMessage::JobArrival));
        }
        reference.push(timer(30.0, FedMessage::Depart));
        for &(at, price) in &schedule.repricings {
            reference.push(timer(at, FedMessage::Reprice { price }));
        }
        reference.push(timer(5.0, FedMessage::ChurnDepart { graceful: true }));
        reference.push(timer(10.0, FedMessage::ChurnJoin));
        for &at in &schedule.stabilizations {
            reference.push(timer(at, FedMessage::Stabilize));
        }
        let expected: Vec<(SimTime, u64, FedMessage)> = std::iter::from_fn(|| reference.pop())
            .map(|e| (e.time, e.seq, e.payload))
            .collect();

        let mut sim = Simulation::new(1, ());
        sim.add_entity(Player {
            script: Script::new(jobs, schedule),
            delivered: Vec::new(),
            arrived: Vec::new(),
        });
        sim.run();
        let player = &sim.entities()[0];
        assert_eq!(player.delivered, expected);
        // Jobs arrive in (submit, trace position) order.
        assert_eq!(player.arrived, [3, 1, 4, 0, 2]);
        // The next arrival and the next other item, never more.
        assert_eq!(sim.stats().heap_high_water, 2);
        assert_eq!(sim.stats().events_scheduled, 13);
    }
}
