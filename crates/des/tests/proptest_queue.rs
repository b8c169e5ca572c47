//! Property-based tests for the discrete-event engine invariants.

use grid_des::{
    BinaryHeapEventQueue, Context, Entity, EntityId, Event, EventKind, EventQueue, SimRng, SimTime,
    Simulation,
};
use proptest::prelude::*;

fn make_event(t: f64, payload: u32) -> Event<u32> {
    Event {
        time: SimTime::new(t),
        seq: 0,
        src: EntityId::new(0),
        dst: EntityId::new(0),
        kind: EventKind::Message,
        payload,
    }
}

proptest! {
    /// The queue always pops events in non-decreasing time order, and events
    /// with identical timestamps come out in insertion (FIFO) order —
    /// whether a push took the FIFO lane (a message no earlier than the
    /// lane's tail) or the heap (a timer, or an out-of-order message).
    #[test]
    fn queue_is_time_ordered_and_stable(
        pushes in proptest::collection::vec((0u32..50, any::<bool>()), 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, (t, is_timer)) in pushes.iter().enumerate() {
            let mut event = make_event(f64::from(*t), i as u32);
            if *is_timer {
                event.kind = EventKind::Timer;
            }
            q.push(event);
        }
        let mut last_time = SimTime::ZERO;
        let mut last_payload_at_time: Option<(SimTime, u32)> = None;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.time >= last_time);
            if let Some((t, p)) = last_payload_at_time {
                if t == ev.time {
                    // same timestamp: insertion order == payload order here
                    prop_assert!(ev.payload > p);
                }
            }
            last_payload_at_time = Some((ev.time, ev.payload));
            last_time = ev.time;
        }
        prop_assert!(q.is_empty());
        // The first message finds the lane empty; no timer enters it.
        let messages = pushes.iter().filter(|(_, is_timer)| !is_timer).count() as u64;
        prop_assert_eq!(q.lane_pushed() > 0, messages > 0);
        prop_assert!(q.lane_pushed() <= messages);
    }

    /// SimTime ordering is consistent with the underlying f64 ordering.
    #[test]
    fn simtime_order_matches_f64(a in 0.0f64..1e9, b in 0.0f64..1e9) {
        let ta = SimTime::new(a);
        let tb = SimTime::new(b);
        prop_assert_eq!(ta < tb, a < b);
        prop_assert_eq!(ta.max(tb).as_secs(), a.max(b));
        prop_assert_eq!(ta.min(tb).as_secs(), a.min(b));
    }

    /// Derived RNG streams replay identically for the same (seed, id) pair.
    #[test]
    fn rng_streams_replay(seed in any::<u64>(), stream in 0u64..64) {
        let mut a = SimRng::derive(seed, stream);
        let mut b = SimRng::derive(seed, stream);
        for _ in 0..32 {
            prop_assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }
}

/// An entity that schedules a pseudo-random workload of self-timers and
/// checks that every delivery time it observes is monotonically
/// non-decreasing.
struct MonotoneChecker {
    to_schedule: Vec<f64>,
    last_seen: f64,
    violations: u32,
}

impl Entity<u32> for MonotoneChecker {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        for (i, d) in self.to_schedule.iter().enumerate() {
            ctx.timer_at(ctx.now().after(*d), i as u32);
        }
    }
    fn on_event(&mut self, event: Event<u32>, ctx: &mut Context<'_, u32>) {
        let now = ctx.now().as_secs();
        if now + 1e-12 < self.last_seen {
            self.violations += 1;
        }
        self.last_seen = now;
        // Occasionally fan out more work to exercise interleaving.
        if event.payload % 7 == 0 && now < 1_000.0 {
            ctx.timer_at(ctx.now().after(3.0), event.payload + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]
    /// The simulation clock never moves backwards regardless of how timers
    /// are scheduled.  A follow-up timer never schedules another, so every
    /// run drains.
    #[test]
    fn clock_never_goes_backwards(delays in proptest::collection::vec(0.0f64..500.0, 1..64)) {
        let mut sim = Simulation::new(());
        sim.add_entity(MonotoneChecker {
            to_schedule: delays,
            last_seen: 0.0,
            violations: 0,
        });
        sim.run();
        // The engine also debug-asserts monotonicity, but release proptest
        // runs rely on what the checker saw.
        prop_assert_eq!(sim.entities()[0].violations, 0);
        prop_assert_eq!(sim.stats().events_delivered, sim.stats().events_scheduled);
    }
}

/// Follow-up timers one delivery may schedule, so the heap grows while the
/// script streams.
const FOLLOWUPS_PER_EVENT: usize = 2;

/// Payload of a scripted timer; follow-ups carry 0.
const SCRIPTED: u32 = 1;

/// A start-up batch of timers streamed the way a federation's GFAs stream
/// their scripts: `on_start` reserves one sequence number per timer, in
/// batch order, and schedules only the earliest; each scripted delivery
/// schedules its successor.
struct Script {
    /// Not yet scheduled `(time, seq)`, the next one last.
    rest: Vec<(u32, u64)>,
}

impl Script {
    fn start(batch: &[u32], ctx: &mut Context<'_, u32>) -> Self {
        let first = ctx.reserve_seqs(batch.len() as u64);
        let mut rest: Vec<(u32, u64)> =
            batch.iter().zip(first..).map(|(t, seq)| (*t, seq)).collect();
        rest.sort_unstable_by(|a, b| b.cmp(a));
        let mut script = Script { rest };
        script.advance(ctx);
        script
    }

    fn advance(&mut self, ctx: &mut Context<'_, u32>) {
        if let Some((t, seq)) = self.rest.pop() {
            ctx.timer_at_reserved(SimTime::new(f64::from(t)), seq, SCRIPTED);
        }
    }
}

/// An entity whose start-up batch is a streamed [`Script`] and whose
/// follow-up timers, pushed during the run, take fresh sequence numbers.
/// Small integer times and delays make a scripted timer tie with
/// follow-ups scheduled long after its number was reserved.  Records every
/// delivered `(time, seq)`.
struct ScriptMixer {
    batch: Vec<u32>,
    script: Option<Script>,
    followups: Vec<u32>,
    next: usize,
    delivered: Vec<(u64, u64)>,
}

impl Entity<u32> for ScriptMixer {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        self.script = Some(Script::start(&self.batch, ctx));
    }
    fn on_event(&mut self, event: Event<u32>, ctx: &mut Context<'_, u32>) {
        if event.payload == SCRIPTED {
            if let Some(script) = self.script.as_mut() {
                script.advance(ctx);
            }
        }
        self.delivered.push((event.time.as_secs().to_bits(), event.seq));
        for _ in 0..FOLLOWUPS_PER_EVENT {
            if let Some(delay) = self.followups.get(self.next) {
                ctx.timer_at(ctx.now().after(f64::from(*delay)), 0);
                self.next += 1;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]
    /// A simulation that streams its start-up batch under reserved sequence
    /// numbers, next to follow-up timers pushed during the run, delivers
    /// exactly the `(time, seq)` sequence the plain binary-heap queue
    /// delivers when the whole batch is pushed up front.
    #[test]
    fn reserved_script_streamed_lazily_matches_the_binary_heap_order(
        batch in proptest::collection::vec(0u32..20, 0..80),
        followups in proptest::collection::vec(0u32..6, 0..120),
    ) {
        let mut sim = Simulation::new(());
        sim.add_entity(ScriptMixer {
            batch: batch.clone(),
            script: None,
            followups: followups.clone(),
            next: 0,
            delivered: Vec::new(),
        });
        sim.run();

        let mut reference = BinaryHeapEventQueue::new();
        for t in &batch {
            reference.push(make_event(f64::from(*t), 0));
        }
        let mut next = 0;
        let mut expected = Vec::new();
        while let Some(ev) = reference.pop() {
            expected.push((ev.time.as_secs().to_bits(), ev.seq));
            for _ in 0..FOLLOWUPS_PER_EVENT {
                if let Some(delay) = followups.get(next) {
                    reference.push(make_event(ev.time.as_secs() + f64::from(*delay), 0));
                    next += 1;
                }
            }
        }
        prop_assert_eq!(&sim.entities()[0].delivered, &expected);
        // At most one scripted timer is pending at a time, so the heap
        // never holds more than the follow-ups plus one.
        prop_assert!(sim.stats().heap_high_water <= next as u64 + 1);
        prop_assert_eq!(sim.stats().events_scheduled, (batch.len() + next) as u64);
    }
}

/// The one latency every [`LaneMixer`] message travels unless it is
/// delayed, like a federation's fixed link latency.
const LATENCY: u32 = 2;

/// What one scripted follow-up schedules, `delay` seconds from now.
#[derive(Debug, Clone, Copy)]
enum Followup {
    /// A message sent after [`LATENCY`]: arrives in order, takes the lane.
    Send,
    /// A message sent after `LATENCY + extra`, like a fault layer's delayed
    /// duplicate: later messages overtake it, so those go to the heap.
    Delayed(u32),
    /// A self-timer at an absolute time: always the heap.
    Timer(u32),
}

impl Followup {
    fn from_draw(draw: u32) -> Self {
        match draw % 8 {
            0..=4 => Followup::Send,
            5 => Followup::Delayed(1 + draw / 8 % 4),
            _ => Followup::Timer(draw / 8 % 6),
        }
    }

    fn delay(self) -> u32 {
        match self {
            Followup::Send => LATENCY,
            Followup::Delayed(extra) => LATENCY + extra,
            Followup::Timer(delay) => delay,
        }
    }
}

/// [`ScriptMixer`] with messages: its start-up batch, streamed as a run of
/// reserved sequence numbers, is followed by a scripted mix of
/// constant-latency sends, delayed sends and timers, so deliveries draw on
/// the lane and the heap, reserved keys included, with many timestamps tied
/// across them.  Records every delivered `(time, seq)`.
struct LaneMixer {
    batch: Vec<u32>,
    script: Option<Script>,
    followups: Vec<Followup>,
    next: usize,
    delivered: Vec<(u64, u64)>,
}

impl Entity<u32> for LaneMixer {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        self.script = Some(Script::start(&self.batch, ctx));
    }
    fn on_event(&mut self, event: Event<u32>, ctx: &mut Context<'_, u32>) {
        if event.payload == SCRIPTED {
            if let Some(script) = self.script.as_mut() {
                script.advance(ctx);
            }
        }
        self.delivered.push((event.time.as_secs().to_bits(), event.seq));
        for _ in 0..FOLLOWUPS_PER_EVENT {
            let Some(followup) = self.followups.get(self.next).copied() else {
                break;
            };
            self.next += 1;
            let delay = f64::from(followup.delay());
            match followup {
                Followup::Send | Followup::Delayed(_) => ctx.send(ctx.self_id(), delay, 0),
                Followup::Timer(_) => ctx.timer_at(ctx.now().after(delay), 0),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]
    /// A simulation whose deliveries mix a streamed run of reserved
    /// sequence numbers, the FIFO lane and the heap delivers exactly the
    /// `(time, seq)` sequence the plain binary-heap queue delivers for the
    /// same schedule with the run pushed up front.
    #[test]
    fn run_lane_and_heap_match_the_binary_heap_order(
        batch in proptest::collection::vec(0u32..20, 1..40),
        draws in proptest::collection::vec(0u32..64, 0..160),
    ) {
        let followups: Vec<Followup> = draws.iter().map(|d| Followup::from_draw(*d)).collect();
        let mut sim = Simulation::new(());
        sim.add_entity(LaneMixer {
            batch: batch.clone(),
            script: None,
            followups: followups.clone(),
            next: 0,
            delivered: Vec::new(),
        });
        sim.run();

        let mut reference = BinaryHeapEventQueue::new();
        for t in &batch {
            reference.push(make_event(f64::from(*t), 0));
        }
        let mut next = 0;
        let mut expected = Vec::new();
        while let Some(ev) = reference.pop() {
            expected.push((ev.time.as_secs().to_bits(), ev.seq));
            for _ in 0..FOLLOWUPS_PER_EVENT {
                if let Some(followup) = followups.get(next) {
                    reference.push(make_event(ev.time.as_secs() + f64::from(followup.delay()), 0));
                    next += 1;
                }
            }
        }
        prop_assert_eq!(&sim.entities()[0].delivered, &expected);
        // Every in-order send took the lane; only the delayed sends and
        // the messages they held back can have gone to the heap.
        let sends = followups[..next]
            .iter()
            .filter(|f| !matches!(f, Followup::Timer(_)))
            .count() as u64;
        prop_assert!(sim.stats().lane_pushes <= sends);
        if !followups[..next].iter().any(|f| matches!(f, Followup::Delayed(_))) {
            prop_assert_eq!(sim.stats().lane_pushes, sends);
        }
    }
}

/// One step of a script driving an [`EventQueue`] directly.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// A message [`LATENCY`] after the last pop: in order, takes the lane.
    Send,
    /// A message `LATENCY + extra` after the last pop: later sends overtake
    /// it, so those go to the heap.
    Delayed(u32),
    /// A timer `delay` after the last pop: always the heap.
    Timer(u32),
    /// `pop`.
    Pop,
    /// `reserve` a block of this many timers, pushed one at a time in
    /// `(time, seq)` order: each when its predecessor pops.
    Reserve(u32),
}

impl QueueOp {
    fn from_draw(draw: u32) -> Self {
        let arg = draw / 16 % 5;
        match draw % 16 {
            0..=4 => QueueOp::Send,
            5 => QueueOp::Delayed(1 + arg),
            6..=8 => QueueOp::Timer(arg),
            9..=14 => QueueOp::Pop,
            _ => QueueOp::Reserve(1 + arg),
        }
    }
}

/// A unique-payload event at `at`.
fn fresh(payload: &mut u32, at: u32, kind: EventKind) -> Event<u32> {
    let mut event = make_event(f64::from(at), *payload);
    event.kind = kind;
    *payload += 1;
    event
}

/// Pushes `event` into both queues.
fn push_both(
    queue: &mut EventQueue<u32>,
    reference: &mut BinaryHeapEventQueue<u32>,
    event: Event<u32>,
) {
    queue.push(event.clone());
    reference.push(event);
}

/// The reserved blocks of a direct queue script: each block's events not
/// yet pushed, the next one last, and which block the pushed head with a
/// given payload belongs to.
#[derive(Default)]
struct Blocks {
    rest: Vec<Vec<Event<u32>>>,
    head_of: std::collections::BTreeMap<u32, usize>,
}

impl Blocks {
    /// Pushes the next event of `block`, if any.
    fn push_next(&mut self, block: usize, queue: &mut EventQueue<u32>) {
        if let Some(event) = self.rest[block].pop() {
            self.head_of.insert(event.payload, block);
            queue.push_reserved(event);
        }
    }

    /// After `popped` left the queue: pushes its block's successor.
    fn popped(&mut self, popped: Option<&Event<u32>>, queue: &mut EventQueue<u32>) {
        if let Some(block) = popped.and_then(|e| self.head_of.remove(&e.payload)) {
            self.push_next(block, queue);
        }
    }

    /// Reserved events not pushed yet.
    fn unpushed(&self) -> usize {
        self.rest.iter().map(Vec::len).sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]
    /// Driven directly by a random script of pushes, pops and reserved
    /// blocks, the engine's queue returns exactly the `(time, seq,
    /// payload)` sequence the plain binary-heap queue returns when every
    /// reserved block is pushed up front.  Every event carries a unique
    /// payload, so an event delivered from the wrong container shows up
    /// even when its key is right.
    #[test]
    fn direct_queue_ops_match_the_binary_heap_including_payloads(
        draws in proptest::collection::vec(0u32..80, 0..300),
        offsets in proptest::collection::vec(0u32..8, 1..40),
    ) {
        let mut queue = EventQueue::new();
        let mut reference = BinaryHeapEventQueue::new();
        let mut blocks = Blocks::default();
        let mut offset = offsets.iter().cycle();
        let mut now = 0u32;
        let mut payload = 0u32;
        let mut sends = 0u64;
        let key = |e: Event<u32>| (e.time.as_secs().to_bits(), e.seq, e.payload);
        for draw in draws {
            let (got, expected) = match QueueOp::from_draw(draw) {
                QueueOp::Send => {
                    sends += 1;
                    let event = fresh(&mut payload, now + LATENCY, EventKind::Message);
                    push_both(&mut queue, &mut reference, event);
                    continue;
                }
                QueueOp::Delayed(extra) => {
                    sends += 1;
                    let event = fresh(&mut payload, now + LATENCY + extra, EventKind::Message);
                    push_both(&mut queue, &mut reference, event);
                    continue;
                }
                QueueOp::Timer(delay) => {
                    let event = fresh(&mut payload, now + delay, EventKind::Timer);
                    push_both(&mut queue, &mut reference, event);
                    continue;
                }
                QueueOp::Reserve(size) => {
                    // The reference pushes the block eagerly and so assigns
                    // it the very numbers `reserve` hands out.
                    let first = queue.reserve(u64::from(size));
                    let mut block: Vec<Event<u32>> = (first..first + u64::from(size))
                        .map(|seq| {
                            let at = now + offset.next().copied().unwrap_or(0);
                            let event = fresh(&mut payload, at, EventKind::Timer);
                            reference.push(event.clone());
                            Event { seq, ..event }
                        })
                        .collect();
                    block.sort_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
                    blocks.rest.push(block);
                    blocks.push_next(blocks.rest.len() - 1, &mut queue);
                    continue;
                }
                QueueOp::Pop => {
                    let expected = reference.pop();
                    (queue.pop(), expected)
                }
            };
            blocks.popped(got.as_ref(), &mut queue);
            if let Some(e) = &expected {
                now = e.time.as_secs() as u32;
            }
            prop_assert_eq!(got.map(key), expected.map(key));
            prop_assert_eq!(queue.len() + blocks.unpushed(), reference.len());
            prop_assert_eq!(queue.peek_time(), reference.peek_time());
        }
        while let Some(expected) = reference.pop() {
            let got = queue.pop();
            blocks.popped(got.as_ref(), &mut queue);
            prop_assert_eq!(got.map(key), Some(key(expected)));
        }
        prop_assert!(queue.is_empty());
        prop_assert_eq!(blocks.unpushed(), 0);
        prop_assert!(queue.lane_pushed() <= sends);
    }
}
