//! The future-event list.
//!
//! Events are delivered in `(time, seq)` order: two events scheduled for the
//! same instant are delivered in the order they were scheduled, which makes
//! every simulation run fully deterministic — a property the Grid-Federation
//! experiments rely on (identical seeds must reproduce identical figures).
//!
//! Pending events sit in one of three containers under that one total
//! order:
//!
//! * a **FIFO lane** for messages that arrive in order.  A push of an
//!   [`EventKind::Message`] whose key is not earlier than the lane's tail
//!   is appended to the lane, whole.  A model whose messages all travel one
//!   fixed latency sends each at `now + latency`, and neither `now` nor
//!   `seq` ever decreases, so in a federation every negotiation leg takes
//!   the lane and costs one `VecDeque` push and pop of the event itself;
//! * a **sealed run**: once every entity's `on_start` has run,
//!   [`EventQueue::seal`] sorts the pending heap keys once (latest first, so
//!   the earliest pops off the end).  A federation schedules every job
//!   arrival up front, so this run holds the bulk of a trace's timers and
//!   costs nothing per delivery beyond a `Vec::pop`;
//! * an **index-based 4-ary min-heap** for everything else: timers (a job's
//!   finish can lie far ahead, and one in the lane would send every later
//!   message past it to the heap until it popped) and messages that would
//!   be out of order in the lane, such as a fault layer's delayed
//!   duplicates.  The 4-ary layout halves the tree depth relative to a
//!   binary heap.
//!
//! The run and the heap order small fixed-size keys (`time`, `seq`, slot
//! index) while their payloads live in a slab indexed by slot, so a sift
//! moves 24-byte keys regardless of how wide the model's message enum is.
//! Lane events never enter the slab: they are never sifted, so carrying
//! them inline saves the slot write and read-back on every leg.
//!
//! [`EventQueue::pop`] takes the earliest of the three heads, so neither
//! sealing nor the lane ever changes delivery order.  The pre-overhaul
//! `BinaryHeap<Event<M>>` layout is retained as [`BinaryHeapEventQueue`] so
//! the micro benches (and `bench_perf`) keep measuring the choice instead of
//! assuming it, and the differential tests compare against it.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use crate::event::{Event, EventKind};
use crate::time::SimTime;

/// Arity of the index heap: 4 keeps the tree shallow while children still
/// share a cache line's worth of keys.
const D: usize = 4;

/// Compact queue entry: total order on `(time, seq)`, payload referenced by
/// slab slot.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

/// Whether `(a, a_seq)` is strictly before `(b, b_seq)`.  Compares the raw
/// seconds inline — `SimTime` construction rules out NaN, so `<` and `==`
/// on the `f64`s agree with `SimTime`'s `Ord` — keeping the per-sift
/// comparison free of calls.
#[inline]
fn before(a: SimTime, a_seq: u64, b: SimTime, b_seq: u64) -> bool {
    let (a, b) = (a.as_secs(), b.as_secs());
    a < b || (a == b && a_seq < b_seq)
}

impl Key {
    /// Strictly before `other` in `(time, seq)` order.
    #[inline]
    fn earlier_than(&self, other: &Key) -> bool {
        before(self.time, self.seq, other.time, other.seq)
    }
}

/// Future-event list with deterministic ordering.
pub struct EventQueue<M> {
    /// Keys sealed by [`Self::seal`], sorted latest first: the earliest
    /// sealed key is `run.last()`.
    run: Vec<Key>,
    /// In-order messages, held whole, earliest at the front (see the module
    /// docs).
    lane: VecDeque<Event<M>>,
    heap: Vec<Key>,
    /// Payloads of the run's and the heap's keys.
    slots: Vec<Option<Event<M>>>,
    free: Vec<u32>,
    next_seq: u64,
    scheduled_total: u64,
    lane_pushed: u64,
}

/// The container holding the earliest pending key.
#[derive(Clone, Copy)]
enum Head {
    Run,
    Lane,
    Heap,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with pre-allocated capacity, useful when the
    /// approximate number of in-flight events is known (e.g. one per queued
    /// job).
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            run: Vec::new(),
            lane: VecDeque::new(),
            heap: Vec::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            next_seq: 0,
            scheduled_total: 0,
            lane_pushed: 0,
        }
    }

    // `#[inline]` keeps this inlined into the callers' scheduling paths, as
    // it was while it only sifted: left out of line, as the compiler leaves
    // its grown body, it made a timer-only dispatch loop about 20 % slower.
    /// Schedules an event.  The event's `seq` field is overwritten with the
    /// next sequence number so callers never need to manage it.  A message
    /// no earlier than the lane's tail is appended to the lane; everything
    /// else is stored in the slab and its key sifted into the heap.
    ///
    /// # Panics
    /// Panics if more than `u32::MAX` heap and run events are pending
    /// simultaneously (lane events take no slab slot).
    #[inline]
    pub fn push(&mut self, mut event: Event<M>) {
        event.seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        // The new event's `seq` exceeds every pending one, so it sorts
        // after the lane's tail exactly when its time is not earlier.
        if event.kind == EventKind::Message
            && self
                .lane
                .back()
                .map_or(true, |tail| event.time.as_secs() >= tail.time.as_secs())
        {
            self.lane.push_back(event);
            self.lane_pushed += 1;
            return;
        }
        let key = Key {
            time: event.time,
            seq: event.seq,
            slot: match self.free.pop() {
                Some(slot) => {
                    self.slots[slot as usize] = Some(event);
                    slot
                }
                None => {
                    // Documented capacity limit (see `# Panics`): the 4-byte
                    // slot index is what keeps the keys compact.
                    // fedlint: allow(hot-path-unwrap)
                    let slot = u32::try_from(self.slots.len())
                        .expect("more than u32::MAX pending events");
                    self.slots.push(Some(event));
                    slot
                }
            },
        };
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1);
    }

    /// Moves every pending heap key into the sealed run, sorted once by
    /// `(time, seq)`.  Events pushed afterwards go to the lane or the heap,
    /// and [`Self::pop`] merges all three, so sealing never changes delivery
    /// order; it only takes a batch scheduled up front (the simulation
    /// seals once every entity's `on_start` has run) out of the heap that
    /// later pushes sift through.  The lane is already in order and stays
    /// where it is.  The run's payloads stay in the slab, whose slots later
    /// pushes reuse as the run drains.
    pub fn seal(&mut self) {
        let mut keys = std::mem::take(&mut self.heap);
        keys.append(&mut self.run);
        keys.sort_unstable_by_key(|k| Reverse((k.time, k.seq)));
        self.run = keys;
    }

    /// The container holding the earliest pending event, if any.  An empty
    /// lane (a timer-only model, say) costs one length test on top of the
    /// run/heap comparison.
    #[inline]
    fn head(&self) -> Option<Head> {
        let (best, head) = match (self.run.last(), self.heap.first()) {
            (Some(r), Some(h)) if h.earlier_than(r) => (h, Head::Heap),
            (Some(r), _) => (r, Head::Run),
            (None, Some(h)) => (h, Head::Heap),
            (None, None) => return self.lane.front().map(|_| Head::Lane),
        };
        match self.lane.front() {
            Some(l) if before(l.time, l.seq, best.time, best.seq) => Some(Head::Lane),
            _ => Some(head),
        }
    }

    /// The earliest pending event's timestamp, in whichever container holds
    /// it.
    #[inline]
    fn earliest_time(&self) -> Option<SimTime> {
        match self.head()? {
            Head::Run => self.run.last().map(|k| k.time),
            Head::Lane => self.lane.front().map(|e| e.time),
            Head::Heap => self.heap.first().map(|k| k.time),
        }
    }

    /// Removes and returns the earliest event, if any.  A lane event comes
    /// straight off the lane; a run or heap event is taken out of its slab
    /// slot, which is freed for reuse.
    pub fn pop(&mut self) -> Option<Event<M>> {
        let key = match self.head()? {
            Head::Lane => return self.lane.pop_front(),
            Head::Run => self.run.pop()?,
            Head::Heap => self.pop_heap()?,
        };
        let slot = &mut self.slots[key.slot as usize];
        debug_assert!(slot.is_some(), "a pending key references a filled slot");
        // Every pending key references a filled slot, so this `?` cannot
        // bail — written `?`-style to keep panicking branches off the
        // dispatch hot path.
        let event = slot.take()?;
        self.free.push(key.slot);
        Some(event)
    }

    /// Removes and returns the heap's root key, if any.
    fn pop_heap(&mut self) -> Option<Key> {
        let root = *self.heap.first()?;
        // `first()` just returned, so the heap is non-empty and this `?`
        // cannot bail.
        let last = self.heap.pop()?;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(root)
    }

    /// Removes and returns the earliest event if its timestamp is `<= limit`;
    /// leaves the queue untouched otherwise.  This is the single-traversal
    /// primitive the simulation loop uses instead of a separate
    /// peek-then-pop.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<Event<M>> {
        if self.earliest_time()? > limit {
            return None;
        }
        self.pop()
    }

    /// Returns the timestamp of the earliest pending event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.earliest_time()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.run.len() + self.lane.len() + self.heap.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.lane.is_empty() && self.heap.is_empty()
    }

    /// Total number of events ever scheduled through this queue.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total number of events ever appended to the FIFO lane (the rest went
    /// to the heap or, pushed before [`Self::seal`], into the run).
    #[must_use]
    pub fn lane_pushed(&self) -> u64 {
        self.lane_pushed
    }

    /// Corrupting test double: rewrites the earliest pending event's
    /// timestamp to `new_time` **without** restoring the queue's order,
    /// emulating a scheduler bug that delivers an event from the past.
    /// Reaches the earliest event in whichever container holds it (the
    /// sealed run, the lane or the heap).  Returns `false` on an empty
    /// queue.  Only exists so the invariant tests can prove the engine's
    /// time-monotonicity check fires; never compiled into normal builds.
    #[cfg(feature = "invariants")]
    pub fn corrupt_earliest_time(&mut self, new_time: SimTime) -> bool {
        let key = match self.head() {
            Some(Head::Lane) => {
                if let Some(event) = self.lane.front_mut() {
                    event.time = new_time;
                }
                return true;
            }
            Some(Head::Run) => self.run.last_mut(),
            Some(Head::Heap) => self.heap.first_mut(),
            None => None,
        };
        let Some(key) = key else {
            return false;
        };
        key.time = new_time;
        if let Some(event) = self.slots[key.slot as usize].as_mut() {
            event.time = new_time;
        }
        true
    }

    /// Drops every pending event, e.g. when a run is aborted at its horizon.
    pub fn clear(&mut self) {
        self.run.clear();
        self.lane.clear();
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
    }

    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / D;
            if self.heap[idx].earlier_than(&self.heap[parent]) {
                self.heap.swap(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut idx: usize) {
        let len = self.heap.len();
        loop {
            let first_child = idx * D + 1;
            if first_child >= len {
                break;
            }
            let mut best = first_child;
            let last_child = (first_child + D).min(len);
            for child in first_child + 1..last_child {
                if self.heap[child].earlier_than(&self.heap[best]) {
                    best = child;
                }
            }
            if self.heap[best].earlier_than(&self.heap[idx]) {
                self.heap.swap(idx, best);
                idx = best;
            } else {
                break;
            }
        }
    }
}

/// The pre-overhaul future-event list: a `BinaryHeap` whose entries carry
/// the whole `Event<M>`, so every sift memmoves the full payload.
///
/// Retained purely as the comparison baseline for the event-queue micro
/// benches and `bench_perf` — the engine itself uses [`EventQueue`].  Both
/// implementations deliver identical event orderings (a differential test
/// asserts it), so the layout decision is driven by measured numbers.
pub struct BinaryHeapEventQueue<M> {
    heap: BinaryHeap<HeapEntry<M>>,
    next_seq: u64,
}

struct HeapEntry<M> {
    event: Event<M>,
}

impl<M> PartialEq for HeapEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.event.time == other.event.time && self.event.seq == other.event.seq
    }
}
impl<M> Eq for HeapEntry<M> {}

impl<M> PartialOrd for HeapEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for HeapEntry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: earliest time (then lowest seq) is the "greatest" entry so
        // that BinaryHeap::pop returns it first.
        other
            .event
            .time
            .cmp(&self.event.time)
            .then_with(|| other.event.seq.cmp(&self.event.seq))
    }
}

impl<M> Default for BinaryHeapEventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> BinaryHeapEventQueue<M> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        BinaryHeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeapEventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedules an event, assigning the next sequence number.
    #[inline]
    pub fn push(&mut self, mut event: Event<M>) {
        event.seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop().map(|e| e.event)
    }

    /// Returns the timestamp of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.event.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityId;
    use crate::event::EventKind;

    fn event(t: f64, payload: u32) -> Event<u32> {
        Event {
            time: SimTime::new(t),
            seq: 0,
            src: EntityId::new(0),
            dst: EntityId::new(0),
            kind: EventKind::Message,
            payload,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(event(5.0, 1));
        q.push(event(1.0, 2));
        q.push(event(3.0, 3));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(event(7.0, i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::with_capacity(4);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(event(2.0, 0));
        q.push(event(1.0, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        assert_eq!(q.scheduled_total(), 2);
        q.clear();
        assert!(q.is_empty());
        // scheduled_total is cumulative and unaffected by clear().
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn sequence_numbers_are_assigned_by_queue() {
        let mut q = EventQueue::new();
        let mut e = event(1.0, 9);
        e.seq = 999; // should be overwritten
        q.push(e);
        q.push(event(1.0, 10));
        let first = q.pop().unwrap();
        let second = q.pop().unwrap();
        assert_eq!(first.seq, 0);
        assert_eq!(second.seq, 1);
        assert_eq!(first.payload, 9);
    }

    #[test]
    fn pop_at_or_before_respects_the_limit() {
        let mut q = EventQueue::new();
        q.push(event(5.0, 0));
        q.push(event(10.0, 1));
        assert!(q.pop_at_or_before(SimTime::new(4.0)).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_at_or_before(SimTime::new(5.0)).unwrap().payload, 0);
        assert!(q.pop_at_or_before(SimTime::new(9.999)).is_none());
        assert_eq!(q.pop_at_or_before(SimTime::new(10.0)).unwrap().payload, 1);
        assert!(q.pop_at_or_before(SimTime::new(1e9)).is_none());
    }

    #[test]
    fn slots_are_recycled_under_churn() {
        let mut q = EventQueue::new();
        for round in 0..50u32 {
            for i in 0..8u32 {
                q.push(event(f64::from(round * 10 + i % 3), i));
            }
            for _ in 0..8 {
                assert!(q.pop().is_some());
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 400);
    }

    #[test]
    fn sealed_run_and_heap_merge_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(event(5.0, 0));
        q.push(event(1.0, 1));
        q.push(event(3.0, 2));
        q.seal();
        assert_eq!(q.len(), 3);
        // Pushed after the seal: an earlier time, a tie with the run's t=3
        // (later seq, so after it) and a tie with its t=5.
        q.push(event(2.0, 3));
        q.push(event(3.0, 4));
        q.push(event(5.0, 5));
        assert_eq!(q.len(), 6);
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec![1, 3, 2, 4, 0, 5]);
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 6);
    }

    #[test]
    fn pop_at_or_before_and_clear_cover_the_sealed_run() {
        let mut q = EventQueue::new();
        q.push(event(4.0, 0));
        q.seal();
        q.push(event(6.0, 1));
        assert!(q.pop_at_or_before(SimTime::new(3.0)).is_none());
        assert_eq!(q.pop_at_or_before(SimTime::new(4.0)).unwrap().payload, 0);
        assert!(q.pop_at_or_before(SimTime::new(5.0)).is_none());
        q.push(event(7.0, 2));
        q.seal();
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    fn timer(t: f64, payload: u32) -> Event<u32> {
        Event {
            kind: EventKind::Timer,
            ..event(t, payload)
        }
    }

    #[test]
    fn in_order_messages_take_the_lane_and_merge_with_run_and_heap() {
        let mut q = EventQueue::new();
        q.push(timer(4.0, 0));
        q.seal();
        // In-order messages (a tie with the tail included) take the lane;
        // timers and a message earlier than the lane's tail take the heap.
        q.push(event(2.0, 1));
        q.push(event(3.0, 2));
        q.push(event(3.0, 3));
        q.push(timer(3.5, 4));
        q.push(event(2.5, 5));
        q.push(event(4.0, 6));
        q.push(timer(1.0, 7));
        assert_eq!(q.len(), 8);
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        assert_eq!(q.pop_at_or_before(SimTime::new(2.0)).unwrap().payload, 7);
        assert_eq!(q.pop_at_or_before(SimTime::new(2.0)).unwrap().payload, 1);
        assert!(q.pop_at_or_before(SimTime::new(2.4)).is_none());
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        // The run's t=4 was pushed before the lane's t=4, so it leads.
        assert_eq!(order, vec![5, 2, 3, 4, 0, 6]);
        assert_eq!(q.lane_pushed(), 4);
        // A drained lane takes any message again; sealing and clearing
        // cover it.
        q.push(event(1.0, 8));
        q.push(event(9.0, 9));
        q.seal();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().payload, 8);
        assert_eq!(q.lane_pushed(), 6);
        q.push(event(9.0, 10));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn in_order_messages_never_enter_the_slab() {
        let mut q = EventQueue::new();
        // A stream of in-order messages, popped as it goes and sealed
        // with some still pending, as `on_start` sends leave them.
        for i in 0..100u32 {
            q.push(event(f64::from(i / 3), i));
            if i % 2 == 1 {
                assert!(q.pop().is_some());
            }
            if i == 40 {
                q.seal();
            }
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (50..100).collect::<Vec<_>>());
        assert_eq!(q.lane_pushed(), 100);
        assert!(q.slots.is_empty());
        assert!(q.free.is_empty());
        // A timer takes a slab slot, and so does a message earlier than
        // the lane's tail.
        q.push(event(50.0, 100));
        q.push(timer(60.0, 101));
        assert_eq!(q.slots.len(), 1);
        q.push(event(40.0, 102));
        assert_eq!(q.slots.len(), 2);
        assert_eq!(q.lane_pushed(), 101);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec![102, 100, 101]);
        assert_eq!(q.free.len(), 2);
    }

    #[test]
    fn dary_and_binary_heap_layouts_deliver_identical_orderings() {
        // The layout decision must never change delivery order: feed the
        // same pseudo-random schedule to both queues (interleaving pushes
        // and pops to exercise slot recycling, mixing lane-bound messages
        // with timers, and sealing once midway) and require identical
        // output.
        let mut dary = EventQueue::new();
        let mut binary = BinaryHeapEventQueue::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut out_dary = Vec::new();
        let mut out_binary = Vec::new();
        for i in 0..500u32 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let t = f64::from((state >> 33) as u32 % 97);
            let e = if state % 5 == 0 { timer(t, i) } else { event(t, i) };
            dary.push(e.clone());
            binary.push(e);
            if i == 200 {
                // Seal what is pending so the rest of the schedule merges
                // the sealed run with the heap.
                dary.seal();
            }
            if state % 3 == 0 {
                out_dary.push(dary.pop().map(|e| (e.time, e.seq, e.payload)));
                out_binary.push(binary.pop().map(|e| (e.time, e.seq, e.payload)));
            }
        }
        while let Some(e) = dary.pop() {
            out_dary.push(Some((e.time, e.seq, e.payload)));
        }
        while let Some(e) = binary.pop() {
            out_binary.push(Some((e.time, e.seq, e.payload)));
        }
        assert_eq!(out_dary, out_binary);
    }
}
