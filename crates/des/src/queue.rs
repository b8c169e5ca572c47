//! The future-event list.
//!
//! Events are delivered in `(time, seq)` order: two events scheduled for the
//! same instant are delivered in the order they were scheduled, which makes
//! every simulation run fully deterministic — a property the Grid-Federation
//! experiments rely on (identical seeds must reproduce identical figures).
//!
//! Pending events sit in one of two containers under that one total order:
//!
//! * a **FIFO lane** for messages that arrive in order.  A push of an
//!   [`EventKind::Message`] whose key is not earlier than the lane's tail
//!   is appended to the lane, whole.  A model whose messages all travel one
//!   fixed latency sends each at `now + latency`, and neither `now` nor
//!   `seq` ever decreases, so in a federation every negotiation leg takes
//!   the lane and costs one `VecDeque` push and pop of the event itself;
//! * a **4-ary min-heap** for everything else: timers (a job's finish can
//!   lie far ahead, and one in the lane would send every later message past
//!   it to the heap until it popped), messages that would be out of order in
//!   the lane, such as a fault layer's delayed duplicates, and events pushed
//!   under a reserved sequence number.  The 4-ary layout halves the tree
//!   depth relative to a binary heap.
//!
//! Since the lane takes every negotiation leg, the heap sees a few percent
//! of a federation's pushes and holds a few thousand events at most, so it
//! stores each event whole and sifts it on its own `(time, seq)`.
//!
//! A model that knows its future timers up front need not push them all at
//! once.  [`EventQueue::reserve`] hands out a block of sequence numbers, and
//! [`EventQueue::push_reserved`] schedules an event under one of them later:
//! it gets the key an eager push would have given it, so streaming a script
//! this way keeps the queue small and the delivery order unchanged.
//!
//! [`EventQueue::pop`] takes the earlier of the two heads, so the lane never
//! changes delivery order.  The pre-overhaul `BinaryHeap<Event<M>>` layout
//! is retained as [`BinaryHeapEventQueue`] so `bench_perf` keeps measuring
//! the choice instead of assuming it, and the differential tests compare
//! against it.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::event::{Event, EventKind};
use crate::time::SimTime;

/// Arity of the heap: 4 halves a binary heap's depth, so a push sifts past
/// half as many levels.
const D: usize = 4;

/// Whether `a` is strictly before `b` in `(time, seq)` order.  Compares the
/// raw seconds inline — `SimTime` construction rules out NaN, so `<` and
/// `==` on the `f64`s agree with `SimTime`'s `Ord` — keeping the per-sift
/// comparison free of calls.
#[inline]
fn before<M>(a: &Event<M>, b: &Event<M>) -> bool {
    let (at, bt) = (a.time.as_secs(), b.time.as_secs());
    at < bt || (at == bt && a.seq < b.seq)
}

/// Future-event list with deterministic ordering.
pub struct EventQueue<M> {
    /// In-order messages, earliest at the front (see the module docs).
    lane: VecDeque<Event<M>>,
    /// Every other pending event, as a 4-ary min-heap on `(time, seq)`.
    heap: Vec<Event<M>>,
    heap_high_water: usize,
    next_seq: u64,
    scheduled_total: u64,
    lane_pushed: u64,
}

/// The container holding the earliest pending event.
#[derive(Clone, Copy)]
enum Head {
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

    /// Creates an empty queue with pre-allocated heap capacity, useful when
    /// the approximate number of pending timers is known (e.g. one per
    /// queued job).
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            lane: VecDeque::new(),
            heap: Vec::with_capacity(cap),
            heap_high_water: 0,
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
    /// else is sifted into the heap.
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
        self.push_heap(event);
    }

    /// Reserves `count` consecutive sequence numbers for events scheduled
    /// later with [`Self::push_reserved`] and returns the first.  Pushes
    /// made in between take the numbers after the block.
    pub fn reserve(&mut self, count: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += count;
        first
    }

    /// Schedules an event under the sequence number its `seq` field already
    /// holds, one handed out by [`Self::reserve`]: the event gets the
    /// `(time, seq)` key it would have had if it had been pushed when the
    /// number was reserved.  Such an event always takes the heap, since the
    /// lane only ever takes keys later than every pending one.
    ///
    /// The caller must push it before the queue delivers any event whose
    /// key is later, and push each reserved number at most once; the
    /// delivery order then equals that of the eager push.
    #[inline]
    pub fn push_reserved(&mut self, event: Event<M>) {
        debug_assert!(
            event.seq < self.next_seq,
            "sequence number {} was never reserved",
            event.seq
        );
        self.scheduled_total += 1;
        self.push_heap(event);
    }

    #[inline]
    fn push_heap(&mut self, event: Event<M>) {
        self.heap.push(event);
        self.heap_high_water = self.heap_high_water.max(self.heap.len());
        self.sift_up(self.heap.len() - 1);
    }

    /// The container holding the earliest pending event, if any.
    #[inline]
    fn head(&self) -> Option<Head> {
        match (self.lane.front(), self.heap.first()) {
            (Some(l), Some(h)) if before(h, l) => Some(Head::Heap),
            (Some(_), _) => Some(Head::Lane),
            (None, Some(_)) => Some(Head::Heap),
            (None, None) => None,
        }
    }

    /// The earliest pending event, in whichever container holds it.
    #[inline]
    fn earliest(&self) -> Option<&Event<M>> {
        match self.head()? {
            Head::Lane => self.lane.front(),
            Head::Heap => self.heap.first(),
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<M>> {
        match self.head()? {
            Head::Lane => self.lane.pop_front(),
            Head::Heap => self.pop_heap(),
        }
    }

    /// Removes and returns the heap's root, if any.
    fn pop_heap(&mut self) -> Option<Event<M>> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(last);
        }
        let root = std::mem::replace(&mut self.heap[0], last);
        self.sift_down(0);
        Some(root)
    }

    /// Removes and returns the earliest event if its timestamp is `<= limit`;
    /// leaves the queue untouched otherwise.  This is the single-traversal
    /// primitive the simulation loop uses instead of a separate
    /// peek-then-pop.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<Event<M>> {
        if self.earliest()?.time > limit {
            return None;
        }
        self.pop()
    }

    /// Returns the timestamp of the earliest pending event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|e| e.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }

    /// Total number of events ever pushed into this queue.  A reserved
    /// sequence number counts once its event is pushed.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total number of events ever appended to the FIFO lane (the rest went
    /// to the heap).
    #[must_use]
    pub fn lane_pushed(&self) -> u64 {
        self.lane_pushed
    }

    /// Most heap events pending at once since the queue was created or
    /// last cleared (lane events never count).
    #[must_use]
    pub fn heap_high_water(&self) -> usize {
        self.heap_high_water
    }

    /// Corrupting test double: rewrites the earliest pending event's
    /// timestamp to `new_time` **without** restoring the queue's order,
    /// emulating a scheduler bug that delivers an event from the past.
    /// Reaches the earliest event in whichever container holds it (the
    /// lane or the heap).  Returns `false` on an empty queue.  Only exists
    /// so the invariant tests can prove the engine's time-monotonicity
    /// check fires; never compiled into normal builds.
    #[cfg(feature = "invariants")]
    pub fn corrupt_earliest_time(&mut self, new_time: SimTime) -> bool {
        let earliest = match self.head() {
            Some(Head::Lane) => self.lane.front_mut(),
            Some(Head::Heap) => self.heap.first_mut(),
            None => None,
        };
        let Some(event) = earliest else {
            return false;
        };
        event.time = new_time;
        true
    }

    /// Drops every pending event, e.g. when a run is aborted at its horizon.
    pub fn clear(&mut self) {
        self.lane.clear();
        self.heap.clear();
        self.heap_high_water = 0;
    }

    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / D;
            if before(&self.heap[idx], &self.heap[parent]) {
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
                if before(&self.heap[child], &self.heap[best]) {
                    best = child;
                }
            }
            if before(&self.heap[best], &self.heap[idx]) {
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
        // Each round sends its four out-of-order messages to the heap, and
        // its pops drain it again.
        assert_eq!(q.heap_high_water(), 4);
    }

    /// `event`, under the reserved sequence number `seq`.
    fn reserved(seq: u64, event: Event<u32>) -> Event<u32> {
        Event { seq, ..event }
    }

    #[test]
    fn reserved_seqs_keep_the_key_of_an_eager_push() {
        let mut q = EventQueue::new();
        // Seqs 0..3 are reserved for t = 5, 1, 3; pushes made meanwhile
        // take seqs 3.. and tie with them at t = 3 and t = 5.
        let first = q.reserve(3);
        assert_eq!(first, 0);
        q.push(event(2.0, 3));
        q.push_reserved(reserved(first + 1, timer(1.0, 1)));
        q.push(event(3.0, 4));
        q.push_reserved(reserved(first + 2, timer(3.0, 2)));
        q.push(timer(5.0, 5));
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        assert_eq!(q.pop().unwrap().payload, 1);
        assert_eq!(q.pop().unwrap().payload, 3);
        // Pushed late, t = 5 under seq 0 still leads the t = 5 under seq 5.
        q.push_reserved(reserved(first, timer(5.0, 0)));
        let order: Vec<(u64, u32)> =
            std::iter::from_fn(|| q.pop()).map(|e| (e.seq, e.payload)).collect();
        assert_eq!(order, vec![(2, 2), (4, 4), (0, 0), (5, 5)]);
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 6);
        assert_eq!(q.reserve(1), 6);
    }

    #[test]
    fn pop_at_or_before_and_clear_cover_reserved_pushes() {
        let mut q = EventQueue::new();
        let first = q.reserve(2);
        q.push_reserved(reserved(first, timer(4.0, 0)));
        q.push(event(6.0, 1));
        assert!(q.pop_at_or_before(SimTime::new(3.0)).is_none());
        assert_eq!(q.pop_at_or_before(SimTime::new(4.0)).unwrap().payload, 0);
        assert!(q.pop_at_or_before(SimTime::new(5.0)).is_none());
        q.push_reserved(reserved(first + 1, timer(7.0, 2)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.heap_high_water(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.heap_high_water(), 0);
    }

    fn timer(t: f64, payload: u32) -> Event<u32> {
        Event {
            kind: EventKind::Timer,
            ..event(t, payload)
        }
    }

    #[test]
    fn in_order_messages_take_the_lane_and_merge_with_the_heap() {
        let mut q = EventQueue::new();
        let first = q.reserve(1);
        // In-order messages (a tie with the tail included) take the lane;
        // timers, a reserved push and a message earlier than the lane's
        // tail take the heap.
        q.push(event(2.0, 1));
        q.push(event(3.0, 2));
        q.push(event(3.0, 3));
        q.push(timer(3.5, 4));
        q.push(event(2.5, 5));
        q.push(event(4.0, 6));
        q.push_reserved(reserved(first, event(4.0, 0)));
        q.push(timer(1.0, 7));
        assert_eq!(q.len(), 8);
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        assert_eq!(q.pop_at_or_before(SimTime::new(2.0)).unwrap().payload, 7);
        assert_eq!(q.pop_at_or_before(SimTime::new(2.0)).unwrap().payload, 1);
        assert!(q.pop_at_or_before(SimTime::new(2.4)).is_none());
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        // The reserved t=4 holds seq 0, so it leads the lane's t=4.
        assert_eq!(order, vec![5, 2, 3, 4, 0, 6]);
        assert_eq!(q.lane_pushed(), 4);
        // A drained lane takes any message again; clearing covers it.
        q.push(event(1.0, 8));
        q.push(event(9.0, 9));
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
        // A stream of in-order messages, popped as it goes, with a block of
        // sequence numbers reserved midway as `on_start` reserves them.
        let mut first = 0;
        for i in 0..100u32 {
            q.push(event(f64::from(i / 3), i));
            if i % 2 == 1 {
                assert!(q.pop().is_some());
            }
            if i == 40 {
                first = q.reserve(1);
            }
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (50..100).collect::<Vec<_>>());
        assert_eq!(q.lane_pushed(), 100);
        assert_eq!(q.heap_high_water(), 0);
        // A timer takes the heap, and so do a message earlier than the
        // lane's tail and a reserved push; an in-order message does not.
        q.push(event(50.0, 100));
        assert_eq!(q.heap_high_water(), 0);
        q.push(timer(60.0, 101));
        assert_eq!(q.heap_high_water(), 1);
        q.push(event(40.0, 102));
        assert_eq!(q.heap_high_water(), 2);
        q.push_reserved(reserved(first, event(50.0, 103)));
        assert_eq!(q.heap_high_water(), 3);
        assert_eq!(q.lane_pushed(), 101);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec![102, 103, 100, 101]);
        // Draining leaves the mark at its peak.
        assert_eq!(q.heap_high_water(), 3);
    }

    #[test]
    fn dary_and_binary_heap_layouts_deliver_identical_orderings() {
        // The layout decision must never change delivery order: feed the
        // same pseudo-random schedule to both queues (interleaving pushes
        // and pops, and mixing lane-bound messages with timers) and require
        // identical output.
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
