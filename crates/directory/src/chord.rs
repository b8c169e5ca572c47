//! A Chord-style structured overlay used to validate the paper's `O(log n)`
//! directory assumption.
//!
//! The paper assumes an efficient P2P directory (it cites MAAN-style
//! multi-attribute DHTs) and models each ranking query as `O(log n)`
//! messages.  [`ChordOverlay`] implements real Chord routing state — node
//! identifiers on a 2⁶⁴ ring and per-node finger tables — and counts the hops
//! taken by greedy closest-preceding-finger routing.  [`ChordDirectory`]
//! layers the federation-directory interface on top: rank-1 queries are
//! routed through the overlay from the *querying GFA's own node* so that the
//! hop count is measured, higher ranks advance a range cursor one hop each
//! (the `O(log n + k)` complexity of DHT range queries), while the query
//! result itself is resolved exactly (rank data placement is idealised — the
//! point of this module is to check the message-cost model, not to
//! re-implement MAAN's range trees).

use crate::cursor::RankCursor;
use crate::ideal::IdealDirectory;
use crate::quote::{FederationDirectory, Quote, RankOrder, TracedQuote};

/// SplitMix64 hash used to place nodes and keys on the ring.
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Is `x` in the half-open ring interval `(from, to]`?
fn in_interval(x: u64, from: u64, to: u64) -> bool {
    if from < to {
        x > from && x <= to
    } else if from > to {
        x > from || x <= to
    } else {
        // from == to: the interval covers the whole ring.
        true
    }
}

/// Is `x` in the open ring interval `(from, to)`?
///
/// Used by the closest-preceding-finger test, which must *exclude* the key
/// itself.  The earlier formulation `in_interval(x, from, to.wrapping_sub(1))`
/// flipped to the whole ring whenever `to == from + 1` (wrapping to
/// `from` makes the half-open helper treat the interval as full), i.e. for
/// `key == node.id + 1` every finger — including ones *past* the key — would
/// have qualified as "preceding".  The hazard was masked because the
/// successor check always catches `key == node.id + 1` first, but this helper
/// makes the interval arithmetic correct on its own: `from == to` here means
/// the key *is* the current node's id, for which every other ring position
/// precedes the key (one full wrap), matching Chord's convention.
fn in_open_interval(x: u64, from: u64, to: u64) -> bool {
    if from < to {
        x > from && x < to
    } else if from > to {
        x > from || x < to
    } else {
        x != from
    }
}

/// Finger `j` of the node at `id` points at the successor of this key,
/// `id + 2^j`.
fn finger_target(id: u64, j: usize) -> u64 {
    id.wrapping_add(1u64.wrapping_shl(j as u32))
}

/// One overlay node: its ring identifier and finger table.  A node's index
/// in the overlay's node vector is the index of the GFA it represents.
#[derive(Debug, Clone, PartialEq)]
struct ChordNode {
    /// Ring identifier.
    id: u64,
    /// `fingers[j]` = index (node, and so GFA) of the successor of
    /// `id + 2^j`.
    fingers: Vec<usize>,
    /// Whether the node is currently part of the live ring.  Departed nodes
    /// keep their slot (and finger table, kept pointing into the live ring)
    /// so lookups *originating* at them still terminate, but they own no
    /// keys and no walk arcs.
    alive: bool,
}

/// A Chord ring over the federation's GFAs.
///
/// Equality compares the node placement, the live set, the ring order and
/// every finger table (departed nodes' included), which is how tests check
/// the incrementally patched routing state against [`Self::rebuilt`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChordOverlay {
    nodes: Vec<ChordNode>,
    /// The live nodes' indices (their GFAs) sorted by ring id, for
    /// successor lookups.
    ring_order: Vec<usize>,
}

impl ChordOverlay {
    /// Number of finger-table entries (bits of the identifier space).
    pub const ID_BITS: usize = 64;

    /// Builds an overlay of `n` nodes (GFA indices `0..n`), placing each node
    /// at `hash64(seed ⊕ gfa)` on the ring.  GFA `g`'s node is `nodes[g]`
    /// for the overlay's whole life, so ring order, fingers and lookups
    /// hold GFA indices directly and a lookup indexes its origin in O(1).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "an overlay needs at least one node");
        let nodes: Vec<ChordNode> = (0..n)
            .map(|gfa| ChordNode {
                id: hash64(seed ^ (gfa as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)),
                fingers: Vec::new(),
                alive: true,
            })
            .collect();
        let mut overlay = ChordOverlay {
            nodes,
            ring_order: Vec::new(),
        };
        overlay.rebuild_routing();
        overlay
    }

    /// Builds the ring order and every node's finger table from scratch over
    /// the current live membership.  Dead nodes get fingers too — a lookup
    /// *originating* at a departed node must still route onto the live ring.
    /// Only construction (and the [`Self::rebuilt`] reference) pays for
    /// this; membership changes patch the state in place.
    fn rebuild_routing(&mut self) {
        let mut ring_order: Vec<usize> =
            (0..self.nodes.len()).filter(|&i| self.nodes[i].alive).collect();
        ring_order.sort_by_key(|&i| self.nodes[i].id);
        debug_assert!(
            ring_order.windows(2).all(|w| self.nodes[w[0]].id < self.nodes[w[1]].id),
            "ring identifiers are distinct"
        );
        self.ring_order = ring_order;
        for i in 0..self.nodes.len() {
            let id = self.nodes[i].id;
            let fingers: Vec<usize> =
                (0..Self::ID_BITS).map(|j| self.owner_of(finger_target(id, j))).collect();
            self.nodes[i].fingers = fingers;
        }
    }

    /// Number of nodes the overlay was built for (live or departed) — the
    /// federation's GFA count, which origin indices are reduced modulo.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of currently live ring nodes.
    #[must_use]
    pub fn live_len(&self) -> usize {
        self.ring_order.len()
    }

    /// Whether GFA `gfa`'s node is currently part of the live ring.
    #[must_use]
    pub fn is_alive(&self, gfa: usize) -> bool {
        self.nodes.get(gfa).is_some_and(|n| n.alive)
    }

    /// Corrupting test double: points node 0's first finger at the wrong
    /// node, leaving the ring order alone.  Only exists so the invariant
    /// tests can prove the `index_consistent` check fires.
    ///
    /// # Panics
    /// Panics on a one-node overlay, which has no wrong node to point at.
    #[cfg(feature = "invariants")]
    pub fn corrupt_finger(&mut self) {
        let n = self.nodes.len();
        assert!(n > 1, "corrupting a finger needs at least two nodes");
        let finger = &mut self.nodes[0].fingers[0];
        *finger = (*finger + 1) % n;
    }

    /// A from-scratch overlay with the same node placement and live set:
    /// the reference the in-place membership patches must reproduce
    /// exactly (compare with `==`).
    #[must_use]
    pub fn rebuilt(&self) -> ChordOverlay {
        let mut fresh = self.clone();
        fresh.rebuild_routing();
        fresh
    }

    /// Position of live node `gfa` in `ring_order` (where it would be
    /// spliced in, if it is not live).
    fn ring_position(&self, gfa: usize) -> usize {
        let id = self.nodes[gfa].id;
        self.ring_order.partition_point(|&i| self.nodes[i].id < id)
    }

    /// Removes GFA `gfa`'s node from the live ring.  Returns whether the
    /// membership changed; the last live node is never removed (the ring is
    /// the routing substrate — an empty ring would strand every subsequent
    /// lookup), and removing an unknown or already-dead node is a no-op.
    ///
    /// The routing state is patched, not rebuilt: the node is spliced out
    /// of the ring order, and every finger that pointed at it — departed
    /// nodes' fingers included — now points at its live successor, the new
    /// owner of every key it owned.
    pub fn remove_node(&mut self, gfa: usize) -> bool {
        if !self.is_alive(gfa) || self.ring_order.len() <= 1 {
            return false;
        }
        self.nodes[gfa].alive = false;
        let pos = self.ring_position(gfa);
        self.ring_order.remove(pos);
        let heir = self.ring_order[pos % self.ring_order.len()];
        for node in &mut self.nodes {
            for finger in &mut node.fingers {
                if *finger == gfa {
                    *finger = heir;
                }
            }
        }
        true
    }

    /// Re-admits a previously removed node to the live ring.  Returns
    /// whether the membership changed.
    ///
    /// The routing state is patched, not rebuilt: the node is spliced into
    /// the ring order at its sorted position, and every finger whose target
    /// `id + 2^j` falls in the range it takes over, `(pred.id, id]`, moves
    /// from its successor to it — departed nodes' fingers included.
    pub fn insert_node(&mut self, gfa: usize) -> bool {
        if gfa >= self.nodes.len() || self.nodes[gfa].alive {
            return false;
        }
        self.nodes[gfa].alive = true;
        let pos = self.ring_position(gfa);
        self.ring_order.insert(pos, gfa);
        let len = self.ring_order.len();
        let pred_id = self.nodes[self.ring_order[(pos + len - 1) % len]].id;
        let succ = self.ring_order[(pos + 1) % len];
        let id = self.nodes[gfa].id;
        for node in &mut self.nodes {
            let base = node.id;
            for (j, finger) in node.fingers.iter_mut().enumerate() {
                if *finger == succ && in_interval(finger_target(base, j), pred_id, id) {
                    *finger = gfa;
                }
            }
        }
        true
    }

    /// The GFA indices of the `count` live ring nodes succeeding `gfa`'s
    /// node (clockwise, excluding `gfa` itself) — the successor list used
    /// for replica placement.  Shorter than `count` on small rings; empty
    /// when `gfa` is not live.
    #[must_use]
    pub fn successors(&self, gfa: usize, count: usize) -> Vec<usize> {
        if !self.is_alive(gfa) {
            return Vec::new();
        }
        let n = self.ring_order.len();
        let pos = self.ring_position(gfa);
        (1..=count.min(n.saturating_sub(1)))
            .map(|step| self.ring_order[(pos + step) % n])
            .collect()
    }

    /// Whether the overlay is empty (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The GFA index owning `key` (its successor on the live ring).
    #[must_use]
    pub fn owner_of(&self, key: u64) -> usize {
        match self
            .ring_order
            .binary_search_by(|&i| self.nodes[i].id.cmp(&key))
        {
            Ok(pos) => self.ring_order[pos],
            Err(pos) => self.ring_order[pos % self.ring_order.len()],
        }
    }

    /// Routes from the node representing `from_gfa` towards `key` using
    /// closest-preceding-finger forwarding.  Returns `(owner_gfa, hops)`
    /// where `hops` is the number of overlay messages used.
    ///
    /// # Panics
    /// Panics if `from_gfa` is not part of the overlay.
    #[must_use]
    pub fn lookup(&self, from_gfa: usize, key: u64) -> (usize, u32) {
        assert!(from_gfa < self.nodes.len(), "GFA {from_gfa} is not in the overlay");
        let mut current = from_gfa;
        let mut hops = 0u32;
        // Hard bound to guarantee termination even if the finger tables were
        // corrupted; 4·bits is far beyond any legitimate route length.
        let max_hops = (Self::ID_BITS as u32) * 4;
        loop {
            let node = &self.nodes[current];
            let successor = node.fingers[0];
            if in_interval(key, node.id, self.nodes[successor].id) {
                return (successor, hops + 1);
            }
            // Closest preceding finger: the furthest finger that lies
            // strictly between this node and the key.
            let mut next = successor;
            for &f in node.fingers.iter().rev() {
                if in_open_interval(self.nodes[f].id, node.id, key) {
                    next = f;
                    break;
                }
            }
            if next == current {
                return (current, hops);
            }
            current = next;
            hops += 1;
            if hops >= max_hops {
                return (current, hops);
            }
        }
    }

    /// Number of *walk arcs*: the ring's ownership sub-ranges enumerated in
    /// ascending key order.  Arc `0` is `[0, id₀]` (owned by the first ring
    /// node), arc `j` is `(id_{j-1}, id_j]`, and arc `n` is the wrap range
    /// `(id_{n-1}, u64::MAX]` — owned by the first ring node again, which is
    /// why there is one more arc than nodes.  Range walks (MAAN-style
    /// successor traversals) step through arcs; the arc distance between two
    /// keys is the number of successor hops between their owners.  Only
    /// *live* nodes own arcs, so the arc count shrinks and grows with churn.
    #[must_use]
    pub fn walk_arcs(&self) -> usize {
        self.ring_order.len() + 1
    }

    /// The walk-arc index of `key` (monotone in `key`; see
    /// [`Self::walk_arcs`]).
    #[must_use]
    pub fn walk_arc_of(&self, key: u64) -> usize {
        self.ring_order.partition_point(|&i| self.nodes[i].id < key)
    }

    /// The GFA owning walk arc `arc`.
    #[must_use]
    pub fn walk_arc_owner(&self, arc: usize) -> usize {
        self.ring_order[arc % self.ring_order.len()]
    }

    /// Average hops over a deterministic sample of `samples` random lookups,
    /// used by tests and the directory ablation bench.
    #[must_use]
    pub fn average_lookup_hops(&self, samples: usize, seed: u64) -> f64 {
        if samples == 0 {
            return 0.0;
        }
        let mut total = 0u64;
        for s in 0..samples {
            let key = hash64(seed ^ (s as u64).wrapping_mul(0x9E37_79B9));
            let from = (hash64(seed.wrapping_add(s as u64)) % self.nodes.len() as u64) as usize;
            let (_, hops) = self.lookup(from, key);
            total += u64::from(hops);
        }
        total as f64 / samples as f64
    }
}

/// A federation directory whose ranking queries are routed through a
/// [`ChordOverlay`], so that each query's message cost is *measured* rather
/// than the idealised `⌈log₂ n⌉`.
///
/// Costs follow the DHT range-query model (`O(log n + k)`, as in MAAN-style
/// multi-attribute overlays): a rank-1 query routes from the querying GFA's
/// own overlay node to the head of the requested ranking (measured
/// closest-preceding-finger hops), and each higher rank advances the range
/// cursor one overlay hop.  Quote resolution itself is exact (rank data
/// placement is idealised — the point of this type is to check the
/// message-cost model, not to re-implement MAAN's range trees), so job
/// outcomes are identical across backends.
#[derive(Debug)]
pub struct ChordDirectory {
    overlay: ChordOverlay,
    exact: IdealDirectory,
    /// Routed (rank-1) lookups served, and the hops they took — the
    /// measured counterpart of the paper's `O(log n)` per-query model.
    routes: std::cell::Cell<u64>,
    route_hops: std::cell::Cell<u64>,
    seed: u64,
    /// Replication factor `k` (degradation model only — the rank data is
    /// central, so replication here governs whether a rank-1 route whose
    /// head owner has crashed can detour or must fault).
    replication: usize,
    /// Per-GFA departed flag (graceful leave or crash).
    down: Vec<bool>,
    /// Crashed nodes still occupying their ring position until the next
    /// stabilization round evicts them.
    pending_dead: Vec<usize>,
    /// Bumped on every live-membership change (see
    /// [`FederationDirectory::membership_epoch`]).
    membership_epoch: u64,
    /// Fault flag of the most recent query/cursor operation (see
    /// [`FederationDirectory::take_fault`]).
    fault: std::cell::Cell<bool>,
    /// The crashed node the most recent faulted route terminated at —
    /// the target of a reactive [`FederationDirectory::repair_faulted`].
    last_fault: std::cell::Cell<Option<usize>>,
}

/// `⌈log₂ n⌉`, clamped to at least one message — the modelled cost of one
/// routed maintenance operation (join, per-node eviction repair).  Shared
/// with the MAAN backend, whose joins and evictions route the same way.
pub(crate) fn ceil_log2(n: u64) -> u64 {
    if n <= 1 {
        1
    } else {
        u64::from((n - 1).ilog2()) + 1
    }
}

impl ChordDirectory {
    /// Builds the directory for `n` GFAs.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        ChordDirectory {
            overlay: ChordOverlay::new(n, seed),
            exact: IdealDirectory::new(),
            routes: std::cell::Cell::new(0),
            route_hops: std::cell::Cell::new(0),
            seed,
            replication: 1,
            down: vec![false; n],
            pending_dead: Vec::new(),
            membership_epoch: 0,
            fault: std::cell::Cell::new(false),
            last_fault: std::cell::Cell::new(None),
        }
    }

    /// The underlying overlay (for inspection in benches and tests).
    #[must_use]
    pub fn overlay(&self) -> &ChordOverlay {
        &self.overlay
    }

    /// Corrupting test double: rewinds the content epoch (held by the exact
    /// store this backend wraps) to zero.  Only exists so the invariant
    /// tests can prove the epoch monotonicity check fires.
    #[cfg(feature = "invariants")]
    pub fn corrupt_epoch_rewind(&mut self) {
        self.exact.corrupt_epoch_rewind();
    }

    /// Corrupting test double: marks the GFA of the first stored quote as
    /// departed *without* withdrawing its quote, so ranking queries keep
    /// serving a dead node's offer.  Only exists so the invariant tests can
    /// prove the `serves_only_live` check fires.
    #[cfg(feature = "invariants")]
    pub fn corrupt_serve_departed(&mut self) {
        let gfa = self
            .exact
            .quotes()
            .first()
            .expect("corrupting a directory requires at least one quote")
            .gfa;
        self.down[gfa] = true;
    }

    /// Corrupting test double: rewinds the membership epoch to zero.  Only
    /// exists so the invariant tests can prove the membership-monotonicity
    /// check fires.
    #[cfg(feature = "invariants")]
    pub fn corrupt_membership_rewind(&mut self) {
        self.membership_epoch = 0;
    }

    /// Corrupting test double: see [`ChordOverlay::corrupt_finger`].
    #[cfg(feature = "invariants")]
    pub fn corrupt_finger(&mut self) {
        self.overlay.corrupt_finger();
    }

    /// Average hops of one *routed* lookup (rank-1 cursor establishment) —
    /// the measured quantity the paper models as `O(log n)`.
    #[must_use]
    pub fn average_route_messages(&self) -> f64 {
        let routes = self.routes.get();
        if routes == 0 {
            0.0
        } else {
            self.route_hops.get() as f64 / routes as f64
        }
    }

    /// Walks the overlay from `origin`'s node to the head of the `order`
    /// ranking and returns the measured hop count — the expensive part of a
    /// routed lookup, shared by the query-per-rank path and `open_cursor`.
    fn route_to_head(&self, origin: usize, order: RankOrder) -> u64 {
        let (_, hops) = self
            .overlay
            .lookup(origin % self.overlay.len(), Self::head_key(self.seed, order));
        u64::from(hops)
    }

    /// The ring key a ranking's head cursor lives at.
    fn head_key(seed: u64, order: RankOrder) -> u64 {
        hash64(seed ^ Self::dimension(order).wrapping_mul(31))
    }

    /// Availability of a rank-1 routed lookup under the current churn state:
    /// `(extra_messages, faulted)`.  The route terminates at the node owning
    /// the ranking's head key; if that node has crashed and has not been
    /// evicted yet, a replicated deployment (`k ≥ 2`) detours to the
    /// successor replica for one extra message, while an unreplicated one
    /// faults — the route is wasted and the query answers `None`.
    #[inline]
    fn rank1_availability(&self, order: RankOrder) -> (u64, bool) {
        if self.pending_dead.is_empty() {
            return (0, false);
        }
        let owner = self.overlay.owner_of(Self::head_key(self.seed, order));
        if !self.down[owner] {
            return (0, false);
        }
        if self.replication >= 2 {
            (1, false)
        } else {
            self.last_fault.set(Some(owner));
            (0, true)
        }
    }

    /// Cold tail of [`FederationDirectory::cursor_next`]: lazy revalidation
    /// after an epoch move.  The quote store mutated under the cursor; the
    /// positional read resolves against the current store, and a cursor that
    /// has not yielded yet re-prices its pending route — membership churn
    /// can have changed the ring (and therefore the measured hop count)
    /// since the open.
    #[cold]
    #[inline(never)]
    fn revalidate_cursor(&self, cursor: &mut RankCursor) {
        if cursor.yielded == 0 {
            cursor.route_messages = self.route_to_head(cursor.origin, cursor.order);
        }
        cursor.epoch = self.epoch();
    }

    /// Cold tail of [`FederationDirectory::cursor_next`] for a rank-1 yield
    /// while a crashed node squats on the ring: detours to the successor
    /// replica for one extra message, or reports a fault while still
    /// charging the wasted route.
    #[cold]
    #[inline(never)]
    fn cursor_head_degraded(&self, cursor: &mut RankCursor) -> TracedQuote {
        let (extra, fault) = self.rank1_availability(cursor.order);
        let messages = self.charge_ranked(1, || cursor.route_messages + extra);
        if fault {
            self.fault.set(true);
            return TracedQuote { quote: None, messages };
        }
        let quote = self.exact.resolve_ranked(cursor.order, 1);
        TracedQuote { quote, messages }
    }

    /// The ranking's key-space dimension (1 = price, 2 = speed).
    fn dimension(order: RankOrder) -> u64 {
        match order {
            RankOrder::Cheapest => 1,
            RankOrder::Fastest => 2,
        }
    }

    /// The single place rank-dependent charges are applied, so the oracle
    /// path, the cursor path and cache replays cannot drift apart: rank 1
    /// charges `route_hops()` (lazily — live queries walk the overlay,
    /// cursors and replays reuse a measured walk) and records the routed
    /// lookup; every higher rank is one cursor-advance hop.  Rank 0 must be
    /// short-circuited by callers.
    #[inline]
    fn charge_ranked(&self, r: usize, route_hops: impl FnOnce() -> u64) -> u64 {
        debug_assert!(r >= 1, "rank 0 is answered locally and never charged");
        if r == 1 {
            let hops = route_hops();
            self.routes.set(self.routes.get() + 1);
            self.route_hops.set(self.route_hops.get() + hops);
            hops
        } else {
            1
        }
    }

}

impl FederationDirectory for ChordDirectory {
    // Like the ideal backend, the quote store is central (only query routing
    // is measured), so mutations charge no publish-side messages.

    fn subscribe(&mut self, quote: Quote) -> u64 {
        self.exact.subscribe(quote)
    }
    fn unsubscribe(&mut self, gfa: usize) -> u64 {
        self.exact.unsubscribe(gfa)
    }
    fn update_price(&mut self, gfa: usize, price: f64) -> u64 {
        self.exact.update_price(gfa, price)
    }
    fn query_ranked(&self, origin: usize, order: RankOrder, r: usize) -> TracedQuote {
        if r == 0 {
            return TracedQuote { quote: None, messages: 0 };
        }
        self.fault.set(false);
        let (extra, fault) = if r == 1 {
            self.rank1_availability(order)
        } else {
            (0, false)
        };
        let messages = self.charge_ranked(r, || self.route_to_head(origin, order) + extra);
        if fault {
            self.fault.set(true);
            return TracedQuote { quote: None, messages };
        }
        TracedQuote {
            quote: self.exact.resolve_ranked(order, r),
            messages,
        }
    }
    fn len(&self) -> usize {
        self.exact.len()
    }
    fn queries_served(&self) -> u64 {
        self.exact.queries_served()
    }

    fn epoch(&self) -> u64 {
        // The quote store lives in `exact`; the overlay ring is a static
        // routing substrate, so its (never-changing) topology contributes
        // nothing to the epoch.
        self.exact.epoch()
    }

    fn open_cursor(&self, origin: usize, order: RankOrder) -> RankCursor {
        // The one genuinely expensive step: walk the finger tables from the
        // origin's node to the head of the ranking.  Everything after this
        // is O(1) per rank.
        RankCursor::opened(origin, order, self.epoch(), self.route_to_head(origin, order))
    }

    #[inline]
    fn cursor_next(&self, cursor: &mut RankCursor) -> TracedQuote {
        self.fault.set(false);
        if cursor.epoch != self.epoch() {
            self.revalidate_cursor(cursor);
        }
        cursor.yielded += 1;
        let r = cursor.yielded;
        // Out-of-line churn handling keeps the static-ring advance compact
        // enough to stay fully inlined through the enum dispatch (the gated
        // advance_ns metric); only a rank-1 route can terminate at a crashed
        // head node, and only while one awaits stabilization.
        if r == 1 && !self.pending_dead.is_empty() {
            return self.cursor_head_degraded(cursor);
        }
        let messages = self.charge_ranked(r, || cursor.route_messages);
        let quote = self.exact.resolve_ranked(cursor.order, r);
        TracedQuote { quote, messages }
    }

    #[inline]
    fn note_replayed_query(&self, _origin: usize, _order: RankOrder, r: usize, route_messages: u64) {
        if r == 0 {
            return;
        }
        self.exact.count_replayed_query();
        let _ = self.charge_ranked(r, || route_messages);
    }

    fn membership_epoch(&self) -> u64 {
        self.membership_epoch
    }

    fn node_depart(&mut self, gfa: usize, graceful: bool) -> u64 {
        if gfa >= self.down.len() || self.down[gfa] {
            return 0;
        }
        self.down[gfa] = true;
        // The rank data is central, so the departing quote is withdrawn
        // synchronously either way; the withdrawal itself routes nothing
        // under this backend.
        let _ = self.exact.unsubscribe(gfa);
        if graceful {
            // A graceful leave unlinks from the ring immediately — its
            // successor inherits the key range at no modelled message cost
            // (there are no stored entries to move).
            let _ = self.overlay.remove_node(gfa);
        } else {
            // A crash leaves a dead node squatting on its ring position
            // until the next stabilization round evicts it; routes that
            // terminate there degrade in the meantime.
            self.pending_dead.push(gfa);
        }
        self.membership_epoch += 1;
        0
    }

    fn node_join(&mut self, gfa: usize) -> u64 {
        if gfa >= self.down.len() || !self.down[gfa] {
            return 0;
        }
        self.down[gfa] = false;
        self.pending_dead.retain(|&g| g != gfa);
        let _ = self.overlay.insert_node(gfa);
        self.membership_epoch += 1;
        // Joining routes one lookup to locate the successor, `⌈log₂ n⌉`
        // messages on the post-join ring.
        ceil_log2(self.overlay.live_len() as u64)
    }

    fn stabilize(&mut self) -> u64 {
        if self.pending_dead.is_empty() {
            return 0;
        }
        let mut evicted = 0u64;
        for gfa in std::mem::take(&mut self.pending_dead) {
            if self.overlay.remove_node(gfa) {
                evicted += 1;
            }
        }
        if evicted == 0 {
            return 0;
        }
        self.membership_epoch += 1;
        // Ring repair invalidates measured routes and cached charge replays:
        // bump the content epoch so cursors and GFA caches revalidate.
        self.exact.bump_epoch();
        // Per evicted node: the successor-list repair plus finger refresh,
        // modelled at one routed lookup each.
        evicted * ceil_log2(self.overlay.live_len().max(1) as u64)
    }

    fn set_replication(&mut self, k: usize) {
        self.replication = k.max(1);
    }

    fn repair_faulted(&mut self) -> u64 {
        let Some(gfa) = self.last_fault.take() else {
            return 0;
        };
        if !self.pending_dead.contains(&gfa) {
            // Rejoined or already evicted by a stabilization round since the
            // fault was recorded — nothing left to repair.
            return 0;
        }
        self.pending_dead.retain(|&g| g != gfa);
        if !self.overlay.remove_node(gfa) {
            return 0;
        }
        self.membership_epoch += 1;
        // Like a stabilization eviction, the targeted repair invalidates
        // measured routes and cached charge replays.
        self.exact.bump_epoch();
        ceil_log2(self.overlay.live_len().max(1) as u64)
    }

    fn is_node_live(&self, gfa: usize) -> bool {
        !self.down.get(gfa).copied().unwrap_or(false)
    }

    fn peek_fault(&self) -> bool {
        self.fault.get()
    }

    fn take_fault(&self) -> bool {
        self.fault.replace(false)
    }

    fn serves_only_live(&self) -> bool {
        self.exact.quotes().iter().all(|q| !self.down[q.gfa])
    }

    #[cfg(feature = "invariants")]
    fn index_consistent(&self) -> bool {
        self.overlay == self.overlay.rebuilt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_cluster::paper_resources;

    #[test]
    fn ring_interval_logic() {
        assert!(in_interval(5, 3, 8));
        assert!(!in_interval(9, 3, 8));
        assert!(in_interval(8, 3, 8));
        assert!(!in_interval(3, 3, 8));
        // Wrapping interval (from > to).
        assert!(in_interval(1, 60, 5));
        assert!(in_interval(62, 60, 5));
        assert!(!in_interval(30, 60, 5));
        // Degenerate single-node ring.
        assert!(in_interval(42, 7, 7));
    }

    #[test]
    fn open_interval_logic() {
        assert!(in_open_interval(5, 3, 8));
        assert!(!in_open_interval(8, 3, 8)); // endpoint excluded
        assert!(!in_open_interval(3, 3, 8));
        // Wrapping interval.
        assert!(in_open_interval(1, 60, 5));
        assert!(!in_open_interval(5, 60, 5));
        assert!(in_open_interval(u64::MAX, 60, 5));
        // The audited edge: `to == from + 1` must be EMPTY, not the whole
        // ring (the old `to.wrapping_sub(1)` formulation got this wrong).
        assert!(!in_open_interval(7, 6, 7));
        assert!(!in_open_interval(6, 6, 7));
        assert!(!in_open_interval(100, 6, 7));
        assert!(!in_open_interval(0, u64::MAX, 0));
        assert!(!in_open_interval(u64::MAX, u64::MAX, 0));
        // `from == to`: the key is the node's own id — everything except the
        // node itself precedes the key (one full wrap).
        assert!(in_open_interval(42, 7, 7));
        assert!(!in_open_interval(7, 7, 7));
    }

    #[test]
    fn exhaustive_small_rings_route_to_the_true_successor() {
        // Regression suite for the wraparound audit: on small rings, every
        // (origin, key) pair — with keys probing each node id and its ±1
        // wrapping neighbours plus the ring extremes — must reach the exact
        // successor without ever tripping the `max_hops` bail-out.
        let max_route = ChordOverlay::ID_BITS as u32 * 4;
        for n in 1..=12usize {
            for seed in [0u64, 1, 42, 0xBEEF] {
                let overlay = ChordOverlay::new(n, seed);
                let mut keys = vec![0u64, 1, u64::MAX, u64::MAX - 1, u64::MAX / 2];
                for node in &overlay.nodes {
                    keys.push(node.id);
                    keys.push(node.id.wrapping_add(1));
                    keys.push(node.id.wrapping_sub(1));
                }
                for origin in 0..n {
                    for &key in &keys {
                        let expected = overlay.owner_of(key);
                        let (owner, hops) = overlay.lookup(origin, key);
                        assert_eq!(
                            owner, expected,
                            "n={n} seed={seed}: key {key} from {origin} routed to {owner}, true successor is {expected}"
                        );
                        assert!(
                            hops < max_route,
                            "n={n} seed={seed}: key {key} from {origin} hit the max-hops bail-out"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lookup_agrees_with_ring_successor() {
        let overlay = ChordOverlay::new(32, 99);
        for probe in 0..200u64 {
            let key = hash64(probe.wrapping_mul(0xABCD_EF12_3456));
            let expected = overlay.owner_of(key);
            for from in [0usize, 7, 15, 31] {
                let (owner, hops) = overlay.lookup(from, key);
                assert_eq!(owner, expected, "key {key} from {from}");
                assert!(hops >= 1);
            }
        }
    }

    #[test]
    fn lookups_terminate_in_logarithmic_hops() {
        for &n in &[8usize, 16, 32, 64, 128] {
            let overlay = ChordOverlay::new(n, 7);
            let bound = 2.0 * (n as f64).log2() + 4.0;
            let avg = overlay.average_lookup_hops(500, 123);
            assert!(
                avg <= bound,
                "n = {n}: average hops {avg} exceeds 2·log2(n)+4 = {bound}"
            );
            assert!(avg >= 1.0);
        }
    }

    #[test]
    fn bigger_rings_need_more_hops_on_average() {
        let small = ChordOverlay::new(8, 5).average_lookup_hops(800, 9);
        let large = ChordOverlay::new(256, 5).average_lookup_hops(800, 9);
        assert!(
            large > small,
            "expected more hops on the larger ring ({large} vs {small})"
        );
    }

    #[test]
    fn chord_directory_returns_exact_results_with_measured_cost() {
        let mut dir = ChordDirectory::new(8, 11);
        for (i, r) in paper_resources().iter().enumerate() {
            let _ = dir.subscribe(Quote::from_spec(i, &r.spec));
        }
        assert_eq!(dir.len(), 8);
        let head = |order| dir.query_ranked(0, order, 1).quote.unwrap().gfa;
        assert_eq!(head(RankOrder::Cheapest), 3); // LANL Origin
        assert_eq!(head(RankOrder::Fastest), 4); // NASA iPSC
        assert!(dir.query_ranked(0, RankOrder::Cheapest, 0).quote.is_none());
        assert!(dir.query_ranked(0, RankOrder::Fastest, 100).quote.is_none());
        assert!(dir.queries_served() >= 3);
        assert!(dir.average_route_messages() >= 1.0);
        assert!(!dir.overlay().is_empty());
    }

    #[test]
    fn walk_arcs_agree_with_ownership() {
        for n in [1usize, 2, 5, 16] {
            let overlay = ChordOverlay::new(n, 77);
            assert_eq!(overlay.walk_arcs(), n + 1);
            let mut last_arc = 0usize;
            for probe in 0..400u64 {
                let key = (u64::MAX / 400) * probe;
                let arc = overlay.walk_arc_of(key);
                assert!(arc >= last_arc || probe == 0, "arcs must be monotone in the key");
                last_arc = arc;
                assert!(arc <= n, "n={n}: arc {arc} out of range");
                assert_eq!(
                    overlay.walk_arc_owner(arc),
                    overlay.owner_of(key),
                    "n={n}: arc owner disagrees with the ring successor for key {key}"
                );
            }
            // The wrap arc belongs to the first ring node.
            assert_eq!(overlay.walk_arc_owner(n), overlay.walk_arc_owner(0));
            assert_eq!(overlay.walk_arc_of(0), 0);
        }
    }

    #[test]
    fn single_node_overlay_works() {
        let overlay = ChordOverlay::new(1, 0);
        let (owner, hops) = overlay.lookup(0, 12345);
        assert_eq!(owner, 0);
        assert!(hops <= 1);
    }

    #[test]
    fn range_cursor_model_charges_log_plus_k() {
        let mut dir = ChordDirectory::new(8, 11);
        for (i, r) in paper_resources().iter().enumerate() {
            let _ = dir.subscribe(Quote::from_spec(i, &r.spec));
        }
        // Rank 1 establishes the cursor: a routed lookup of ≥ 1 hop.
        let head = dir.query_ranked(2, RankOrder::Cheapest, 1);
        assert!(head.messages >= 1);
        assert_eq!(dir.routes.get(), 1);
        assert_eq!(dir.route_hops.get(), head.messages);
        // Every higher rank advances the cursor exactly one hop.
        for r in 2..=8 {
            assert_eq!(dir.query_ranked(2, RankOrder::Cheapest, r).messages, 1, "rank {r}");
        }
        assert_eq!(dir.routes.get(), 1, "cursor advances are not routed lookups");
        assert_eq!(dir.average_route_messages(), head.messages as f64);
        // A fresh ranking dimension routes again.
        let fast = dir.query_ranked(5, RankOrder::Fastest, 1);
        assert!(fast.messages >= 1);
        assert_eq!(dir.routes.get(), 2);
    }

    #[test]
    fn traced_queries_route_from_the_given_origin() {
        let mut dir = ChordDirectory::new(8, 11);
        for (i, r) in paper_resources().iter().enumerate() {
            let _ = dir.subscribe(Quote::from_spec(i, &r.spec));
        }
        // The same (dimension, rank) key from different origins resolves the
        // same quote; only the measured hop count may differ.
        let mut costs = Vec::new();
        for origin in 0..8 {
            let traced = dir.query_ranked(origin, RankOrder::Cheapest, 1);
            assert_eq!(traced.quote.unwrap().gfa, 3); // LANL Origin
            assert!(traced.messages >= 1);
            costs.push(traced.messages);
        }
        assert!(
            costs.iter().any(|c| *c != costs[0]) || costs.len() == 1,
            "hop counts should depend on the query origin (got {costs:?})"
        );
        // Rank 0 is answered locally and costs nothing.
        let invalid = dir.query_ranked(0, RankOrder::Fastest, 0);
        assert_eq!(invalid.quote, None);
        assert_eq!(invalid.messages, 0);
        // Out-of-overlay origins (e.g. benches) wrap around instead of
        // panicking.
        assert!(dir.query_ranked(8_000, RankOrder::Fastest, 2).quote.is_some());
    }

    #[test]
    fn successor_lists_follow_the_live_ring() {
        let overlay = ChordOverlay::new(8, 7);
        for gfa in 0..8 {
            let succ = overlay.successors(gfa, 3);
            assert_eq!(succ.len(), 3);
            assert!(!succ.contains(&gfa), "a node is not its own successor");
        }
        let mut overlay = ChordOverlay::new(4, 7);
        assert_eq!(overlay.successors(0, 10).len(), 3, "capped at n - 1");
        assert!(overlay.remove_node(1));
        assert!(!overlay.remove_node(1), "already-dead removal is a no-op");
        assert_eq!(overlay.live_len(), 3);
        assert!(!overlay.is_alive(1));
        assert!(
            overlay.successors(1, 2).is_empty(),
            "dead nodes have no successor list"
        );
        for gfa in [0usize, 2, 3] {
            assert!(!overlay.successors(gfa, 3).contains(&1));
        }
        assert!(overlay.insert_node(1));
        assert!(!overlay.insert_node(1), "already-live insertion is a no-op");
        assert_eq!(overlay.live_len(), 4);
        // The last live node is never removed: the ring is the routing
        // substrate and an empty one would strand every lookup.
        for gfa in 0..4 {
            let _ = overlay.remove_node(gfa);
        }
        assert_eq!(overlay.live_len(), 1);
    }

    #[test]
    fn graceful_departures_withdraw_immediately() {
        let mut dir = ChordDirectory::new(8, 11);
        for (i, r) in paper_resources().iter().enumerate() {
            let _ = dir.subscribe(Quote::from_spec(i, &r.spec));
        }
        let e = dir.epoch();
        let cost = dir.node_depart(2, true);
        assert_eq!(cost, 0, "central rank data: nothing to hand off");
        assert_eq!(dir.len(), 7);
        assert!(dir.epoch() > e, "the withdrawal revalidates cursors");
        assert!(!dir.is_node_live(2));
        assert!(dir.serves_only_live());
        assert_eq!(dir.overlay().live_len(), 7);
        assert_eq!(dir.node_depart(2, true), 0, "departing twice is a no-op");
        assert_eq!(dir.membership_epoch(), 1);
        // Join cost is the modelled ⌈log₂ n⌉ on the post-join ring.
        assert_eq!(dir.node_join(2), 3);
        assert_eq!(dir.overlay().live_len(), 8);
        assert_eq!(dir.node_join(2), 0, "joining while live is a no-op");
        assert_eq!(ceil_log2(1), 1);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn crashes_fault_unreplicated_heads_until_stabilization() {
        let mut dir = ChordDirectory::new(8, 11);
        for (i, r) in paper_resources().iter().enumerate() {
            let _ = dir.subscribe(Quote::from_spec(i, &r.spec));
        }
        let head_owner = dir
            .overlay
            .owner_of(ChordDirectory::head_key(dir.seed, RankOrder::Cheapest));
        assert_eq!(dir.membership_epoch(), 0);
        let _ = dir.node_depart(head_owner, false);
        assert_eq!(dir.membership_epoch(), 1);
        assert!(!dir.is_node_live(head_owner));
        assert!(dir.serves_only_live(), "the crashed GFA's quote is withdrawn");
        assert_eq!(
            dir.overlay().live_len(),
            8,
            "a crashed node squats on the ring until stabilization"
        );
        // k = 1: the routed lookup terminates at the crashed head and faults.
        let faulted = dir.query_ranked(0, RankOrder::Cheapest, 1);
        assert!(faulted.quote.is_none());
        assert!(faulted.messages >= 1, "the wasted route is still charged");
        assert!(dir.take_fault());
        assert!(!dir.take_fault(), "take_fault is one-shot");
        // Deeper ranks advance along the range without touching the head.
        assert!(dir.query_ranked(0, RankOrder::Cheapest, 2).quote.is_some());
        assert!(!dir.take_fault());
        // k = 2: the successor replica answers for one extra message.
        dir.set_replication(2);
        let detoured = dir.query_ranked(0, RankOrder::Cheapest, 1);
        assert!(detoured.quote.is_some());
        assert!(!dir.peek_fault());
        assert_eq!(detoured.messages, faulted.messages + 1);
        // Stabilization evicts the ghost and restores clean routing.
        let epoch_before = dir.epoch();
        let repair = dir.stabilize();
        assert!(repair >= 1);
        assert!(dir.epoch() > epoch_before, "ring repair revalidates caches");
        assert_eq!(dir.membership_epoch(), 2);
        assert_eq!(dir.overlay().live_len(), 7);
        assert!(dir.query_ranked(0, RankOrder::Cheapest, 1).quote.is_some());
        assert!(!dir.take_fault());
        assert_eq!(dir.stabilize(), 0, "a stable ring has nothing to repair");
        // The crashed GFA rejoins (its quote republish is the GFA's job).
        assert!(dir.node_join(head_owner) >= 1);
        assert!(dir.is_node_live(head_owner));
        assert_eq!(dir.membership_epoch(), 3);
        assert!(dir.replication_ok());
    }
}
