//! The Chord-style structured overlay the MAAN directory routes over.
//!
//! The paper assumes an efficient P2P directory (it cites MAAN-style
//! multi-attribute DHTs) and models each ranking query as `O(log n)`
//! messages.  [`ChordOverlay`] implements real Chord routing state — node
//! identifiers on a 2⁶⁴ ring and per-node finger tables — and counts the hops
//! taken by greedy closest-preceding-finger routing.  It also enumerates the
//! ring's ownership sub-ranges (*walk arcs*) that range walks step through.
//! [`MaanDirectory`](crate::maan::MaanDirectory) stores its quotes on this
//! ring and routes every lookup through it, so the `O(log n)` query cost is
//! measured rather than modelled.
//!
//! Membership changes patch the ring order and the finger tables in place
//! instead of rebuilding them.  A join or departure moves ownership of one
//! ring range, `(pred.id, id]`, so only the fingers whose targets
//! `base + 2^j` fall in that range can change.  Because the targets'
//! offsets from `base` are the powers of two, those fingers form at most
//! two contiguous runs of `j`, read off the leading zeros of the range's
//! offsets from `base` (`finger_runs`).  A membership change therefore
//! visits each node once and touches only the few fingers that move:
//! `O(n)` work, not the `O(64·n)` of a scan over every finger slot.

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

/// The finger indices `j` of the node at `base` whose targets
/// `finger_target(base, j)` lie in the ring interval `(from, to]`, as two
/// runs (either may be empty).
///
/// Relative to `base` the targets sit at offsets `2^j`, and the interval
/// becomes `(a, b]` with `a = from − base`, `b = to − base` (wrapping).
/// The number of powers of two `≤ x` is `64 − x.leading_zeros()`, which is
/// also the first `j` with `2^j > x`; call it `bits(x)`.  If `a < b` the
/// interval does not contain `base` and the run is `bits(a)..bits(b)`.  If
/// `a > b` it wraps through `base` and holds the small offsets
/// `0..bits(b)` and the large ones `bits(a)..64`.  `a == b` is the whole
/// ring, as in [`in_interval`].
fn finger_runs(base: u64, from: u64, to: u64) -> [std::ops::Range<usize>; 2] {
    let bits = |x: u64| 64 - x.leading_zeros() as usize;
    let (a, b) = (from.wrapping_sub(base), to.wrapping_sub(base));
    match a.cmp(&b) {
        std::cmp::Ordering::Less => [bits(a)..bits(b), 0..0],
        std::cmp::Ordering::Greater => [0..bits(b), bits(a)..64],
        std::cmp::Ordering::Equal => [0..64, 0..0],
    }
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
    /// `ring_ids[i]` = the ring id of `ring_order[i]`, kept in step with it
    /// so the ring's binary searches read one dense array.
    ring_ids: Vec<u64>,
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
            ring_ids: Vec::new(),
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
        self.ring_ids = ring_order.iter().map(|&i| self.nodes[i].id).collect();
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
        self.ring_ids.partition_point(|&x| x < id)
    }

    /// Repoints every finger — departed nodes' included — whose target
    /// falls in `(from, to]` and that points at `old` to `new`: the patch of
    /// one membership change, which moves ownership of exactly that range.
    /// Visits only the finger runs of [`finger_runs`], a handful per node.
    fn repoint_fingers(&mut self, from: u64, to: u64, old: usize, new: usize) {
        for node in &mut self.nodes {
            for run in finger_runs(node.id, from, to) {
                for finger in &mut node.fingers[run] {
                    if *finger == old {
                        *finger = new;
                    }
                }
            }
        }
    }

    /// Removes GFA `gfa`'s node from the live ring.  Returns whether the
    /// membership changed; the last live node is never removed (the ring is
    /// the routing substrate — an empty ring would strand every subsequent
    /// lookup), and removing an unknown or already-dead node is a no-op.
    ///
    /// The routing state is patched, not rebuilt: the node is spliced out
    /// of the ring order, and every finger that pointed at it — departed
    /// nodes' fingers included — now points at its live successor, the new
    /// owner of every key it owned.  Those fingers are exactly the ones
    /// whose targets fall in `(pred.id, id]`, so only their runs are
    /// visited: `O(n)` per removal.
    pub fn remove_node(&mut self, gfa: usize) -> bool {
        if !self.is_alive(gfa) || self.ring_order.len() <= 1 {
            return false;
        }
        self.nodes[gfa].alive = false;
        let pos = self.ring_position(gfa);
        let len = self.ring_order.len();
        let pred_id = self.ring_ids[(pos + len - 1) % len];
        self.ring_order.remove(pos);
        let id = self.ring_ids.remove(pos);
        let heir = self.ring_order[pos % self.ring_order.len()];
        self.repoint_fingers(pred_id, id, gfa, heir);
        true
    }

    /// Re-admits a previously removed node to the live ring.  Returns
    /// whether the membership changed.
    ///
    /// The routing state is patched, not rebuilt: the node is spliced into
    /// the ring order at its sorted position, and every finger whose target
    /// `id + 2^j` falls in the range it takes over, `(pred.id, id]`, moves
    /// from its successor to it — departed nodes' fingers included.  Only
    /// those fingers' runs are visited: `O(n)` per insertion.
    pub fn insert_node(&mut self, gfa: usize) -> bool {
        if gfa >= self.nodes.len() || self.nodes[gfa].alive {
            return false;
        }
        self.nodes[gfa].alive = true;
        let pos = self.ring_position(gfa);
        let id = self.nodes[gfa].id;
        self.ring_order.insert(pos, gfa);
        self.ring_ids.insert(pos, id);
        let len = self.ring_order.len();
        let pred_id = self.ring_ids[(pos + len - 1) % len];
        let succ = self.ring_order[(pos + 1) % len];
        self.repoint_fingers(pred_id, id, succ, gfa);
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
        self.walk_arc_owner(self.walk_arc_of(key))
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
        self.ring_ids.partition_point(|&id| id < key)
    }

    /// Whether `key` lies in walk arc `arc`, i.e. `walk_arc_of(key) == arc`,
    /// by two bounds compares instead of a binary search.
    #[must_use]
    pub fn arc_contains(&self, arc: usize, key: u64) -> bool {
        (arc == 0 || self.ring_ids[arc - 1] < key)
            && self.ring_ids.get(arc).map_or(true, |&id| key <= id)
    }

    /// The GFA owning walk arc `arc`.
    #[must_use]
    pub fn walk_arc_owner(&self, arc: usize) -> usize {
        self.ring_order[arc % self.ring_order.len()]
    }
}

/// `⌈log₂ n⌉`, clamped to at least one message — the modelled cost of one
/// routed maintenance operation (join, per-node eviction repair) on a ring
/// of `n` live nodes.
pub(crate) fn ceil_log2(n: u64) -> u64 {
    if n <= 1 {
        1
    } else {
        u64::from((n - 1).ilog2()) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Average hops over a deterministic sample of `samples` random
    /// lookups on `overlay`.
    fn average_lookup_hops(overlay: &ChordOverlay, samples: usize, seed: u64) -> f64 {
        let mut total = 0u64;
        for s in 0..samples {
            let key = hash64(seed ^ (s as u64).wrapping_mul(0x9E37_79B9));
            let from = (hash64(seed.wrapping_add(s as u64)) % overlay.len() as u64) as usize;
            let (_, hops) = overlay.lookup(from, key);
            total += u64::from(hops);
        }
        total as f64 / samples as f64
    }

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
    fn finger_runs_match_the_brute_force_interval_test() {
        let bases = [0u64, 1, 2, 7, 1 << 40, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        let mut intervals = vec![
            (0u64, u64::MAX),
            (u64::MAX, 0),
            (u64::MAX - 1, 1),
            (u64::MAX, u64::MAX),
            (0, 0),
            (5, 5),
            (5, 6),
            (u64::MAX - 1, u64::MAX),
            (1 << 63, (1 << 63) + 1),
            (1000, 1 << 50),
            (1 << 50, 1000),
        ];
        for &base in &bases {
            for (from, to) in [
                // `base` inside the interval, at either end and just past it.
                (base.wrapping_sub(1), base),
                (base, base.wrapping_add(1)),
                (base.wrapping_sub(10), base.wrapping_add(10)),
                (base.wrapping_sub(1 << 30), base.wrapping_add(1 << 20)),
                // `base` outside, with the interval starting at a target.
                (base.wrapping_add(1 << 7), base.wrapping_add(1 << 9)),
                (base.wrapping_add((1 << 7) - 1), base.wrapping_add(1 << 7)),
            ] {
                intervals.push((from, to));
            }
        }
        for &base in &bases {
            for &(from, to) in &intervals {
                let mut visited = [false; ChordOverlay::ID_BITS];
                for run in finger_runs(base, from, to) {
                    for j in run {
                        assert!(!visited[j], "base {base} ({from}, {to}]: finger {j} in both runs");
                        visited[j] = true;
                    }
                }
                for (j, &hit) in visited.iter().enumerate() {
                    assert_eq!(
                        hit,
                        in_interval(finger_target(base, j), from, to),
                        "base {base} ({from}, {to}]: finger {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn arc_contains_agrees_with_walk_arc_of() {
        for n in [1usize, 2, 5, 16] {
            let mut overlay = ChordOverlay::new(n, 77);
            if n > 2 {
                // A departed node's id is a probe key like any other.
                assert!(overlay.remove_node(1));
            }
            let mut keys = vec![0u64, 1, u64::MAX - 1, u64::MAX];
            for node in &overlay.nodes {
                keys.extend([node.id, node.id.wrapping_add(1), node.id.wrapping_sub(1)]);
            }
            for &key in &keys {
                let arc_of_key = overlay.walk_arc_of(key);
                for arc in 0..overlay.walk_arcs() {
                    assert_eq!(
                        overlay.arc_contains(arc, key),
                        arc_of_key == arc,
                        "n={n}: key {key} vs arc {arc} (walk_arc_of = {arc_of_key})"
                    );
                }
            }
            // The wrap arc holds the top of the ring unless a node sits at
            // `u64::MAX`.
            assert!(overlay.arc_contains(overlay.walk_arcs() - 1, u64::MAX));
        }
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
            let avg = average_lookup_hops(&overlay, 500, 123);
            assert!(
                avg <= bound,
                "n = {n}: average hops {avg} exceeds 2·log2(n)+4 = {bound}"
            );
            assert!(avg >= 1.0);
        }
    }

    #[test]
    fn bigger_rings_need_more_hops_on_average() {
        let small = average_lookup_hops(&ChordOverlay::new(8, 5), 800, 9);
        let large = average_lookup_hops(&ChordOverlay::new(256, 5), 800, 9);
        assert!(
            large > small,
            "expected more hops on the larger ring ({large} vs {small})"
        );
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
    fn ceil_log2_clamps_to_one_message() {
        assert_eq!(ceil_log2(0), 1);
        assert_eq!(ceil_log2(1), 1);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }
}
