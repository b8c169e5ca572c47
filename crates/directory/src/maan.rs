//! A MAAN-style multi-attribute range index living on the Chord ring.
//!
//! Of the two directory backends this is the one whose rank data is
//! **distributed**: the `Ideal` backend models message costs over a central
//! store, while [`MaanDirectory`] stores each quote *at the ring nodes that
//! own its attribute keys* (see [`crate::keys`]) and answers rank queries by
//! actually walking that partitioned state:
//!
//! * **publish** (`subscribe`) puts the quote under its price key and its
//!   speed key — two routed messages from the publisher's node to the owner
//!   of each key; a republish whose keys moved to a different owner also
//!   pays a routed remove per relocated entry;
//! * **withdraw** (`unsubscribe`) routes a remove to each owner;
//! * **reprice** (`update_price`) is a *move*: the price entry is removed
//!   under its old key and re-inserted under the new one — one routed
//!   message when both keys share an owner, a routed remove plus a routed
//!   put otherwise (the speed entry never moves);
//! * **query** routes from the querying GFA's node to the start of the
//!   attribute's range partition and walks successor sub-ranges (*walk
//!   arcs*, [`ChordOverlay::walk_arc_of`]) in key order.  Rank 1 therefore
//!   costs measured `O(log n)` routing hops plus the walk steps to the first
//!   populated arc; every further rank costs one cursor-advance message
//!   **plus one message per node boundary the walk crosses** — the
//!   `O(log n + k)` profile of MAAN range queries, including the
//!   boundary-crossing advances (`> 1` message) the modelled `Ideal` backend
//!   never produces.
//!
//! Apart from the charges, the directory tallies the closest-preceding-finger
//! hops of every route it walks without the arc walk
//! ([`MaanDirectory::average_finger_hops`]): the pure overlay routing cost
//! the paper models as `O(log n)`.
//!
//! Because the locality-preserving hash is monotone and ties share an owner
//! node (where the node-local store orders them by the true attribute
//! comparator), the concatenation of per-node stores in walk order equals
//! the exact ranking — quotes resolved here are bit-identical to
//! [`IdealDirectory`](crate::ideal::IdealDirectory)'s, which the conformance
//! and differential suites assert.  Only the *message charges* differ, and
//! those are deterministic functions of the directory content and the query
//! origin, so the cursor path, the query-per-rank oracle and GFA cache
//! replays all charge identically (the invariant the federation's ledger
//! accounting relies on).
//!
//! Queries read a flattened walk index (the node stores concatenated in
//! walk order) kept in step with the stores incrementally: a content write
//! splices the one or two entries it touched into the index by binary
//! search, and only a ring-membership change — which renumbers the walk
//! arcs — rebuilds it from the stores.

use std::cell::Cell;
use std::cmp::Ordering;

use crate::chord::{ceil_log2, ChordOverlay};
use crate::cursor::RankCursor;
use crate::keys;
use crate::quote::{FederationDirectory, Quote, RankOrder, TracedQuote};

/// One ring node's share of the distributed index: the quote entries whose
/// attribute keys this node owns, one sorted vector per attribute.
#[derive(Debug, Clone, Default)]
struct NodeStore {
    /// `entries[RankOrder::index()]`, each sorted by
    /// `(key, attribute comparator, gfa)`.
    entries: [Vec<(u64, Quote)>; 2],
}

/// One entry of the flattened walk index: the quote, its attribute key
/// (so writes can binary-search the index without rehashing) and the walk
/// arc the key lives in (the arc delta between consecutive ranks is the
/// number of successor hops a range walk pays to advance between them).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlatEntry {
    key: u64,
    arc: usize,
    quote: Quote,
}

/// Ordering of entries within one attribute dimension: ascending key first
/// (the ring-walk order), then the true attribute comparator (which resolves
/// ties among values that clamp or quantise onto the same key), then the GFA
/// index.  Because the key map is monotone in the attribute, this equals the
/// exact ranking order.
fn entry_cmp(order: RankOrder, a: &(u64, Quote), b: &(u64, Quote)) -> Ordering {
    a.0.cmp(&b.0)
        .then_with(|| match order {
            RankOrder::Cheapest => a.1.price.total_cmp(&b.1.price),
            RankOrder::Fastest => b.1.mips.total_cmp(&a.1.mips),
        })
        .then_with(|| a.1.gfa.cmp(&b.1.gfa))
}

/// `total / count`, or zero when nothing was counted.
fn mean(total: &Cell<u64>, count: &Cell<u64>) -> f64 {
    match count.get() {
        0 => 0.0,
        n => total.get() as f64 / n as f64,
    }
}

/// The MAAN-style distributed federation directory.  See the module docs
/// for the storage and charge model.
#[derive(Debug)]
pub struct MaanDirectory {
    overlay: ChordOverlay,
    /// Per-node attribute stores, indexed like the overlay's GFAs.  This is
    /// the authoritative, partitioned quote state.
    nodes: Vec<NodeStore>,
    /// Publisher-side records (each GFA remembers the quote it published),
    /// in subscription order.  Used to locate the old keys on republish /
    /// withdraw and to answer `len()`.
    published: Vec<Quote>,
    /// Flattened walk indexes (one per attribute), so queries and charge
    /// computations are O(1) per rank.  Each is sorted by [`entry_cmp`] and
    /// always equals what [`Self::rebuild_flat`] derives from the node
    /// stores: content writes splice the entries they touch in place
    /// (binary search, `O(log m)` plus one shift), and ring-membership
    /// changes — which renumber the walk arcs — rebuild it.
    flat: [Vec<FlatEntry>; 2],
    epoch: u64,
    queries: Cell<u64>,
    /// Routed (rank-1) lookups served and the messages they cost.
    routes: Cell<u64>,
    route_hops: Cell<u64>,
    /// Routes actually walked (cursor opens, revalidations, rank-1 queries;
    /// cache replays walk nothing) and their closest-preceding-finger hops,
    /// the arc walk excluded.
    finger_routes: Cell<u64>,
    finger_hops: Cell<u64>,
    /// Replication factor `k ≥ 1`: each entry keeps `k − 1` successor
    /// copies, (re)created lazily by [`FederationDirectory::stabilize`].
    replication: usize,
    /// Replica records per dimension: `(entry's GFA, holder GFA)`.  Records
    /// only — resolution always reads the canonical walk index; copies
    /// decide whether a lookup hitting a crashed store can detour.  Each
    /// list is sorted and duplicate-free: it is the last repair round's
    /// `desired` set minus records dropped since (`retain` keeps the
    /// order), so [`Self::repair_replicas`] can binary-search it.  Only the
    /// `invariants`-only `corrupt_overreplicate` double breaks this.
    copies: [Vec<(usize, usize)>; 2],
    /// Per-GFA departed flag (graceful leave or crash).
    down: Vec<bool>,
    /// Crashed nodes still squatting on their ring position (and still
    /// holding their store as an unreachable ghost) until the next
    /// stabilization round evicts them.
    pending_dead: Vec<usize>,
    /// Bumped on every live-membership change.
    membership_epoch: u64,
    /// Fault flag of the most recent query/cursor operation.
    fault: Cell<bool>,
    /// The crashed store node the most recent faulted lookup resolved to —
    /// the target of a reactive [`FederationDirectory::repair_faulted`].
    last_fault: Cell<Option<usize>>,
}

impl MaanDirectory {
    /// Builds the directory for `n` GFAs, placing their ring nodes with
    /// `seed`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        MaanDirectory {
            overlay: ChordOverlay::new(n, seed),
            nodes: vec![NodeStore::default(); n],
            published: Vec::new(),
            flat: [Vec::new(), Vec::new()],
            epoch: 0,
            queries: Cell::new(0),
            routes: Cell::new(0),
            route_hops: Cell::new(0),
            finger_routes: Cell::new(0),
            finger_hops: Cell::new(0),
            replication: 1,
            copies: [Vec::new(), Vec::new()],
            down: vec![false; n],
            pending_dead: Vec::new(),
            membership_epoch: 0,
            fault: Cell::new(false),
            last_fault: Cell::new(None),
        }
    }

    /// Corrupting test double: rewinds the content epoch to zero without
    /// touching the distributed store.  Only exists so the invariant tests
    /// can prove the epoch monotonicity check fires.
    #[cfg(feature = "invariants")]
    pub fn corrupt_epoch_rewind(&mut self) {
        self.epoch = 0;
    }

    /// Corrupting test double: marks the GFA of the first published quote as
    /// departed *without* withdrawing its entries, so ranking queries keep
    /// serving a dead node's offer.  Only exists so the invariant tests can
    /// prove the `serves_only_live` check fires.
    #[cfg(feature = "invariants")]
    pub fn corrupt_serve_departed(&mut self) {
        let gfa = self
            .published
            .first()
            .expect("corrupting a directory requires at least one quote")
            .gfa;
        self.down[gfa] = true;
    }

    /// Corrupting test double: records more copies of the first published
    /// entry than the replication factor allows.  Only exists so the
    /// invariant tests can prove the `replication_ok` check fires.
    #[cfg(feature = "invariants")]
    pub fn corrupt_overreplicate(&mut self) {
        let gfa = self
            .published
            .first()
            .expect("corrupting a directory requires at least one quote")
            .gfa;
        for holder in 0..self.replication {
            self.copies[0].push((gfa, holder));
        }
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

    /// The underlying overlay (for inspection in benches and tests).
    #[must_use]
    pub fn overlay(&self) -> &ChordOverlay {
        &self.overlay
    }

    /// Average messages of one *routed* (rank-1) lookup — the measured
    /// quantity the paper models as `O(log n)`.
    #[must_use]
    pub fn average_route_messages(&self) -> f64 {
        mean(&self.route_hops, &self.routes)
    }

    /// Average closest-preceding-finger hops of one route the overlay
    /// actually walked, without the walk to the first populated arc — the
    /// pure routing cost of the paper's `O(log n)` model.  Zero when no
    /// route was walked.
    #[must_use]
    pub fn average_finger_hops(&self) -> f64 {
        mean(&self.finger_hops, &self.finger_routes)
    }

    /// A deterministic `n`-quote population whose prices and speeds stride
    /// across the full calibrated key domains ([`keys::PRICE_DOMAIN_MAX`],
    /// [`keys::MIPS_DOMAIN_MAX`]), so the published keys span many ring
    /// ownership arcs.  Shared by the unit tests and the conformance suite:
    /// both assert boundary-crossing walk charges against this population,
    /// and a single generator keeps those guarantees from drifting apart if
    /// the key calibration changes.
    #[must_use]
    pub fn spread_population(n: usize) -> Vec<Quote> {
        (0..n)
            .map(|gfa| Quote {
                gfa,
                processors: 64,
                mips: 250.0 + 1_500.0 * ((gfa * 7) % n) as f64 / n as f64,
                bandwidth: 1.0,
                price: 0.5 + 9.0 * ((gfa * 3) % n) as f64 / n as f64,
            })
            .collect()
    }

    /// Number of entries of `gfa`'s node store in `order` — exposes the
    /// actual data placement for tests asserting the index is genuinely
    /// partitioned.
    #[must_use]
    pub fn node_entries(&self, gfa: usize, order: RankOrder) -> usize {
        self.nodes
            .get(gfa)
            .map_or(0, |n| n.entries[order.index()].len())
    }

    /// Routed messages from `publisher`'s node to the owner of `key`
    /// (measured closest-preceding-finger hops).
    fn route_hops_from(&self, publisher: usize, key: u64) -> u64 {
        let (_, hops) = self.overlay.lookup(publisher % self.overlay.len(), key);
        u64::from(hops)
    }

    /// Messages of a routed rank-1 lookup from `origin`: route to the start
    /// of the attribute partition, then walk successor arcs to the first
    /// populated one.
    fn route_to_rank1(&self, origin: usize, order: RankOrder) -> u64 {
        let start = keys::range_start_key(order);
        let hops = self.route_hops_from(origin, start);
        self.finger_routes.set(self.finger_routes.get() + 1);
        self.finger_hops.set(self.finger_hops.get() + hops);
        let walk = self.flat[order.index()]
            .first()
            .map_or(0, |head| (head.arc - self.overlay.walk_arc_of(start)) as u64);
        hops + walk
    }

    /// Messages to advance a range walk from rank `r - 1` to rank `r`
    /// (`r ≥ 2`): one cursor-advance (result delivery) message — the cost
    /// the ideal backend charges — **plus one message per successor hop**
    /// when the walk crosses node boundaries (including empty intermediate
    /// arcs), which is how a distributed range walk exceeds the modelled
    /// `+1` per rank.  Past-the-end advances probe the end-of-range marker
    /// locally: one message.
    fn advance_messages(&self, order: RankOrder, r: usize) -> u64 {
        debug_assert!(r >= 2, "rank-1 lookups route, they do not advance");
        let flat = &self.flat[order.index()];
        if r > flat.len() {
            return 1;
        }
        1 + (flat[r - 1].arc - flat[r - 2].arc) as u64
    }

    /// The single place rank-dependent query charges are applied, so the
    /// oracle path, the cursor path and cache replays cannot drift apart:
    /// rank 1 charges `route()` (lazily) and records the routed lookup;
    /// every higher rank charges the walk's advance cost.  `extra` is the
    /// availability surcharge of the current churn state (a replica detour,
    /// see [`Self::availability`]) — zero on a churn-free ring, so the
    /// static-path charges are untouched.  Rank 0 must be short-circuited
    /// by callers.
    #[inline]
    fn charge_ranked(&self, order: RankOrder, r: usize, extra: u64, route: impl FnOnce() -> u64) -> u64 {
        debug_assert!(r >= 1, "rank 0 is answered locally and never charged");
        if r == 1 {
            let hops = route() + extra;
            self.routes.set(self.routes.get() + 1);
            self.route_hops.set(self.route_hops.get() + hops);
            hops
        } else {
            self.advance_messages(order, r) + extra
        }
    }

    /// Availability of the rank-`r` lookup of `order` under the current
    /// churn state: `(extra_messages, faulted)`.  The walk resolves rank `r`
    /// at the node storing the entry; if that node crashed and has not been
    /// evicted yet, a live replica created by an earlier stabilization round
    /// answers for one extra successor hop, while an unreplicated (or
    /// not-yet-repaired) entry faults — the route/advance is wasted and the
    /// query answers `None`.  Entirely inert (`(0, false)`) while no crash
    /// is pending, which keeps zero-churn charges bit-identical.
    #[inline]
    fn availability(&self, order: RankOrder, r: usize) -> (u64, bool) {
        if self.pending_dead.is_empty() {
            return (0, false);
        }
        let dim = order.index();
        let Some(entry) = self.flat[dim].get(r - 1) else {
            // Past-the-end advances probe the end-of-range marker locally.
            return (0, false);
        };
        let store_node = self.overlay.walk_arc_owner(entry.arc);
        if !self.down[store_node] {
            return (0, false);
        }
        let gfa = entry.quote.gfa;
        if self.copies[dim].iter().any(|&(g, h)| g == gfa && !self.down[h]) {
            (1, false)
        } else {
            self.last_fault.set(Some(store_node));
            (0, true)
        }
    }

    /// Cold tail of [`FederationDirectory::cursor_next`]: lazy revalidation
    /// after an epoch move.  The distributed store mutated under the cursor:
    /// positional reads already see the current walk index, and a cursor
    /// that has not yielded its head yet re-routes against the current
    /// rank-1 placement (quotes relocate when their keys change, and
    /// membership churn re-shapes the ring the route crosses), exactly like
    /// a fresh rank-1 query would charge.
    #[cold]
    #[inline(never)]
    fn revalidate_cursor(&self, cursor: &mut RankCursor) {
        if cursor.yielded == 0 {
            cursor.route_messages = self.route_to_rank1(cursor.origin, cursor.order);
        }
        cursor.epoch = self.epoch;
    }

    /// Cold tail of [`FederationDirectory::cursor_next`] while a crashed
    /// node squats on the ring: resolves the rank's availability, detours to
    /// a live replica for one extra message, or reports a fault while still
    /// charging the wasted route/advance.
    #[cold]
    #[inline(never)]
    fn cursor_next_degraded(&self, cursor: &mut RankCursor, r: usize) -> TracedQuote {
        let (extra, fault) = self.availability(cursor.order, r);
        let messages = self.charge_ranked(cursor.order, r, extra, || cursor.route_messages);
        if fault {
            self.fault.set(true);
            return TracedQuote { quote: None, messages };
        }
        let quote = self.resolve_ranked(cursor.order, r);
        TracedQuote { quote, messages }
    }

    /// Drops the replica records of `gfa`'s entry in both dimensions — a
    /// mutation makes the copies stale, and the repair model re-creates them
    /// only at the next stabilization round (replication lag).
    fn drop_copies_of(&mut self, gfa: usize) {
        for order in RankOrder::ALL {
            self.copies[order.index()].retain(|c| c.0 != gfa);
        }
    }

    /// Moves every entry of the `suspects` stores whose key's owner changed
    /// (because the live ring gained or lost a node) to its current owner's
    /// store, returning the number of entries moved — each handoff is one
    /// successor-transfer message.  Must run after **every** ring-membership
    /// change, once all of that change's nodes are in or out, so each entry
    /// moves once, straight to its final owner: the walk index rebuild and
    /// `remove_entry`'s owner lookup both require entries to sit at
    /// `owner_of(key)`.  Only two kinds of store can hold misplaced entries,
    /// so only they are scanned: a removed node's (it owns nothing now) and
    /// an inserted node's successor's (the inserted node took over part of
    /// its range).  Every other live node's range is unchanged or grew.
    fn reconcile_stores(&mut self, suspects: &[usize]) -> u64 {
        let mut moved = 0u64;
        for order in RankOrder::ALL {
            let dim = order.index();
            let mut relocated: Vec<(u64, Quote)> = Vec::new();
            for &node in suspects {
                let overlay = &self.overlay;
                self.nodes[node].entries[dim].retain(|&entry| {
                    let stays = overlay.owner_of(entry.0) == node;
                    if !stays {
                        relocated.push(entry);
                    }
                    stays
                });
            }
            moved += relocated.len() as u64;
            for (key, quote) in relocated {
                self.store_insert(order, key, quote);
            }
        }
        moved
    }

    /// (Re)creates the successor copies the replication factor asks for:
    /// every stored entry wants `k − 1` copies at its owner's live
    /// successors.  Charges one replication message per copy that does not
    /// exist yet and drops copies no longer wanted (free).  Runs only from
    /// [`FederationDirectory::stabilize`], so freshly published or repriced
    /// entries are unprotected until the next round — the replication lag a
    /// real overlay has.
    fn repair_replicas(&mut self) -> u64 {
        let mut messages = 0u64;
        for order in RankOrder::ALL {
            let dim = order.index();
            let mut desired: Vec<(usize, usize)> = Vec::new();
            for entry in &self.flat[dim] {
                let owner = self.overlay.walk_arc_owner(entry.arc);
                for holder in self.overlay.successors(owner, self.replication - 1) {
                    if !self.down[holder] {
                        desired.push((entry.quote.gfa, holder));
                    }
                }
            }
            desired.sort_unstable();
            desired.dedup();
            messages += desired
                .iter()
                .filter(|pair| self.copies[dim].binary_search(pair).is_err())
                .count() as u64;
            self.copies[dim] = desired;
        }
        messages
    }

    /// Resolves the `r`-th quote of `order` from the flattened walk index,
    /// counting the served query.
    #[inline]
    fn resolve_ranked(&self, order: RankOrder, r: usize) -> Option<Quote> {
        if r == 0 {
            return None;
        }
        self.queries.set(self.queries.get() + 1);
        self.flat[order.index()].get(r - 1).map(|e| e.quote)
    }

    /// Inserts `quote` into the owner node's store for `order` under `key`
    /// (the store only; see [`Self::insert_entry`]).
    fn store_insert(&mut self, order: RankOrder, key: u64, quote: Quote) {
        let node = self.overlay.owner_of(key);
        let store = &mut self.nodes[node].entries[order.index()];
        let probe = (key, quote);
        let at = store
            .binary_search_by(|e| entry_cmp(order, e, &probe))
            .unwrap_or_else(|pos| pos);
        store.insert(at, probe);
    }

    /// Where the entry `(key, quote)` sits in the walk index of `order`:
    /// `Ok(position)` if present, else `Err(insertion point)`.
    fn flat_search(&self, order: RankOrder, key: u64, quote: Quote) -> Result<usize, usize> {
        let probe = (key, quote);
        self.flat[order.index()].binary_search_by(|e| entry_cmp(order, &(e.key, e.quote), &probe))
    }

    /// Inserts `quote` under `key` into the owner node's store for `order`
    /// and splices it into the walk index.
    fn insert_entry(&mut self, order: RankOrder, key: u64, quote: Quote) {
        self.store_insert(order, key, quote);
        let at = self.flat_search(order, key, quote).unwrap_or_else(|pos| pos);
        let arc = self.overlay.walk_arc_of(key);
        self.flat[order.index()].insert(at, FlatEntry { key, arc, quote });
    }

    /// Removes `quote`'s entry (published under `key`) from its owner node
    /// and from the walk index.
    fn remove_entry(&mut self, order: RankOrder, key: u64, quote: Quote) {
        let node = self.overlay.owner_of(key);
        let store = &mut self.nodes[node].entries[order.index()];
        let probe = (key, quote);
        let at = store
            .binary_search_by(|e| entry_cmp(order, e, &probe))
            .expect("a published entry is present at its owner node");
        store.remove(at);
        let at = self
            .flat_search(order, key, quote)
            .expect("a published entry is present in the walk index");
        self.flat[order.index()].remove(at);
    }

    /// The walk index of `order` as the node stores define it: nodes are
    /// visited in walk-arc order (ascending key ranges, wrap arc last) and
    /// contribute the entries whose keys fall in that arc.  Because node
    /// stores are kept sorted by `(key, attribute, gfa)` and the arc index
    /// is monotone in the key, the concatenation is the exact ranking.
    fn walk_entries(&self, order: RankOrder) -> impl Iterator<Item = FlatEntry> + '_ {
        let dim = order.index();
        (0..self.overlay.walk_arcs()).flat_map(move |arc| {
            let node = self.overlay.walk_arc_owner(arc);
            self.nodes[node].entries[dim]
                .iter()
                .filter(move |&&(key, _)| self.overlay.arc_contains(arc, key))
                .map(move |&(key, quote)| FlatEntry { key, arc, quote })
        })
    }

    /// Rebuilds the flattened walk indexes from the node stores — needed
    /// only after a ring-membership change, which renumbers the walk arcs.
    fn rebuild_flat(&mut self) {
        for order in RankOrder::ALL {
            let dim = order.index();
            let mut flat = std::mem::take(&mut self.flat[dim]);
            flat.clear();
            flat.extend(self.walk_entries(order));
            debug_assert_eq!(
                flat.len(),
                self.published.len(),
                "every published quote appears exactly once per attribute index"
            );
            self.flat[dim] = flat;
        }
    }

    /// Whether the incrementally spliced walk indexes equal a rebuild from
    /// the node stores — the check the differential tests and the
    /// invariant sentry run against the splice-on-write maintenance.
    #[must_use]
    pub fn walk_index_matches_stores(&self) -> bool {
        RankOrder::ALL
            .iter()
            .all(|&order| self.walk_entries(order).eq(self.flat[order.index()].iter().copied()))
    }
}

impl FederationDirectory for MaanDirectory {
    fn subscribe(&mut self, quote: Quote) -> u64 {
        let publisher = quote.gfa;
        let new_pk = keys::price_key(quote.price);
        let new_sk = keys::speed_key(quote.mips);
        let mut messages = 0u64;
        if let Some(slot) = self.published.iter().position(|q| q.gfa == quote.gfa) {
            let old = self.published[slot];
            let old_pk = keys::price_key(old.price);
            let old_sk = keys::speed_key(old.mips);
            self.remove_entry(RankOrder::Cheapest, old_pk, old);
            self.remove_entry(RankOrder::Fastest, old_sk, old);
            // Stale entries whose key moved to a different owner need their
            // own routed removes; same-owner overwrites ride on the put.
            if self.overlay.owner_of(old_pk) != self.overlay.owner_of(new_pk) {
                messages += self.route_hops_from(publisher, old_pk);
            }
            if self.overlay.owner_of(old_sk) != self.overlay.owner_of(new_sk) {
                messages += self.route_hops_from(publisher, old_sk);
            }
            self.published[slot] = quote;
        } else {
            self.published.push(quote);
        }
        self.insert_entry(RankOrder::Cheapest, new_pk, quote);
        self.insert_entry(RankOrder::Fastest, new_sk, quote);
        messages += self.route_hops_from(publisher, new_pk);
        messages += self.route_hops_from(publisher, new_sk);
        self.drop_copies_of(publisher);
        self.epoch += 1;
        messages
    }

    fn unsubscribe(&mut self, gfa: usize) -> u64 {
        let Some(slot) = self.published.iter().position(|q| q.gfa == gfa) else {
            return 0; // unknown GFA: nothing changed, keep caches valid
        };
        let old = self.published.remove(slot);
        let pk = keys::price_key(old.price);
        let sk = keys::speed_key(old.mips);
        self.remove_entry(RankOrder::Cheapest, pk, old);
        self.remove_entry(RankOrder::Fastest, sk, old);
        let messages = self.route_hops_from(gfa, pk) + self.route_hops_from(gfa, sk);
        self.drop_copies_of(gfa);
        self.epoch += 1;
        messages
    }

    fn update_price(&mut self, gfa: usize, price: f64) -> u64 {
        let Some(slot) = self.published.iter().position(|q| q.gfa == gfa) else {
            return 0;
        };
        let old = self.published[slot];
        if old.price.to_bits() == price.to_bits() {
            // Identical reprice: nothing observable changes — no epoch bump,
            // no publish traffic (mirrors the ideal backend's no-op rule).
            return 0;
        }
        let old_pk = keys::price_key(old.price);
        let new_pk = keys::price_key(price);
        let mut new_quote = old;
        new_quote.price = price;
        self.remove_entry(RankOrder::Cheapest, old_pk, old);
        self.insert_entry(RankOrder::Cheapest, new_pk, new_quote);
        // The speed register stores a full replica of the quote; its key
        // (and therefore its owner and position, in the store and in the
        // walk index) depends only on the MIPS, so the reprice refreshes
        // the replica's payload in place — the update rides along with the
        // price move, costing no extra routed messages.
        let sk = keys::speed_key(old.mips);
        let speed_node = self.overlay.owner_of(sk);
        let store = &mut self.nodes[speed_node].entries[RankOrder::Fastest.index()];
        let probe = (sk, old);
        let at = store
            .binary_search_by(|e| entry_cmp(RankOrder::Fastest, e, &probe))
            .expect("a published quote has a speed-register replica at its owner node");
        store[at].1 = new_quote;
        let at = self
            .flat_search(RankOrder::Fastest, sk, old)
            .expect("a published quote has a speed-register replica in the walk index");
        self.flat[RankOrder::Fastest.index()][at].quote = new_quote;
        self.published[slot] = new_quote;
        // A *move*: one routed message when the entry stays on its owner,
        // a routed remove plus a routed put when it migrates.  The speed
        // entry does not depend on the price and never moves.
        let messages = if self.overlay.owner_of(old_pk) == self.overlay.owner_of(new_pk) {
            self.route_hops_from(gfa, new_pk)
        } else {
            self.route_hops_from(gfa, old_pk) + self.route_hops_from(gfa, new_pk)
        };
        self.drop_copies_of(gfa);
        self.epoch += 1;
        messages
    }

    fn query_ranked(&self, origin: usize, order: RankOrder, r: usize) -> TracedQuote {
        if r == 0 {
            return TracedQuote { quote: None, messages: 0 };
        }
        self.fault.set(false);
        let (extra, fault) = self.availability(order, r);
        let messages = self.charge_ranked(order, r, extra, || self.route_to_rank1(origin, order));
        if fault {
            self.fault.set(true);
            return TracedQuote { quote: None, messages };
        }
        TracedQuote {
            quote: self.resolve_ranked(order, r),
            messages,
        }
    }

    fn len(&self) -> usize {
        self.published.len()
    }

    fn queries_served(&self) -> u64 {
        self.queries.get()
    }

    fn epoch(&self) -> u64 {
        // The node stores are the content; the overlay ring is a static
        // routing substrate and contributes nothing to the epoch.
        self.epoch
    }

    fn open_cursor(&self, origin: usize, order: RankOrder) -> RankCursor {
        // The genuinely expensive step: route to the start of the attribute
        // partition and walk to the first populated arc.
        RankCursor::opened(origin, order, self.epoch, self.route_to_rank1(origin, order))
    }

    #[inline]
    fn cursor_next(&self, cursor: &mut RankCursor) -> TracedQuote {
        self.fault.set(false);
        if cursor.epoch != self.epoch {
            self.revalidate_cursor(cursor);
        }
        cursor.yielded += 1;
        let r = cursor.yielded;
        // Out-of-line churn handling keeps the static-ring advance compact
        // enough to stay fully inlined through the enum dispatch (the gated
        // advance_ns metric) — the degraded path only exists while a crashed
        // node squats on the ring awaiting stabilization.
        if !self.pending_dead.is_empty() {
            return self.cursor_next_degraded(cursor, r);
        }
        let messages = self.charge_ranked(cursor.order, r, 0, || cursor.route_messages);
        let quote = self.resolve_ranked(cursor.order, r);
        TracedQuote { quote, messages }
    }

    #[inline]
    fn note_replayed_query(&self, _origin: usize, _order: RankOrder, r: usize, messages: u64) {
        if r == 0 {
            return;
        }
        self.queries.set(self.queries.get() + 1);
        if r == 1 {
            self.routes.set(self.routes.get() + 1);
            self.route_hops.set(self.route_hops.get() + messages);
        }
    }

    fn membership_epoch(&self) -> u64 {
        self.membership_epoch
    }

    fn node_depart(&mut self, gfa: usize, graceful: bool) -> u64 {
        if gfa >= self.down.len() || self.down[gfa] {
            return 0;
        }
        self.down[gfa] = true;
        let messages = if graceful {
            // A graceful leave withdraws its own quote first (routed removes,
            // charged by `unsubscribe` while the node still routes), then
            // unlinks from the ring and hands every entry it stored to the
            // inheriting successor — one transfer message per entry, the
            // handoff cost the regression suite pins.
            let mut messages = self.unsubscribe(gfa);
            self.drop_copies_of(gfa);
            for order in RankOrder::ALL {
                self.copies[order.index()].retain(|c| c.1 != gfa);
            }
            if self.overlay.remove_node(gfa) {
                let moved = self.reconcile_stores(&[gfa]);
                self.rebuild_flat();
                messages += moved;
            }
            messages
        } else {
            // A crash is silent: the dead GFA's own offer vanishes from the
            // index (nothing may keep serving it), its store becomes an
            // unreachable ghost still squatting on the ring, and no messages
            // flow until a stabilization round notices and repairs.  The
            // ring is unchanged, so the walk index only loses the two
            // spliced-out entries.
            if let Some(slot) = self.published.iter().position(|q| q.gfa == gfa) {
                let old = self.published.remove(slot);
                self.remove_entry(RankOrder::Cheapest, keys::price_key(old.price), old);
                self.remove_entry(RankOrder::Fastest, keys::speed_key(old.mips), old);
            }
            self.drop_copies_of(gfa);
            for order in RankOrder::ALL {
                self.copies[order.index()].retain(|c| c.1 != gfa);
            }
            self.pending_dead.push(gfa);
            0
        };
        self.membership_epoch += 1;
        self.epoch += 1;
        messages
    }

    fn node_join(&mut self, gfa: usize) -> u64 {
        if gfa >= self.down.len() || !self.down[gfa] {
            return 0;
        }
        self.down[gfa] = false;
        self.pending_dead.retain(|&g| g != gfa);
        // Joining routes one lookup to locate the successor (`⌈log₂ n⌉`
        // messages on the post-join ring) and takes over its key range:
        // every entry the new owner inherits is one transfer message.  A
        // crashed node rejoining before its eviction finds its ring position
        // (and ghost store) intact, so only the join handshake is paid.
        let mut moved = 0;
        if self.overlay.insert_node(gfa) {
            // The new node takes its key range over from its successor.
            let heir = self.overlay.successors(gfa, 1);
            moved = self.reconcile_stores(&heir);
            self.rebuild_flat();
        }
        let messages = ceil_log2(self.overlay.live_len() as u64) + moved;
        self.membership_epoch += 1;
        self.epoch += 1;
        messages
    }

    fn stabilize(&mut self) -> u64 {
        let mut messages = 0u64;
        let mut evicted = std::mem::take(&mut self.pending_dead);
        evicted.retain(|&gfa| self.overlay.remove_node(gfa));
        if !evicted.is_empty() {
            // Each eviction is a routed repair (successor-list splice), and
            // the evicted ghost's entries hand off to the inheriting owner —
            // one transfer message per entry, like a graceful handoff but
            // paid by the repairing successor instead of the departed node.
            messages += evicted.len() as u64 * ceil_log2(self.overlay.live_len().max(1) as u64);
            messages += self.reconcile_stores(&evicted);
        }
        if self.replication > 1 {
            // Runs before the walk index is rebuilt below, so after an
            // eviction it places copies by the pre-eviction arc numbers.
            // The committed run digests pin that placement.
            messages += self.repair_replicas();
        }
        if messages > 0 {
            // Ring repair and replica placement both change what subsequent
            // lookups charge; bump the content epoch so open cursors and
            // GFA-side caches revalidate instead of replaying stale charges.
            self.epoch += 1;
        }
        if !evicted.is_empty() {
            self.membership_epoch += 1;
            self.rebuild_flat();
        }
        messages
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
        // A targeted single-node version of `stabilize`: the routed
        // successor-list splice, the ghost store's entry handoffs, and (when
        // replicated) the replica repair the eviction makes possible.
        let mut messages = ceil_log2(self.overlay.live_len().max(1) as u64);
        messages += self.reconcile_stores(&[gfa]);
        if self.replication > 1 {
            // Pre-eviction arc numbers, as in `stabilize`.
            messages += self.repair_replicas();
        }
        self.epoch += 1;
        self.membership_epoch += 1;
        self.rebuild_flat();
        messages
    }

    fn is_node_live(&self, gfa: usize) -> bool {
        !self.down.get(gfa).copied().unwrap_or(false)
    }

    #[inline]
    fn peek_fault(&self) -> bool {
        self.fault.get()
    }

    #[inline]
    fn take_fault(&self) -> bool {
        self.fault.replace(false)
    }

    fn replication_ok(&self) -> bool {
        let allowed = self.replication.saturating_sub(1);
        RankOrder::ALL.iter().all(|order| {
            let dim = order.index();
            self.published.iter().all(|q| {
                self.copies[dim].iter().filter(|c| c.0 == q.gfa).count() <= allowed
            })
        })
    }

    fn serves_only_live(&self) -> bool {
        self.published.iter().all(|q| !self.down[q.gfa])
    }

    #[cfg(feature = "invariants")]
    fn index_consistent(&self) -> bool {
        self.overlay == self.overlay.rebuilt() && self.walk_index_matches_stores()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ideal::IdealDirectory;
    use grid_cluster::paper_resources;

    fn paper_maan(n_nodes: usize) -> MaanDirectory {
        let mut dir = MaanDirectory::new(n_nodes, 11);
        for (i, r) in paper_resources().iter().enumerate() {
            let _ = dir.subscribe(Quote::from_spec(i, &r.spec));
        }
        dir
    }

    fn spread_quotes(n: usize) -> Vec<Quote> {
        MaanDirectory::spread_population(n)
    }

    #[test]
    fn rankings_match_the_ideal_oracle() {
        let maan = paper_maan(8);
        let ideal = IdealDirectory::with_quotes(
            paper_resources()
                .iter()
                .enumerate()
                .map(|(i, r)| Quote::from_spec(i, &r.spec)),
        );
        for r in 0..=9 {
            for order in RankOrder::ALL {
                let (got, want) = (maan.query_ranked(0, order, r), ideal.query_ranked(0, order, r));
                assert_eq!(got.quote, want.quote, "rank {r} {order:?}");
            }
        }
    }

    #[test]
    fn quotes_are_actually_partitioned_across_nodes() {
        let mut dir = MaanDirectory::new(16, 3);
        for q in spread_quotes(16) {
            let _ = dir.subscribe(q);
        }
        for order in RankOrder::ALL {
            let occupied = (0..16).filter(|&g| dir.node_entries(g, order) > 0).count();
            let total: usize = (0..16).map(|g| dir.node_entries(g, order)).sum();
            assert_eq!(total, 16, "{order:?}: every quote stored exactly once");
            assert!(
                occupied >= 3,
                "{order:?}: a spread population must occupy several ring nodes (got {occupied})"
            );
        }
    }

    #[test]
    fn boundary_crossing_advances_cost_more_than_one_message() {
        let mut dir = MaanDirectory::new(16, 3);
        for q in spread_quotes(16) {
            let _ = dir.subscribe(q);
        }
        for order in RankOrder::ALL {
            let advances: Vec<u64> = (2..=16).map(|r| dir.query_ranked(0, order, r).messages).collect();
            assert!(advances.iter().all(|&m| m >= 1));
            assert!(
                advances.iter().any(|&m| m > 1),
                "{order:?}: a multi-node range walk must cross at least one boundary (got {advances:?})"
            );
        }
    }

    #[test]
    fn full_sweep_costs_log_n_plus_k_messages() {
        // Acceptance bound: streaming all k ranks costs the routed open plus
        // k - 1 advances plus at most one extra message per ring node (each
        // boundary is crossed at most once per sweep) — O(log n + k).
        for n in [8usize, 16, 32, 50] {
            let mut dir = MaanDirectory::new(n, 9);
            for q in spread_quotes(n) {
                let _ = dir.subscribe(q);
            }
            for order in RankOrder::ALL {
                let mut cursor = dir.open_cursor(1, order);
                let mut total = 0u64;
                for _ in 1..=n {
                    total += dir.cursor_next(&mut cursor).messages;
                }
                let route_bound = 2 * (n as f64).log2().ceil() as u64 + 4;
                let bound = route_bound + (n as u64 - 1) + (n as u64 + 1);
                assert!(
                    total <= bound,
                    "n={n} {order:?}: full sweep cost {total} exceeds the O(log n + k) bound {bound}"
                );
                assert!(total >= n as u64, "k ranks cost at least k messages");
            }
        }
    }

    #[test]
    fn publish_operations_charge_routed_messages() {
        let mut dir = MaanDirectory::new(8, 11);
        let mut q = Quote { gfa: 0, processors: 64, mips: 700.0, bandwidth: 1.0, price: 3.0 };
        let put = dir.subscribe(q);
        assert!(put >= 2, "a publish routes one put per attribute (got {put})");

        // A reprice is a move: ≥ 1 routed message, speed entry untouched.
        let moved = dir.update_price(0, 8.5);
        assert!(moved >= 1);
        assert_eq!(dir.query_ranked(0, RankOrder::Cheapest, 1).quote.unwrap().price, 8.5);

        // Identical reprice and unknown GFAs are free no-ops.
        let e = dir.epoch();
        assert_eq!(dir.update_price(0, 8.5), 0);
        assert_eq!(dir.update_price(99, 1.0), 0);
        assert_eq!(dir.unsubscribe(99), 0);
        assert_eq!(dir.epoch(), e);

        // Republishing with moved keys pays for the stale entries too.
        q.price = 0.2;
        q.mips = 1_900.0;
        let republish = dir.subscribe(q);
        assert!(republish >= 2);
        assert_eq!(dir.len(), 1);

        // Withdrawal routes a remove per attribute.
        let removed = dir.unsubscribe(0);
        assert!(removed >= 2);
        assert!(dir.is_empty());
    }

    #[test]
    fn mutations_keep_the_ranking_equal_to_a_sorted_oracle() {
        let mut dir = MaanDirectory::new(12, 5);
        let mut quotes = spread_quotes(12);
        for q in &quotes {
            let _ = dir.subscribe(*q);
        }
        for step in 0..60usize {
            let gfa = (step * 5) % 12;
            match step % 4 {
                0 => {
                    let price = 0.1 + ((step * 11) % 97) as f64 * 0.09;
                    let _ = dir.update_price(gfa, price);
                    quotes[gfa].price = price;
                }
                1 => {
                    // Withdraw and immediately re-publish with fresh values.
                    let _ = dir.unsubscribe(gfa);
                    quotes[gfa].mips = 300.0 + ((step * 13) % 140) as f64 * 10.0;
                    let _ = dir.subscribe(quotes[gfa]);
                }
                _ => {
                    quotes[gfa].price = 0.3 + ((step * 7) % 31) as f64 * 0.25;
                    let _ = dir.subscribe(quotes[gfa]);
                }
            }
            let mut by_price: Vec<&Quote> = quotes.iter().collect();
            by_price.sort_by(|a, b| a.price.total_cmp(&b.price).then(a.gfa.cmp(&b.gfa)));
            let mut by_speed: Vec<&Quote> = quotes.iter().collect();
            by_speed.sort_by(|a, b| b.mips.total_cmp(&a.mips).then(a.gfa.cmp(&b.gfa)));
            for r in 1..=12 {
                assert_eq!(
                    dir.query_ranked(0, RankOrder::Cheapest, r).quote.unwrap().gfa,
                    by_price[r - 1].gfa,
                    "step {step}: rank {r} cheapest diverged"
                );
                let fast = dir.query_ranked(0, RankOrder::Fastest, r).quote.unwrap();
                assert_eq!(fast.gfa, by_speed[r - 1].gfa, "step {step}: rank {r} fastest diverged");
                // Regression: a reprice must refresh the speed register's
                // replica, or streamed quotes would carry stale prices.
                assert_eq!(
                    fast.price.to_bits(),
                    quotes[fast.gfa].price.to_bits(),
                    "step {step}: rank {r} speed replica carries a stale price"
                );
            }
        }
    }

    #[test]
    fn route_telemetry_tracks_rank1_lookups() {
        let dir = paper_maan(8);
        assert_eq!(dir.average_route_messages(), 0.0);
        let head = dir.query_ranked(2, RankOrder::Cheapest, 1);
        assert!(head.messages >= 1);
        assert_eq!(dir.average_route_messages(), head.messages as f64);
        let _ = dir.query_ranked(2, RankOrder::Cheapest, 2);
        assert_eq!(dir.routes.get(), 1, "advances are not routed lookups");
        assert_eq!(dir.average_route_messages(), head.messages as f64);
        assert!(dir.queries_served() >= 2);
    }

    #[test]
    fn finger_hops_count_walked_routes_only() {
        let dir = paper_maan(8);
        assert_eq!(dir.average_finger_hops(), 0.0);
        // A rank-1 query walks one route: its finger hops are the route
        // charge minus the arc walk to the first populated arc.
        let head = dir.query_ranked(2, RankOrder::Cheapest, 1);
        assert_eq!(dir.finger_routes.get(), 1);
        let fingers = dir.finger_hops.get();
        assert!(fingers >= 1 && fingers <= head.messages, "{fingers} vs {}", head.messages);
        // Advances and cache replays walk nothing.
        let _ = dir.query_ranked(2, RankOrder::Cheapest, 2);
        dir.note_replayed_query(2, RankOrder::Cheapest, 1, head.messages);
        assert_eq!(dir.finger_routes.get(), 1);
        assert_eq!(dir.routes.get(), 2, "a replay still counts as a routed lookup");
        // A cursor open walks the same route from the same origin.
        let mut cursor = dir.open_cursor(2, RankOrder::Cheapest);
        assert_eq!(dir.finger_routes.get(), 2);
        assert_eq!(dir.finger_hops.get(), 2 * fingers);
        let _ = dir.cursor_next(&mut cursor);
        assert_eq!(dir.finger_routes.get(), 2, "yielding the head reuses the open's route");
        assert_eq!(dir.average_finger_hops(), fingers as f64);
    }

    #[test]
    fn same_arc_ties_resolve_through_the_node_local_comparator() {
        // Quotes far beyond the calibrated domain clamp onto the same
        // boundary key — one owner node — and must still rank exactly.
        let mut dir = MaanDirectory::new(6, 7);
        for (gfa, price) in [(0, 50.0), (1, 80.0), (2, 50.0), (3, 11.0)] {
            let _ = dir.subscribe(Quote { gfa, processors: 8, mips: 500.0, bandwidth: 1.0, price });
        }
        let order: Vec<usize> = (1..=4)
            .map(|r| dir.query_ranked(0, RankOrder::Cheapest, r).quote.unwrap().gfa)
            .collect();
        assert_eq!(order, vec![3, 0, 2, 1], "ties break by price then GFA");
        // All four clamped price entries share one owner node.
        let owners: Vec<usize> = (0..6)
            .filter(|&g| dir.node_entries(g, RankOrder::Cheapest) > 0)
            .collect();
        assert_eq!(
            owners.len(),
            1,
            "every price here clamps onto the domain boundary key, so one node owns all of them: {owners:?}"
        );
    }

    fn populated(n: usize, seed: u64) -> MaanDirectory {
        let mut dir = MaanDirectory::new(n, seed);
        for q in spread_quotes(n) {
            let _ = dir.subscribe(q);
        }
        dir
    }

    #[test]
    fn graceful_departure_hands_off_stored_entries() {
        // Twin directories pin the handoff charge exactly: the twin measures
        // the withdrawal cost and the post-withdrawal store occupancy, so the
        // depart must charge `routed removes + one transfer per entry the
        // departing node still held for others`.
        let mut twin = populated(16, 3);
        let g = (0..16)
            .max_by_key(|&g| {
                twin.node_entries(g, RankOrder::Cheapest) + twin.node_entries(g, RankOrder::Fastest)
            })
            .unwrap();
        let withdraw = twin.unsubscribe(g);
        let held =
            twin.node_entries(g, RankOrder::Cheapest) + twin.node_entries(g, RankOrder::Fastest);
        assert!(held > 0, "the busiest node must store entries for others");

        let mut dir = populated(16, 3);
        let messages = dir.node_depart(g, true);
        assert_eq!(
            messages,
            withdraw + held as u64,
            "handoff charges one successor-transfer message per stored entry"
        );
        assert_eq!(dir.node_entries(g, RankOrder::Cheapest), 0);
        assert_eq!(dir.node_entries(g, RankOrder::Fastest), 0);
        assert!(!dir.is_node_live(g));
        assert!(dir.serves_only_live());
        assert_eq!(dir.len(), 15);
        assert_eq!(dir.membership_epoch(), 1);
        assert_eq!(dir.node_depart(g, true), 0, "departing twice is a no-op");

        // The inherited entries still rank exactly against a sorted oracle.
        let mut rest: Vec<Quote> = spread_quotes(16).into_iter().filter(|q| q.gfa != g).collect();
        rest.sort_by(|a, b| a.price.total_cmp(&b.price).then(a.gfa.cmp(&b.gfa)));
        for (i, q) in rest.iter().enumerate() {
            let got = dir.query_ranked(0, RankOrder::Cheapest, i + 1).quote.unwrap();
            assert_eq!(got.gfa, q.gfa, "rank {}", i + 1);
        }
        assert!(dir.query_ranked(0, RankOrder::Cheapest, 16).quote.is_none());
    }

    #[test]
    fn crashed_stores_detour_to_replicas_or_fault() {
        // `dir` runs replicated (k = 2) with one pre-crash stabilization
        // round (copies exist); `k1` is an unreplicated twin with identical
        // content and ring, so per-rank results pin the detour surcharge and
        // the fault behaviour against each other.
        let mut dir = populated(16, 3);
        dir.set_replication(2);
        let repaired = dir.stabilize();
        assert!(repaired > 0, "replica placement charges one message per copy");
        assert!(dir.replication_ok());
        assert_eq!(dir.stabilize(), 0, "replicas in place: a second round is free");

        let mut k1 = populated(16, 3);
        let victim = (0..16)
            .max_by_key(|&g| k1.node_entries(g, RankOrder::Cheapest))
            .unwrap();
        assert_eq!(dir.node_depart(victim, false), 0, "a crash is silent");
        assert_eq!(k1.node_depart(victim, false), 0);

        let mut faulted = 0usize;
        for r in 1..=dir.len() {
            let replicated = dir.query_ranked(0, RankOrder::Cheapest, r);
            let bare = k1.query_ranked(0, RankOrder::Cheapest, r);
            assert!(replicated.quote.is_some(), "rank {r}: a replica must answer");
            assert!(!dir.take_fault());
            if bare.quote.is_none() {
                assert!(k1.take_fault(), "rank {r}: missing answers must flag a fault");
                faulted += 1;
                assert_eq!(
                    replicated.messages,
                    bare.messages + 1,
                    "rank {r}: a replica detour costs one successor hop"
                );
            } else {
                assert_eq!(replicated.quote, bare.quote, "rank {r}");
                assert_eq!(replicated.messages, bare.messages, "rank {r}");
            }
        }
        assert!(faulted > 0, "the crashed node stored survivor entries");
        assert!(dir.serves_only_live() && k1.serves_only_live());

        // Stabilization evicts the ghost, hands its entries to the inheriting
        // owner and re-repairs the replica set; lookups recover on both.
        for d in [&mut dir, &mut k1] {
            assert!(d.stabilize() > 0);
            assert_eq!(d.membership_epoch(), 2);
            for r in 1..=d.len() {
                assert!(d.query_ranked(0, RankOrder::Cheapest, r).quote.is_some(), "rank {r}");
                assert!(!d.take_fault());
            }
            assert!(d.replication_ok());
            // Rejoin restores the ring; the quote republish is the GFA's job.
            assert!(d.node_join(victim) >= 1);
            assert!(d.is_node_live(victim));
            assert_eq!(d.len(), 15);
            let _ = d.subscribe(spread_quotes(16)[victim]);
            assert_eq!(d.len(), 16);
        }
    }

    #[test]
    fn replication_is_inert_without_stabilization() {
        // Satellite guarantee: on a churn-free ring a k = 3 directory charges
        // and resolves bit-identically to a k = 1 one — copies only come into
        // existence through stabilization rounds, which static runs never
        // schedule.
        let mut k1 = MaanDirectory::new(12, 5);
        let mut k3 = MaanDirectory::new(12, 5);
        k3.set_replication(3);
        for q in spread_quotes(12) {
            assert_eq!(k1.subscribe(q), k3.subscribe(q));
        }
        for r in 1..=12 {
            let a = k1.query_ranked(1, RankOrder::Cheapest, r);
            let b = k3.query_ranked(1, RankOrder::Cheapest, r);
            assert_eq!(a.quote, b.quote, "rank {r}");
            assert_eq!(a.messages, b.messages, "rank {r}");
        }
        assert_eq!(k1.update_price(3, 7.7), k3.update_price(3, 7.7));
        assert_eq!(k1.unsubscribe(5), k3.unsubscribe(5));
        assert_eq!(k1.epoch(), k3.epoch());
        assert_eq!(k3.membership_epoch(), 0);
        assert!(k3.replication_ok());
        // A churn-free stabilization round of an unreplicated directory is
        // free and leaves every observable unchanged.
        let e = k1.epoch();
        assert_eq!(k1.stabilize(), 0);
        assert_eq!(k1.epoch(), e);
    }
}
