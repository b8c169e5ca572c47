//! Quotes and the directory interface.

use grid_cluster::ResourceSpec;

use crate::cursor::RankCursor;

/// Which ranking a directory query (or cursor) walks.
///
/// The paper's DBC loop asks for the *r*-th cheapest cluster under OFC and
/// the *r*-th fastest under OFT; these are the two range indexes a MAAN-style
/// directory maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankOrder {
    /// Ascending access price (ties broken by GFA index).
    Cheapest,
    /// Descending per-processor MIPS (ties broken by GFA index).
    Fastest,
}

impl RankOrder {
    /// Both orders, in a stable order (useful for caches and table headers).
    pub const ALL: [RankOrder; 2] = [RankOrder::Cheapest, RankOrder::Fastest];

    /// Dense index of this order (`Cheapest` = 0, `Fastest` = 1), used by
    /// per-order caches.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            RankOrder::Cheapest => 0,
            RankOrder::Fastest => 1,
        }
    }
}

/// A quote published into the federation directory by a GFA: the resource
/// description `R_i` plus the access price `c_i` configured by the owner.
///
/// Quotes are small `Copy` values so that query results can be handed around
/// without allocation; the human-readable resource name stays with the GFA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quote {
    /// Index of the GFA (and therefore the cluster) that published the quote.
    pub gfa: usize,
    /// Number of processors `p_i`.
    pub processors: u32,
    /// Per-processor speed `µ_i` in MIPS.
    pub mips: f64,
    /// Interconnect bandwidth `γ_i` in Gb/s.
    pub bandwidth: f64,
    /// Access price `c_i` in Grid Dollars.
    pub price: f64,
}

impl Quote {
    /// Builds a quote from a GFA index and its resource description.
    #[must_use]
    pub fn from_spec(gfa: usize, spec: &ResourceSpec) -> Self {
        Quote {
            gfa,
            processors: spec.processors,
            mips: spec.mips,
            bandwidth: spec.bandwidth,
            price: spec.price,
        }
    }
}

/// The answer to one traced ranking query: the quote at the requested rank
/// (if it exists) plus the number of directory messages the query cost.
///
/// The message count is what the federation's accounting charges as
/// *directory traffic* — kept separate from the four negotiation message
/// types so the paper's Fig. 10/11 panels stay comparable across backends.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "a TracedQuote carries a message charge that must be accounted"]
pub struct TracedQuote {
    /// The quote at the requested rank, or `None` for rank 0 or a rank past
    /// the end of the directory.
    pub quote: Option<Quote>,
    /// Directory messages the query cost.  Zero for rank 0, which every
    /// implementation answers locally without touching the overlay.
    pub messages: u64,
}

/// The interface every federation-directory implementation provides.
///
/// The ranking queries use 1-based ranks to match the paper's description of
/// the algorithm ("query the federation directory for the r-th fastest
/// cluster", r = 1, 2, …).
pub trait FederationDirectory {
    /// Publishes (or republishes) a quote, returning the **publish-side
    /// message cost**: the routed overlay messages the operation took.  The
    /// ideal backend keeps the quote store central and charges `0`; the
    /// MAAN backend routes one put per attribute key (plus
    /// routed removes for relocated stale entries on a republish).  The
    /// federation accounts these as a separate *publish* traffic class.
    /// A GFA republishing overwrites its previous quote.
    #[must_use = "the publish-side message cost must be charged into the ledger or explicitly dropped"]
    fn subscribe(&mut self, quote: Quote) -> u64;

    /// Removes a GFA's quote from the directory, returning the publish-side
    /// message cost (see [`Self::subscribe`]; a no-op on an unknown GFA
    /// costs 0).
    #[must_use = "the publish-side message cost must be charged into the ledger or explicitly dropped"]
    fn unsubscribe(&mut self, gfa: usize) -> u64;

    /// Updates just the price of an existing quote (the paper's
    /// "quote" primitive), returning the publish-side message cost — under
    /// MAAN a routed *move* of the price entry between its old and new key
    /// owners.  Does nothing (and costs 0) if the GFA is not subscribed or
    /// the price is bit-identical.
    #[must_use = "the publish-side message cost must be charged into the ledger or explicitly dropped"]
    fn update_price(&mut self, gfa: usize, price: f64) -> u64;

    /// The `r`-th quote (1-based) in `order`, queried from GFA `origin`,
    /// together with the number of directory messages the query cost.  Ties
    /// are broken by GFA index so that results are deterministic.
    ///
    /// Message costs follow the DHT range-query model (MAAN-style,
    /// `O(log n + k)`): a rank-1 query *routes* through the overlay to
    /// establish the ranking cursor (`O(log n)` messages — the paper's
    /// assumption), and every higher rank advances the cursor one overlay
    /// hop (1 message), since consecutive ranks are adjacent in the range
    /// index.  The DBC loop probes ranks sequentially, so a job examining
    /// `k` candidates pays `O(log n) + (k − 1)` directory messages.
    ///
    /// Every backend must resolve the *same* quote for the same directory
    /// contents — backends may only differ in the message cost (and therefore
    /// the simulated lookup latency) they report.  This *query-per-rank* path
    /// is the paper's Fig. 10/11 cost model; it is retained as the
    /// differential oracle for the cursor primitive below.
    fn query_ranked(&self, origin: usize, order: RankOrder, r: usize) -> TracedQuote;

    /// The directory's *epoch*: a counter bumped by every content mutation
    /// (`subscribe`, `unsubscribe`, `update_price`).  Open cursors and
    /// GFA-side quote caches compare epochs to detect that their view of the
    /// rank data went stale and must be revalidated.
    #[must_use]
    fn epoch(&self) -> u64;

    /// Opens a streaming rank cursor at the head of `order` for GFA
    /// `origin`: **one routed lookup** through the overlay (the `O(log n)`
    /// establishment the paper charges per query) whose cost is captured in
    /// the cursor and charged when rank 1 is yielded.  Subsequent
    /// [`Self::cursor_next`] calls advance one rank for one cursor-advance
    /// message and O(1) work — the `O(log n + k)` execution profile of
    /// MAAN-style DHT range queries, which the query-per-rank path only
    /// *models*.
    fn open_cursor(&self, origin: usize, order: RankOrder) -> RankCursor;

    /// Yields the next rank of an open cursor (rank 1 on the first call
    /// after [`Self::open_cursor`]).  The first yield charges the routed
    /// open's messages; every further yield is one cursor-advance message.
    ///
    /// If the directory epoch moved since the cursor last touched it, the
    /// cursor is **revalidated lazily**: the yield re-resolves its rank
    /// against the current quote store (so streamed results always equal
    /// what [`Self::query_ranked`] would answer), and a cursor that has not
    /// yet yielded rank 1 re-prices its pending route at the current
    /// directory size.  Under churn the overlay *ring* itself can change
    /// ([`Self::membership_epoch`]); a not-yet-started cursor likewise
    /// re-prices its route lazily, and a resolved rank whose storing node
    /// has crashed detours to a replica (one extra message) or — with no
    /// live replica — reports a **fault** ([`Self::take_fault`]) while still
    /// charging the wasted route.  Absent churn, cursor advances charge
    /// exactly what the query-per-rank model charges, keeping ledger
    /// accounting bit-identical.
    fn cursor_next(&self, cursor: &mut RankCursor) -> TracedQuote;

    /// Records a ranking query that was answered from a GFA-side cache
    /// ([`crate::cursor::QuoteCache`]) without touching the rank data: bumps
    /// the same internal statistics — queries served, routed lookups, route
    /// messages — that a live query at rank `r` would have, so
    /// cached runs report bit-identical directory telemetry.
    /// `route_messages` is the message charge the cache replayed for this
    /// rank (the routed-open cost for `r == 1`, the cursor-advance cost —
    /// which MAAN's boundary crossings can make exceed 1 — for deeper
    /// ranks).
    fn note_replayed_query(&self, origin: usize, order: RankOrder, r: usize, route_messages: u64);

    /// Number of subscribed GFAs.
    #[must_use]
    fn len(&self) -> usize;

    /// Whether the directory is empty.
    #[must_use]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total ranking queries served since construction.
    #[must_use]
    fn queries_served(&self) -> u64;

    // --- Churn: membership change, replication and self-healing. ---------
    //
    // Every method below has a default that models a churn-oblivious
    // directory (the paper's static-ring assumption), so the centrally
    // stored `Ideal` backend — which has no ring to heal — works unchanged.
    // Overlay backends override them; all message costs are charged into
    // the existing *publish* traffic class by the federation.

    /// The overlay's *membership epoch*: bumped whenever the set of live
    /// ring nodes changes (join, leave, crash, or a stabilization round
    /// evicting crashed nodes).  Distinct from the content [`Self::epoch`]:
    /// content mutations do not move it, and GFA-side cursors use it to
    /// decide when a paid re-open (rather than a lazy revalidation) is due.
    /// Centrally-stored backends have no ring and always answer 0.
    #[must_use]
    fn membership_epoch(&self) -> u64 {
        0
    }

    /// Removes GFA `gfa` from the overlay ring, returning the publish-side
    /// message cost.  `graceful` departures hand the node's stored entries
    /// to their new owners (one routed message each) before leaving;
    /// crashes (`graceful = false`) drop the node with **zero** messages —
    /// its stored entries are unreachable until a stabilization round
    /// repairs them from replicas.  Either way the departing GFA's own
    /// published quote stops being served.  The default unsubscribes the
    /// quote (free for a graceful departure that already unsubscribed) —
    /// correct for a central store, where there is nothing else to hand off.
    #[must_use = "the publish-side message cost must be charged into the ledger or explicitly dropped"]
    fn node_depart(&mut self, gfa: usize, graceful: bool) -> u64 {
        let _ = graceful;
        let _ = self.unsubscribe(gfa);
        0
    }

    /// Re-admits a previously departed GFA to the overlay ring, returning
    /// the publish-side message cost of the join protocol.  The node comes
    /// back *empty*: re-publishing its quote is a separate
    /// [`Self::subscribe`].  A no-op (cost 0) on a central store.
    #[must_use = "the publish-side message cost must be charged into the ledger or explicitly dropped"]
    fn node_join(&mut self, gfa: usize) -> u64 {
        let _ = gfa;
        0
    }

    /// Runs one periodic stabilization round: evicts crashed nodes from the
    /// routing structures, repairs successor/finger state, and repairs
    /// entry replication back up to the configured factor.  Returns the
    /// round's message cost.  A no-op (cost 0) on a central store.
    #[must_use = "the publish-side message cost must be charged into the ledger or explicitly dropped"]
    fn stabilize(&mut self) -> u64 {
        0
    }

    /// Sets the replication factor `k ≥ 1` for stored entries (MAAN
    /// attribute entries keep `k − 1` successor copies, repaired lazily by
    /// [`Self::stabilize`]).  Ignored by backends that keep the store
    /// central — a central store is trivially `k = n` durable.
    fn set_replication(&mut self, k: usize) {
        let _ = k;
    }

    /// Whether GFA `gfa`'s ring node is currently live (present and not
    /// crashed).  Always `true` for a central store.
    #[must_use]
    fn is_node_live(&self, gfa: usize) -> bool {
        let _ = gfa;
        true
    }

    /// Whether the most recent query/cursor operation **faulted**: routed
    /// to a crashed node and found no live replica, answering `None` while
    /// still charging the wasted route.  Reading does not clear the flag
    /// (see [`Self::take_fault`]).  Never set by a churn-free backend.
    #[must_use]
    fn peek_fault(&self) -> bool {
        false
    }

    /// Consumes and returns the fault flag set by the most recent
    /// query/cursor operation (see [`Self::peek_fault`]).
    #[must_use]
    fn take_fault(&self) -> bool {
        false
    }

    /// **Reactive ring repair**: immediately evicts the crashed node the
    /// most recent *faulted* lookup routed to (recorded at fault time),
    /// reconciles its displaced entries and repairs replication, returning
    /// the repair's message cost — the targeted, lookup-time alternative to
    /// waiting a periodic [`Self::stabilize`] round out.  Returns 0 when
    /// there is nothing to repair (no recorded fault, or the culprit was
    /// already evicted).  A no-op on a central store, which cannot fault.
    #[must_use = "the publish-side message cost must be charged into the ledger or explicitly dropped"]
    fn repair_faulted(&mut self) -> u64 {
        0
    }

    /// Invariant probe: no stored entry has more copies than the configured
    /// replication factor.  Trivially `true` for a central store.
    #[must_use]
    fn replication_ok(&self) -> bool {
        true
    }

    /// Invariant probe: no departed (left or crashed) GFA's quote is still
    /// being served by ranking queries.  Trivially `true` for a central
    /// store, where `node_depart` removes the quote synchronously.
    #[must_use]
    fn serves_only_live(&self) -> bool {
        true
    }

    /// Invariant probe: the incrementally maintained routing state (ring
    /// order and every finger table) and walk indexes equal a from-scratch
    /// rebuild over the current membership and stores.  Trivially `true`
    /// for a central store, which keeps no derived index.
    #[cfg(feature = "invariants")]
    #[must_use]
    fn index_consistent(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_copies_the_spec_fields() {
        let spec = ResourceSpec::new("CTC SP2", 512, 850.0, 2.0, 4.84);
        let q = Quote::from_spec(3, &spec);
        assert_eq!(q.gfa, 3);
        assert_eq!(q.processors, spec.processors);
        assert_eq!(q.mips, spec.mips);
        assert_eq!(q.bandwidth, spec.bandwidth);
        assert_eq!(q.price, spec.price);
    }
}
