//! Pluggable directory backends.
//!
//! The federation is generic over where its ranking queries are answered:
//! [`DirectoryBackend`] is the configuration knob (which implementation to
//! build), [`AnyDirectory`] is the enum-dispatch wrapper the federation's
//! shared state holds.  Enum dispatch keeps the hot ranking path monomorphic
//! — every call is a two-arm `match` on a discriminant rather than a vtable
//! indirection — while still letting experiments swap backends at run time.

use crate::cursor::RankCursor;
use crate::ideal::IdealDirectory;
use crate::maan::MaanDirectory;
use crate::quote::{FederationDirectory, Quote, RankOrder, TracedQuote};

/// Which directory implementation a federation run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DirectoryBackend {
    /// The idealised directory: exact rankings with a *modelled* message
    /// cost of `⌈log₂ n⌉` per query (the paper's assumption).
    #[default]
    Ideal,
    /// The MAAN-style multi-attribute range index: quotes are **stored at
    /// the ring nodes owning their locality-preserving-hashed price and
    /// speed keys**, queries walk the distributed range (so cursor advances
    /// that cross node boundaries cost extra hops) and mutations are routed
    /// put/remove/move operations charged as publish-side traffic.
    Maan,
}

impl DirectoryBackend {
    /// Every backend, in a stable order (useful for sweeps and table
    /// headers).
    pub const ALL: [DirectoryBackend; 2] = [DirectoryBackend::Ideal, DirectoryBackend::Maan];

    /// Short lowercase label used in file names and table headers.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DirectoryBackend::Ideal => "ideal",
            DirectoryBackend::Maan => "maan",
        }
    }

    /// Builds an empty directory of this backend for a federation of `n`
    /// GFAs.  `seed` places the MAAN overlay's nodes on the ring; the ideal
    /// backend ignores both parameters.
    #[must_use]
    pub fn build(self, n: usize, seed: u64) -> AnyDirectory {
        match self {
            DirectoryBackend::Ideal => AnyDirectory::Ideal(IdealDirectory::new()),
            DirectoryBackend::Maan => {
                AnyDirectory::Maan(Box::new(MaanDirectory::new(n.max(1), seed)))
            }
        }
    }
}

impl std::fmt::Display for DirectoryBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A directory of any backend, dispatching every [`FederationDirectory`]
/// operation with a monomorphic `match`.
#[derive(Debug)]
pub enum AnyDirectory {
    /// An [`IdealDirectory`].
    Ideal(IdealDirectory),
    /// A [`MaanDirectory`], boxed: its overlay, node stores and walk
    /// indexes make it three times the ideal directory's size.
    Maan(Box<MaanDirectory>),
}

macro_rules! dispatch {
    ($self:ident, $d:ident => $e:expr) => {
        match $self {
            AnyDirectory::Ideal($d) => $e,
            AnyDirectory::Maan($d) => $e,
        }
    };
}

impl AnyDirectory {
    /// Average messages of one *routed* ranking lookup (rank-1 cursor
    /// establishment) — the quantity the paper models as `O(log n)`: the
    /// charged `⌈log₂ n⌉` average for the ideal backend, the measured
    /// route-plus-walk average for MAAN.  Zero when no lookup was routed
    /// (nothing was measured, so nothing is reported).
    #[must_use]
    pub fn average_route_messages(&self) -> f64 {
        dispatch!(self, d => d.average_route_messages())
    }

    /// Average closest-preceding-finger hops of one walked route, without
    /// the arc walk: see [`MaanDirectory::average_finger_hops`].  Zero for
    /// the ideal backend, which routes nothing.
    #[must_use]
    pub fn average_finger_hops(&self) -> f64 {
        match self {
            AnyDirectory::Ideal(_) => 0.0,
            AnyDirectory::Maan(d) => d.average_finger_hops(),
        }
    }

    /// Corrupting test double: rewinds the content epoch to zero, whatever
    /// the backend.  Only exists so the invariant tests can prove the epoch
    /// monotonicity check fires.
    #[cfg(feature = "invariants")]
    pub fn corrupt_epoch_rewind(&mut self) {
        dispatch!(self, d => d.corrupt_epoch_rewind())
    }

    /// The MAAN directory an `invariants`-only corrupting double targets:
    /// only it keeps membership, replica and overlay state to corrupt.
    ///
    /// # Panics
    /// Panics on the ideal backend.
    #[cfg(feature = "invariants")]
    fn maan_to_corrupt(&mut self) -> &mut MaanDirectory {
        match self {
            AnyDirectory::Maan(d) => d.as_mut(),
            AnyDirectory::Ideal(_) => {
                panic!("the ideal backend has no membership, replica or overlay state to corrupt")
            }
        }
    }

    /// Corrupting test double: see [`MaanDirectory::corrupt_serve_departed`].
    #[cfg(feature = "invariants")]
    pub fn corrupt_serve_departed(&mut self) {
        self.maan_to_corrupt().corrupt_serve_departed();
    }

    /// Corrupting test double: see [`MaanDirectory::corrupt_overreplicate`].
    #[cfg(feature = "invariants")]
    pub fn corrupt_overreplicate(&mut self) {
        self.maan_to_corrupt().corrupt_overreplicate();
    }

    /// Corrupting test double: see
    /// [`MaanDirectory::corrupt_membership_rewind`].
    #[cfg(feature = "invariants")]
    pub fn corrupt_membership_rewind(&mut self) {
        self.maan_to_corrupt().corrupt_membership_rewind();
    }

    /// Corrupting test double: see [`MaanDirectory::corrupt_finger`].
    #[cfg(feature = "invariants")]
    pub fn corrupt_finger(&mut self) {
        self.maan_to_corrupt().corrupt_finger();
    }
}

impl FederationDirectory for AnyDirectory {
    fn subscribe(&mut self, quote: Quote) -> u64 {
        dispatch!(self, d => d.subscribe(quote))
    }
    fn unsubscribe(&mut self, gfa: usize) -> u64 {
        dispatch!(self, d => d.unsubscribe(gfa))
    }
    fn update_price(&mut self, gfa: usize, price: f64) -> u64 {
        dispatch!(self, d => d.update_price(gfa, price))
    }
    fn query_ranked(&self, origin: usize, order: RankOrder, r: usize) -> TracedQuote {
        dispatch!(self, d => d.query_ranked(origin, order, r))
    }
    fn len(&self) -> usize {
        dispatch!(self, d => d.len())
    }
    fn queries_served(&self) -> u64 {
        dispatch!(self, d => d.queries_served())
    }
    #[inline]
    fn epoch(&self) -> u64 {
        dispatch!(self, d => d.epoch())
    }
    fn open_cursor(&self, origin: usize, order: RankOrder) -> RankCursor {
        dispatch!(self, d => d.open_cursor(origin, order))
    }
    // `inline(always)`: with every backend body inlined into the match,
    // the wrapper exceeds the inliner's default threshold and the ~2 ns
    // steady-state advance turns into an outlined call (measured 2× on the
    // gated advance_ns metric when the MAAN arm was added).  The DBC loop
    // calls this once per candidate examined, so the dispatch must stay
    // flat.
    #[inline(always)]
    fn cursor_next(&self, cursor: &mut RankCursor) -> TracedQuote {
        dispatch!(self, d => d.cursor_next(cursor))
    }
    #[inline]
    fn note_replayed_query(&self, origin: usize, order: RankOrder, r: usize, route_messages: u64) {
        dispatch!(self, d => d.note_replayed_query(origin, order, r, route_messages));
    }
    #[inline]
    fn membership_epoch(&self) -> u64 {
        dispatch!(self, d => d.membership_epoch())
    }
    fn node_depart(&mut self, gfa: usize, graceful: bool) -> u64 {
        dispatch!(self, d => d.node_depart(gfa, graceful))
    }
    fn node_join(&mut self, gfa: usize) -> u64 {
        dispatch!(self, d => d.node_join(gfa))
    }
    fn stabilize(&mut self) -> u64 {
        dispatch!(self, d => d.stabilize())
    }
    fn set_replication(&mut self, k: usize) {
        dispatch!(self, d => d.set_replication(k));
    }
    fn repair_faulted(&mut self) -> u64 {
        dispatch!(self, d => d.repair_faulted())
    }
    fn is_node_live(&self, gfa: usize) -> bool {
        dispatch!(self, d => d.is_node_live(gfa))
    }
    #[inline]
    fn peek_fault(&self) -> bool {
        dispatch!(self, d => d.peek_fault())
    }
    #[inline]
    fn take_fault(&self) -> bool {
        dispatch!(self, d => d.take_fault())
    }
    fn replication_ok(&self) -> bool {
        dispatch!(self, d => d.replication_ok())
    }
    fn serves_only_live(&self) -> bool {
        dispatch!(self, d => d.serves_only_live())
    }
    #[cfg(feature = "invariants")]
    fn index_consistent(&self) -> bool {
        dispatch!(self, d => d.index_consistent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quote(gfa: usize, mips: f64, price: f64) -> Quote {
        Quote {
            gfa,
            processors: 64,
            mips,
            bandwidth: 1.0,
            price,
        }
    }

    #[test]
    fn build_and_label_roundtrip() {
        for backend in DirectoryBackend::ALL {
            let dir = backend.build(8, 7);
            assert_eq!(format!("{backend}"), backend.label());
            assert!(dir.is_empty());
        }
        assert_eq!(DirectoryBackend::default(), DirectoryBackend::Ideal);
        assert_eq!(DirectoryBackend::ALL.map(DirectoryBackend::label), ["ideal", "maan"]);
    }

    #[test]
    fn dispatch_preserves_ranking_semantics() {
        for backend in DirectoryBackend::ALL {
            let mut dir = backend.build(4, 9);
            for (i, (mips, price)) in [(500.0, 4.0), (900.0, 2.0), (700.0, 3.0), (600.0, 1.0)]
                .iter()
                .enumerate()
            {
                let _ = dir.subscribe(quote(i, *mips, *price));
            }
            assert_eq!(dir.len(), 4);
            assert_eq!(dir.query_ranked(0, RankOrder::Cheapest, 1).quote.unwrap().gfa, 3);
            assert_eq!(dir.query_ranked(0, RankOrder::Fastest, 1).quote.unwrap().gfa, 1);
            let traced = dir.query_ranked(2, RankOrder::Cheapest, 1);
            assert_eq!(traced.quote.unwrap().gfa, 3);
            assert!(traced.messages >= 1);
            assert!(dir.queries_served() >= 3);
            assert!(dir.average_route_messages() >= 1.0);
            let _ = dir.unsubscribe(3);
            assert_eq!(dir.query_ranked(0, RankOrder::Cheapest, 1).quote.unwrap().gfa, 1);
            let _ = dir.update_price(0, 0.1);
            assert_eq!(dir.query_ranked(0, RankOrder::Cheapest, 1).quote.unwrap().gfa, 0);
        }
    }

    #[test]
    fn overlay_builds_survive_zero_sizing() {
        // `build` clamps to one overlay node so stray callers can't panic the
        // overlay constructor; the federation itself always has n ≥ 1.
        let dir = DirectoryBackend::Maan.build(0, 3);
        assert_eq!(dir.len(), 0);
    }

    #[test]
    fn publish_traffic_is_charged_by_maan_only() {
        for backend in DirectoryBackend::ALL {
            let mut dir = backend.build(4, 9);
            let m = dir.subscribe(quote(0, 500.0, 3.0));
            if backend == DirectoryBackend::Maan {
                assert!(m >= 2, "{backend:?}: a MAAN publish routes one put per attribute");
            } else {
                assert_eq!(m, 0, "{backend:?}: central stores publish for free");
            }
        }
    }
}
