//! Streaming rank cursors and the per-GFA quote cache.
//!
//! The paper's message model for a directory query is `O(log n + k)` —
//! MAAN-style DHT range queries route **once** to the head of a range index
//! and then stream results, one cursor-advance message per rank.  Before
//! this module the federation *charged* that model but *executed* a fresh
//! ranked query per rank (re-routing through the overlay, re-pricing the
//! ideal model on every rank-1 probe).  [`RankCursor`] makes the execution cost
//! match the charged cost: one routed lookup opens the cursor, every
//! [`FederationDirectory::cursor_next`] is O(1).
//!
//! [`QuoteCache`] layers per-GFA memoisation on top: quotes already streamed
//! this *epoch* (see [`FederationDirectory::epoch`]) are replayed without
//! touching the backend's resolution machinery at all, while the directory's
//! telemetry (queries served, routed lookups, hop totals) is kept
//! bit-identical through [`FederationDirectory::note_replayed_query`].  Any
//! mutation — `subscribe`, `unsubscribe`, `update_price` — bumps the epoch
//! and lazily invalidates both cursors and caches.

use crate::quote::{FederationDirectory, RankOrder, TracedQuote};

/// A streaming cursor over one ranking of the federation directory.
///
/// Obtained from [`FederationDirectory::open_cursor`] (one routed lookup);
/// advanced with [`FederationDirectory::cursor_next`] (one message, O(1)
/// work per rank).  The cursor is a plain value — it holds no borrow of the
/// directory, so a GFA can keep one per in-flight job while the directory
/// lives in shared state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an opened cursor carries a pre-paid route charge that must be yielded"]
pub struct RankCursor {
    pub(crate) origin: usize,
    pub(crate) order: RankOrder,
    /// Ranks already yielded; the next yield is rank `yielded + 1`.
    pub(crate) yielded: usize,
    /// Directory epoch the cursor's route was established at.
    pub(crate) epoch: u64,
    /// Messages the routed open cost (charged when rank 1 is yielded).
    pub(crate) route_messages: u64,
}

impl RankCursor {
    /// Builds a cursor positioned before rank 1 with a pre-paid route cost.
    /// Backends construct these in `open_cursor`.
    pub(crate) fn opened(origin: usize, order: RankOrder, epoch: u64, route_messages: u64) -> Self {
        RankCursor {
            origin,
            order,
            yielded: 0,
            epoch,
            route_messages,
        }
    }

    /// Builds a cursor resuming mid-stream so its next yield is rank
    /// `next_rank` (≥ 2): used by [`QuoteCache`] when the head of a ranking
    /// was served from cache and the stream continues past the cached
    /// prefix.  A resumed cursor never yields rank 1, so it carries no route
    /// cost.
    ///
    /// # Panics
    /// Panics if `next_rank < 2` — resuming *at* the head must go through a
    /// routed [`FederationDirectory::open_cursor`] instead.
    pub fn resume(origin: usize, order: RankOrder, epoch: u64, next_rank: usize) -> Self {
        assert!(next_rank >= 2, "resuming at rank {next_rank}: the head needs a routed open");
        RankCursor {
            origin,
            order,
            yielded: next_rank - 1,
            epoch,
            route_messages: 0,
        }
    }

    /// GFA the cursor routes and charges on behalf of.
    #[must_use]
    #[inline]
    pub fn origin(&self) -> usize {
        self.origin
    }

    /// Ranking this cursor streams.
    #[must_use]
    #[inline]
    pub fn order(&self) -> RankOrder {
        self.order
    }

    /// The rank the next [`FederationDirectory::cursor_next`] will yield.
    #[must_use]
    #[inline]
    pub fn next_rank(&self) -> usize {
        self.yielded + 1
    }

    /// Repositions the cursor so its next yield is rank `next_rank` (≥ 2).
    /// O(1): cursors address ranks positionally, so seeking is free — only
    /// the head of a ranking ever needs a routed open.
    ///
    /// # Panics
    /// Panics if `next_rank < 2`.
    #[inline]
    pub fn seek(&mut self, next_rank: usize) {
        assert!(next_rank >= 2, "seeking to rank {next_rank}: the head needs a routed open");
        self.yielded = next_rank - 1;
    }
}

/// Hit/miss counters of a [`QuoteCache`], aggregated into the federation
/// report for observability (they never feed the rendered tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache (replayed telemetry, no resolution).
    pub hits: u64,
    /// Probes that had to stream a fresh rank from the directory.
    pub misses: u64,
}

impl CacheStats {
    /// Component-wise sum, for aggregating per-GFA caches into one report.
    #[must_use]
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

/// One ranking's cached prefix.
#[derive(Debug, Clone, Default)]
struct OrderCache {
    /// `ranks[r - 1]`: `None` = not yet resolved this epoch;
    /// `Some(traced)` = resolved — the quote (whose inner `None` means
    /// "past the end of the directory") **and** the message charge the live
    /// stream paid for that rank.  The charge is cached per rank because it
    /// is not a constant: rank 1 carries the routed open, and MAAN range
    /// walks charge extra messages on advances that cross node boundaries.
    ranks: Vec<Option<TracedQuote>>,
}

/// A per-GFA memo of quotes streamed from the directory, keyed by
/// `(ordering, epoch)`.
///
/// The DBC loop of *every* job probes the same ranking from rank 1, so
/// consecutive jobs of one GFA mostly re-read quotes the GFA already fetched.
/// The cache replays those probes locally — same quote, same message charge,
/// same directory telemetry (via
/// [`FederationDirectory::note_replayed_query`]) — and only streams fresh
/// ranks through the job's [`RankCursor`] on a miss.  The first probe after
/// any directory mutation observes a new [`FederationDirectory::epoch`] and
/// drops the whole memo, so cached answers are never stale.
#[derive(Debug, Clone, Default)]
pub struct QuoteCache {
    /// Epoch the cached prefixes were streamed at (`None` = cold).
    epoch: Option<u64>,
    orders: [OrderCache; 2],
    stats: CacheStats,
}

impl QuoteCache {
    /// Creates an empty (cold) cache.
    #[must_use]
    pub fn new() -> Self {
        QuoteCache::default()
    }

    /// Hit/miss counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Serves the `r`-th quote (1-based) in `order` on behalf of GFA
    /// `origin`, replaying from the cache when the directory epoch still
    /// matches and streaming through `cursor` otherwise.  `cursor` is the
    /// probing job's cursor slot: it is opened (routed) on a rank-1 miss,
    /// resumed mid-stream on a deeper miss, and left untouched by hits.
    ///
    /// The returned [`TracedQuote`] — quote *and* message charge — is
    /// bit-identical to what [`FederationDirectory::query_ranked`] would
    /// answer for the same directory state, which is what the differential
    /// proptests assert.
    ///
    /// # Panics
    /// Panics if `r == 0`; rank 0 is answered locally for free and never
    /// reaches the cache.
    pub fn probe<D: FederationDirectory + ?Sized>(
        &mut self,
        dir: &D,
        origin: usize,
        order: RankOrder,
        r: usize,
        cursor: &mut Option<RankCursor>,
    ) -> TracedQuote {
        assert!(r >= 1, "rank 0 never reaches the quote cache");
        let epoch = dir.epoch();
        if self.epoch != Some(epoch) {
            // The directory mutated since the prefixes were streamed: drop
            // them.  Stale cursors revalidate themselves lazily inside
            // `cursor_next`, so they are left in place.
            self.epoch = Some(epoch);
            for oc in &mut self.orders {
                oc.ranks.clear();
            }
        }

        let oc = &mut self.orders[order.index()];
        if let Some(answer) = oc.ranks.get(r - 1).copied().flatten() {
            // Replay the exact charge the live stream paid for this rank at
            // this epoch (charges are deterministic per epoch, so the memo
            // cannot go stale without the epoch moving first).
            dir.note_replayed_query(origin, order, r, answer.messages);
            self.stats.hits += 1;
            return answer;
        }

        // Miss: stream the rank through the job's cursor.
        self.stats.misses += 1;
        let cur = match cursor {
            Some(c) if c.order() == order && c.origin() == origin && r > 1 => {
                c.seek(r);
                c
            }
            // A live cursor never rewinds to the head (jobs probe strictly
            // increasing ranks); a rank-1 miss with a cursor in hand means
            // the epoch moved — re-open (routed).  `Option::insert` hands
            // back the freshly stored cursor without an unwrap on the hot
            // path.
            _ => cursor.insert(if r == 1 {
                dir.open_cursor(origin, order)
            } else {
                RankCursor::resume(origin, order, epoch, r)
            }),
        };
        let traced = dir.cursor_next(cur);
        if dir.peek_fault() {
            // The route died at a crashed node and no replica answered: the
            // charge is real but the `None` answer is not rank data.  Leave
            // the memo empty — a retry must probe the live (possibly
            // repaired) directory — and discard the cursor so the retry
            // re-opens a fresh route instead of advancing a dead one.
            *cursor = None;
            return traced;
        }
        if oc.ranks.len() < r {
            oc.ranks.resize(r, None);
        }
        oc.ranks[r - 1] = Some(traced);
        traced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DirectoryBackend;
    use crate::quote::Quote;

    fn quote(gfa: usize, mips: f64, price: f64) -> Quote {
        Quote {
            gfa,
            processors: 64,
            mips,
            bandwidth: 1.0,
            price,
        }
    }

    fn populated(backend: DirectoryBackend, n: usize) -> crate::backend::AnyDirectory {
        let mut dir = backend.build(n, 77);
        for i in 0..n {
            let _ = dir.subscribe(quote(i, 400.0 + 13.0 * ((i * 7) % n) as f64, 1.0 + 0.3 * ((i * 3) % n) as f64));
        }
        dir
    }

    #[test]
    fn cursor_streams_the_whole_ranking() {
        for backend in DirectoryBackend::ALL {
            let dir = populated(backend, 9);
            for order in RankOrder::ALL {
                let mut cursor = dir.open_cursor(4, order);
                assert_eq!(cursor.next_rank(), 1);
                for r in 1..=10 {
                    let streamed = dir.cursor_next(&mut cursor);
                    let fresh = dir.query_ranked(4, order, r);
                    assert_eq!(streamed.quote, fresh.quote, "{backend:?} {order:?} rank {r}");
                    assert_eq!(
                        streamed.messages, fresh.messages,
                        "{backend:?} {order:?} rank {r}: cursor charges must equal the oracle's"
                    );
                    assert!(streamed.messages >= 1);
                    assert_eq!(cursor.next_rank(), r + 1);
                }
                // Rank 10 of a 9-GFA directory is past the end.
                assert_eq!(cursor.order(), order);
                assert_eq!(cursor.origin(), 4);
            }
        }
    }

    #[test]
    fn cursor_revalidates_after_mutations() {
        for backend in DirectoryBackend::ALL {
            let mut dir = populated(backend, 6);
            let mut cursor = dir.open_cursor(0, RankOrder::Cheapest);
            let head = dir.cursor_next(&mut cursor);
            // Reprice the current head out of first place: the stale cursor
            // must resolve rank 2 of the *new* ranking.
            let old_head = head.quote.unwrap().gfa;
            let _ = dir.update_price(old_head, 1_000.0);
            let next = dir.cursor_next(&mut cursor);
            let fresh = dir.query_ranked(0, RankOrder::Cheapest, 2);
            assert_eq!(next.quote, fresh.quote, "{backend:?}");
            assert_eq!(
                next.messages, fresh.messages,
                "{backend:?}: lazy revalidation is not a paid re-route — it charges the \
                 same advance the oracle charges"
            );
        }
    }

    #[test]
    fn pre_head_cursor_reprices_its_route_at_the_current_size() {
        // Ideal backend: the modelled route cost is ⌈log₂ n⌉ at yield time,
        // exactly like the query-per-rank oracle.
        let mut dir = populated(DirectoryBackend::Ideal, 32);
        let mut cursor = dir.open_cursor(0, RankOrder::Fastest);
        for gfa in 16..32 {
            let _ = dir.unsubscribe(gfa);
        }
        let head = dir.cursor_next(&mut cursor);
        assert_eq!(head.messages, 4, "⌈log₂ 16⌉, not the stale ⌈log₂ 32⌉");
    }

    #[test]
    fn seek_and_resume_reject_the_head() {
        let dir = populated(DirectoryBackend::Ideal, 4);
        let mut cursor = dir.open_cursor(0, RankOrder::Cheapest);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cursor.seek(1))).is_err());
        assert!(std::panic::catch_unwind(|| RankCursor::resume(0, RankOrder::Cheapest, 0, 1)).is_err());
        let resumed = RankCursor::resume(2, RankOrder::Fastest, dir.epoch(), 3);
        assert_eq!(resumed.next_rank(), 3);
    }

    #[test]
    fn cache_replays_hits_with_identical_charges_and_telemetry() {
        for backend in DirectoryBackend::ALL {
            // Two identical directories: one probed through the cache, one
            // through the query-per-rank oracle.
            let cached_dir = populated(backend, 8);
            let oracle_dir = populated(backend, 8);
            let mut cache = QuoteCache::new();
            let mut cursor = None;
            // Job 1 probes ranks 1..=5, job 2 re-probes 1..=3 (hits), job 3
            // goes deeper (6..=8 stream past the cached prefix).
            let probes: Vec<usize> = (1..=5).chain(1..=3).chain(1..=8).collect();
            for (i, r) in probes.iter().copied().enumerate() {
                if r == 1 {
                    cursor = None; // a new job starts a fresh cursor
                }
                let got = cache.probe(&cached_dir, 3, RankOrder::Cheapest, r, &mut cursor);
                let want = oracle_dir.query_ranked(3, RankOrder::Cheapest, r);
                assert_eq!(got, want, "{backend:?} probe {i} (rank {r})");
            }
            let stats = cache.stats();
            assert_eq!(stats.hits + stats.misses, probes.len() as u64);
            assert_eq!(stats.misses, 8, "each rank streams exactly once per epoch");
            // Replayed telemetry keeps the directories indistinguishable.
            assert_eq!(cached_dir.queries_served(), oracle_dir.queries_served(), "{backend:?}");
            assert_eq!(
                cached_dir.average_route_messages().to_bits(),
                oracle_dir.average_route_messages().to_bits(),
                "{backend:?}: route telemetry must replay bit-identically"
            );
        }
    }

    #[test]
    fn cache_invalidates_on_every_mutation_kind() {
        for backend in DirectoryBackend::ALL {
            let mut cached_dir = populated(backend, 8);
            let mut oracle_dir = populated(backend, 8);
            let mut cache = QuoteCache::new();
            let mutate: [&dyn Fn(&mut crate::backend::AnyDirectory); 3] = [
                &|d| {
                    let _ = d.update_price(2, 0.05);
                },
                &|d| {
                    let _ = d.unsubscribe(5);
                },
                &|d| {
                    let _ = d.subscribe(Quote { gfa: 5, processors: 8, mips: 9_000.0, bandwidth: 1.0, price: 9.0 });
                },
            ];
            for (step, m) in mutate.iter().enumerate() {
                let mut cursor = None;
                for r in 1..=4 {
                    let got = cache.probe(&cached_dir, 1, RankOrder::Fastest, r, &mut cursor);
                    let want = oracle_dir.query_ranked(1, RankOrder::Fastest, r);
                    assert_eq!(got, want, "{backend:?} step {step} rank {r}");
                }
                m(&mut cached_dir);
                m(&mut oracle_dir);
            }
            // Every mutation starts a fresh epoch, so all 3 × 4 probes
            // streamed (no stale hits survived an invalidation).
            assert_eq!(cache.stats().misses, 12, "probes after a mutation must re-stream");
            assert_eq!(cache.stats().hits, 0);
        }
    }

    #[test]
    fn cache_stats_merge() {
        let a = CacheStats { hits: 3, misses: 2 };
        let b = CacheStats { hits: 1, misses: 5 };
        assert_eq!(a.merged(b), CacheStats { hits: 4, misses: 7 });
        assert_eq!(CacheStats::default().merged(a), a);
    }

    #[test]
    #[should_panic(expected = "rank 0 never reaches the quote cache")]
    fn cache_rejects_rank_zero() {
        let dir = populated(DirectoryBackend::Ideal, 4);
        let mut cache = QuoteCache::new();
        let mut cursor = None;
        let _ = cache.probe(&dir, 0, RankOrder::Cheapest, 0, &mut cursor);
    }
}
