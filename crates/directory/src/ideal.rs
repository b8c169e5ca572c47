//! The idealised federation directory used by the experiments.
//!
//! Quotes are kept in two rank orders (by price and by speed) that are
//! maintained eagerly across mutations.  Queries are exact and deterministic; the
//! *modelled* message cost of a query is `⌈log₂ n⌉`, matching the paper's
//! assumption of an efficient P2P directory ("we assume the query process is
//! optimal, i.e. that it takes O(log n) messages to query the directory").

use std::cell::Cell;

use crate::cursor::RankCursor;
use crate::quote::{FederationDirectory, Quote, RankOrder, TracedQuote};

/// Exact, centrally-computed directory with an `O(log n)` message-cost model.
#[derive(Debug, Default)]
pub struct IdealDirectory {
    quotes: Vec<Quote>,
    by_price: Vec<usize>,
    by_speed: Vec<usize>,
    /// Content epoch: bumped by every mutation so open cursors and GFA-side
    /// quote caches can detect staleness (see [`FederationDirectory::epoch`]).
    epoch: u64,
    queries: Cell<u64>,
    /// Routed (rank-1) lookups served and the messages actually charged for
    /// them — the modelled cost can change mid-run when (un)subscriptions
    /// resize the directory, so the average must track what was charged.
    routes: Cell<u64>,
    route_messages: Cell<u64>,
}

impl IdealDirectory {
    /// Creates an empty directory.
    #[must_use]
    pub fn new() -> Self {
        IdealDirectory::default()
    }

    /// Creates a directory pre-populated with quotes.
    #[must_use]
    pub fn with_quotes(quotes: impl IntoIterator<Item = Quote>) -> Self {
        let mut dir = IdealDirectory::new();
        for q in quotes {
            let _ = dir.subscribe(q);
        }
        dir
    }

    /// Corrupting test double: rewinds the content epoch to zero without
    /// touching the quote store, emulating a backend that forgets
    /// mutations.  Only exists so the invariant tests can prove the epoch
    /// monotonicity check fires.
    #[cfg(feature = "invariants")]
    pub fn corrupt_epoch_rewind(&mut self) {
        self.epoch = 0;
    }

    /// Re-sorts both rank orders from the quote store (after a subscribe or
    /// unsubscribe; a reprice repositions one entry instead).
    fn rebuild_orders(&mut self) {
        self.by_price = (0..self.quotes.len()).collect();
        self.by_price.sort_by(|&a, &b| {
            self.quotes[a]
                .price
                .total_cmp(&self.quotes[b].price)
                .then_with(|| self.quotes[a].gfa.cmp(&self.quotes[b].gfa))
        });
        self.by_speed = (0..self.quotes.len()).collect();
        self.by_speed.sort_by(|&a, &b| {
            self.quotes[b]
                .mips
                .total_cmp(&self.quotes[a].mips)
                .then_with(|| self.quotes[a].gfa.cmp(&self.quotes[b].gfa))
        });
    }

    /// All quotes currently subscribed, in subscription order.
    #[must_use]
    pub fn quotes(&self) -> &[Quote] {
        &self.quotes
    }

    /// Resolves the `r`-th quote of `order`, counting the served query
    /// (rank 0 is answered locally and not counted).  O(1): both rank
    /// orders are maintained across mutations.
    #[inline]
    fn resolve_ranked(&self, order: RankOrder, r: usize) -> Option<Quote> {
        if r == 0 {
            return None;
        }
        self.queries.set(self.queries.get() + 1);
        let index = match order {
            RankOrder::Cheapest => &self.by_price,
            RankOrder::Fastest => &self.by_speed,
        };
        index.get(r - 1).map(|&i| self.quotes[i])
    }

    /// The single place rank-dependent charges are applied, so the oracle
    /// path, the cursor path and cache replays cannot drift apart: rank 1
    /// charges `route_messages()` (lazily, so cheap advances never price a
    /// route) and records the routed lookup; every higher rank is one
    /// cursor-advance message.  Rank 0 must be short-circuited by callers.
    #[inline]
    fn charge_ranked(&self, r: usize, route_messages: impl FnOnce() -> u64) -> u64 {
        debug_assert!(r >= 1, "rank 0 is answered locally and never charged");
        if r == 1 {
            let cost = route_messages();
            self.routes.set(self.routes.get() + 1);
            self.route_messages.set(self.route_messages.get() + cost);
            cost
        } else {
            1
        }
    }

    /// Charges one query under the modelled range-query costs: rank 1 routes
    /// (`⌈log₂ n⌉` at the directory's *current* size), higher ranks advance
    /// the cursor one message, rank 0 is answered locally for free.
    fn charge_query(&self, r: usize) -> u64 {
        if r == 0 {
            0
        } else {
            self.charge_ranked(r, || self.query_message_cost())
        }
    }

    /// The number of messages one *routed* ranking lookup (rank-1 cursor
    /// establishment) is modelled to cost: `⌈log₂ n⌉` at the directory's
    /// current size, at least one — the paper's `O(log n)` assumption.
    #[must_use]
    pub fn query_message_cost(&self) -> u64 {
        let n = self.quotes.len().max(1) as f64;
        n.log2().ceil().max(1.0) as u64
    }

    /// Average messages charged per *routed* (rank-1) lookup so far.  Equals
    /// `⌈log₂ n⌉` while the directory size is stable, and the charge-weighted
    /// average when (un)subscriptions resized it mid-run.
    #[must_use]
    pub fn average_route_messages(&self) -> f64 {
        let routes = self.routes.get();
        if routes == 0 {
            0.0
        } else {
            self.route_messages.get() as f64 / routes as f64
        }
    }
}

impl FederationDirectory for IdealDirectory {
    // The mutators return the publish-side message cost; the ideal model
    // keeps the quote store central, so every mutation is free (0).

    fn subscribe(&mut self, quote: Quote) -> u64 {
        if let Some(existing) = self.quotes.iter_mut().find(|q| q.gfa == quote.gfa) {
            *existing = quote;
        } else {
            self.quotes.push(quote);
        }
        self.rebuild_orders();
        self.epoch += 1;
        0
    }

    fn unsubscribe(&mut self, gfa: usize) -> u64 {
        let before = self.quotes.len();
        self.quotes.retain(|q| q.gfa != gfa);
        if self.quotes.len() == before {
            return 0; // unknown GFA: nothing changed, keep caches valid
        }
        self.rebuild_orders();
        self.epoch += 1;
        0
    }

    fn update_price(&mut self, gfa: usize, price: f64) -> u64 {
        let Some(qi) = self.quotes.iter().position(|q| q.gfa == gfa) else {
            return 0;
        };
        let old_price = self.quotes[qi].price;
        if old_price.to_bits() == price.to_bits() {
            // Repricing to the identical price changes nothing observable:
            // skip the reposition *and* the epoch bump, so open cursors and
            // GFA quote caches across the whole federation stay valid.
            return 0;
        }
        // Single reposition in the price order — the speed order does not
        // depend on the price and is left untouched.  Locate the entry under
        // its old (price, gfa) key, then re-insert under the new one; since
        // keys are unique the result is exactly what a full re-sort gives.
        let pos = self
            .by_price
            .binary_search_by(|&i| {
                self.quotes[i]
                    .price
                    .total_cmp(&old_price)
                    .then_with(|| self.quotes[i].gfa.cmp(&gfa))
            })
            .expect("a subscribed quote is present in the price order");
        debug_assert_eq!(self.by_price[pos], qi);
        self.quotes[qi].price = price;
        self.by_price.remove(pos);
        let insert_at = self
            .by_price
            .binary_search_by(|&i| {
                self.quotes[i]
                    .price
                    .total_cmp(&price)
                    .then_with(|| self.quotes[i].gfa.cmp(&gfa))
            })
            .unwrap_or_else(|pos| pos);
        self.by_price.insert(insert_at, qi);
        self.epoch += 1;
        0
    }

    fn query_ranked(&self, _origin: usize, order: RankOrder, r: usize) -> TracedQuote {
        TracedQuote {
            quote: self.resolve_ranked(order, r),
            messages: self.charge_query(r),
        }
    }

    fn len(&self) -> usize {
        self.quotes.len()
    }

    fn queries_served(&self) -> u64 {
        self.queries.get()
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn open_cursor(&self, origin: usize, order: RankOrder) -> RankCursor {
        // Under the ideal model the routed lookup is pure bookkeeping: the
        // cursor captures the `⌈log₂ n⌉` charge of reaching the head of the
        // range index at the current size.
        RankCursor::opened(origin, order, self.epoch, self.query_message_cost())
    }

    #[inline]
    fn cursor_next(&self, cursor: &mut RankCursor) -> TracedQuote {
        if cursor.epoch != self.epoch {
            // Lazy revalidation: positional reads below already see the
            // rebuilt ranking; a cursor that has not yielded its head yet
            // re-prices the pending route at the current directory size,
            // exactly like a fresh rank-1 query would be charged.
            if cursor.yielded == 0 {
                cursor.route_messages = self.query_message_cost();
            }
            cursor.epoch = self.epoch;
        }
        cursor.yielded += 1;
        let r = cursor.yielded;
        let quote = self.resolve_ranked(cursor.order, r);
        let messages = self.charge_ranked(r, || cursor.route_messages);
        TracedQuote { quote, messages }
    }

    #[inline]
    fn note_replayed_query(&self, _origin: usize, _order: RankOrder, r: usize, route_messages: u64) {
        if r == 0 {
            return;
        }
        self.queries.set(self.queries.get() + 1);
        let _ = self.charge_ranked(r, || route_messages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_cluster::paper_resources;

    fn paper_directory() -> IdealDirectory {
        IdealDirectory::with_quotes(
            paper_resources()
                .iter()
                .enumerate()
                .map(|(i, r)| Quote::from_spec(i, &r.spec)),
        )
    }

    #[test]
    fn cheapest_and_fastest_rankings_match_table1() {
        let dir = paper_directory();
        assert_eq!(dir.len(), 8);
        assert!(!dir.is_empty());
        // Cheapest: LANL Origin (3.59), then LANL CM5 (3.98).
        assert_eq!(dir.query_ranked(0, RankOrder::Cheapest, 1).quote.unwrap().gfa, 3);
        assert_eq!(dir.query_ranked(0, RankOrder::Cheapest, 2).quote.unwrap().gfa, 2);
        // Fastest: NASA iPSC (930), then SDSC SP2 (920), then KTH SP2 (900).
        assert_eq!(dir.query_ranked(0, RankOrder::Fastest, 1).quote.unwrap().gfa, 4);
        assert_eq!(dir.query_ranked(0, RankOrder::Fastest, 2).quote.unwrap().gfa, 7);
        assert_eq!(dir.query_ranked(0, RankOrder::Fastest, 3).quote.unwrap().gfa, 1);
        // Rank past the end → None; rank 0 is invalid → None.
        assert!(dir.query_ranked(0, RankOrder::Cheapest, 9).quote.is_none());
        assert!(dir.query_ranked(0, RankOrder::Cheapest, 0).quote.is_none());
    }

    #[test]
    fn rankings_agree_with_a_sorted_oracle() {
        let dir = paper_directory();
        let mut prices: Vec<f64> = dir.quotes().iter().map(|q| q.price).collect();
        prices.sort_by(f64::total_cmp);
        for (i, price) in prices.iter().enumerate() {
            let got = dir.query_ranked(0, RankOrder::Cheapest, i + 1).quote.unwrap();
            assert_eq!(got.price, *price);
        }
        let mut speeds: Vec<f64> = dir.quotes().iter().map(|q| q.mips).collect();
        speeds.sort_by(|a, b| b.total_cmp(a));
        for (i, mips) in speeds.iter().enumerate() {
            assert_eq!(dir.query_ranked(0, RankOrder::Fastest, i + 1).quote.unwrap().mips, *mips);
        }
    }

    #[test]
    fn resubscription_overwrites_and_unsubscribe_removes() {
        let mut dir = paper_directory();
        // Make GFA 0 the cheapest by republishing with a lower price.
        let mut q = *dir.quotes().iter().find(|q| q.gfa == 0).unwrap();
        q.price = 1.0;
        let _ = dir.subscribe(q);
        assert_eq!(dir.len(), 8);
        assert_eq!(dir.query_ranked(0, RankOrder::Cheapest, 1).quote.unwrap().gfa, 0);
        let _ = dir.unsubscribe(0);
        assert_eq!(dir.len(), 7);
        assert_ne!(dir.query_ranked(0, RankOrder::Cheapest, 1).quote.unwrap().gfa, 0);
    }

    #[test]
    fn update_price_rebuilds_ranking() {
        let mut dir = paper_directory();
        let _ = dir.update_price(1, 0.5);
        assert_eq!(dir.query_ranked(0, RankOrder::Cheapest, 1).quote.unwrap().gfa, 1);
        // Updating an unknown GFA is a no-op.
        let _ = dir.update_price(99, 0.1);
        assert_eq!(dir.len(), 8);
    }

    #[test]
    fn incremental_reposition_agrees_with_a_sorted_oracle() {
        // `update_price` repositions a single entry instead of re-sorting;
        // drive it through a deterministic storm of repricings (including
        // ties, extremes and no-op prices) and assert the streamed ranking
        // always equals a freshly sorted oracle.
        let mut dir = paper_directory();
        for step in 0..200usize {
            let gfa = (step * 5) % 8;
            let price = match step % 5 {
                0 => 0.01 + step as f64 * 0.003,       // migrate to the front
                1 => 50.0 - step as f64 * 0.1,         // migrate to the back
                2 => 3.59,                             // collide with LANL Origin
                3 => dir.quotes()[gfa.min(dir.len() - 1)].price, // no-op reprice
                _ => 2.0 + ((step * 7) % 11) as f64 * 0.25,
            };
            let _ = dir.update_price(gfa, price);
            let mut oracle: Vec<(f64, usize)> =
                dir.quotes().iter().map(|q| (q.price, q.gfa)).collect();
            oracle.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for (i, (price, gfa)) in oracle.iter().enumerate() {
                let got = dir.query_ranked(0, RankOrder::Cheapest, i + 1).quote.unwrap();
                assert_eq!(
                    (got.price.to_bits(), got.gfa),
                    (price.to_bits(), *gfa),
                    "step {step}: rank {} diverged from the sorted oracle",
                    i + 1
                );
            }
            // The speed ranking is untouched by repricings.
            assert_eq!(dir.query_ranked(0, RankOrder::Fastest, 1).quote.unwrap().gfa, 4);
        }
    }

    #[test]
    fn epoch_tracks_content_mutations_only() {
        let mut dir = paper_directory();
        let e0 = dir.epoch();
        // Queries do not move the epoch.
        let _ = dir.query_ranked(0, RankOrder::Cheapest, 3).quote;
        assert_eq!(dir.epoch(), e0);
        // Mutations do.
        let _ = dir.update_price(2, 9.9);
        assert_eq!(dir.epoch(), e0 + 1);
        let _ = dir.unsubscribe(2);
        assert_eq!(dir.epoch(), e0 + 2);
        let _ = dir.subscribe(Quote { gfa: 2, processors: 8, mips: 500.0, bandwidth: 1.0, price: 2.0 });
        assert_eq!(dir.epoch(), e0 + 3);
        // No-op mutations (unknown GFA, unchanged price) leave caches valid.
        let _ = dir.unsubscribe(99);
        let _ = dir.update_price(99, 1.0);
        let current = dir.query_ranked(0, RankOrder::Cheapest, 4).quote.unwrap();
        let _ = dir.update_price(current.gfa, current.price);
        assert_eq!(dir.epoch(), e0 + 3);
        assert_eq!(dir.query_ranked(0, RankOrder::Cheapest, 4).quote.unwrap().gfa, current.gfa);
    }

    #[test]
    fn query_cost_is_log2_of_size() {
        let dir = paper_directory();
        assert_eq!(dir.query_message_cost(), 3); // ceil(log2(8))
        let mut small = IdealDirectory::new();
        let _ = small.subscribe(Quote {
            gfa: 0,
            processors: 1,
            mips: 1.0,
            bandwidth: 1.0,
            price: 1.0,
        });
        assert_eq!(small.query_message_cost(), 1);
        let big = IdealDirectory::with_quotes((0..50).map(|i| Quote {
            gfa: i,
            processors: 1,
            mips: 1.0 + i as f64,
            bandwidth: 1.0,
            price: 1.0 + i as f64,
        }));
        assert_eq!(big.query_message_cost(), 6); // ceil(log2(50))
    }

    #[test]
    fn route_average_tracks_charges_across_resizes() {
        let dir = paper_directory();
        assert_eq!(dir.average_route_messages(), 0.0); // nothing routed yet
        let head = dir.query_ranked(0, RankOrder::Cheapest, 1);
        assert_eq!(head.messages, 3); // ⌈log₂ 8⌉
        assert_eq!(dir.query_ranked(0, RankOrder::Cheapest, 2).messages, 1); // cursor advance
        assert_eq!(dir.query_ranked(0, RankOrder::Cheapest, 0).messages, 0);
        assert_eq!(dir.average_route_messages(), 3.0);
        // Shrinking the directory mid-run changes the cost of *future*
        // routes; the average reflects what was actually charged.
        let mut dir = dir;
        for gfa in 4..8 {
            let _ = dir.unsubscribe(gfa);
        }
        assert_eq!(dir.query_message_cost(), 2); // ⌈log₂ 4⌉
        assert_eq!(dir.query_ranked(0, RankOrder::Fastest, 1).messages, 2);
        assert!((dir.average_route_messages() - 2.5).abs() < 1e-12); // (3+2)/2
    }

    #[test]
    fn queries_are_counted() {
        let dir = paper_directory();
        assert_eq!(dir.queries_served(), 0);
        let _ = dir.query_ranked(0, RankOrder::Cheapest, 1).quote;
        let _ = dir.query_ranked(0, RankOrder::Fastest, 2).quote;
        let _ = dir.query_ranked(0, RankOrder::Fastest, 0).quote; // invalid rank: not counted
        assert_eq!(dir.queries_served(), 2);
    }

    #[test]
    fn ties_are_broken_by_gfa_index() {
        let dir = IdealDirectory::with_quotes((0..4).map(|i| Quote {
            gfa: 3 - i, // subscribe in reverse order
            processors: 8,
            mips: 500.0,
            bandwidth: 1.0,
            price: 2.5,
        }));
        for order in RankOrder::ALL {
            let ranked: Vec<usize> =
                (1..=4).map(|r| dir.query_ranked(0, order, r).quote.unwrap().gfa).collect();
            assert_eq!(ranked, vec![0, 1, 2, 3], "{order:?}");
        }
    }
}
