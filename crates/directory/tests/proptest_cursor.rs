//! Differential property tests: the cursor/cache path vs. the
//! query-per-rank oracle, and the distributed MAAN store vs. the ideal
//! oracle.
//!
//! Random interleavings of `subscribe` / `unsubscribe` / `update_price`
//! mutations and ranking queries are driven against two identically-built
//! directories per backend: one serves every probe through [`QuoteCache`] +
//! [`RankCursor`] (the DBC loop's fast path), the other executes the
//! paper's query-per-rank model literally.  Every probe must return a
//! **bit-identical** [`TracedQuote`] — same quote, same message charge — and
//! at the end of each case the two directories must be indistinguishable
//! through their public telemetry (queries served, routed-lookup averages).
//!
//! A second differential pits the MAAN backend against the ideal backend
//! over the same interleavings: quotes must come out bit-identical (the
//! distributed range index never diverges from the central store), while
//! MAAN's message charges are merely required to be well-formed (≥ 1 per
//! served rank) — the traffic model is exactly where backends may differ.

use std::collections::BTreeMap;

use grid_directory::{
    AnyDirectory, DirectoryBackend, FederationDirectory, QuoteCache, Quote, RankCursor, RankOrder,
};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Subscribe { gfa: usize, mips: f64, price: f64 },
    Unsubscribe { gfa: usize },
    Reprice { gfa: usize, price: f64 },
    /// One "job": probe ranks `1..=ranks` of `order` from `origin`, exactly
    /// like the DBC loop walks its candidates.
    Query { origin: usize, fastest: bool, ranks: usize },
}

const GFAS: usize = 10;

fn op() -> impl Strategy<Value = Op> {
    (0u32..10, 0usize..GFAS, 0.05f64..40.0, 300.0f64..1_300.0, proptest::bool::ANY, 1usize..=GFAS + 2)
        .prop_map(|(kind, gfa, price, mips, fastest, ranks)| match kind {
            0 | 1 => Op::Subscribe { gfa, mips, price },
            2 => Op::Unsubscribe { gfa },
            3 | 4 => Op::Reprice { gfa, price },
            _ => Op::Query { origin: gfa, fastest, ranks },
        })
}

fn populated(backend: DirectoryBackend) -> AnyDirectory {
    let mut dir = backend.build(GFAS, 0xCAFE);
    for gfa in 0..GFAS {
        let _ = dir.subscribe(Quote {
            gfa,
            processors: 64,
            mips: 400.0 + 57.0 * ((gfa * 3) % GFAS) as f64,
            bandwidth: 1.0,
            price: 1.0 + 0.45 * ((gfa * 7) % GFAS) as f64,
        });
    }
    dir
}

fn drive(backend: DirectoryBackend, ops: &[Op]) {
    let mut cached = populated(backend);
    let mut oracle = populated(backend);
    // One quote cache per origin GFA, exactly as the federation holds them.
    let mut caches: BTreeMap<usize, QuoteCache> = BTreeMap::new();
    for (step, op) in ops.iter().copied().enumerate() {
        match op {
            Op::Subscribe { gfa, mips, price } => {
                let q = Quote { gfa, processors: 64, mips, bandwidth: 1.0, price };
                let _ = cached.subscribe(q);
                let _ = oracle.subscribe(q);
            }
            Op::Unsubscribe { gfa } => {
                let _ = cached.unsubscribe(gfa);
                let _ = oracle.unsubscribe(gfa);
            }
            Op::Reprice { gfa, price } => {
                let _ = cached.update_price(gfa, price);
                let _ = oracle.update_price(gfa, price);
            }
            Op::Query { origin, fastest, ranks } => {
                let order = if fastest { RankOrder::Fastest } else { RankOrder::Cheapest };
                let cache = caches.entry(origin).or_default();
                let mut cursor: Option<RankCursor> = None;
                for r in 1..=ranks {
                    let got = cache.probe(&cached, origin, order, r, &mut cursor);
                    let want = oracle.query_ranked(origin, order, r);
                    prop_assert_eq!(
                        got,
                        want,
                        "{:?} step {}: origin {} {:?} rank {} diverged",
                        backend,
                        step,
                        origin,
                        order,
                        r
                    );
                }
            }
        }
        prop_assert_eq!(cached.len(), oracle.len());
    }
    // The replayed telemetry keeps the two directories indistinguishable.
    prop_assert_eq!(cached.queries_served(), oracle.queries_served(), "{:?}", backend);
    prop_assert_eq!(
        cached.average_route_messages().to_bits(),
        oracle.average_route_messages().to_bits(),
        "{:?}: routed-lookup telemetry diverged",
        backend
    );
}

/// Applies one mutation op to a directory (queries are handled by callers),
/// returning its publish-side message cost.
fn apply_mutation(dir: &mut AnyDirectory, op: Op) -> u64 {
    match op {
        Op::Subscribe { gfa, mips, price } => {
            dir.subscribe(Quote { gfa, processors: 64, mips, bandwidth: 1.0, price })
        }
        Op::Unsubscribe { gfa } => dir.unsubscribe(gfa),
        Op::Reprice { gfa, price } => dir.update_price(gfa, price),
        Op::Query { .. } => unreachable!("queries are driven by the caller"),
    }
}

/// The Maan-vs-Ideal differential: identical interleavings must resolve
/// identical quotes through the genuinely distributed store, with only the
/// message charges free to differ (MAAN's must still be well-formed: every
/// served rank costs at least one message, and rank-1 charges route).
fn drive_maan_vs_ideal(ops: &[Op]) {
    let mut maan = populated(DirectoryBackend::Maan);
    let mut ideal = populated(DirectoryBackend::Ideal);
    for (step, op) in ops.iter().copied().enumerate() {
        match op {
            Op::Query { origin, fastest, ranks } => {
                let order = if fastest { RankOrder::Fastest } else { RankOrder::Cheapest };
                for r in 1..=ranks {
                    let got = maan.query_ranked(origin, order, r);
                    let want = ideal.query_ranked(origin, order, r);
                    prop_assert_eq!(
                        got.quote,
                        want.quote,
                        "step {}: origin {} {:?} rank {}: distributed rank data diverged",
                        step,
                        origin,
                        order,
                        r
                    );
                    prop_assert!(
                        got.messages >= 1,
                        "step {}: a served MAAN query must cost at least one message",
                        step
                    );
                }
            }
            mutation => {
                let _ = apply_mutation(&mut maan, mutation);
                // The ideal store never charges publish traffic.
                prop_assert_eq!(apply_mutation(&mut ideal, mutation), 0);
            }
        }
        prop_assert_eq!(maan.len(), ideal.len());
        prop_assert_eq!(maan.is_empty(), ideal.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ideal backend: cursor-streamed rankings are bit-identical to the
    /// query-per-rank oracle under arbitrary mutation/query interleavings.
    #[test]
    fn ideal_cursor_path_matches_query_per_rank(ops in proptest::collection::vec(op(), 1..60)) {
        drive(DirectoryBackend::Ideal, &ops);
    }

    /// MAAN backend: the cursor/cache fast path is bit-identical to the
    /// query-per-rank oracle even though advances carry boundary-crossing
    /// charges and mutations splice the distributed walk index.
    #[test]
    fn maan_cursor_path_matches_query_per_rank(ops in proptest::collection::vec(op(), 1..60)) {
        drive(DirectoryBackend::Maan, &ops);
    }

    /// The distributed MAAN store resolves the same quotes as the central
    /// ideal store under arbitrary sub/unsub/reprice/query interleavings.
    #[test]
    fn maan_store_matches_ideal_store(ops in proptest::collection::vec(op(), 1..60)) {
        drive_maan_vs_ideal(&ops);
    }
}
