//! Trait-conformance suite for [`FederationDirectory`] implementations.
//!
//! Every check runs against **both** backends (`Ideal`, `Maan`) through
//! the same generic harness, so the directories cannot drift apart in ranking semantics, mutation behaviour (`subscribe` /
//! `unsubscribe` / `update_price`) or traced-query bookkeeping.  Backends
//! are allowed to differ only in the *message costs* they report — the
//! query-side charges and, for the distributed MAAN index, the publish-side
//! cost its routed put/remove/move mutations return.

use grid_directory::{AnyDirectory, DirectoryBackend, FederationDirectory, Quote, RankOrder};

const N: usize = 8;

fn quote(gfa: usize, mips: f64, price: f64) -> Quote {
    Quote {
        gfa,
        processors: 32 + 16 * gfa as u32,
        mips,
        bandwidth: 1.0 + gfa as f64 * 0.1,
        price,
    }
}

/// A fixed population with distinct prices and speeds.
fn population() -> Vec<Quote> {
    (0..N)
        .map(|i| quote(i, 500.0 + 37.0 * ((i * 5) % N) as f64, 1.0 + 0.7 * ((i * 3) % N) as f64))
        .collect()
}

fn populated(backend: DirectoryBackend) -> AnyDirectory {
    let mut dir = backend.build(N, 2_005);
    for q in population() {
        let _ = dir.subscribe(q);
    }
    dir
}

fn for_each_backend(check: impl Fn(DirectoryBackend, AnyDirectory)) {
    for backend in DirectoryBackend::ALL {
        check(backend, populated(backend));
    }
}

#[test]
fn rankings_agree_with_sorted_oracles() {
    for_each_backend(|backend, dir| {
        let mut by_price = population();
        by_price.sort_by(|a, b| a.price.total_cmp(&b.price).then(a.gfa.cmp(&b.gfa)));
        let mut by_speed = population();
        by_speed.sort_by(|a, b| b.mips.total_cmp(&a.mips).then(a.gfa.cmp(&b.gfa)));
        for r in 1..=N {
            assert_eq!(
                dir.query_ranked(0, RankOrder::Cheapest, r).quote.unwrap().gfa,
                by_price[r - 1].gfa,
                "{backend:?}: rank {r} cheapest"
            );
            assert_eq!(
                dir.query_ranked(0, RankOrder::Fastest, r).quote.unwrap().gfa,
                by_speed[r - 1].gfa,
                "{backend:?}: rank {r} fastest"
            );
        }
        assert!(dir.query_ranked(0, RankOrder::Cheapest, N + 1).quote.is_none());
        assert!(dir.query_ranked(0, RankOrder::Cheapest, 0).quote.is_none());
        assert_eq!(dir.len(), N);
        assert!(!dir.is_empty());
    });
}

#[test]
fn resubscription_overwrites_in_place() {
    for_each_backend(|backend, mut dir| {
        let mut q = quote(5, 9_999.0, 0.01);
        let _ = dir.subscribe(q);
        assert_eq!(dir.len(), N, "{backend:?}: republish must not grow the directory");
        assert_eq!(dir.query_ranked(0, RankOrder::Cheapest, 1).quote.unwrap().gfa, 5);
        assert_eq!(dir.query_ranked(0, RankOrder::Fastest, 1).quote.unwrap().gfa, 5);
        // Republish again with mid-range values: the old extreme quote is gone.
        q.mips = 1.0;
        q.price = 1_000.0;
        let _ = dir.subscribe(q);
        assert_eq!(dir.query_ranked(0, RankOrder::Cheapest, N).quote.unwrap().gfa, 5);
        assert_eq!(dir.query_ranked(0, RankOrder::Fastest, N).quote.unwrap().gfa, 5);
    });
}

#[test]
fn unsubscribe_removes_and_reranks() {
    for_each_backend(|backend, mut dir| {
        let cheapest = dir.query_ranked(0, RankOrder::Cheapest, 1).quote.unwrap().gfa;
        let _ = dir.unsubscribe(cheapest);
        assert_eq!(dir.len(), N - 1, "{backend:?}");
        assert_ne!(dir.query_ranked(0, RankOrder::Cheapest, 1).quote.unwrap().gfa, cheapest);
        assert!(dir.query_ranked(0, RankOrder::Cheapest, N).quote.is_none());
        // Unsubscribing an unknown GFA is a no-op.
        let _ = dir.unsubscribe(cheapest);
        assert_eq!(dir.len(), N - 1);
        // The departed GFA can rejoin.
        let _ = dir.subscribe(quote(cheapest, 600.0, 0.5));
        assert_eq!(dir.len(), N);
        assert_eq!(dir.query_ranked(0, RankOrder::Cheapest, 1).quote.unwrap().gfa, cheapest);
    });
}

#[test]
fn update_price_reranks_without_touching_speed() {
    for_each_backend(|backend, mut dir| {
        let fastest_before = dir.query_ranked(0, RankOrder::Fastest, 1).quote.unwrap().gfa;
        // The most expensive quote becomes the cheapest.
        let target = dir.query_ranked(0, RankOrder::Cheapest, N).quote.unwrap().gfa;
        let _ = dir.update_price(target, 0.001);
        let cheapest = dir.query_ranked(0, RankOrder::Cheapest, 1).quote.unwrap();
        assert_eq!(cheapest.gfa, target, "{backend:?}");
        assert_eq!(dir.query_ranked(0, RankOrder::Fastest, 1).quote.unwrap().gfa, fastest_before);
        // Updating an unknown GFA is a no-op.
        let _ = dir.update_price(999, 0.000_1);
        assert_eq!(dir.len(), N);
        assert_ne!(dir.query_ranked(0, RankOrder::Cheapest, 1).quote.unwrap().gfa, 999);
    });
}

#[test]
fn traced_queries_match_untraced_results_and_cost_messages() {
    for_each_backend(|backend, dir| {
        for origin in 0..N {
            for r in 1..=N {
                let cheap = dir.query_ranked(origin, RankOrder::Cheapest, r);
                let from_zero = dir.query_ranked(0, RankOrder::Cheapest, r);
                assert_eq!(cheap.quote, from_zero.quote, "{backend:?}");
                assert!(
                    cheap.messages >= 1,
                    "{backend:?}: a served query must cost at least one message"
                );
                let fast = dir.query_ranked(origin, RankOrder::Fastest, r);
                assert_eq!(fast.quote, dir.query_ranked(0, RankOrder::Fastest, r).quote);
                assert!(fast.messages >= 1);
            }
            // Rank 0 is answered locally, for free, on every backend.
            assert_eq!(dir.query_ranked(origin, RankOrder::Cheapest, 0).messages, 0);
            assert_eq!(dir.query_ranked(origin, RankOrder::Fastest, 0).quote, None);
        }
        assert!(dir.queries_served() > 0);
    });
}

#[test]
fn cursors_stream_what_per_rank_queries_answer() {
    for_each_backend(|backend, dir| {
        for order in RankOrder::ALL {
            for origin in [0usize, 3, N - 1] {
                let mut cursor = dir.open_cursor(origin, order);
                for r in 1..=N + 1 {
                    let streamed = dir.cursor_next(&mut cursor);
                    let fresh = dir.query_ranked(origin, order, r);
                    assert_eq!(streamed.quote, fresh.quote, "{backend:?} {order:?} rank {r}");
                    assert_eq!(
                        streamed.messages, fresh.messages,
                        "{backend:?} {order:?} rank {r}: cursor charges must equal the oracle's"
                    );
                }
            }
        }
    });
}

#[test]
fn every_mutation_kind_bumps_the_epoch_exactly_once() {
    for_each_backend(|backend, mut dir| {
        let e0 = dir.epoch();
        let _ = dir.update_price(1, 123.0);
        assert_eq!(dir.epoch(), e0 + 1, "{backend:?}");
        let _ = dir.unsubscribe(1);
        assert_eq!(dir.epoch(), e0 + 2, "{backend:?}");
        let _ = dir.subscribe(quote(1, 700.0, 2.0));
        assert_eq!(dir.epoch(), e0 + 3, "{backend:?}");
        // No-ops on unknown GFAs leave cursors and caches valid.
        let _ = dir.unsubscribe(77);
        let _ = dir.update_price(77, 1.0);
        assert_eq!(dir.epoch(), e0 + 3, "{backend:?}");
        // Queries never move the epoch.
        let _ = dir.query_ranked(0, RankOrder::Cheapest, 1);
        let mut cursor = dir.open_cursor(0, RankOrder::Fastest);
        let _ = dir.cursor_next(&mut cursor);
        assert_eq!(dir.epoch(), e0 + 3, "{backend:?}");
    });
}

#[test]
fn backends_resolve_identical_quotes_for_identical_mutations() {
    // Drive every backend through the same mutation script and assert the
    // rank data never diverges — the invariant the federation's differential
    // test relies on.  The ideal directory is the oracle.
    let mut ideal = populated(DirectoryBackend::Ideal);
    let mut maan = populated(DirectoryBackend::Maan);
    let script: Vec<(&str, usize, f64)> = vec![
        ("price", 2, 0.2),
        ("unsub", 4, 0.0),
        ("price", 7, 3.3),
        ("sub", 4, 0.0),
        ("unsub", 0, 0.0),
    ];
    for (op, gfa, value) in script {
        let apply = |dir: &mut AnyDirectory| match op {
            "price" => {
                let _ = dir.update_price(gfa, value);
            }
            "unsub" => {
                let _ = dir.unsubscribe(gfa);
            }
            "sub" => {
                let _ = dir.subscribe(quote(gfa, 777.0, 1.5));
            }
            _ => unreachable!(),
        };
        apply(&mut ideal);
        apply(&mut maan);
        assert_eq!(ideal.len(), maan.len());
        for r in 1..=ideal.len() + 1 {
            for order in RankOrder::ALL {
                assert_eq!(
                    ideal.query_ranked(0, order, r).quote,
                    maan.query_ranked(0, order, r).quote,
                    "{order:?} rank {r} after {op}({gfa})"
                );
            }
        }
    }
}

#[test]
fn publish_costs_are_zero_for_central_stores_and_routed_for_maan() {
    for backend in DirectoryBackend::ALL {
        let mut dir = backend.build(N, 2_005);
        let mut publish = 0u64;
        for q in population() {
            publish += dir.subscribe(q);
        }
        publish += dir.update_price(3, 9.1);
        publish += dir.unsubscribe(5);
        // No-ops are free everywhere.
        assert_eq!(dir.unsubscribe(42), 0, "{backend:?}");
        assert_eq!(dir.update_price(3, 9.1), 0, "{backend:?}: identical reprice is a no-op");
        match backend {
            DirectoryBackend::Maan => {
                assert!(
                    publish >= 2 * N as u64 + 2,
                    "{backend:?}: N publishes, a move and a withdrawal must route (got {publish})"
                );
            }
            DirectoryBackend::Ideal => {
                assert_eq!(publish, 0, "{backend:?}: the central store mutates for free");
            }
        }
    }
}

#[test]
fn maan_range_walks_cross_node_boundaries() {
    // The cost signature that distinguishes the distributed index from the
    // modelled one: some cursor advance past rank 1 must pay for a
    // node-boundary crossing (> 1 message), while the ideal backend charges
    // exactly 1 per advance.  The shared spread population (full
    // price/speed calibration range, 16 ring nodes) guarantees the keys
    // span several ownership arcs.
    let wide = 16usize;
    let harvest = |backend: DirectoryBackend| -> Vec<u64> {
        let mut dir = backend.build(wide, 2_005);
        for q in grid_directory::MaanDirectory::spread_population(wide) {
            let _ = dir.subscribe(q);
        }
        let mut cursor = dir.open_cursor(0, RankOrder::Cheapest);
        let _ = dir.cursor_next(&mut cursor);
        (2..=wide).map(|_| dir.cursor_next(&mut cursor).messages).collect()
    };
    assert!(
        harvest(DirectoryBackend::Ideal).iter().all(|&m| m == 1),
        "Ideal: modelled advances are exactly one message"
    );
    let maan = harvest(DirectoryBackend::Maan);
    assert!(maan.iter().all(|&m| m >= 1));
    assert!(
        maan.iter().any(|&m| m > 1),
        "Maan: a walk over distributed rank data must cross a node boundary (got {maan:?})"
    );
}
