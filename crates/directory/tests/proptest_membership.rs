//! Differential property tests for the incremental directory maintenance.
//!
//! The overlay patches its ring order and finger tables in place on every
//! membership change, and MAAN splices content writes into its walk index
//! instead of rebuilding it.  Random interleavings of writes (`subscribe`,
//! `update_price`, `unsubscribe`) and membership operations (graceful
//! departure, crash, join, stabilization, reactive repair) are driven
//! against MAAN (k ∈ {1, 3}), and after **every** operation:
//!
//! * (a) the ring order and every node's fingers — departed nodes'
//!   included — equal those of a from-scratch overlay with the same live
//!   set ([`ChordOverlay::rebuilt`]);
//! * (b) MAAN's spliced walk index equals a rebuild from its node stores;
//! * (c) every rank resolves to the same quote as the central ideal store
//!   driven through the same operations, except for lookups that fault on a
//!   crashed, not yet evicted node (which answer `None`).  Right after a
//!   stabilization round no crashed node is left, so nothing may fault.

use grid_directory::{FederationDirectory, IdealDirectory, MaanDirectory, Quote, RankOrder};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Subscribe { gfa: usize, mips: f64, price: f64 },
    Unsubscribe { gfa: usize },
    Reprice { gfa: usize, price: f64 },
    Depart { gfa: usize, graceful: bool },
    Join { gfa: usize },
    Stabilize,
    Repair,
}

const GFAS: usize = 10;

fn op() -> impl Strategy<Value = Op> {
    (
        0u32..12,
        0usize..GFAS,
        0.05f64..40.0,
        300.0f64..1_300.0,
        proptest::bool::ANY,
    )
        .prop_map(|(kind, gfa, price, mips, flag)| match kind {
            0 | 1 => Op::Subscribe { gfa, mips, price },
            2 => Op::Unsubscribe { gfa },
            3 | 4 => Op::Reprice { gfa, price },
            5 | 6 => Op::Depart {
                gfa,
                graceful: flag,
            },
            7 | 8 => Op::Join { gfa },
            9 | 10 => Op::Stabilize,
            _ => Op::Repair,
        })
}

fn quote(gfa: usize, mips: f64, price: f64) -> Quote {
    Quote {
        gfa,
        processors: 64,
        mips,
        bandwidth: 1.0,
        price,
    }
}

fn populated<D: FederationDirectory>(mut dir: D, k: usize) -> D {
    dir.set_replication(k);
    for gfa in 0..GFAS {
        let _ = dir.subscribe(quote(
            gfa,
            400.0 + 57.0 * ((gfa * 3) % GFAS) as f64,
            1.0 + 0.45 * ((gfa * 7) % GFAS) as f64,
        ));
    }
    dir
}

/// Applies `op` to `dir`.
fn apply(dir: &mut impl FederationDirectory, op: Op) {
    match op {
        Op::Subscribe { gfa, mips, price } => {
            let _ = dir.subscribe(quote(gfa, mips, price));
        }
        Op::Unsubscribe { gfa } => {
            let _ = dir.unsubscribe(gfa);
        }
        Op::Reprice { gfa, price } => {
            let _ = dir.update_price(gfa, price);
        }
        Op::Depart { gfa, graceful } => {
            let _ = dir.node_depart(gfa, graceful);
        }
        Op::Join { gfa } => {
            let _ = dir.node_join(gfa);
        }
        Op::Stabilize => {
            let _ = dir.stabilize();
        }
        Op::Repair => {
            let _ = dir.repair_faulted();
        }
    }
}

fn drive(k: usize, ops: &[Op]) {
    let mut dir = populated(MaanDirectory::new(GFAS, 0xCAFE), k);
    let mut ideal = populated(IdealDirectory::new(), k);
    for (step, op) in ops.iter().copied().enumerate() {
        // Like a GFA, a departed node does not publish until it rejoins
        // (the ideal store has no membership, so the overlay decides).
        if !matches!(op, Op::Subscribe { gfa, .. } if !dir.is_node_live(gfa)) {
            apply(&mut dir, op);
            apply(&mut ideal, op);
        }
        let ring = dir.overlay();
        prop_assert!(
            *ring == ring.rebuilt(),
            "k={} step {} ({:?}): patched routing state differs from a rebuild",
            k,
            step,
            op
        );
        prop_assert!(
            dir.walk_index_matches_stores(),
            "k={} step {} ({:?}): spliced walk index differs from a rebuild",
            k,
            step,
            op
        );
        prop_assert_eq!(dir.len(), ideal.len(), "step {}", step);
        for order in RankOrder::ALL {
            for r in 1..=GFAS + 1 {
                let got = dir.query_ranked(step % GFAS, order, r);
                let want = ideal.query_ranked(step % GFAS, order, r);
                if dir.take_fault() {
                    prop_assert!(
                        !matches!(op, Op::Stabilize),
                        "k={} step {}: {:?} rank {} faulted right after stabilization",
                        k,
                        step,
                        order,
                        r
                    );
                    prop_assert_eq!(got.quote, None);
                } else {
                    prop_assert_eq!(
                        got.quote,
                        want.quote,
                        "k={} step {} ({:?}): {:?} rank {} diverged from the ideal store",
                        k,
                        step,
                        op,
                        order,
                        r
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Unreplicated MAAN: patched routing, spliced walk index and resolved
    /// ranks all match their from-scratch references under churn.
    #[test]
    fn maan_k1_incremental_maintenance_matches_rebuild(ops in proptest::collection::vec(op(), 1..60)) {
        drive(1, &ops);
    }

    /// Replicated MAAN (k = 3): the same, with replica detours in play.
    #[test]
    fn maan_k3_incremental_maintenance_matches_rebuild(ops in proptest::collection::vec(op(), 1..60)) {
        drive(3, &ops);
    }

}
