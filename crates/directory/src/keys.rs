//! Locality-preserving key partitioning for the MAAN-style directory.
//!
//! MAAN (Cai et al., *MAAN: A Multi-Attribute Addressable Network for Grid
//! Information Services*) stores each attribute value under a
//! **locality-preserving hash**: a monotone map from the attribute's domain
//! onto the DHT's identifier ring, so that a range query can route once to
//! the start of the range and then walk successor nodes in key order.  This
//! module provides that map for the federation directory's two rank
//! attributes:
//!
//! * **price** (`c_i`, ranked ascending) occupies the lower half of the
//!   64-bit ring, `[0, 2^63)`;
//! * **speed** (`µ_i`, ranked *descending*) occupies the upper half,
//!   `[2^63, 2^64)`, with the map inverted so that faster clusters get
//!   *smaller* keys — walking the upper half-ring in key order yields the
//!   fastest-first ranking.
//!
//! Like MAAN itself, the hash is calibrated to an expected attribute domain
//! ([`PRICE_DOMAIN_MAX`], [`MIPS_DOMAIN_MAX`]); values outside the domain
//! clamp to the boundary bucket.  Clamping keeps the map monotone
//! (`v₁ < v₂ ⟹ K(v₁) ≤ K(v₂)`), which is all range-walking needs: equal
//! keys land on the same owner node, where the node-local store orders them
//! by the true attribute comparator.

use crate::quote::RankOrder;

/// Half of the 64-bit identifier space: the boundary between the price
/// partition (below) and the speed partition (above).
const HALF_RING: u64 = 1 << 63;

/// Upper calibration bound of the price domain (Grid Dollars).  The paper's
/// Table 1 prices fall in roughly `[3.5, 7.5]`; spreading `[0, 10]` over the
/// half-ring makes realistic populations span many ring nodes, so range
/// walks genuinely cross node boundaries.
pub const PRICE_DOMAIN_MAX: f64 = 10.0;

/// Upper calibration bound of the speed domain (per-processor MIPS; Table 1
/// spans 300–930).
pub const MIPS_DOMAIN_MAX: f64 = 2_000.0;

/// Monotone map of `v` (clamped to `[0, domain_max]`) onto `[0, 2^63)`.
fn scale_to_half_ring(v: f64, domain_max: f64) -> u64 {
    let t = (v / domain_max).clamp(0.0, 1.0);
    // `t * 2^63` is monotone in `t`; the `min` guards the `t == 1.0` case
    // from rounding up into the other attribute's partition.
    ((t * HALF_RING as f64) as u64).min(HALF_RING - 1)
}

/// Ring key of a price value: ascending price → ascending key, lower
/// half-ring.
#[must_use]
pub fn price_key(price: f64) -> u64 {
    scale_to_half_ring(price, PRICE_DOMAIN_MAX)
}

/// Ring key of a speed value: *descending* MIPS → ascending key, upper
/// half-ring (the fastest cluster owns the start of the walk).
#[must_use]
pub fn speed_key(mips: f64) -> u64 {
    HALF_RING + (HALF_RING - 1 - scale_to_half_ring(mips, MIPS_DOMAIN_MAX))
}

/// Where a range walk of `order` starts: the smallest key of the attribute's
/// partition.  A rank query routes here first, then walks successor
/// sub-ranges in key order.
#[must_use]
pub fn range_start_key(order: RankOrder) -> u64 {
    match order {
        RankOrder::Cheapest => 0,
        RankOrder::Fastest => HALF_RING,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_keys_are_monotone_and_stay_in_the_lower_half() {
        let mut last = 0u64;
        for i in 0..=1_000 {
            let price = i as f64 * 0.012; // 0 .. 12, past the domain max
            let key = price_key(price);
            assert!(key >= last, "price map must be monotone");
            assert!(key < HALF_RING, "price keys live in the lower half-ring");
            last = key;
        }
        // Out-of-domain values clamp to the boundary bucket.
        assert_eq!(price_key(PRICE_DOMAIN_MAX), price_key(40.0));
        assert_eq!(price_key(-3.0), price_key(0.0));
    }

    #[test]
    fn speed_keys_are_antitone_and_stay_in_the_upper_half() {
        let mut last = u64::MAX;
        for i in 0..=1_000 {
            let mips = i as f64 * 2.5; // 0 .. 2500, past the domain max
            let key = speed_key(mips);
            assert!(key <= last, "faster clusters must get smaller keys");
            assert!(key >= HALF_RING, "speed keys live in the upper half-ring");
            last = key;
        }
        assert_eq!(speed_key(MIPS_DOMAIN_MAX), speed_key(9_000.0));
    }

    #[test]
    fn partitions_do_not_overlap_and_walks_start_at_their_partition() {
        assert!(price_key(f64::MAX) < speed_key(f64::MAX));
        assert_eq!(range_start_key(RankOrder::Cheapest), 0);
        assert_eq!(range_start_key(RankOrder::Fastest), HALF_RING);
        assert!(price_key(3.0) >= range_start_key(RankOrder::Cheapest));
        assert!(speed_key(500.0) >= range_start_key(RankOrder::Fastest));
    }

    #[test]
    fn realistic_populations_spread_over_the_partition() {
        // The point of calibration: Table 1-like prices must not collapse
        // into one bucket (which would make every range walk single-node).
        let keys: Vec<u64> = [2.9, 3.6, 4.0, 4.8, 5.4, 6.1, 7.4]
            .iter()
            .map(|&p| price_key(p))
            .collect();
        for pair in keys.windows(2) {
            assert!(pair[1] > pair[0], "distinct prices must get distinct keys");
        }
        let span = keys[keys.len() - 1] - keys[0];
        assert!(
            span > HALF_RING / 4,
            "a realistic price population should span a sizeable arc of the partition"
        );
    }
}
