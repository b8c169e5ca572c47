//! Deterministic random number streams.
//!
//! A model run has one master seed from which independent, reproducible
//! sub-streams are derived (one per entity, one per workload generator, …);
//! the engine itself draws no random numbers.
//! Sub-streams are derived with SplitMix64 so that adding an entity never
//! perturbs the random numbers observed by existing entities — this keeps
//! experiment sweeps comparable across configurations.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A named, reproducible random stream.
///
/// Thin wrapper around [`StdRng`] that records the seed it was created from,
/// which is handy when persisting experiment provenance.
pub struct SimRng {
    seed: u64,
    inner: StdRng,
}

impl SimRng {
    /// Creates a stream directly from a 64-bit seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        SimRng {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent sub-stream identified by `stream_id`.
    ///
    /// The derivation is `splitmix64(master ^ golden * (stream_id + 1))`,
    /// giving well-separated seeds even for consecutive ids.
    #[must_use]
    pub fn derive(master_seed: u64, stream_id: u64) -> Self {
        let seed = splitmix64(
            master_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream_id.wrapping_add(1)),
        );
        SimRng::from_seed(seed)
    }

    /// The seed this stream was created from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Samples a uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Samples a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform_range requires lo <= hi ({lo} > {hi})");
        if lo == hi {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.uniform() < p
    }

    /// Exponentially distributed sample with the given `mean` (> 0).
    ///
    /// # Panics
    /// Panics if `mean` is not strictly positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be > 0, got {mean}");
        let u: f64 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

/// SplitMix64 step, used for seed derivation.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_given_same_seed() {
        let mut a = SimRng::from_seed(123);
        let mut b = SimRng::from_seed(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derived_streams_are_independent_of_each_other() {
        let mut s0 = SimRng::derive(7, 0);
        let mut s1 = SimRng::derive(7, 1);
        let a: Vec<u64> = (0..16).map(|_| s0.next_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| s1.next_u64()).collect();
        assert_ne!(a, b);
        // Re-deriving stream 0 replays exactly the same sequence.
        let mut s0_again = SimRng::derive(7, 0);
        let a2: Vec<u64> = (0..16).map(|_| s0_again.next_u64()).collect();
        assert_eq!(a, a2);
    }

    /// Regression test for the determinism contract in the module docs: two
    /// streams built from the same seed replay bit-identical sequences
    /// across every sampling method, not just `next_u64`.
    #[test]
    fn from_seed_streams_are_bitwise_identical() {
        let mut a = SimRng::from_seed(0xDEAD_BEEF);
        let mut b = SimRng::from_seed(0xDEAD_BEEF);
        for _ in 0..256 {
            assert_eq!(a.next_u32(), b.next_u32());
            assert_eq!(a.next_u64(), b.next_u64());
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
            assert_eq!(
                a.uniform_range(1.5, 9.5).to_bits(),
                b.uniform_range(1.5, 9.5).to_bits()
            );
            assert_eq!(a.bernoulli(0.37), b.bernoulli(0.37));
            assert_eq!(a.exponential(4.0).to_bits(), b.exponential(4.0).to_bits());
        }
    }

    /// Regression test for the second half of the contract: sub-stream
    /// derivation is a pure function of `(master_seed, stream_id)`, so
    /// *adding an entity never perturbs existing entities* — deriving more
    /// streams, in any order, must not change what earlier streams observe.
    #[test]
    fn substream_derivation_is_order_independent() {
        let master = 0xFEED_F00D_0123_4567;
        let draw = |rng: &mut SimRng| -> Vec<u64> { (0..64).map(|_| rng.next_u64()).collect() };

        // Baseline: streams 0..3 derived in ascending order, nothing else.
        let baseline: Vec<Vec<u64>> = (0..3)
            .map(|id| draw(&mut SimRng::derive(master, id)))
            .collect();

        // Simulate "adding entities": derive and consume five extra streams
        // first, then re-derive 0..3 in *descending* order.
        for id in (3..8).rev() {
            let mut extra = SimRng::derive(master, id);
            let _ = draw(&mut extra);
        }
        let mut replay: Vec<Vec<u64>> = (0..3)
            .rev()
            .map(|id| draw(&mut SimRng::derive(master, id)))
            .collect();
        replay.reverse();

        assert_eq!(
            baseline, replay,
            "existing sub-streams were perturbed by deriving additional streams"
        );
        // Seeds are recorded per derived stream and stable, too.
        assert_eq!(
            SimRng::derive(master, 2).seed(),
            SimRng::derive(master, 2).seed()
        );
    }

    #[test]
    fn uniform_range_bounds() {
        let mut r = SimRng::from_seed(1);
        for _ in 0..1000 {
            let v = r.uniform_range(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
        }
        assert_eq!(r.uniform_range(3.0, 3.0), 3.0);
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut r = SimRng::from_seed(3);
        let n = 50_000;
        let mean_target = 10.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean_target)).sum();
        let mean = sum / n as f64;
        assert!((mean - mean_target).abs() < 0.5, "sample mean {mean}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = SimRng::from_seed(4);
        assert!(!(0..100).any(|_| r.bernoulli(0.0)));
        assert!((0..100).all(|_| r.bernoulli(1.0)));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!((0..100).all(|_| r.bernoulli(2.0)));
    }

    #[test]
    fn seed_is_recorded() {
        assert_eq!(SimRng::from_seed(99).seed(), 99);
    }

    #[test]
    fn splitmix_is_not_identity() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
