//! # grid-bench — the tracked micro-benchmark baseline
//!
//! Two binaries: `bench_perf` times the simulator's hot kernels (event
//! queue, engine dispatch, admission-control estimator, directory cursor,
//! workload generation) and writes `BENCH_perf.json`; `perf_gate` compares
//! the medians of several such measurements against the committed
//! baseline.  Whole federation runs are timed by `perfbench/`, not here.

use grid_directory::{AnyDirectory, DirectoryBackend, FederationDirectory, Quote};

/// The directory population `bench_perf`'s `directory` section measures:
/// `n` distinct-priced, distinct-speed quotes on a fixed seed.
#[must_use]
pub fn populated_directory(backend: DirectoryBackend, n: usize) -> AnyDirectory {
    let mut dir = backend.build(n, 0xD1CE);
    for gfa in 0..n {
        let _ = dir.subscribe(bench_quote(gfa, n));
    }
    dir
}

/// The quote GFA `gfa` publishes in [`populated_directory`] of size `n`.
#[must_use]
pub fn bench_quote(gfa: usize, n: usize) -> Quote {
    Quote {
        gfa,
        processors: 128,
        mips: 400.0 + 9.0 * ((gfa * 13) % n) as f64,
        bandwidth: 1.0 + (gfa % 4) as f64,
        price: 1.0 + 0.07 * ((gfa * 7) % n) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_directory::RankOrder;

    #[test]
    fn bench_directory_population_is_full_and_distinct() {
        for backend in DirectoryBackend::ALL {
            let dir = populated_directory(backend, 50);
            assert_eq!(dir.len(), 50);
            // Distinct prices and speeds, so every rank is unambiguous.
            let cheapest = dir.query_ranked(0, RankOrder::Cheapest, 1).quote.unwrap();
            let second = dir.query_ranked(0, RankOrder::Cheapest, 2).quote.unwrap();
            assert!(cheapest.price < second.price);
        }
    }
}
