//! # grid-bench — shared helpers for the Criterion benchmark harness
//!
//! The actual benchmarks live in `benches/`:
//!
//! * `ablations` — design-choice ablations (LRMS policy, directory
//!   implementation, charging policy),
//! * `micro` — microbenchmarks of the substrates (event queue, LRMS,
//!   directory, workload generator).
//!
//! Benchmarks use the reduced [`tiny_options`] workload so a full
//! `cargo bench` pass stays short; whole federation runs are timed by
//! `bench_perf` and `perfbench`, not here.

use grid_directory::{AnyDirectory, DirectoryBackend, FederationDirectory, Quote};
use grid_experiments::workloads::WorkloadOptions;

/// The directory population both `bench_perf`'s tracked `directory` section
/// and the `micro` bench group measure: `n` distinct-priced, distinct-speed
/// quotes on a fixed seed.  Shared so the per-commit smoke view and the
/// tracked baseline can never drift onto different workloads.
#[must_use]
pub fn populated_directory(backend: DirectoryBackend, n: usize) -> AnyDirectory {
    let mut dir = backend.build(n, 0xD1CE);
    for gfa in 0..n {
        let _ = dir.subscribe(population_quote(gfa, n));
    }
    dir
}

/// GFA `gfa`'s quote in the [`populated_directory`] population of `n`
/// (what a rejoining GFA republishes in the membership benches).
#[must_use]
pub fn population_quote(gfa: usize, n: usize) -> Quote {
    Quote {
        gfa,
        processors: 128,
        mips: 400.0 + 9.0 * ((gfa * 13) % n) as f64,
        bandwidth: 1.0 + (gfa % 4) as f64,
        price: 1.0 + 0.07 * ((gfa * 7) % n) as f64,
    }
}

/// A configuration smaller than `WorkloadOptions::quick` for the
/// per-iteration benches that run many times inside Criterion's
/// measurement loop.
#[must_use]
pub fn tiny_options() -> WorkloadOptions {
    WorkloadOptions {
        duration: 21_600.0,
        job_scale: 0.1,
        ..WorkloadOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_directory::RankOrder;

    #[test]
    fn options_are_reduced() {
        let quick = WorkloadOptions::quick();
        assert!(quick.job_scale < 1.0);
        assert!(tiny_options().job_scale < quick.job_scale);
        assert!(tiny_options().duration < quick.duration);
    }

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
