//! Ablation benchmarks for the simulator's design choices:
//!
//! * `ablation_backfilling` — FCFS vs. EASY backfilling local schedulers,
//! * `ablation_directory` — idealised `⌈log₂ n⌉` directory cost vs. measured
//!   Chord overlay hops,
//! * `ablation_charging` — per-CPU-second (literal Eq. 4) vs. per-1000-MI
//!   charging.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use grid_bench::tiny_options;
use grid_directory::{ChordOverlay, FederationDirectory, IdealDirectory, Quote, RankOrder};
use grid_experiments::workloads::paper_workloads;
use grid_federation_core::federation::{
    run_federation, FederationConfig, LrmsKind, SchedulingMode,
};
use grid_federation_core::ChargingPolicy;
use grid_workload::PopulationProfile;

fn ablation_backfilling(c: &mut Criterion) {
    let options = tiny_options();
    let mut group = c.benchmark_group("ablation_backfilling");
    group.sample_size(10);
    for (label, lrms) in [
        ("fcfs", LrmsKind::SpaceSharedFcfs),
        ("easy_backfilling", LrmsKind::EasyBackfilling),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let setup = paper_workloads(PopulationProfile::recommended(), &options);
                let report = run_federation(
                    setup.resources,
                    setup.workloads,
                    FederationConfig {
                        lrms,
                        ..FederationConfig::with_mode(SchedulingMode::Economy)
                    },
                );
                black_box((report.mean_acceptance_rate(), report.mean_utilization_percent()))
            })
        });
    }
    group.finish();
}

fn ablation_directory(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_directory");
    for n in [8usize, 32, 128] {
        let quotes: Vec<Quote> = (0..n)
            .map(|i| Quote {
                gfa: i,
                processors: 64,
                mips: 500.0 + i as f64,
                bandwidth: 1.0,
                price: 2.0 + i as f64 * 0.01,
            })
            .collect();
        let ideal = IdealDirectory::with_quotes(quotes.clone());
        let overlay = ChordOverlay::new(n, 11);
        group.bench_with_input(BenchmarkId::new("ideal_kth_query", n), &n, |b, &n| {
            b.iter(|| {
                let mut acc = 0u64;
                for r in 1..=n {
                    let quote = ideal.query_ranked(0, RankOrder::Cheapest, r).quote;
                    acc += quote.map(|q| q.gfa as u64).unwrap_or(0);
                    acc += ideal.query_message_cost();
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("chord_lookup", n), &n, |b, &n| {
            b.iter(|| black_box(overlay.average_lookup_hops(n, 17)))
        });
    }
    group.finish();
}

fn ablation_charging(c: &mut Criterion) {
    let options = tiny_options();
    let mut group = c.benchmark_group("ablation_charging");
    group.sample_size(10);
    for (label, policy) in [
        ("per_cpu_second", ChargingPolicy::PerCpuSecond),
        ("per_kilo_mi", ChargingPolicy::PerKiloMi),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let setup = paper_workloads(PopulationProfile::new(100), &options);
                let report = run_federation(
                    setup.resources,
                    setup.workloads,
                    FederationConfig {
                        charging: policy,
                        ..FederationConfig::with_mode(SchedulingMode::Economy)
                    },
                );
                black_box(report.total_incentive())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ablation_backfilling,
    ablation_directory,
    ablation_charging
);
criterion_main!(benches);
