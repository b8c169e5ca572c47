//! Churn-model coverage: the zero-churn differential (an *inactive*
//! [`ChurnConfig`] must be indistinguishable, digest for digest, from no
//! churn config at all), determinism of the seeded failure process, and the
//! headline robustness claim — k-replicated MAAN entries keep ranking
//! lookups ≥ 99% successful under moderate churn, while k = 1 under pure
//! crashes visibly degrades and exercises the retry/fallback path.

use grid_cluster::ResourceSpec;
use grid_federation_core::{
    run_federation, ChurnConfig, Counter, DirectoryBackend, FederationConfig, FederationReport,
    SchedulingMode,
};
use grid_workload::{Job, JobId, Strategy, UserId};
use proptest::prelude::*;

const GFAS: usize = 6;
const DURATION: f64 = 50_000.0;

fn resources() -> Vec<ResourceSpec> {
    (0..GFAS)
        .map(|i| {
            ResourceSpec::new(
                "cluster",
                32,
                500.0 + 100.0 * i as f64,
                1.0 + 0.5 * i as f64,
                2.0,
            )
        })
        .collect()
}

/// A deterministic workload: every GFA submits a job every 1 250 seconds,
/// alternating OFC/OFT, so ranking queries keep arriving throughout the
/// churn horizon.
fn workloads() -> Vec<Vec<Job>> {
    (0..GFAS)
        .map(|origin| {
            (0..40)
                .map(|seq| {
                    let submit = 10.0 + 1_250.0 * seq as f64 + 17.0 * origin as f64;
                    let mips = 500.0 + 100.0 * origin as f64;
                    let mut job = Job::from_runtime(
                        JobId { origin, seq },
                        UserId { origin, local: seq % 4 },
                        submit,
                        4,
                        300.0,
                        mips,
                        0.10,
                    );
                    job.qos.strategy = if seq % 2 == 0 { Strategy::Ofc } else { Strategy::Oft };
                    job
                })
                .collect()
        })
        .collect()
}

fn run(backend: DirectoryBackend, churn: Option<ChurnConfig>, seed: u64) -> FederationReport {
    run_federation(
        resources(),
        workloads(),
        FederationConfig {
            mode: SchedulingMode::Economy,
            directory: backend,
            seed,
            utilization_horizon: Some(DURATION),
            churn,
            ..FederationConfig::default()
        },
    )
}

fn moderate_churn(replication: usize) -> ChurnConfig {
    ChurnConfig {
        mean_uptime: 20_000.0,
        mean_downtime: 5_000.0,
        crash_fraction: 0.5,
        stabilization_interval: 1_200.0,
        replication,
        horizon: DURATION,
        ..ChurnConfig::default()
    }
}

/// Churn events (departures plus rejoins) a run delivered.
fn churn_events(report: &FederationReport) -> u64 {
    [Counter::GracefulLeaves, Counter::Crashes, Counter::Rejoins]
        .into_iter()
        .map(|c| report.metrics.counter(c))
        .sum()
}

/// The zero-churn differential: a churn config whose failure process never
/// fires (mean uptime 0 disables it) is bit-identical — full run digest,
/// not just outcomes — to the static-ring path, even with a replication
/// factor configured, on every backend.
#[test]
fn inactive_churn_config_is_digest_identical_to_none() {
    for backend in DirectoryBackend::ALL {
        let baseline = run(backend, None, 0xC0FFEE);
        let inactive = run(
            backend,
            Some(ChurnConfig {
                mean_uptime: 0.0,
                replication: 3,
                ..ChurnConfig::default()
            }),
            0xC0FFEE,
        );
        assert_eq!(
            baseline.digest, inactive.digest,
            "{backend:?}: an inactive churn config must not perturb the run"
        );
        assert_eq!(baseline.metrics, inactive.metrics, "{backend:?}");
        assert_eq!(churn_events(&inactive), 0);
        assert_eq!(inactive.lookup_success_rate(), 1.0);
    }
}

/// The seeded failure process is part of the deterministic simulation:
/// identical configs replay to identical digests, metrics registry included.
#[test]
fn churn_runs_are_deterministic() {
    let backend = DirectoryBackend::Maan;
    let a = run(backend, Some(moderate_churn(2)), 0xFEED);
    let b = run(backend, Some(moderate_churn(2)), 0xFEED);
    assert_eq!(a.digest, b.digest, "{backend:?}");
    assert_eq!(a.metrics, b.metrics, "{backend:?}");
    assert!(churn_events(&a) > 0, "{backend:?}: churn must actually fire");
}

/// The headline claim: with k = 3 replicas and stabilization repairing the
/// overlay, moderate churn leaves at least 99% of ranking lookups
/// answerable on the MAAN overlay.
#[test]
fn k3_replication_keeps_lookups_available_under_moderate_churn() {
    let backend = DirectoryBackend::Maan;
    let report = run(backend, Some(moderate_churn(3)), 0xFEED);
    assert!(churn_events(&report) > 0, "{backend:?}");
    let rate = report.lookup_success_rate();
    assert!(
        rate >= 0.99,
        "{backend:?}: lookup success {rate} under moderate churn with k=3"
    );
    assert!(report.bank.is_balanced(), "{backend:?}");
}

/// Under pure crashes with no replication the MAAN overlay visibly
/// degrades between stabilization rounds: lookups fault, the GFAs retry
/// with backoff, and the schedule still completes every job admission
/// decision (degradation, not deadlock).
#[test]
fn unreplicated_crashes_exercise_retry_and_fallback() {
    let churn = ChurnConfig {
        mean_uptime: 6_000.0,
        mean_downtime: 10_000.0,
        crash_fraction: 1.0,
        stabilization_interval: 8_000.0,
        replication: 1,
        horizon: DURATION,
        ..ChurnConfig::default()
    };
    let report = run(DirectoryBackend::Maan, Some(churn), 0xFEED);
    let count = |c| report.metrics.counter(c);
    assert!(count(Counter::Crashes) > 0);
    assert_eq!(count(Counter::GracefulLeaves), 0);
    assert!(
        count(Counter::LookupFaults) > 0,
        "crashes with k=1 must produce unanswerable lookups"
    );
    assert!(count(Counter::FaultRetries) > 0, "faulted jobs must retry with backoff");
    assert_eq!(
        report.jobs.len(),
        GFAS * 40,
        "every submitted job must still reach an admission decision"
    );
    assert!(report.lookup_success_rate() < 1.0);
    // Stabilization repaired the ring: rounds ran and charged traffic.
    assert!(count(Counter::StabilizationRounds) > 0);
}

/// More replicas never hurt availability for the same failure sequence:
/// the churn chain depends only on the seed, so k = 3 must fault no more
/// often than k = 1.
#[test]
fn replication_is_monotone_in_availability() {
    let fault_count = |k: usize| {
        run(DirectoryBackend::Maan, Some(moderate_churn(k)), 0xFEED)
            .metrics
            .counter(Counter::LookupFaults)
    };
    let (k1, k2, k3) = (fault_count(1), fault_count(2), fault_count(3));
    assert!(k3 <= k2 && k2 <= k1, "faults must not grow with k: {k1} {k2} {k3}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The zero-churn differential holds under scripted departures too:
    /// whatever `Depart`/`Reprice` events the script injects, an inactive
    /// churn config replays to the identical run digest.
    #[test]
    fn inactive_churn_is_invisible_under_scripted_departures(
        departing in proptest::collection::vec(0..GFAS, 0..3),
        when in 0.1f64..0.8,
        which in 0u32..2,
    ) {
        let backend = DirectoryBackend::ALL[which as usize];
        let mut unique = departing;
        unique.sort_unstable();
        unique.dedup();
        let departures: Vec<(usize, f64)> = unique
            .iter()
            .enumerate()
            .map(|(i, &gfa)| (gfa, DURATION * when + 500.0 * i as f64))
            .collect();
        let run_scripted = |churn: Option<ChurnConfig>| {
            run_federation(
                resources(),
                workloads(),
                FederationConfig {
                    mode: SchedulingMode::Economy,
                    directory: backend,
                    seed: 0xD1FF,
                    utilization_horizon: Some(DURATION),
                    departures: departures.clone(),
                    churn,
                    ..FederationConfig::default()
                },
            )
        };
        let baseline = run_scripted(None);
        let inactive = run_scripted(Some(ChurnConfig {
            mean_uptime: 0.0,
            replication: 2,
            ..ChurnConfig::default()
        }));
        prop_assert_eq!(baseline.digest, inactive.digest);
        prop_assert_eq!(baseline.metrics, inactive.metrics);
    }
}
