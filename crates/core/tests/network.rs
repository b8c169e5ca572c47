//! Unreliable-network coverage: the reliable-transport differential (an
//! *inactive* [`NetworkFaultConfig`] must be indistinguishable, digest for
//! digest, from no network config at all), determinism of the seeded fault
//! layer, and the headline robustness claim — under moderate message loss,
//! jitter and duplication, timeout/retransmit negotiation and receiver-side
//! dedup keep every job outcome and balance **bit-identical** to the
//! lossless run, with the retransmit traffic visible in the ledgers.

use grid_cluster::{replicated_resources, ResourceSpec};
use grid_federation_core::{
    run_federation, Counter, DirectoryBackend, FederationConfig, FederationReport, Jitter,
    NetworkFaultConfig, SchedulingMode,
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

/// A deterministic workload with plenty of remote negotiations: every GFA
/// submits a job every 1 250 seconds, alternating OFC/OFT.
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

fn run(backend: DirectoryBackend, network: Option<NetworkFaultConfig>, seed: u64) -> FederationReport {
    run_federation(
        resources(),
        workloads(),
        FederationConfig {
            mode: SchedulingMode::Economy,
            directory: backend,
            seed,
            utilization_horizon: Some(DURATION),
            network,
            ..FederationConfig::default()
        },
    )
}

/// The reliable-transport differential: a fault config whose rates are all
/// zero (the default) is bit-identical — full run digest, not just
/// outcomes — to no network config at all, on every backend.
#[test]
fn inactive_network_config_is_digest_identical_to_none() {
    for backend in DirectoryBackend::ALL {
        let baseline = run(backend, None, 0xC0FFEE);
        let inactive = run(backend, Some(NetworkFaultConfig::default()), 0xC0FFEE);
        assert_eq!(
            baseline.digest, inactive.digest,
            "{backend:?}: an inactive fault config must not perturb the run"
        );
        assert_eq!(
            inactive.metrics.counter(Counter::NetEnveloped),
            0,
            "{backend:?}: the reliable transport must report no fault traffic"
        );
        assert_eq!(baseline.metrics, inactive.metrics, "{backend:?}");
    }
}

/// The initial quote publish is pre-run setup, so a lossy network leaves a
/// job-free MAAN run's publish traffic and digest exactly as on the
/// reliable transport.
#[test]
fn setup_publish_is_never_faulted() {
    let run_setup = |network| {
        let resources = replicated_resources(16).into_iter().map(|r| r.spec).collect();
        let directory = DirectoryBackend::Maan;
        run_federation(resources, vec![Vec::new(); 16], FederationConfig { directory, network, ..FederationConfig::default() })
    };
    let reliable = run_setup(None);
    let lossy = run_setup(Some(NetworkFaultConfig { drop: 0.5, ..NetworkFaultConfig::default() }));
    assert!(reliable.messages.publish_messages() > 0, "MAAN routes its initial publish");
    assert_eq!(lossy.messages.publish_messages(), reliable.messages.publish_messages());
    assert_eq!(lossy.metrics.counter(Counter::NetPublishRetransmissions), 0);
    assert_eq!(lossy.digest, reliable.digest);
}

/// The headline claim: under moderate faults (2% loss, exponential jitter,
/// 1% duplication) every job outcome and every balance is bit-identical to
/// the lossless run — the retransmit/duplicate traffic lands only in the
/// traffic chains, where it is visibly accounted.
#[test]
fn moderate_faults_keep_outcomes_bit_identical_to_lossless() {
    for backend in DirectoryBackend::ALL {
        let lossless = run(backend, None, 0xC0FFEE);
        let lossy = run(backend, Some(NetworkFaultConfig::moderate()), 0xC0FFEE);
        assert_eq!(
            lossless.digest.outcomes, lossy.digest.outcomes,
            "{backend:?}: outcomes and balances must survive the fault layer bit-identically"
        );
        assert_eq!(
            lossless.jobs.len(),
            lossy.jobs.len(),
            "{backend:?}: every negotiation must eventually complete"
        );
        assert!(lossy.bank.is_balanced(), "{backend:?}");
        let count = |c| lossy.metrics.counter(c);
        assert!(
            count(Counter::NetEnveloped) > 0,
            "{backend:?}: protocol messages must travel enveloped"
        );
        assert!(
            count(Counter::NetRetransmissions) > 0,
            "{backend:?}: 2% loss over this workload must force retransmissions"
        );
        assert_eq!(
            count(Counter::NetDedupDrops),
            count(Counter::NetDuplicates),
            "{backend:?}: every in-flight duplicate must be delivered and deduplicated"
        );
        assert_ne!(
            lossless.digest, lossy.digest,
            "{backend:?}: the extra traffic must be visible in the full digest"
        );
        let base_traffic = lossless.messages.total_messages();
        let lossy_traffic = lossy.messages.total_messages();
        assert_eq!(
            lossy_traffic,
            base_traffic + count(Counter::NetRetransmissions) + count(Counter::NetDuplicates),
            "{backend:?}: retransmit and duplicate charges must land in the negotiation class"
        );
    }
}

/// The seeded fault layer is part of the deterministic simulation:
/// identical configs replay to identical digests and fault telemetry.
#[test]
fn lossy_runs_are_deterministic() {
    let backend = DirectoryBackend::Maan;
    let a = run(backend, Some(NetworkFaultConfig::moderate()), 0xFEED);
    let b = run(backend, Some(NetworkFaultConfig::moderate()), 0xFEED);
    assert_eq!(a.digest, b.digest, "{backend:?}");
    assert_eq!(a.metrics, b.metrics, "{backend:?}");
    assert!(a.metrics.counter(Counter::NetRetransmissions) > 0, "{backend:?}");
}

/// Fault severity moves the traffic knob monotonically on the same seed:
/// doubling the loss rate cannot reduce drop-forced retransmissions, and
/// outcomes stay pinned throughout.
#[test]
fn heavier_loss_means_more_retransmissions_same_outcomes() {
    let lossless = run(DirectoryBackend::Maan, None, 0xFEED);
    let mut last = 0;
    for drop in [0.01, 0.05, 0.10] {
        let cfg = NetworkFaultConfig {
            drop,
            ..NetworkFaultConfig::moderate()
        };
        let lossy = run(DirectoryBackend::Maan, Some(cfg), 0xFEED);
        assert_eq!(lossless.digest.outcomes, lossy.digest.outcomes, "drop={drop}");
        let retransmissions = lossy.metrics.counter(Counter::NetRetransmissions);
        assert!(
            retransmissions >= last,
            "drop={drop}: retransmissions must not shrink as loss grows"
        );
        last = retransmissions;
    }
    assert!(last > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The reliable-transport differential holds across the whole zero-rate
    /// config family: whatever timeout, retransmit budget or reorder window
    /// is configured, a config with zero drop/duplicate rates and no jitter
    /// replays to the identical run digest on every backend.
    #[test]
    fn zero_rate_network_config_is_invisible(
        timeout in 1.0f64..120.0,
        max_retransmits in 1u32..12,
        reorder_window in 0.0f64..30.0,
        which in 0u32..2,
    ) {
        let backend = DirectoryBackend::ALL[which as usize];
        let baseline = run(backend, None, 0xD1FF);
        let inactive = run(
            backend,
            Some(NetworkFaultConfig {
                drop: 0.0,
                jitter: Jitter::None,
                duplicate: 0.0,
                reorder_window,
                timeout,
                max_retransmits,
            }),
            0xD1FF,
        );
        prop_assert_eq!(baseline.digest, inactive.digest);
        prop_assert_eq!(baseline.metrics, inactive.metrics);
    }
}
