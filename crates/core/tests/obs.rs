//! Observability-inertness coverage: arming the span collector and the
//! handler profiler must be *provably* invisible to a run — full
//! `RunDigest` (outcomes **and** traffic chains) and the entire metrics
//! registry bit-identical to the sinks-absent run — on every directory
//! backend, with churn and network faults active.  Sinks are identity, not
//! configuration: two runs differing only in armed sinks are the same run.
//!
//! The suite also pins the export surface: an armed run's Chrome Trace
//! document parses, uses only valid phases, and keeps per-(pid, tid)
//! timestamps non-decreasing (a structural property of the exporter's
//! sort, asserted here end to end on real federation spans).

use std::cell::RefCell;
use std::rc::Rc;

use grid_cluster::ResourceSpec;
use grid_federation_core::{
    ChurnConfig, DirectoryBackend, FederationBuilder, FederationConfig, FederationReport,
    NetworkFaultConfig, ProfileTable, SchedulingMode, SpanCollector,
};
use grid_obs::json::{parse, Json};
use grid_workload::{Job, JobId, Strategy, UserId};
use proptest::prelude::*;

const DURATION: f64 = 30_000.0;

fn resources(n: usize) -> Vec<ResourceSpec> {
    (0..n)
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

/// A deterministic workload with remote negotiations on every GFA.
fn workloads(n: usize, jobs_per_gfa: usize) -> Vec<Vec<Job>> {
    (0..n)
        .map(|origin| {
            (0..jobs_per_gfa)
                .map(|seq| {
                    let submit = 10.0 + 900.0 * seq as f64 + 17.0 * origin as f64;
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

fn moderate_churn() -> ChurnConfig {
    ChurnConfig {
        mean_uptime: 12_000.0,
        mean_downtime: 3_000.0,
        crash_fraction: 0.5,
        stabilization_interval: 1_200.0,
        replication: 3,
        horizon: DURATION,
        ..ChurnConfig::default()
    }
}

fn config(
    backend: DirectoryBackend,
    churn: Option<ChurnConfig>,
    network: Option<NetworkFaultConfig>,
    seed: u64,
) -> FederationConfig {
    FederationConfig {
        mode: SchedulingMode::Economy,
        directory: backend,
        seed,
        utilization_horizon: Some(DURATION),
        churn,
        network,
        ..FederationConfig::default()
    }
}

/// The pair of shared sinks an armed run hands back for inspection.
type Sinks = (Rc<RefCell<SpanCollector>>, Rc<RefCell<ProfileTable>>);

/// Runs one federation; when `armed`, both observability sinks are attached
/// and returned alongside the report.
fn run(
    n: usize,
    jobs_per_gfa: usize,
    cfg: FederationConfig,
    armed: bool,
) -> (FederationReport, Option<Sinks>) {
    let mut builder = FederationBuilder::new(resources(n))
        .workloads(workloads(n, jobs_per_gfa))
        .config(cfg);
    let sinks = armed.then(|| {
        (
            Rc::new(RefCell::new(SpanCollector::new())),
            Rc::new(RefCell::new(ProfileTable::new())),
        )
    });
    if let Some((tracer, profiler)) = &sinks {
        builder = builder.tracer(Rc::clone(tracer)).profiler(Rc::clone(profiler));
    }
    (builder.run(), sinks)
}

/// The tentpole's hard constraint, exhaustively: on every backend, with
/// churn and network faults in every combination, the armed run's full
/// digest *and* metrics registry are bit-identical to the unarmed run's —
/// while the sinks demonstrably saw the run (spans and profiled events).
#[test]
fn armed_sinks_are_digest_inert_on_every_backend_under_churn_and_faults() {
    for backend in DirectoryBackend::ALL {
        for (churn, network) in [
            (None, None),
            (Some(moderate_churn()), None),
            (None, Some(NetworkFaultConfig::moderate())),
            (Some(moderate_churn()), Some(NetworkFaultConfig::moderate())),
        ] {
            let cfg = config(backend, churn.clone(), network, 0xC0FFEE);
            let (unarmed, _) = run(6, 24, cfg.clone(), false);
            let (armed, sinks) = run(6, 24, cfg, true);
            let label = format!(
                "{backend:?} churn={} network={}",
                churn.is_some(),
                network.is_some()
            );
            assert_eq!(
                unarmed.digest, armed.digest,
                "{label}: arming sinks must not perturb the run digest"
            );
            assert_eq!(
                unarmed.metrics, armed.metrics,
                "{label}: the metrics registry must record identically either way"
            );
            let (tracer, profiler) = sinks.expect("armed run returns its sinks");
            assert!(
                !tracer.borrow().is_empty(),
                "{label}: the armed collector must have seen spans"
            );
            assert!(
                profiler.borrow().total_events() > 0,
                "{label}: the armed profiler must have bracketed handlers"
            );
        }
    }
}

/// An armed run's Chrome Trace export parses, uses only the phases the
/// exporter emits, and every (pid, tid) track's timestamps are
/// non-decreasing — on a run where churn *and* network faults reorder and
/// retransmit traffic, the worst case for the exporter's sort.
#[test]
fn chrome_trace_export_is_valid_and_per_track_monotone() {
    let cfg = config(
        DirectoryBackend::Maan,
        Some(moderate_churn()),
        Some(NetworkFaultConfig::moderate()),
        0xC0FFEE,
    );
    let (report, sinks) = run(6, 24, cfg, true);
    let (tracer, _) = sinks.expect("armed");
    let doc = tracer.borrow().to_chrome_trace();
    let parsed = parse(&doc).expect("the Chrome Trace document must parse as JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents must be an array");
    assert!(!events.is_empty(), "a real run must emit spans");

    let gfas = report.resources.len() as f64;
    let mut last: Vec<((u64, u64), f64)> = Vec::new();
    let mut complete = 0usize;
    let mut flow_starts = 0usize;
    let mut flow_finishes = 0usize;
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).expect("every event has ph");
        match ph {
            "M" => continue,
            "X" => complete += 1,
            "s" => flow_starts += 1,
            "f" => flow_finishes += 1,
            other => panic!("unexpected phase {other:?}"),
        }
        let pid = event.get("pid").and_then(Json::as_f64).expect("pid");
        let tid = event.get("tid").and_then(Json::as_f64).expect("tid");
        assert!(pid >= 0.0 && pid < gfas, "pid {pid} outside the federation");
        assert!(tid <= 3.0, "tid {tid} is not a known span track");
        let ts = event.get("ts").and_then(Json::as_f64).expect("ts");
        let key = (pid as u64, tid as u64);
        match last.iter_mut().find(|(k, _)| *k == key) {
            Some((_, prev)) => {
                assert!(ts >= *prev, "track {key:?} went backwards: {ts} < {prev}");
                *prev = ts;
            }
            None => last.push((key, ts)),
        }
        if ph == "X" {
            let dur = event.get("dur").and_then(Json::as_f64).expect("dur");
            assert!(dur >= 0.0, "negative span duration");
        }
    }
    assert!(complete > 0, "lifecycle/negotiation spans expected");
    assert!(
        flow_starts > 0 && flow_finishes > 0,
        "cross-GFA dispatch flows expected in a federated run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomised interleavings: whatever the seed, backend and fault mix,
    /// the armed and unarmed runs remain bit-identical.  Small federations
    /// keep the 8 cases fast while still exercising remote negotiation.
    #[test]
    fn armed_and_unarmed_runs_agree_for_any_seed(
        seed in any::<u64>(),
        backend_index in 0usize..2,
        with_churn in any::<bool>(),
        with_network in any::<bool>(),
    ) {
        let cfg = config(
            DirectoryBackend::ALL[backend_index],
            with_churn.then(moderate_churn),
            with_network.then(NetworkFaultConfig::moderate),
            seed,
        );
        let (unarmed, _) = run(4, 10, cfg.clone(), false);
        let (armed, _) = run(4, 10, cfg, true);
        prop_assert_eq!(unarmed.digest, armed.digest);
        prop_assert_eq!(unarmed.metrics, armed.metrics);
    }
}
