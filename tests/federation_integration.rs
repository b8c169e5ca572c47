//! Cross-crate integration tests exercising the public API end to end:
//! SWF traces → jobs → federation runs → reports, scheduling-mode and
//! LRMS-policy comparisons on identical workloads, and the pinned work
//! counts of three small federations.

use grid_cluster::{paper_resources, ResourceSpec};
use grid_experiments::exp6::DEFAULT_LEVELS;
use grid_experiments::workloads::{replicated_workloads, WorkloadOptions};
use grid_federation_core::federation::{
    run_federation, FederationConfig, LrmsKind, SchedulingMode,
};
use grid_federation_core::{
    ChargingPolicy, Counter, DirectoryBackend, FederationReport, NetworkFaultConfig,
};
use grid_workload::{
    Job, JobId, PopulationProfile, Strategy, SwfTrace, SyntheticWorkloadConfig, UserId,
    UserPopulation,
};

/// Builds a small two-resource federation with an oversubscribed origin.
fn small_setup() -> (Vec<ResourceSpec>, Vec<Vec<Job>>) {
    let resources = vec![
        ResourceSpec::new("small-origin", 16, 600.0, 1.0, 2.4),
        ResourceSpec::new("big-helper", 256, 900.0, 2.0, 3.6),
    ];
    let mut cfg = SyntheticWorkloadConfig::new(0, "small-origin");
    cfg.total_jobs = 80;
    cfg.max_processors = 16;
    cfg.origin_mips = 600.0;
    cfg.offered_load = 1.4;
    cfg.duration = 43_200.0;
    cfg.max_runtime = 0.2 * cfg.duration;
    cfg.user_count = 8;
    cfg.seed = 99;
    let mut jobs = cfg.generate().into_jobs();
    UserPopulation::new(0, 8, PopulationProfile::new(50), 3).apply(&mut jobs);
    (resources, vec![jobs, Vec::new()])
}

#[test]
fn swf_roundtrip_feeds_the_federation() {
    // Generate → serialise → parse → schedule, touching every crate.
    let resources: Vec<ResourceSpec> = paper_resources().into_iter().map(|r| r.spec).collect();
    let mut cfg = SyntheticWorkloadConfig::new(0, "CTC SP2");
    cfg.total_jobs = 60;
    cfg.max_processors = resources[0].processors;
    cfg.origin_mips = resources[0].mips;
    cfg.offered_load = 0.8;
    cfg.duration = 43_200.0;
    cfg.seed = 5;
    let workload = cfg.generate();

    let records: Vec<grid_workload::SwfRecord> = workload
        .jobs()
        .iter()
        .enumerate()
        .map(|(i, j)| grid_workload::SwfRecord {
            job_number: i as i64,
            submit_time: j.submit,
            wait_time: -1.0,
            run_time: j.compute_time(resources[0].mips) + j.comm_overhead,
            allocated_processors: i64::from(j.processors),
            requested_processors: i64::from(j.processors),
            requested_time: -1.0,
            status: 1,
            user_id: j.user.local as i64,
            group_id: 1,
            queue: 0,
        })
        .collect();
    let swf = SwfTrace {
        comments: vec!["roundtrip".into()],
        records,
    };
    let text = swf.to_swf_string();
    let parsed = SwfTrace::parse(&text).expect("roundtrip parse");
    let jobs = parsed.to_jobs(0, resources[0].mips, resources[0].processors, 0.10);
    assert_eq!(jobs.len(), 60);

    let mut workloads: Vec<Vec<Job>> = vec![Vec::new(); resources.len()];
    workloads[0] = jobs;
    let report = run_federation(
        resources,
        workloads,
        FederationConfig::with_mode(SchedulingMode::Economy),
    );
    assert_eq!(report.jobs.len(), 60);
    assert!(report.mean_acceptance_rate() > 90.0);
}

#[test]
fn federation_beats_independent_on_an_overloaded_origin() {
    let (resources, workloads) = small_setup();
    let independent = run_federation(
        resources.clone(),
        workloads.clone(),
        FederationConfig::with_mode(SchedulingMode::Independent),
    );
    let no_economy = run_federation(
        resources.clone(),
        workloads.clone(),
        FederationConfig::with_mode(SchedulingMode::FederationNoEconomy),
    );
    let economy = run_federation(
        resources,
        workloads,
        FederationConfig::with_mode(SchedulingMode::Economy),
    );
    assert!(no_economy.mean_acceptance_rate() > independent.mean_acceptance_rate());
    assert!(economy.mean_acceptance_rate() > independent.mean_acceptance_rate());
    // The helper resource earns incentive only when it actually executes work.
    assert!(economy.resources[1].remote_jobs_processed > 0);
    assert!(economy.resources[1].incentive > 0.0);
    assert!(economy.bank.is_balanced());
}

#[test]
fn easy_backfilling_never_accepts_fewer_jobs_than_fcfs_here() {
    let (resources, workloads) = small_setup();
    let fcfs = run_federation(
        resources.clone(),
        workloads.clone(),
        FederationConfig {
            lrms: LrmsKind::SpaceSharedFcfs,
            ..FederationConfig::with_mode(SchedulingMode::Independent)
        },
    );
    let easy = run_federation(
        resources,
        workloads,
        FederationConfig {
            lrms: LrmsKind::EasyBackfilling,
            ..FederationConfig::with_mode(SchedulingMode::Independent)
        },
    );
    let accepted = |r: &grid_federation_core::FederationReport| {
        r.resources.iter().map(|m| m.accepted).sum::<usize>()
    };
    assert!(
        accepted(&easy) + 2 >= accepted(&fcfs),
        "EASY ({}) should not accept clearly fewer jobs than FCFS ({})",
        accepted(&easy),
        accepted(&fcfs)
    );
}

#[test]
fn charging_policy_changes_magnitude_but_not_allocation_direction() {
    let (resources, workloads) = small_setup();
    let per_second = run_federation(
        resources.clone(),
        workloads.clone(),
        FederationConfig {
            charging: ChargingPolicy::PerCpuSecond,
            ..FederationConfig::with_mode(SchedulingMode::Economy)
        },
    );
    let per_kilo_mi = run_federation(
        resources,
        workloads,
        FederationConfig {
            charging: ChargingPolicy::PerKiloMi,
            ..FederationConfig::with_mode(SchedulingMode::Economy)
        },
    );
    // Accounting magnitudes differ (the ratio is µ·p/1000 per job, so the two
    // conventions can never agree except by coincidence)…
    let ratio = per_kilo_mi.total_incentive() / per_second.total_incentive();
    assert!(
        (ratio - 1.0).abs() > 0.2,
        "the two charging conventions should produce clearly different volumes (ratio {ratio:.3})"
    );
    // …but both conserve currency and accept a similar share of jobs.
    assert!(per_second.bank.is_balanced());
    assert!(per_kilo_mi.bank.is_balanced());
    let diff = (per_second.mean_acceptance_rate() - per_kilo_mi.mean_acceptance_rate()).abs();
    assert!(diff < 10.0, "acceptance rates diverged by {diff}");
}

#[test]
fn reports_are_reproducible_across_identical_runs() {
    let (resources, workloads) = small_setup();
    let run = |seed: u64| {
        run_federation(
            resources.clone(),
            workloads.clone(),
            FederationConfig {
                seed,
                ..FederationConfig::with_mode(SchedulingMode::Economy)
            },
        )
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.jobs.len(), b.jobs.len());
    assert_eq!(a.messages.total_messages(), b.messages.total_messages());
    assert_eq!(a.sim_end, b.sim_end);
    for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(ja.id, jb.id);
        assert_eq!(ja.messages, jb.messages);
        assert_eq!(ja.was_accepted(), jb.was_accepted());
    }
}

#[test]
fn oft_and_ofc_pick_the_expected_poles_on_idle_clusters() {
    // Three idle clusters with clearly separated price/speed: an OFC job must
    // land on the cheapest, an OFT job on the fastest.
    let resources = vec![
        ResourceSpec::new("cheapest", 64, 500.0, 1.0, 1.0),
        ResourceSpec::new("middle", 64, 750.0, 1.0, 2.0),
        ResourceSpec::new("fastest", 64, 1_000.0, 1.0, 4.0),
    ];
    let make_job = |strategy| {
        let mut j = Job::from_runtime(
            JobId { origin: 1, seq: 0 },
            UserId { origin: 1, local: 0 },
            0.0,
            8,
            600.0,
            750.0,
            0.10,
        );
        j.qos.strategy = strategy;
        j
    };
    for (strategy, expected) in [(Strategy::Ofc, 0usize), (Strategy::Oft, 2usize)] {
        let report = run_federation(
            resources.clone(),
            vec![Vec::new(), vec![make_job(strategy)], Vec::new()],
            FederationConfig::with_mode(SchedulingMode::Economy),
        );
        match report.jobs[0].outcome {
            grid_federation_core::ExecutionOutcome::Completed { executed_on, .. } => {
                assert_eq!(executed_on, expected, "{strategy} chose the wrong pole");
            }
            grid_federation_core::ExecutionOutcome::Rejected => panic!("job was rejected"),
        }
    }
}

/// Runs a 12-cluster replicated federation at 1/20 of the paper's job
/// counts on `config`'s backend and scripts.
fn small_federation(config: FederationConfig) -> FederationReport {
    let options = WorkloadOptions {
        job_scale: 0.05,
        seed: 1,
        ..WorkloadOptions::default()
    };
    let setup = replicated_workloads(12, PopulationProfile::new(50), &options);
    run_federation(
        setup.resources,
        setup.workloads,
        FederationConfig {
            seed: 1,
            utilization_horizon: Some(options.duration),
            ..config
        },
    )
}

/// What a run did, independent of the host that ran it: events delivered,
/// events that took the queue's FIFO lane, the most events the queue's heap
/// held at once, directory queries, retransmissions, and quote-cache hits
/// and misses.  None of these enters the run digest, so a change that
/// doubles the events, sends the negotiation legs to the heap or schedules
/// a GFA's script up front shows here first.
fn work_counts(report: &FederationReport) -> [u64; 7] {
    [
        report.engine.events_delivered,
        report.engine.lane_pushes,
        report.engine.heap_high_water,
        report.directory_queries,
        report.metrics.counter(Counter::NetRetransmissions),
        report.metrics.counter(Counter::CacheHits),
        report.metrics.counter(Counter::CacheMisses),
    ]
}

#[test]
fn ideal_fanout_work_counts_are_pinned() {
    let report = small_federation(FederationConfig::default());
    assert_eq!(work_counts(&report), [1272, 842, 60, 312, 0, 249, 63]);
}

#[test]
fn maan_reprice_work_counts_are_pinned() {
    let report = small_federation(FederationConfig {
        directory: DirectoryBackend::Maan,
        repricings: (0..12).map(|gfa| (gfa, 3_600.0 * (1 + gfa) as f64, 1.0 + 0.1 * gfa as f64)).collect(),
        ..FederationConfig::default()
    });
    assert_eq!(work_counts(&report), [1334, 892, 56, 344, 0, 211, 133]);
}

#[test]
fn maan_churn_faults_work_counts_are_pinned() {
    let options = WorkloadOptions::default();
    let heavy = DEFAULT_LEVELS.iter().find(|level| level.label == "heavy").unwrap();
    let report = small_federation(FederationConfig {
        directory: DirectoryBackend::Maan,
        churn: Some(heavy.to_config(&options, 3)),
        network: Some(NetworkFaultConfig::moderate()),
        ..FederationConfig::default()
    });
    assert_eq!(work_counts(&report), [1397, 837, 76, 282, 22, 25, 257]);
}
