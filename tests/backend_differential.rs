//! Differential test between the two directory backends on the calibrated
//! paper workload: for the same seed and workload, the `Ideal` and `Maan`
//! backends must produce **identical** job outcomes
//! (accepted/dropped, completion times, GridBank balances) and differ only
//! in directory/publish message counts and the simulated lookup latency
//! those messages account.

use grid_experiments::exp6::DEFAULT_LEVELS;
use grid_experiments::workloads::{paper_workloads, WorkloadOptions};
use grid_federation_core::federation::{run_federation, FederationConfig, SchedulingMode};
use grid_federation_core::{
    Counter, DirectoryBackend, ExecutionOutcome, FederationReport, NetworkFaultConfig,
};
use grid_workload::PopulationProfile;

fn run_with(backend: DirectoryBackend, mode: SchedulingMode) -> FederationReport {
    let options = WorkloadOptions::quick();
    let setup = paper_workloads(PopulationProfile::new(50), &options);
    run_federation(
        setup.resources,
        setup.workloads,
        FederationConfig {
            mode,
            seed: options.seed,
            utilization_horizon: Some(options.duration),
            directory: backend,
            ..FederationConfig::default()
        },
    )
}

#[test]
fn backends_differ_only_in_directory_traffic() {
    let ideal = run_with(DirectoryBackend::Ideal, SchedulingMode::Economy);
    assert_eq!(ideal.backend, DirectoryBackend::Ideal);
    assert!(!ideal.jobs.is_empty());
    assert!(
        (ideal.directory_avg_route_messages - 3.0).abs() < 1e-9,
        "ideal backend must charge exactly the modelled routing cost"
    );
    // Lookup latency follows the message counts (0.05 s per hop by default).
    assert!((ideal.messages.directory_seconds()
        - ideal.messages.directory_messages() as f64 * 0.05)
        .abs()
        < 1e-6);
    assert_eq!(ideal.messages.publish_messages(), 0, "central stores publish for free");
    assert!(ideal.directory_cache.hits > 0, "ideal: cache never hit");
    assert!(ideal.directory_cache.misses > 0, "ideal: cache never missed");

    let maan = run_with(DirectoryBackend::Maan, SchedulingMode::Economy);
    assert_eq!(maan.backend, DirectoryBackend::Maan);

    // Digest-first: the audit ledger's outcome chains commit to every
    // job record and Grid-Dollar transfer, so one u64 comparison states
    // the whole conformance claim; the field-by-field oracle below is
    // kept because its failures localise a divergence.
    assert_eq!(
        ideal.digest.outcomes, maan.digest.outcomes,
        "MAAN: outcome digest diverged from the ideal backend"
    );

    // Job outcomes are bitwise-identical: same records in the same
    // order, modulo the directory_messages field.
    assert_eq!(ideal.jobs.len(), maan.jobs.len());
    for (a, b) in ideal.jobs.iter().zip(&maan.jobs) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.outcome, b.outcome, "MAAN: job {} outcome diverged", a.id);
        assert_eq!(
            a.messages, b.messages,
            "MAAN: job {} negotiation traffic diverged",
            a.id
        );
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.submit, b.submit);
        assert_eq!(a.budget, b.budget);
        assert_eq!(a.deadline, b.deadline);
    }
    assert_eq!(ideal.sim_end, maan.sim_end);

    // Per-resource statistics and GridBank balances agree exactly.
    for (ra, rb) in ideal.resources.iter().zip(&maan.resources) {
        assert_eq!(ra.accepted, rb.accepted, "MAAN");
        assert_eq!(ra.rejected, rb.rejected);
        assert_eq!(ra.processed_locally, rb.processed_locally);
        assert_eq!(ra.migrated, rb.migrated);
        assert_eq!(ra.remote_jobs_processed, rb.remote_jobs_processed);
        assert_eq!(ra.utilization, rb.utilization);
        assert!((ra.incentive - rb.incentive).abs() < 1e-12);
    }
    assert!(ideal.bank.is_balanced() && maan.bank.is_balanced());

    // Negotiation traffic is identical at every granularity (per job in
    // the record loop above)…
    assert_eq!(ideal.messages.total_messages(), maan.messages.total_messages());
    assert_eq!(ideal.messages.per_gfa_summary(), maan.messages.per_gfa_summary());

    // …while directory (and, for MAAN, publish) traffic is where the
    // backends are allowed — and expected — to differ: both issued the
    // same queries; the ideal backend charged the ⌈log₂ 8⌉ = 3 model
    // per routed lookup, MAAN charged measured hops (its advances also
    // carry boundary crossings over the distributed rank data).
    assert_eq!(ideal.directory_queries, maan.directory_queries, "MAAN");
    assert!(ideal.directory_queries > 0);
    assert!(maan.directory_avg_route_messages >= 1.0);
    // The finger hops are the routing part of a route's charge, without the
    // arc walk; the ideal backend routes nothing.
    assert_eq!(ideal.directory_avg_finger_hops, 0.0);
    assert!(maan.directory_avg_finger_hops >= 1.0);
    assert!(maan.directory_avg_finger_hops <= maan.directory_avg_route_messages);
    assert!(maan.messages.directory_messages() > 0);
    // (No assert that the totals *differ*: nothing forbids the measured
    // hop total from coinciding with the model for some seed — the
    // invariant is that directory/publish traffic is the only place
    // backends may diverge.)
    assert!(maan.messages.directory_seconds() > 0.0);
    // The GFAs' quote caches are really on the query path: some probes
    // are served from the cache and some stream through a cursor.
    assert!(maan.directory_cache.hits > 0, "MAAN: cache never hit");
    assert!(maan.directory_cache.misses > 0, "MAAN: cache never missed");
    // 8 resources × ≥ 2 routed puts each: the publish class is live.
    assert!(
        maan.messages.publish_messages() >= 16,
        "MAAN must charge its initial publishes (got {})",
        maan.messages.publish_messages()
    );
    assert!(maan.messages.publish_seconds() > 0.0);
}

#[test]
fn departures_are_outcome_identical_across_backends() {
    // The unsubscribe primitive must behave identically through every
    // backend when exercised mid-run.
    let options = WorkloadOptions::quick();
    let run = |backend| {
        let setup = paper_workloads(PopulationProfile::new(50), &options);
        run_federation(
            setup.resources,
            setup.workloads,
            FederationConfig {
                mode: SchedulingMode::Economy,
                seed: options.seed,
                utilization_horizon: Some(options.duration),
                directory: backend,
                // NASA iPSC (index 4, the fastest) departs mid-trace; LANL
                // Origin (index 3, the cheapest) re-prices shortly after.
                departures: vec![(4, options.duration * 0.25)],
                repricings: vec![(3, options.duration * 0.5, 6.0)],
                ..FederationConfig::default()
            },
        )
    };
    let ideal = run(DirectoryBackend::Ideal);
    let maan = run(DirectoryBackend::Maan);
    assert_eq!(
        ideal.digest.outcomes, maan.digest.outcomes,
        "MAAN: outcome digest diverged under mid-run mutations"
    );
    assert_eq!(ideal.jobs.len(), maan.jobs.len());
    for (a, b) in ideal.jobs.iter().zip(&maan.jobs) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.outcome, b.outcome, "MAAN");
    }
    assert_eq!(ideal.messages.total_messages(), maan.messages.total_messages());
    assert!(ideal.bank.is_balanced() && maan.bank.is_balanced());
    // The departure's routed removes and the repricing's routed move land
    // in the publish class on top of the initial subscribes.
    assert!(
        maan.messages.publish_messages() > 16,
        "mid-run mutations must add publish traffic (got {})",
        maan.messages.publish_messages()
    );
    // The departed resource executed strictly less remote work than in the
    // undisturbed run of `backends_differ_only_in_directory_traffic`.
    let undisturbed = run_with(DirectoryBackend::Ideal, SchedulingMode::Economy);
    assert!(
        ideal.resources[4].remote_jobs_processed <= undisturbed.resources[4].remote_jobs_processed,
        "a departed resource cannot attract more remote work"
    );
}

/// The per-job tallies in the job records, the message ledger's class
/// totals and the metrics registry's fault counters are views of one charge
/// stream, so they must agree exactly — on every backend, with and without
/// scripted repricings, churn (k = 2, MAAN only) and moderate network
/// faults.
#[test]
fn job_records_ledger_and_registry_agree() {
    let options = WorkloadOptions::quick();
    let moderate = DEFAULT_LEVELS[1];
    assert_eq!(moderate.label, "moderate");
    for backend in DirectoryBackend::ALL {
        let churn_modes: &[bool] = if backend == DirectoryBackend::Ideal {
            &[false]
        } else {
            &[false, true]
        };
        for &churn in churn_modes {
            for (reprice, faults) in [(false, false), (true, false), (false, true), (true, true)] {
                let setup = paper_workloads(PopulationProfile::new(50), &options);
                let report = run_federation(
                    setup.resources,
                    setup.workloads,
                    FederationConfig {
                        mode: SchedulingMode::Economy,
                        seed: options.seed,
                        utilization_horizon: Some(options.duration),
                        directory: backend,
                        repricings: if reprice {
                            vec![(3, options.duration * 0.3, 6.0), (5, options.duration * 0.6, 1.0)]
                        } else {
                            Vec::new()
                        },
                        churn: churn.then(|| moderate.to_config(&options, 2)),
                        network: faults.then(NetworkFaultConfig::moderate),
                        ..FederationConfig::default()
                    },
                );
                let case = format!("{backend:?} reprice={reprice} churn={churn} faults={faults}");
                let ledger = &report.messages;
                let count = |c| report.metrics.counter(c);
                assert_eq!(count(Counter::NetEnveloped) > 0, faults, "{case}: fault layer");
                let departures = count(Counter::Crashes) + count(Counter::GracefulLeaves);
                assert_eq!(departures > 0, churn, "{case}: churn process");
                let messages: u64 = report.jobs.iter().map(|j| u64::from(j.messages)).sum();
                assert_eq!(
                    messages + count(Counter::NetRetransmissions) + count(Counter::NetDuplicates),
                    ledger.total_messages(),
                    "{case}: negotiation class"
                );
                let directory_messages: u64 =
                    report.jobs.iter().map(|j| u64::from(j.directory_messages)).sum();
                assert_eq!(
                    directory_messages + count(Counter::NetDirectoryRetransmissions),
                    ledger.directory_messages(),
                    "{case}: directory class"
                );
            }
        }
    }
}

/// The per-resource totals the report collects from the GFAs at the end of
/// the run equal what the job records say: each resource's remote-job count
/// and busy processor-seconds are recomputed from the completed records
/// executed there, and every migrated job is some resource's remote job.
#[test]
fn report_totals_match_the_job_records() {
    for backend in DirectoryBackend::ALL {
        for mode in [
            SchedulingMode::Economy,
            SchedulingMode::FederationNoEconomy,
            SchedulingMode::Independent,
        ] {
            let report = run_with(backend, mode);
            let case = format!("{backend:?} {mode:?}");
            for (i, resource) in report.resources.iter().enumerate() {
                let mut remote = 0;
                let mut busy = 0.0;
                for job in &report.jobs {
                    if let ExecutionOutcome::Completed { executed_on, start, finish, .. } =
                        job.outcome
                    {
                        if executed_on == i {
                            remote += usize::from(job.origin != i);
                            busy += f64::from(job.processors) * (finish - start);
                        }
                    }
                }
                assert_eq!(resource.remote_jobs_processed, remote, "{case}: resource {i}");
                let tolerance = 1e-9 * busy.abs().max(1.0);
                assert!(
                    (resource.busy_processor_seconds - busy).abs() <= tolerance,
                    "{case}: resource {i} busy {} != {busy}",
                    resource.busy_processor_seconds
                );
            }
            let migrated: usize = report.resources.iter().map(|r| r.migrated).sum();
            let remote: usize = report.resources.iter().map(|r| r.remote_jobs_processed).sum();
            assert_eq!(migrated, remote, "{case}: migrated jobs are remote jobs");
            // Only the federated modes migrate, so the check is not vacuous.
            assert_eq!(remote > 0, mode != SchedulingMode::Independent, "{case}: {remote}");
        }
    }
}
