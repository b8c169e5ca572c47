//! Integration test: the paper's headline claims hold on the reproduction.
//!
//! These tests run the actual experiment pipeline (on the reduced "quick"
//! workload so the suite stays fast in debug builds) and check the
//! *directional* results the paper reports:
//!
//! * federating the clusters raises the average job acceptance rate and
//!   utilization (Experiment 1 vs 2),
//! * an all-OFT population generates more total incentive and more messages
//!   than an all-OFC population (Experiments 3–4),
//! * message complexity per job grows slowly (sub-linearly in the workload)
//!   with the federation size (Experiment 5),
//! * every resource owner earns incentive at the recommended 70 % OFC /
//!   30 % OFT mix.

use grid_experiments::exp5::Stat;
use grid_experiments::summary::HeadlineClaims;
use grid_experiments::workloads::WorkloadOptions;
use grid_experiments::{exp1, exp2, exp3, exp4, exp5};
use grid_federation_core::DirectoryBackend;
use grid_workload::PopulationProfile;

fn options() -> WorkloadOptions {
    WorkloadOptions::quick()
}

#[test]
fn federation_raises_acceptance_and_utilization() {
    let result = exp2::run(&options(), 2);
    let (independent, federated) = (&result.independent.report, &result.federated.report);
    let without = independent.mean_acceptance_rate();
    let with = federated.mean_acceptance_rate();
    assert!(
        with > without,
        "federation should raise mean acceptance ({without:.2} % -> {with:.2} %)"
    );
    let util_without = independent.mean_utilization_percent();
    let util_with = federated.mean_utilization_percent();
    assert!(
        util_with > util_without,
        "federation should raise mean utilization ({util_without:.2} % -> {util_with:.2} %)"
    );
    // Load sharing: every migrated job is processed remotely somewhere.
    let migrated: usize = federated.resources.iter().map(|r| r.migrated).sum();
    let remote: usize = federated
        .resources
        .iter()
        .map(|r| r.remote_jobs_processed)
        .sum();
    assert_eq!(migrated, remote);
    assert!(migrated > 0);
}

#[test]
fn table2_and_table3_regenerate_with_paper_shapes() {
    let e1 = exp1::run(&options());
    let t2 = exp1::table2(&e1);
    assert_eq!(t2.len(), 8);
    let e2 = exp2::run(&options(), 2);
    let t3 = exp2::table3(&e2);
    assert_eq!(t3.len(), 8);
    assert_eq!(exp2::figure2a(&e2).len(), 8);
    assert_eq!(exp2::figure2b(&e2).len(), 8);
    // CSV renderings are well-formed (header + 8 rows).
    assert_eq!(t2.to_csv().lines().count(), 9);
    assert_eq!(t3.to_csv().lines().count(), 9);
}

#[test]
fn economy_claims_hold_directionally() {
    let e2 = exp2::run(&options(), 2);
    let sweep = exp3::run_sweep(
        &options(),
        &[
            PopulationProfile::new(0),
            PopulationProfile::new(30),
            PopulationProfile::new(100),
        ],
        2,
    );
    let claims = HeadlineClaims::extract(&e2, &sweep);
    assert!(
        claims.directional_claims_hold(),
        "directional claims failed: {claims:#?}"
    );

    // At the recommended 70/30 mix the incentive is spread over at least as
    // many owners as under the all-OFC population (at full scale *every*
    // owner earns incentive; the reduced quick trace can leave one small
    // resource idle).
    let earning = |report: &grid_federation_core::FederationReport| {
        report.resources.iter().filter(|r| r.incentive > 0.0).count()
    };
    let recommended = sweep.report_for(30).unwrap();
    let all_ofc = sweep.report_for(0).unwrap();
    assert!(
        earning(recommended) >= earning(all_ofc),
        "the 70/30 mix should spread incentive over at least as many owners \
         as all-OFC ({} vs {})",
        earning(recommended),
        earning(all_ofc)
    );
    assert!(earning(recommended) >= 6, "most owners should earn incentive at 70/30");

    // Message figures are consistent with the ledger.
    let fig9c = exp4::figure9c(&sweep);
    assert_eq!(fig9c.len(), 3);
    for run in &sweep.runs {
        let row = fig9c
            .rows
            .iter()
            .find(|r| r[0] == run.scenario.workload.profile().label())
            .expect("profile row present");
        assert_eq!(row[1], run.report.messages.total_messages().to_string());
    }
}

#[test]
fn qos_constraints_are_respected_by_accepted_jobs() {
    let sweep = exp3::run_sweep(&options(), &[PopulationProfile::new(50)], 1);
    let report = &sweep.runs[0].report;
    for job in report.jobs.iter().filter(|j| j.was_accepted()) {
        let response = job.response_time().unwrap();
        assert!(
            response <= job.deadline + 1e-6,
            "job {} finished after its deadline ({response:.1} > {:.1})",
            job.id,
            job.deadline
        );
    }
    // OFT users never exceed their budget (their candidate filter enforces it).
    for job in report
        .jobs
        .iter()
        .filter(|j| j.was_accepted() && j.strategy == grid_workload::Strategy::Oft)
    {
        assert!(
            job.cost_paid().unwrap() <= job.budget + 1e-6,
            "OFT job {} exceeded its budget",
            job.id
        );
    }
    // The GridBank balances and matches the total incentive.
    assert!(report.bank.is_balanced());
    assert!((report.bank.total_volume() - report.total_incentive()).abs() < 1e-6);
}

#[test]
fn message_complexity_grows_slowly_with_system_size() {
    let sweep = exp5::run_sweep(
        &options(),
        &[10, 20, 40],
        &[PopulationProfile::new(0), PopulationProfile::new(100)],
        DirectoryBackend::Ideal,
        2,
    );
    for (pi, profile) in sweep.profiles.iter().enumerate() {
        let per_job: Vec<f64> = sweep
            .sizes
            .iter()
            .enumerate()
            .map(|(si, _)| {
                let (_, avg, _) = sweep.row(si)[pi].report.per_job_summary(|j| j.messages);
                avg
            })
            .collect();
        // Growing the federation 4x should grow the per-job message count by
        // clearly less than 8x (the paper argues the growth is "relatively
        // slow" compared to the system size).
        assert!(
            per_job[2] < per_job[0] * 8.0,
            "profile {}: per-job messages {per_job:?} grew too fast",
            profile.label()
        );
        assert!(per_job[0] >= 2.0);
        // Figures render with one row per size.
        assert_eq!(exp5::figure10(&sweep, Stat::Avg).len(), 3);
        assert_eq!(exp5::figure11(&sweep, Stat::Max).len(), 3);
    }
}
