//! Regression tests for the acceptance criterion that parallel runs are
//! **bitwise-deterministic**: one mixed scenario list — points of
//! Experiments 3, 5, 6 and 7 — run sequentially (`jobs = 1`), through the
//! worker pool (`jobs = 4`), and through every adversarial claim-order
//! permutation must produce identical runs.
//!
//! Identity is asserted twice: on the digest manifest, whose hash-chained
//! [`grid_federation_core::RunDigest`] per run commits to the full
//! job/bank/message history, and on every CSV the experiments' tables
//! render from the runs.

use grid_experiments::exp5::Stat;
use grid_experiments::parallel::{run_indexed_with_schedule, ClaimSchedule};
use grid_experiments::scenario::{self, Run, Scenario};
use grid_experiments::workloads::WorkloadOptions;
use grid_experiments::{exp3, exp4, exp5, exp6, exp7};
use grid_federation_core::DirectoryBackend;
use grid_workload::PopulationProfile;

// A small grid: cheap enough to run on every push, complete enough to mix
// every experiment's scenario shape and both robustness panels of exp7.
const PROFILES: [u32; 2] = [0, 100];
const SIZES: [usize; 2] = [8, 16];
const KS: [usize; 2] = [1, 3];

fn profiles() -> Vec<PopulationProfile> {
    PROFILES.map(PopulationProfile::new).to_vec()
}

/// The mixed scenario list, experiment by experiment.
fn scenarios(options: &WorkloadOptions) -> Vec<Scenario> {
    [
        exp3::scenarios(options, &profiles()),
        exp5::scenarios(options, &SIZES, &profiles()[1..], DirectoryBackend::Maan),
        exp6::scenarios(options, &exp6::DEFAULT_LEVELS[1..2], &KS),
        exp7::scenarios(options, &exp7::DEFAULT_FAULTS[..1], DirectoryBackend::Maan),
        exp7::repair_scenarios(options),
    ]
    .concat()
}

/// Every CSV the experiments render from `runs`, the runs of
/// [`scenarios`] in order.
fn csvs(runs: &[Run]) -> Vec<String> {
    let mut rest = runs.iter().cloned();
    let mut next = |n: usize| rest.by_ref().take(n).collect::<Vec<Run>>();
    let profile_sweep = exp3::ProfileSweep {
        runs: next(PROFILES.len()),
    };
    let scalability = exp5::ScalabilitySweep {
        backend: DirectoryBackend::Maan,
        sizes: SIZES.to_vec(),
        profiles: profiles()[1..].to_vec(),
        runs: next(SIZES.len()),
    };
    let churn = exp6::ChurnSweep {
        levels: exp6::DEFAULT_LEVELS[1..2].to_vec(),
        ks: KS.to_vec(),
        runs: next(1 + KS.len()),
    };
    let faults = exp7::UnreliableSweep {
        backend: DirectoryBackend::Maan,
        levels: exp7::DEFAULT_FAULTS[..1].to_vec(),
        runs: next(2),
    };
    let [periodic, reactive]: [Run; 2] = next(2).try_into().expect("two repair runs");
    assert!(next(1).is_empty(), "every run is pivoted into a table");

    let mut out: Vec<String> = exp3::tables(&profile_sweep)
        .iter()
        .map(|(_, t)| t.to_csv())
        .collect();
    out.push(exp4::figure9c(&profile_sweep).to_csv());
    for stat in Stat::ALL {
        out.push(exp5::figure10(&scalability, stat).to_csv());
        out.push(exp5::figure_directory(&scalability, stat).to_csv());
    }
    out.extend(exp6::tables(&churn).iter().map(|(_, t)| t.to_csv()));
    let repair = exp7::RepairComparison { periodic, reactive };
    out.extend(
        exp7::render_all_csvs(&[faults], &repair)
            .into_iter()
            .map(|(_, csv)| csv),
    );
    out
}

fn assert_runs_identical(reference: &[Run], other: &[Run], what: &str) {
    let manifest = scenario::digest_manifest(reference);
    assert_eq!(
        manifest.lines().count(),
        reference.len(),
        "one manifest line per run"
    );
    assert_eq!(
        manifest,
        scenario::digest_manifest(other),
        "digest manifest differs: {what}"
    );
    assert_eq!(csvs(reference), csvs(other), "rendered CSVs differ: {what}");
}

#[test]
fn parallel_sweep_runs_are_bitwise_identical_to_sequential() {
    let options = WorkloadOptions::quick();
    let scenarios = scenarios(&options);
    let sequential = scenario::run(&scenarios, &options, 1);
    let parallel = scenario::run(&scenarios, &options, 4);
    assert_runs_identical(&sequential, &parallel, "sequential vs parallel");
}

/// The schedule-permutation harness: the production worker pool claims the
/// mixed list in adversarial orders (reversed, strided, seeded shuffles,
/// with OS-yield stalls injected) that ascending claims would only reach
/// under pathological thread scheduling, and the merged runs must remain
/// identical to the sequential ones under every one of them.
#[test]
fn adversarial_claim_schedules_produce_identical_runs() {
    let options = WorkloadOptions::quick();
    let scenarios = scenarios(&options);
    let reference = scenario::run(&scenarios, &options, 1);

    for schedule in ClaimSchedule::adversarial_suite(scenarios.len()) {
        let runs = run_indexed_with_schedule(scenarios.len(), 4, &schedule, |i| {
            Run::of(&scenarios[i], &options)
        });
        assert_runs_identical(
            &reference,
            &runs,
            &format!("claim schedule {}", schedule.label()),
        );
    }
}
