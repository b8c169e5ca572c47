//! Regression tests for the acceptance criterion that parallel sweeps are
//! **bitwise-deterministic**: running the Experiment 5 sweep sequentially
//! (`jobs = 1`), through the worker pool (`jobs = 4`), and through every
//! adversarial claim-order permutation must produce identical runs.
//!
//! Identity is asserted on the digest manifests: every run's hash-chained
//! [`grid_federation_core::RunDigest`] commits to the full job/bank/message
//! history, so comparing them is the O(runs) equivalent of diffing every
//! rendered CSV.

use grid_experiments::exp5;
use grid_experiments::parallel::{run_indexed_with_schedule, ClaimSchedule};
use grid_experiments::workloads::WorkloadOptions;
use grid_federation_core::DirectoryBackend;
use grid_workload::PopulationProfile;

fn assert_sweeps_identical(reference: &[exp5::ScalabilitySweep], other: &[exp5::ScalabilitySweep], what: &str) {
    let manifest_r = exp5::digest_manifest(reference);
    assert!(!manifest_r.is_empty(), "manifests must cover the runs");
    assert_eq!(manifest_r, exp5::digest_manifest(other), "digest manifest differs: {what}");
}

#[test]
fn parallel_sweep_runs_are_bitwise_identical_to_sequential() {
    // A small grid: cheap enough to run on every push,
    // complete enough to cover all backends and the whole sweep path.
    let options = WorkloadOptions::quick();
    let sizes = [8usize, 16];
    let profiles = [PopulationProfile::new(50)];

    let run = |jobs: usize| -> Vec<exp5::ScalabilitySweep> {
        DirectoryBackend::ALL
            .iter()
            .map(|&backend| exp5::run_sweep(&options, &sizes, &profiles, backend, jobs))
            .collect()
    };

    let sequential = run(1);
    let parallel = run(4);
    assert_sweeps_identical(&sequential, &parallel, "sequential vs parallel");
}

/// The schedule-permutation harness: the production worker pool claims
/// exp5's points in adversarial orders (reversed, strided, seeded shuffles,
/// with OS-yield stalls injected) that ascending claims would only reach
/// under pathological thread scheduling, and the merged runs must remain
/// digest-identical to the sequential sweep under every one of them.
#[test]
fn adversarial_claim_schedules_produce_identical_runs() {
    let options = WorkloadOptions::quick();
    let sizes = [8usize, 16];
    let profile = PopulationProfile::new(50);
    let backend = DirectoryBackend::Maan;

    let reference = exp5::run_sweep(&options, &sizes, &[profile], backend, 1);

    for schedule in ClaimSchedule::adversarial_suite(sizes.len()) {
        let reports = run_indexed_with_schedule(sizes.len(), 4, &schedule, |i| {
            exp5::run_point(&options, sizes[i], profile, backend)
        });
        let sweep = exp5::ScalabilitySweep {
            backend,
            sizes: sizes.to_vec(),
            profiles: vec![profile],
            reports: reports.into_iter().map(|report| vec![report]).collect(),
        };
        assert_sweeps_identical(
            std::slice::from_ref(&reference),
            std::slice::from_ref(&sweep),
            &format!("claim schedule {}", schedule.label()),
        );
    }
}
