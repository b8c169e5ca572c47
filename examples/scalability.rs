//! Scalability study: how does the Grid-Federation's message complexity grow
//! with the number of clusters?
//!
//! This is a reduced version of Experiment 5; `run_all` runs the full sweep.
//!
//! Run with: `cargo run --release --example scalability`

use grid_experiments::workloads::{replicated_workloads, WorkloadOptions};
use grid_federation_core::federation::{run_federation, FederationConfig, SchedulingMode};
use grid_workload::PopulationProfile;

fn main() {
    let options = WorkloadOptions::quick();
    let profile = PopulationProfile::recommended();

    println!(
        "{:>6} {:>10} {:>16} {:>16}",
        "size", "jobs", "fed msgs/job", "fed msgs total"
    );
    for size in [8usize, 16, 24, 32] {
        let setup = replicated_workloads(size, profile, &options);
        let total_jobs = setup.total_jobs();

        // Grid-Federation (directory + one-to-one negotiation).
        let report = run_federation(
            setup.resources,
            setup.workloads,
            FederationConfig::with_mode(SchedulingMode::Economy),
        );
        let (_, per_job, _) = report.per_job_summary(|j| j.messages);

        println!(
            "{:>6} {:>10} {:>16.2} {:>16}",
            size,
            total_jobs,
            per_job,
            report.messages.total_messages()
        );
    }
    println!(
        "\nThe federation's per-job message count grows slowly: the directory absorbs the\n\
         lookup cost and each negotiation is one-to-one, the paper's scalability argument."
    );
}
