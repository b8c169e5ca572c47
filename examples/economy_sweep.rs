//! Economy sweep: reproduce the paper's central population-profile study on
//! a reduced workload and print how incentive, acceptance and message counts
//! change as the share of time-optimising (OFT) users grows.
//!
//! This is Experiment 3/4 of the paper in miniature; `run_all` runs the
//! full-scale version.
//!
//! Run with: `cargo run --release --example economy_sweep`

use grid_experiments::workloads::WorkloadOptions;
use grid_experiments::{exp3, parallel};
use grid_workload::PopulationProfile;

fn main() {
    let options = WorkloadOptions::quick();
    let profiles: Vec<PopulationProfile> = [0u32, 10, 30, 50, 70, 100]
        .iter()
        .map(|p| PopulationProfile::new(*p))
        .collect();

    println!(
        "running {} federation simulations (quick workload)…",
        profiles.len()
    );
    let sweep = exp3::run_sweep(&options, &profiles, parallel::default_jobs());

    println!(
        "\n{:<12} {:>14} {:>12} {:>12} {:>14} {:>12}",
        "profile", "incentive(G$)", "accepted(%)", "messages", "avg resp (s)", "avg cost"
    );
    for run in &sweep.runs {
        let report = &run.report;
        println!(
            "{:<12} {:>14.3e} {:>12.2} {:>12} {:>14.1} {:>12.1}",
            run.scenario.workload.profile().label(),
            report.total_incentive(),
            report.mean_acceptance_rate(),
            report.messages.total_messages(),
            report.federation_avg_response_time(true),
            report.federation_avg_budget_spent(true),
        );
    }

    // The paper's recommendation: ~70 % OFC / 30 % OFT balances owner
    // incentive against message overhead.
    let recommended = sweep.report_for(30).expect("30 % profile was in the sweep");
    println!(
        "\nat the recommended 70/30 mix every owner earned incentive: {}",
        recommended.resources.iter().all(|r| r.incentive > 0.0)
    );
    println!("\nfigure 3(a) data:\n{}", exp3::figure3a(&sweep).to_ascii());
}
