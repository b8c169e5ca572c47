//! Custom federation: build a federation with your own resources, pricing
//! policy and local-scheduler choice, and compare the three resource-sharing
//! environments of the paper (independent, federation without economy,
//! federation with economy) on the same workload.
//!
//! Run with: `cargo run --release --example custom_federation`

use grid_cluster::ResourceSpec;
use grid_federation_core::federation::{
    run_federation, FederationConfig, LrmsKind, SchedulingMode,
};
use grid_federation_core::{apply_commodity_pricing, ChargingPolicy};
use grid_workload::{PopulationProfile, SyntheticWorkloadConfig, UserPopulation};

fn main() {
    // A deliberately heterogeneous three-cluster grid: a large slow machine,
    // a medium one and a small fast one.  Prices are derived from the paper's
    // commodity-market policy (Eq. 5–6) with an access price of 6 G$.
    let mut resources = vec![
        ResourceSpec::new("campus-cluster", 512, 550.0, 1.0, 1.0),
        ResourceSpec::new("department-cluster", 128, 800.0, 2.0, 1.0),
        ResourceSpec::new("accelerator-island", 32, 1_200.0, 4.0, 1.0),
    ];
    apply_commodity_pricing(&mut resources, 6.0);
    for r in &resources {
        println!("{r}");
    }

    // Synthetic workloads: the campus cluster is oversubscribed, the others
    // lightly loaded — the situation federation is meant to fix.
    let loads = [1.3, 0.4, 0.3];
    let workloads: Vec<Vec<grid_workload::Job>> = resources
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut cfg = SyntheticWorkloadConfig::new(i, &spec.name);
            cfg.total_jobs = 150;
            cfg.max_processors = spec.processors;
            cfg.origin_mips = spec.mips;
            cfg.offered_load = loads[i];
            cfg.duration = 86_400.0;
            cfg.max_runtime = 0.25 * cfg.duration;
            cfg.seed = 3 + i as u64;
            cfg.user_count = 12;
            let mut jobs = cfg.generate().into_jobs();
            UserPopulation::new(i, cfg.user_count, PopulationProfile::new(40), 9).apply(&mut jobs);
            jobs
        })
        .collect();

    println!(
        "\n{:<28} {:>12} {:>12} {:>12} {:>10}",
        "environment", "accepted(%)", "migrated", "messages", "traded G$"
    );
    for (label, mode, lrms) in [
        ("independent resources", SchedulingMode::Independent, LrmsKind::SpaceSharedFcfs),
        ("federation, no economy", SchedulingMode::FederationNoEconomy, LrmsKind::SpaceSharedFcfs),
        ("federation + economy", SchedulingMode::Economy, LrmsKind::SpaceSharedFcfs),
        ("federation + economy (EASY)", SchedulingMode::Economy, LrmsKind::EasyBackfilling),
    ] {
        let report = run_federation(
            resources.clone(),
            workloads.clone(),
            FederationConfig {
                mode,
                lrms,
                charging: ChargingPolicy::PerKiloMi,
                ..FederationConfig::default()
            },
        );
        let migrated: usize = report.resources.iter().map(|r| r.migrated).sum();
        println!(
            "{:<28} {:>12.1} {:>12} {:>12} {:>10.0}",
            label,
            report.mean_acceptance_rate(),
            migrated,
            report.messages.total_messages(),
            report.bank.total_volume()
        );
    }
}
