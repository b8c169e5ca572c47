//! Experiment 2 — federation without economy (Table 3, Fig. 2).
//!
//! The clusters are federated but no economic model is used: each job runs
//! locally when the local cluster can meet its deadline, and otherwise the
//! GFA walks the remaining resources in decreasing order of computational
//! speed.  The comparison against Experiment 1 (Fig. 2) is the paper's
//! argument that federated sharing raises utilization and acceptance.

use grid_federation_core::federation::SchedulingMode;
use grid_workload::PopulationProfile;

use crate::report::{f2, DataTable};
use crate::scenario::{self, Run, Scenario, Workload};
use crate::workloads::WorkloadOptions;

/// Result of Experiment 2 (plus the Experiment 1 control for Fig. 2a).
#[derive(Debug, Clone)]
pub struct Experiment2Result {
    /// The independent-resources control run.
    pub independent: Run,
    /// The federation-without-economy run.
    pub federated: Run,
}

/// The Experiment 1 control and the federation without economy, on the
/// same workload.
#[must_use]
pub fn scenarios(options: &WorkloadOptions) -> Vec<Scenario> {
    let workload = Workload::Paper(PopulationProfile::recommended());
    vec![
        Scenario::new("exp2/independent", workload, SchedulingMode::Independent, options),
        Scenario::new("exp2/federated", workload, SchedulingMode::FederationNoEconomy, options),
    ]
}

/// Runs Experiment 2 (and the Experiment 1 control on the same workload)
/// across at most `jobs` worker threads.
#[must_use]
pub fn run(options: &WorkloadOptions, jobs: usize) -> Experiment2Result {
    let [independent, federated]: [Run; 2] = scenario::run(&scenarios(options), options, jobs)
        .try_into()
        .expect("Experiment 2 is two runs");
    Experiment2Result { independent, federated }
}

/// Renders Table 3: workload processing statistics with federation.
#[must_use]
pub fn table3(result: &Experiment2Result) -> DataTable {
    let mut table = DataTable::new(
        "Table 3: Workload Processing Statistics (With Federation)",
        &[
            "Index",
            "Resource / Cluster Name",
            "Average Resource Utilization (%)",
            "Total Job",
            "Total Job Accepted (%)",
            "Total Job Rejected (%)",
            "No. of Jobs Processed Locally",
            "No. of Jobs Migrated to Federation",
            "No. of Remote Jobs Processed",
        ],
    );
    for (i, r) in result.federated.report.resources.iter().enumerate() {
        table.push_row(vec![
            (i + 1).to_string(),
            r.name.clone(),
            f2(r.utilization_percent()),
            r.total_local_jobs.to_string(),
            f2(r.acceptance_rate()),
            f2(r.rejection_rate()),
            r.processed_locally.to_string(),
            r.migrated.to_string(),
            r.remote_jobs_processed.to_string(),
        ]);
    }
    table
}

/// Renders Fig. 2(a): average resource utilization with and without
/// federation.
#[must_use]
pub fn figure2a(result: &Experiment2Result) -> DataTable {
    let mut table = DataTable::new(
        "Figure 2(a): Average resource utilization (%) vs. resource name",
        &["Resource", "Without federation (%)", "With federation (%)"],
    );
    for (ind, fed) in result
        .independent
        .report
        .resources
        .iter()
        .zip(&result.federated.report.resources)
    {
        table.push_row(vec![
            fed.name.clone(),
            f2(ind.utilization_percent()),
            f2(fed.utilization_percent()),
        ]);
    }
    table
}

/// Renders Fig. 2(b): number of jobs processed locally, migrated to the
/// federation and received from the federation, per resource.
#[must_use]
pub fn figure2b(result: &Experiment2Result) -> DataTable {
    let mut table = DataTable::new(
        "Figure 2(b): No. of jobs vs. resource name",
        &[
            "Resource",
            "Total jobs",
            "Processed locally",
            "Migrated to federation",
            "Remote jobs processed",
        ],
    );
    for r in &result.federated.report.resources {
        table.push_row(vec![
            r.name.clone(),
            r.total_local_jobs.to_string(),
            r.processed_locally.to_string(),
            r.migrated.to_string(),
            r.remote_jobs_processed.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federation_improves_acceptance_and_utilization() {
        let result = run(&WorkloadOptions::quick(), 2);
        let (independent, federated) = (&result.independent.report, &result.federated.report);
        let without = independent.mean_acceptance_rate();
        let with = federated.mean_acceptance_rate();
        assert!(
            with >= without,
            "federation should not lower acceptance ({with:.2} vs {without:.2})"
        );
        // The paper's central claim for Experiment 2: load sharing happens.
        let migrated: usize = federated.resources.iter().map(|r| r.migrated).sum();
        assert!(migrated > 0, "some jobs should migrate in the federation");
        let remote: usize = federated
            .resources
            .iter()
            .map(|r| r.remote_jobs_processed)
            .sum();
        assert_eq!(migrated, remote, "every migrated job is someone's remote job");
        // Accepted jobs respect their deadline guarantees.
        assert!(federated
            .jobs
            .iter()
            .filter(|j| j.was_accepted())
            .all(|j| j.response_time().unwrap() <= j.deadline + 1e-6));
    }

    #[test]
    fn tables_and_figures_have_eight_rows() {
        let result = run(&WorkloadOptions::quick(), 2);
        assert_eq!(table3(&result).len(), 8);
        assert_eq!(figure2a(&result).len(), 8);
        assert_eq!(figure2b(&result).len(), 8);
        assert_eq!(table3(&result).columns.len(), 9);
    }
}
