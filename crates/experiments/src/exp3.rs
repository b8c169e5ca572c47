//! Experiment 3 — federation with economy (Fig. 3–8).
//!
//! The full Grid-Federation with the commodity-market economy is run under
//! eleven population profiles (OFT share 0 %, 10 %, …, 100 %).  Each profile
//! is an independent simulation, so the sweep is a list of scenarios that
//! the shared runner fans across the worker pool, keeping every individual
//! run single-threaded and deterministic.

use grid_federation_core::federation::SchedulingMode;
use grid_federation_core::FederationReport;
use grid_workload::PopulationProfile;

use crate::report::{f2, sci, DataTable};
use crate::scenario::{self, Run, Scenario, Workload};
use crate::workloads::WorkloadOptions;

/// The result of sweeping the population profiles: one run per profile, in
/// sweep order.
#[derive(Debug, Clone)]
pub struct ProfileSweep {
    /// One run per profile.
    pub runs: Vec<Run>,
}

impl ProfileSweep {
    /// The report for a given OFT percentage, if it was part of the sweep.
    #[must_use]
    pub fn report_for(&self, oft_percent: u32) -> Option<&FederationReport> {
        self.runs
            .iter()
            .find(|run| run.scenario.workload.profile().oft_percent == oft_percent)
            .map(|run| &run.report)
    }

    /// Names of the resources (shared by all runs).
    pub(crate) fn resource_names(&self) -> impl Iterator<Item = &str> {
        self.runs
            .iter()
            .take(1)
            .flat_map(|run| run.report.resources.iter().map(|m| m.name.as_str()))
    }

    /// The profile labels, in sweep order.
    pub(crate) fn profile_labels(&self) -> impl Iterator<Item = String> + '_ {
        self.runs.iter().map(|run| run.scenario.workload.profile().label())
    }
}

/// The economy federation of the paper's eight resources under every
/// profile in `profiles`.
#[must_use]
pub fn scenarios(options: &WorkloadOptions, profiles: &[PopulationProfile]) -> Vec<Scenario> {
    profiles
        .iter()
        .map(|&profile| {
            let label = format!("exp3/{}", profile.label());
            Scenario::new(label, Workload::Paper(profile), SchedulingMode::Economy, options)
        })
        .collect()
}

/// Runs the economy federation for every profile in `profiles` across at
/// most `jobs` worker threads.
#[must_use]
pub fn run_sweep(
    options: &WorkloadOptions,
    profiles: &[PopulationProfile],
    jobs: usize,
) -> ProfileSweep {
    ProfileSweep {
        runs: scenario::run(&scenarios(options, profiles), options, jobs),
    }
}

/// Builds a wide table with one row per resource and one column per profile,
/// filling cells with `value(report, resource_index)`.
fn per_resource_table<F>(sweep: &ProfileSweep, title: &str, value: F) -> DataTable
where
    F: Fn(&FederationReport, usize) -> String,
{
    let mut columns = vec!["Resource".to_string()];
    columns.extend(sweep.profile_labels());
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = DataTable::new(title, &column_refs);
    for (res_idx, name) in sweep.resource_names().enumerate() {
        let mut row = vec![name.to_string()];
        for run in &sweep.runs {
            row.push(value(&run.report, res_idx));
        }
        table.push_row(row);
    }
    table
}

/// Fig. 3(a): total incentive (Grid Dollars) earned by each resource owner
/// under every population profile; the last row is the federation total.
#[must_use]
pub fn figure3a(sweep: &ProfileSweep) -> DataTable {
    let mut table = per_resource_table(
        sweep,
        "Figure 3(a): Total incentive (Grid Dollars) vs. user population profile",
        |report, i| sci(report.resources[i].incentive),
    );
    let mut total_row = vec!["TOTAL".to_string()];
    for run in &sweep.runs {
        total_row.push(sci(run.report.total_incentive()));
    }
    table.push_row(total_row);
    table
}

/// Fig. 3(b): number of remote jobs serviced by each resource.
#[must_use]
pub fn figure3b(sweep: &ProfileSweep) -> DataTable {
    per_resource_table(
        sweep,
        "Figure 3(b): No. of remote jobs serviced vs. user population profile",
        |report, i| report.resources[i].remote_jobs_processed.to_string(),
    )
}

/// Fig. 4: average resource utilization (%) per resource and profile.
#[must_use]
pub fn figure4(sweep: &ProfileSweep) -> DataTable {
    per_resource_table(
        sweep,
        "Figure 4: Average resource utilization (%) vs. user population profile",
        |report, i| f2(report.resources[i].utilization_percent()),
    )
}

/// Fig. 5: job processing characteristics — jobs processed locally vs.
/// migrated, per resource and profile (long format).
#[must_use]
pub fn figure5(sweep: &ProfileSweep) -> DataTable {
    let mut table = DataTable::new(
        "Figure 5: Job processing characteristic vs. user population profile",
        &[
            "Resource",
            "Profile",
            "Processed locally",
            "Migrated to federation",
            "Remote jobs processed",
        ],
    );
    for (res_idx, name) in sweep.resource_names().enumerate() {
        for (profile, run) in sweep.profile_labels().zip(&sweep.runs) {
            let m = &run.report.resources[res_idx];
            table.push_row(vec![
                name.to_string(),
                profile,
                m.processed_locally.to_string(),
                m.migrated.to_string(),
                m.remote_jobs_processed.to_string(),
            ]);
        }
    }
    table
}

/// Fig. 6: number of jobs rejected per resource and profile.
#[must_use]
pub fn figure6(sweep: &ProfileSweep) -> DataTable {
    per_resource_table(
        sweep,
        "Figure 6: No. of jobs rejected vs. user population profile",
        |report, i| report.resources[i].rejected.to_string(),
    )
}

/// Fig. 7(a): average response time (sim units) per resource and profile,
/// excluding rejected jobs.
#[must_use]
pub fn figure7a(sweep: &ProfileSweep) -> DataTable {
    per_resource_table(
        sweep,
        "Figure 7(a): Average response time (Sim Units) vs. user population profile (excluding rejected jobs)",
        |report, i| f2(report.avg_response_time(i, false)),
    )
}

/// Fig. 7(b): average budget spent (Grid Dollars) per resource and profile,
/// excluding rejected jobs.
#[must_use]
pub fn figure7b(sweep: &ProfileSweep) -> DataTable {
    per_resource_table(
        sweep,
        "Figure 7(b): Average budget spent (Grid Dollars) vs. user population profile (excluding rejected jobs)",
        |report, i| f2(report.avg_budget_spent(i, false)),
    )
}

/// Fig. 8(a): average response time including rejected jobs (counted at their
/// expected response time on the originating resource).
#[must_use]
pub fn figure8a(sweep: &ProfileSweep) -> DataTable {
    per_resource_table(
        sweep,
        "Figure 8(a): Average response time (Sim Units) vs. user population profile (including rejected jobs)",
        |report, i| f2(report.avg_response_time(i, true)),
    )
}

/// Fig. 8(b): average budget spent including rejected jobs.
#[must_use]
pub fn figure8b(sweep: &ProfileSweep) -> DataTable {
    per_resource_table(
        sweep,
        "Figure 8(b): Average budget spent (Grid Dollars) vs. user population profile (including rejected jobs)",
        |report, i| f2(report.avg_budget_spent(i, true)),
    )
}

/// Every figure of the experiment, as `(file name, table)` pairs in a
/// stable order.
#[must_use]
pub fn tables(sweep: &ProfileSweep) -> [(&'static str, DataTable); 9] {
    [
        ("fig3a_incentive.csv", figure3a(sweep)),
        ("fig3b_remote_jobs.csv", figure3b(sweep)),
        ("fig4_utilization.csv", figure4(sweep)),
        ("fig5_job_processing.csv", figure5(sweep)),
        ("fig6_rejected.csv", figure6(sweep)),
        ("fig7a_response_excl.csv", figure7a(sweep)),
        ("fig7b_budget_excl.csv", figure7b(sweep)),
        ("fig8a_response_incl.csv", figure8a(sweep)),
        ("fig8b_budget_incl.csv", figure8b(sweep)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep() -> ProfileSweep {
        run_sweep(
            &WorkloadOptions::quick(),
            &[
                PopulationProfile::new(0),
                PopulationProfile::new(50),
                PopulationProfile::new(100),
            ],
            2,
        )
    }

    #[test]
    fn sweep_produces_one_report_per_profile() {
        let sweep = small_sweep();
        assert_eq!(sweep.runs.len(), 3);
        assert_eq!(sweep.resource_names().count(), 8);
        assert!(sweep.report_for(50).is_some());
        assert!(sweep.report_for(40).is_none());
    }

    #[test]
    fn oft_majority_earns_more_total_incentive_than_ofc_majority() {
        let sweep = small_sweep();
        let ofc = sweep.report_for(0).unwrap().total_incentive();
        let oft = sweep.report_for(100).unwrap().total_incentive();
        assert!(
            oft > ofc,
            "all-OFT incentive ({oft:.3e}) should exceed all-OFC ({ofc:.3e})"
        );
    }

    #[test]
    fn ofc_concentrates_jobs_on_cheap_resources() {
        let sweep = small_sweep();
        let report = sweep.report_for(0).unwrap();
        // LANL Origin (index 3) is the cheapest: under all-OFC it services the
        // most remote jobs.
        let remote: Vec<usize> = report
            .resources
            .iter()
            .map(|r| r.remote_jobs_processed)
            .collect();
        let max_idx = remote
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| **v)
            .map(|(i, _)| i)
            .unwrap();
        assert!(
            max_idx == 3 || max_idx == 2,
            "one of the two cheapest resources (LANL Origin / LANL CM5) should              service the most remote jobs under all-OFC; got {remote:?}"
        );
        // Under all-OFT the cheap resources lose that remote load: the
        // paper's observation that the cost-effective LANL machines service
        // considerably fewer remote jobs once the majority seeks OFT.
        let report_oft = sweep.report_for(100).unwrap();
        let remote_oft: Vec<usize> = report_oft
            .resources
            .iter()
            .map(|r| r.remote_jobs_processed)
            .collect();
        assert!(
            remote_oft[3] < remote[3] / 2,
            "LANL Origin should service far fewer remote jobs under OFT \
             (OFC: {}, OFT: {})",
            remote[3],
            remote_oft[3]
        );
        // And the load spreads: more resources take part in remote service.
        let active_ofc = remote.iter().filter(|v| **v > 0).count();
        let active_oft = remote_oft.iter().filter(|v| **v > 0).count();
        assert!(
            active_oft >= active_ofc,
            "OFT should spread remote jobs over at least as many resources \
             (OFC: {active_ofc}, OFT: {active_oft})"
        );
    }

    #[test]
    fn figures_have_expected_shapes() {
        let sweep = small_sweep();
        assert_eq!(figure3a(&sweep).len(), 9); // 8 resources + TOTAL
        assert_eq!(figure3b(&sweep).len(), 8);
        assert_eq!(figure4(&sweep).len(), 8);
        assert_eq!(figure5(&sweep).len(), 8 * 3);
        assert_eq!(figure6(&sweep).len(), 8);
        for fig in [figure7a(&sweep), figure7b(&sweep), figure8a(&sweep), figure8b(&sweep)] {
            assert_eq!(fig.len(), 8);
            assert_eq!(fig.columns.len(), 1 + 3);
        }
    }

    #[test]
    fn users_pay_more_but_wait_less_under_oft() {
        // Fig. 7/8: OFT users see shorter average response times but spend
        // more of their budget than OFC users (under the per-1000-MI charging
        // policy the paper's magnitudes imply).
        let sweep = small_sweep();
        let ofc = sweep.report_for(0).unwrap();
        let oft = sweep.report_for(100).unwrap();
        // On the reduced quick trace the fast resources are small, so an
        // all-OFT population can queue on them; allow a generous margin and
        // leave the paper-scale response-time comparison to full-scale
        // `run_all`.
        let resp_ofc = ofc.federation_avg_response_time(true);
        let resp_oft = oft.federation_avg_response_time(true);
        assert!(
            resp_oft <= resp_ofc * 1.5,
            "OFT should not blow up the federation-wide response time \
             ({resp_oft:.1} vs {resp_ofc:.1})"
        );
        let spend_ofc = ofc.federation_avg_budget_spent(true);
        let spend_oft = oft.federation_avg_budget_spent(true);
        assert!(
            spend_oft > spend_ofc,
            "OFT users should spend more on average ({spend_oft:.1} vs {spend_ofc:.1})"
        );
    }
}
