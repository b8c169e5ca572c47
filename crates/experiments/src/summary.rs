//! Headline-claim extraction: the quantities the paper's abstract and
//! conclusion highlight, gathered from the experiment results so that
//! `run_all` (and the integration tests) can compare paper vs. measured
//! values directly.

use crate::exp2::Experiment2Result;
use crate::exp3::ProfileSweep;
use crate::report::DataTable;

/// The headline claims of the paper and the corresponding measured values.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadlineClaims {
    /// Mean acceptance rate without federation (paper: 90.30 %).
    pub acceptance_without_federation: f64,
    /// Mean acceptance rate with federation (paper: 98.61 %).
    pub acceptance_with_federation: f64,
    /// Total incentive when every user seeks OFC (paper: 2.12 × 10⁹ G$).
    pub total_incentive_all_ofc: f64,
    /// Total incentive when every user seeks OFT (paper: 2.30 × 10⁹ G$).
    pub total_incentive_all_oft: f64,
    /// Total messages when every user seeks OFC (paper: 1.024 × 10⁴).
    pub total_messages_all_ofc: u64,
    /// Total messages when every user seeks OFT (paper: 1.948 × 10⁴).
    pub total_messages_all_oft: u64,
    /// Federation-wide average budget spent under all-OFC, including rejected
    /// jobs (paper: 8.874 × 10⁵ vs. 9.359 × 10⁵ without federation).
    pub avg_budget_all_ofc: f64,
    /// Federation-wide average response time under all-OFT, including
    /// rejected jobs (paper: 1.171 × 10⁴ vs. 1.207 × 10⁴ without federation).
    pub avg_response_all_oft: f64,
}

impl HeadlineClaims {
    /// Extracts the claims from the Experiment 2 result and the Experiment 3
    /// profile sweep (which must contain the 0 % and 100 % OFT profiles).
    ///
    /// # Panics
    /// Panics if the sweep lacks the all-OFC or all-OFT profile.
    #[must_use]
    pub fn extract(exp2: &Experiment2Result, sweep: &ProfileSweep) -> Self {
        let ofc = sweep
            .report_for(0)
            .expect("sweep must include the all-OFC profile");
        let oft = sweep
            .report_for(100)
            .expect("sweep must include the all-OFT profile");
        HeadlineClaims {
            acceptance_without_federation: exp2.independent.report.mean_acceptance_rate(),
            acceptance_with_federation: exp2.federated.report.mean_acceptance_rate(),
            total_incentive_all_ofc: ofc.total_incentive(),
            total_incentive_all_oft: oft.total_incentive(),
            total_messages_all_ofc: ofc.messages.total_messages(),
            total_messages_all_oft: oft.messages.total_messages(),
            avg_budget_all_ofc: ofc.federation_avg_budget_spent(true),
            avg_response_all_oft: oft.federation_avg_response_time(true),
        }
    }

    /// Whether the *directional* claims of the paper hold for these measured
    /// values (federation raises acceptance, OFT earns more total incentive
    /// and costs more messages than OFC).
    #[must_use]
    pub fn directional_claims_hold(&self) -> bool {
        self.acceptance_with_federation >= self.acceptance_without_federation
            && self.total_incentive_all_oft > self.total_incentive_all_ofc
            && self.total_messages_all_oft > self.total_messages_all_ofc
    }

    /// Renders the paper-vs-measured table `run_all` prints and writes.
    #[must_use]
    pub fn to_table(&self) -> DataTable {
        let mut t = DataTable::new(
            "Headline claims: paper vs. measured",
            &["Quantity", "Paper", "Measured"],
        );
        t.push_row(vec![
            "Mean acceptance rate without federation (%)".into(),
            "90.30".into(),
            format!("{:.2}", self.acceptance_without_federation),
        ]);
        t.push_row(vec![
            "Mean acceptance rate with federation (%)".into(),
            "98.61".into(),
            format!("{:.2}", self.acceptance_with_federation),
        ]);
        t.push_row(vec![
            "Total incentive, 100% OFC (Grid Dollars)".into(),
            "2.12e9".into(),
            format!("{:.3e}", self.total_incentive_all_ofc),
        ]);
        t.push_row(vec![
            "Total incentive, 100% OFT (Grid Dollars)".into(),
            "2.30e9".into(),
            format!("{:.3e}", self.total_incentive_all_oft),
        ]);
        t.push_row(vec![
            "Total messages, 100% OFC".into(),
            "1.024e4".into(),
            format!("{}", self.total_messages_all_ofc),
        ]);
        t.push_row(vec![
            "Total messages, 100% OFT".into(),
            "1.948e4".into(),
            format!("{}", self.total_messages_all_oft),
        ]);
        t.push_row(vec![
            "Avg budget spent, 100% OFC, incl. rejected (G$)".into(),
            "8.874e5".into(),
            format!("{:.3e}", self.avg_budget_all_ofc),
        ]);
        t.push_row(vec![
            "Avg response time, 100% OFT, incl. rejected (s)".into(),
            "1.171e4".into(),
            format!("{:.3e}", self.avg_response_all_oft),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp2;
    use crate::exp3::run_sweep;
    use crate::workloads::WorkloadOptions;
    use grid_workload::PopulationProfile;

    #[test]
    fn headline_claims_hold_directionally_on_the_quick_workload() {
        let options = WorkloadOptions::quick();
        let exp2_result = exp2::run(&options, 2);
        let sweep = run_sweep(
            &options,
            &[PopulationProfile::new(0), PopulationProfile::new(100)],
            2,
        );
        let claims = HeadlineClaims::extract(&exp2_result, &sweep);
        assert!(
            claims.directional_claims_hold(),
            "directional claims failed: {claims:#?}"
        );
        let table = claims.to_table();
        assert_eq!(table.len(), 8);
        assert!(table.to_ascii().contains("Measured"));
    }
}
