//! Experiment 4 — message complexity with respect to jobs (Fig. 9).
//!
//! Reuses the Experiment 3 profile sweep and extracts, per GFA, the number of
//! local messages (traffic for its own users' jobs), remote messages (traffic
//! it handles for other GFAs' jobs) and the federation-wide total.

use crate::exp3::ProfileSweep;
use crate::report::DataTable;

/// Fig. 9(a): remote messages received at each GFA, per population profile.
#[must_use]
pub fn figure9a(sweep: &ProfileSweep) -> DataTable {
    per_gfa_messages(sweep, "Figure 9(a): No. of remote messages vs. user population profile", |c| c.remote)
}

/// Fig. 9(b): local messages at each GFA, per population profile.
#[must_use]
pub fn figure9b(sweep: &ProfileSweep) -> DataTable {
    per_gfa_messages(sweep, "Figure 9(b): No. of local messages vs. user population profile", |c| c.local)
}

/// Fig. 9(c): total accountable messages in the federation per profile.
#[must_use]
pub fn figure9c(sweep: &ProfileSweep) -> DataTable {
    let mut table = DataTable::new(
        "Figure 9(c): Total messages vs. user population profile",
        &["Profile", "Total messages"],
    );
    for (profile, run) in sweep.profile_labels().zip(&sweep.runs) {
        table.push_row(vec![
            profile,
            run.report.messages.total_messages().to_string(),
        ]);
    }
    table
}

fn per_gfa_messages<F>(sweep: &ProfileSweep, title: &str, extract: F) -> DataTable
where
    F: Fn(&grid_federation_core::GfaMessageCounters) -> u64,
{
    let mut columns = vec!["Resource".to_string()];
    columns.extend(sweep.profile_labels());
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = DataTable::new(title, &column_refs);
    for (res_idx, name) in sweep.resource_names().enumerate() {
        let mut row = vec![name.to_string()];
        for run in &sweep.runs {
            row.push(extract(run.report.messages.gfa(res_idx)).to_string());
        }
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp3::run_sweep;
    use crate::workloads::WorkloadOptions;
    use grid_workload::PopulationProfile;

    fn sweep() -> ProfileSweep {
        run_sweep(
            &WorkloadOptions::quick(),
            &[PopulationProfile::new(0), PopulationProfile::new(100)],
            2,
        )
    }

    #[test]
    fn message_figures_have_expected_shapes() {
        let s = sweep();
        assert_eq!(figure9a(&s).len(), 8);
        assert_eq!(figure9b(&s).len(), 8);
        assert_eq!(figure9c(&s).len(), 2);
        assert_eq!(figure9a(&s).columns.len(), 3);
    }

    #[test]
    fn cheapest_resource_receives_most_remote_messages_under_ofc() {
        let s = sweep();
        let report = s.report_for(0).unwrap();
        let remote: Vec<u64> = (0..8).map(|i| report.messages.gfa(i).remote).collect();
        let max_idx = remote
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| **v)
            .map(|(i, _)| i)
            .unwrap();
        // LANL Origin (3) or LANL CM5 (2), the two cheapest, should lead.
        assert!(
            max_idx == 3 || max_idx == 2,
            "remote messages per GFA under all-OFC: {remote:?}"
        );
    }

    #[test]
    fn oft_generates_more_total_messages_than_ofc() {
        let s = sweep();
        let ofc = s.report_for(0).unwrap().messages.total_messages();
        let oft = s.report_for(100).unwrap().messages.total_messages();
        assert!(
            oft > ofc,
            "all-OFT should generate more messages than all-OFC ({oft} vs {ofc})"
        );
    }

    #[test]
    fn ledger_totals_are_consistent() {
        let s = sweep();
        for report in s.runs.iter().map(|run| &run.report) {
            let per_gfa_local: u64 = (0..8).map(|i| report.messages.gfa(i).local).sum();
            let per_job: u64 = report.jobs.iter().map(|j| u64::from(j.messages)).sum();
            // Every accountable message is attributed to exactly one origin
            // (locally) and to exactly one job.
            assert_eq!(per_gfa_local, report.messages.total_messages());
            assert_eq!(per_job, report.messages.total_messages());
        }
    }
}
