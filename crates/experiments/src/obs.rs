//! Observability rendering for `run_all`: the p50/p90/p99 percentile
//! summary of every headline report.
//!
//! Everything here is read-only over finished runs' reports: the
//! metrics registry is always recording (it is part of the report), so the
//! summary adds a CSV without perturbing any `RunDigest`.

use grid_federation_core::HistId;

use crate::report::DataTable;
use crate::scenario::Run;

/// Renders the cross-experiment percentile summary: one row per
/// (run, distribution) pair, labelled with the run's manifest label,
/// suitable for a single CSV covering every headline report of a `run_all`
/// invocation.
#[must_use]
pub fn percentile_summary<'a>(runs: impl IntoIterator<Item = &'a Run>) -> DataTable {
    let mut table = DataTable::new(
        "Percentile summary — all experiments",
        &["Run", "Distribution", "Samples", "p50", "p90", "p99"],
    );
    for run in runs {
        for hist in HistId::ALL {
            let q = run.report.metrics.quantiles(hist);
            table.push_row(vec![
                run.scenario.label.clone(),
                hist.id().to_string(),
                q.count.to_string(),
                f3(q.p50),
                f3(q.p90),
                f3(q.p99),
            ]);
        }
    }
    table
}

/// Three-decimal formatting for percentile cells (latencies can sit well
/// below the two-decimal table grain).
fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp1;
    use crate::workloads::WorkloadOptions;

    #[test]
    fn percentile_summary_covers_every_distribution() {
        let result = exp1::run(&WorkloadOptions::quick());
        let summary = percentile_summary([&result]);
        assert_eq!(summary.len(), HistId::COUNT);
        // The independent run records waits and queue depths even without
        // federation traffic.
        let wait = &summary.rows[0];
        assert_eq!(wait[..2], ["exp1/independent", "job_wait_seconds"]);
        assert!(wait[2].parse::<u64>().unwrap() > 0);
    }
}
