//! Experiment 1 — independent resources (Table 2).
//!
//! Every cluster schedules only its own local workload; a job is accepted iff
//! the local LRMS can finish it before its deadline, otherwise it is
//! rejected.  This is the control experiment the federation results are
//! compared against.

use std::cell::RefCell;
use std::rc::Rc;

use grid_federation_core::federation::{FederationBuilder, SchedulingMode};
use grid_federation_core::SpanCollector;
use grid_workload::PopulationProfile;

use crate::report::{f2, DataTable};
use crate::scenario::{Run, Scenario, Workload};
use crate::workloads::WorkloadOptions;

/// The independent-resources run on the paper's eight resources.  The
/// population profile is irrelevant without the economy; the paper's
/// recommended mix is used so the same workload can be reused elsewhere.
#[must_use]
pub fn scenario(options: &WorkloadOptions) -> Scenario {
    Scenario::new(
        "exp1/independent",
        Workload::Paper(PopulationProfile::recommended()),
        SchedulingMode::Independent,
        options,
    )
}

/// Runs Experiment 1 on the paper's eight resources.
#[must_use]
pub fn run(options: &WorkloadOptions) -> Run {
    Run::of(&scenario(options), options)
}

/// Runs Experiment 1 with a span collector armed: the same run as [`run`]
/// — digests are bit-identical, the obs-inertness tests pin that — but
/// every handler's spans land in `tracer`.
#[must_use]
pub fn run_traced(options: &WorkloadOptions, tracer: Rc<RefCell<SpanCollector>>) -> Run {
    let scenario = scenario(options);
    let setup = scenario.workload.build(options);
    let report = FederationBuilder::new(setup.resources)
        .workloads(setup.workloads)
        .config(scenario.config.clone())
        .tracer(tracer)
        .run();
    Run { scenario, report }
}

/// Renders Table 2: per-resource utilization, job counts and
/// acceptance/rejection rates without federation.
#[must_use]
pub fn table2(result: &Run) -> DataTable {
    let mut table = DataTable::new(
        "Table 2: Workload Processing Statistics (Without Federation)",
        &[
            "Index",
            "Resource / Cluster Name",
            "Average Resource Utilization (%)",
            "Total Job",
            "Total Job Accepted (%)",
            "Total Job Rejected (%)",
        ],
    );
    for (i, r) in result.report.resources.iter().enumerate() {
        table.push_row(vec![
            (i + 1).to_string(),
            r.name.clone(),
            f2(r.utilization_percent()),
            r.total_local_jobs.to_string(),
            f2(r.acceptance_rate()),
            f2(r.rejection_rate()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_run_produces_table2_shape() {
        let result = run(&WorkloadOptions::quick());
        let table = table2(&result);
        assert_eq!(table.len(), 8);
        assert_eq!(table.columns.len(), 6);
        // No migration and no messages are possible in this mode.
        assert!(result.report.jobs.iter().all(|j| !j.was_migrated()));
        assert_eq!(result.report.messages.total_messages(), 0);
        // Every resource processed at least some of its own jobs.
        assert!(result
            .report
            .resources
            .iter()
            .all(|r| r.total_local_jobs > 0));
        // The undersubscribed resources accept most jobs; the oversubscribed
        // SDSC machines reject a visible share — the paper's qualitative
        // picture.
        let ctc = &result.report.resources[0];
        assert!(ctc.acceptance_rate() > 70.0, "CTC acceptance {}", ctc.acceptance_rate());
        // Even the reduced quick trace produces some rejections somewhere in
        // the system (the full-scale Table 2 shape — SDSC Blue and SDSC SP2
        // as the rejection hotspots — is regenerated by `run_all`).
        let rates: Vec<f64> = result
            .report
            .resources
            .iter()
            .map(|r| r.rejection_rate())
            .collect();
        assert!(
            rates.iter().any(|r| *r > 0.0),
            "expected at least one rejection, got {rates:?}"
        );
        assert!(result.report.mean_acceptance_rate() < 100.0);
    }
}
