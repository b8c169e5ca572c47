//! One federation run of the experiment grid, and the runner and digest
//! manifest every experiment shares.
//!
//! A [`Scenario`] is a run's manifest label, the federation it builds
//! ([`Workload`]) and the [`FederationConfig`] it runs under.  Experiments
//! 2, 3, 5, 6 and 7 each list their grid as scenarios; [`run`] fans any
//! list across the [`parallel`](crate::parallel) pool and returns the runs
//! in list order, each experiment pivots those runs into its tables, and
//! [`digest_manifest`] renders any sequence of runs as the lines of
//! `MANIFEST_digests.txt`.

use grid_federation_core::federation::{run_federation, FederationConfig, SchedulingMode};
use grid_federation_core::FederationReport;
use grid_workload::PopulationProfile;

use crate::parallel::{run_indexed_with_schedule, ClaimSchedule};
use crate::workloads::{paper_workloads, replicated_workloads, ExperimentSetup, WorkloadOptions};

/// The federation a scenario builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// The paper's eight Table 1 resources ([`paper_workloads`]).
    Paper(PopulationProfile),
    /// `n` replicated Table 1 resources ([`replicated_workloads`]).
    Replicated(usize, PopulationProfile),
}

impl Workload {
    /// The population profile the workloads are built with.
    #[must_use]
    pub fn profile(self) -> PopulationProfile {
        match self {
            Workload::Paper(profile) | Workload::Replicated(_, profile) => profile,
        }
    }

    /// Builds the resources and their local workloads.
    #[must_use]
    pub fn build(self, options: &WorkloadOptions) -> ExperimentSetup {
        match self {
            Workload::Paper(profile) => paper_workloads(profile, options),
            Workload::Replicated(n, profile) => replicated_workloads(n, profile, options),
        }
    }
}

/// One federation run: what it is called, what it simulates and how.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The run's manifest label, e.g. `exp5/maan/size20/OFC50/OFT50`.
    pub label: String,
    /// The federation the run builds.
    pub workload: Workload,
    /// The configuration the run uses.
    pub config: FederationConfig,
}

impl Scenario {
    /// A scenario under `mode`, seeded with the master seed and reporting
    /// utilization over the trace duration, otherwise at the defaults.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        workload: Workload,
        mode: SchedulingMode,
        options: &WorkloadOptions,
    ) -> Self {
        Scenario {
            label: label.into(),
            workload,
            config: FederationConfig {
                mode,
                seed: options.seed,
                utilization_horizon: Some(options.duration),
                ..FederationConfig::default()
            },
        }
    }

    /// The same scenario with `edit` applied to its configuration.
    #[must_use]
    pub fn with(mut self, edit: impl FnOnce(&mut FederationConfig)) -> Self {
        edit(&mut self.config);
        self
    }

    /// Builds the workload and runs the federation on the calling thread.
    #[must_use]
    pub fn run(&self, options: &WorkloadOptions) -> FederationReport {
        let setup = self.workload.build(options);
        run_federation(setup.resources, setup.workloads, self.config.clone())
    }
}

/// A scenario and the report its run produced.
#[derive(Debug, Clone)]
pub struct Run {
    /// What was run.
    pub scenario: Scenario,
    /// What the run produced.
    pub report: FederationReport,
}

impl Run {
    /// Runs `scenario` on the calling thread.
    #[must_use]
    pub fn of(scenario: &Scenario, options: &WorkloadOptions) -> Self {
        Run {
            scenario: scenario.clone(),
            report: scenario.run(options),
        }
    }
}

/// Runs every scenario across at most `jobs` worker threads and returns the
/// runs in scenario order.  Every seed a run needs derives from its own
/// scenario, never from which worker runs it or when, so the result is
/// bitwise-identical for any `jobs` value.
#[must_use]
pub fn run(scenarios: &[Scenario], options: &WorkloadOptions, jobs: usize) -> Vec<Run> {
    let schedule = ClaimSchedule::identity(scenarios.len());
    run_indexed_with_schedule(scenarios.len(), jobs, &schedule, |i| {
        Run::of(&scenarios[i], options)
    })
}

/// Renders one `label digest` line per run, in the order given.  Each digest
/// is the run's [`grid_federation_core::RunDigest`] (outcome digest, full
/// digest, entry count), so two executions are behaviourally identical iff
/// their manifests are byte-identical; `run_all` writes this format to
/// `MANIFEST_digests.txt`.
#[must_use]
pub fn digest_manifest<'a>(runs: impl IntoIterator<Item = &'a Run>) -> String {
    runs.into_iter()
        .map(|run| format!("{} {}\n", run.scenario.label, run.report.digest))
        .collect()
}
