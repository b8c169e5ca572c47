//! # grid-federation — facade crate
//!
//! Re-exports the whole Grid-Federation reproduction workspace behind a
//! single dependency, so downstream users can write
//! `grid_federation::core::run_federation(..)` instead of depending on each
//! member crate individually.  See the workspace `README.md` for the
//! architecture overview and the paper-reproduction details.
//!
//! | Module | Workspace crate |
//! |---|---|
//! | [`des`] | `grid-des` — deterministic discrete-event engine |
//! | [`obs`] | `grid-obs` — metrics registry, span tracing, self-profiling |
//! | [`workload`] | `grid-workload` — jobs, SWF traces, synthetic generators |
//! | [`cluster`] | `grid-cluster` — resources, cost model, LRMS policies |
//! | [`directory`] | `grid-directory` — shared federation directory |
//! | [`core`] | `grid-federation-core` — GFAs, economy, DBC scheduling |
//! | [`experiments`] | `grid-experiments` — the paper's experiments 1–7 |

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub use grid_cluster as cluster;
pub use grid_des as des;
pub use grid_directory as directory;
pub use grid_experiments as experiments;
pub use grid_federation_core as core;
pub use grid_obs as obs;
pub use grid_workload as workload;

/// Convenience prelude bringing the most commonly used types into scope.
pub mod prelude {
    pub use grid_cluster::{LocalScheduler, ResourceSpec};
    pub use grid_directory::DirectoryBackend;
    pub use grid_federation_core::federation::{
        run_federation, FederationBuilder, FederationConfig, LrmsKind, SchedulingMode,
    };
    pub use grid_federation_core::{ChargingPolicy, ExecutionOutcome, FederationReport, JobRecord};
    pub use grid_workload::{Job, JobId, PopulationProfile, Qos, Strategy, UserId};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_work_end_to_end() {
        let resources = vec![
            ResourceSpec::new("a", 16, 500.0, 1.0, 2.0),
            ResourceSpec::new("b", 16, 1_000.0, 1.0, 4.0),
        ];
        let mut job = Job::from_runtime(
            JobId { origin: 0, seq: 0 },
            UserId { origin: 0, local: 0 },
            0.0,
            4,
            100.0,
            500.0,
            0.1,
        );
        job.qos.strategy = Strategy::Oft;
        let report = run_federation(
            resources,
            vec![vec![job], vec![]],
            FederationConfig::with_mode(SchedulingMode::Economy),
        );
        assert_eq!(report.jobs.len(), 1);
        assert!(report.jobs[0].was_accepted());
    }
}
