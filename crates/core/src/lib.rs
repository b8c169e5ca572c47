//! # grid-federation-core — the Grid-Federation resource management model
//!
//! This crate implements the paper's primary contribution: a decentralised,
//! economy-driven super-scheduling system that couples autonomous clusters
//! into a *Grid-Federation*.
//!
//! * [`accounting`] — the one accounting write path: every message,
//!   directory and publish charge, job conclusion, payment and job outcome
//!   is a [`Charge`] folded by [`SharedState::record`] into the message
//!   ledger, the audit chains, the GridBank and the job records at once.
//! * [`economy`] — the commodity-market pricing function (Eq. 5–6) and the
//!   GridBank credit service that accumulates resource-owner incentives.
//! * [`messages`] — the negotiate / reply / job-submission / job-completion
//!   vocabulary and the local-vs-remote message accounting of Experiments
//!   4–5.
//! * [`gfa`] — the Grid Federation Agent: admission control, the
//!   deadline-and-budget-constrained (DBC) scheduling loop with its
//!   OFC (optimise-for-cost) and OFT (optimise-for-time) strategies, and the
//!   execution of local and remote jobs on the cluster's LRMS.
//! * [`federation`] — the builder that assembles GFAs, the shared federation
//!   directory, the GridBank and the workloads into one deterministic
//!   discrete-event simulation, in any of the three sharing environments the
//!   paper evaluates (independent, federation without economy, federation
//!   with economy), optionally under a seeded churn model
//!   ([`federation::ChurnConfig`]) with directory self-healing and
//!   retry-with-backoff degradation at the GFAs.
//! * [`metrics`] — per-job, per-resource and federation-wide statistics
//!   matching the paper's tables and figures.
//! * [`audit`] — the hash-chained audit ledger: every job outcome, message
//!   charge and bank mutation folds into per-GFA chained digests, and the
//!   run-level [`RunDigest`] turns whole-run differentials into a single
//!   integer comparison.
//!
//! ## Quick example
//!
//! ```
//! use grid_cluster::ResourceSpec;
//! use grid_federation_core::federation::{run_federation, FederationConfig, SchedulingMode};
//! use grid_workload::{Job, JobId, Strategy, UserId};
//!
//! let resources = vec![
//!     ResourceSpec::new("cheap", 64, 600.0, 1.0, 2.4),
//!     ResourceSpec::new("fast", 64, 1000.0, 2.0, 4.0),
//! ];
//! let mut job = Job::from_runtime(
//!     JobId { origin: 0, seq: 0 },
//!     UserId { origin: 0, local: 0 },
//!     0.0,     // submit time
//!     8,       // processors
//!     600.0,   // runtime on the origin, seconds
//!     600.0,   // origin MIPS
//!     0.10,    // communication share
//! );
//! job.qos.strategy = Strategy::Oft;
//! let report = run_federation(
//!     resources,
//!     vec![vec![job], vec![]],
//!     FederationConfig::with_mode(SchedulingMode::Economy),
//! );
//! assert_eq!(report.jobs.len(), 1);
//! assert!(report.jobs[0].was_accepted());
//! assert!(report.jobs[0].was_migrated()); // OFT picks the fast cluster
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accounting;
pub mod audit;
pub mod economy;
pub mod federation;
pub mod gfa;
#[cfg(feature = "invariants")]
pub mod invariants;
pub mod messages;
pub mod metrics;
mod script;

pub use accounting::Charge;
pub use audit::{AuditLedger, RunDigest};
pub use economy::{apply_commodity_pricing, quote_price, ChargingPolicy, GridBank, PAPER_ACCESS_PRICE};
pub use federation::{
    run_federation, ChurnConfig, FederationBuilder, FederationConfig, GfaSchedule, LrmsKind,
    RepairMode, RetryPolicy, SchedulingMode, SharedState,
};
pub use grid_des::{Jitter, NetworkFaultConfig};
pub use grid_directory::{CacheStats, DirectoryBackend};
pub use grid_obs::{Counter, FSum, HistId, MetricsRegistry, ProfileTable, Quantiles, SpanCollector};
pub use gfa::Gfa;
#[cfg(feature = "invariants")]
pub use invariants::InvariantSentry;
pub use messages::{FedMessage, GfaMessageCounters, MessageLedger, MessageType};
pub use metrics::{ExecutionOutcome, FederationReport, JobRecord, ResourceMetrics};
