//! # grid-experiments — the experiment harness of the reproduction
//!
//! One module per experiment of the paper, each regenerating the
//! corresponding tables/figures from the same substrate the other crates
//! provide:
//!
//! | Module | Paper artefacts |
//! |--------|-----------------|
//! | [`exp1`] | Table 2 (independent resources) |
//! | [`exp2`] | Table 3, Fig. 2(a), Fig. 2(b) (federation without economy) |
//! | [`exp3`] | Fig. 3–8 (federation with economy, 11 population profiles) |
//! | [`exp4`] | Fig. 9 (local/remote/total message complexity) |
//! | [`exp5`] | Fig. 10–11 (message complexity vs. system size 10–50) |
//! | [`exp6`] | beyond the paper: churn tolerance (lookup availability, retry and stabilization traffic, latency degradation vs. churn rate × replication factor) |
//! | [`exp7`] | beyond the paper: unreliable network (loss/jitter/duplication fault sweep with the outcome digest pinned to the lossless run; reactive vs. periodic ring repair) |
//! | [`tables`] | Table 1 (resource configuration) and Table 4 (superscheduler comparison) |
//! | [`summary`] | the headline claims `run_all` prints and records in `summary.md` |
//! | [`scenario`] | one federation run of any experiment, the shared runner and the digest manifest |
//!
//! Shared infrastructure: [`workloads`] builds the calibrated synthetic
//! traces for the Table 1 resources (and replicated federations for
//! Experiment 5); [`report`] provides the [`report::DataTable`] type every
//! figure is rendered into (ASCII for the terminal, CSV for plotting);
//! [`obs`] renders the p50/p90/p99 percentile summary of the headline runs;
//! [`parallel`] is the bounded worker pool (`--jobs N`) with a
//! deterministic, run-ordered merge that [`scenario::run`] fans runs across.
//!
//! The `run_all` binary in `src/bin/` drives these modules from the command
//! line: it regenerates every artefact in one go and writes them under
//! `results/`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exp1;
pub mod exp2;
pub mod exp3;
pub mod exp4;
pub mod exp5;
pub mod exp6;
pub mod exp7;
pub mod obs;
pub mod parallel;
pub mod report;
pub mod scenario;
pub mod summary;
pub mod tables;
pub mod workloads;

pub use report::DataTable;
pub use workloads::{paper_workloads, replicated_workloads, ExperimentSetup, WorkloadOptions};
