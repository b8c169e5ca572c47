//! # grid-cluster — cluster resources and local resource management systems
//!
//! The Grid-Federation paper assumes that every participating cluster runs a
//! generalized LRMS (PBS, SGE, …) with a **space-shared**, centrally
//! coordinated allocation policy, and evaluates everything on top of
//! GridSim's `SpaceShared` entity.  This crate rebuilds that substrate:
//!
//! * [`resource::ResourceSpec`] — the paper's `R_i = (p_i, µ_i, γ_i)` plus the
//!   access price `c_i`,
//! * [`catalog`] — the eight resources of Table 1, together with the workload
//!   calibration targets used by the synthetic traces,
//! * [`cost`] — the execution-time model of Eq. 2–3 (pricing and the
//!   budget/deadline rules of Eq. 4 and 7–8 live in the federation core's
//!   charging policy),
//! * [`lrms`] — the space-shared local scheduler (queue, allocation,
//!   completion-time estimation for admission control, utilization
//!   accounting), FCFS as in the paper or with EASY backfilling (not part
//!   of the paper's configuration, but a natural extension the paper's
//!   future-work section gestures at).
//!
//! The LRMS is deliberately a *passive* state machine: it is driven by
//! whoever owns the clock (the GFA entities inside `grid-federation-core`,
//! or unit tests calling it directly), and it never schedules events
//! itself.  That keeps it reusable both inside the discrete-event
//! simulation and in standalone analytical tests.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod cost;
mod estimate;
pub mod lrms;
pub mod resource;

pub use catalog::{paper_resources, replicated_resources, PaperResource};
pub use cost::{completion_time, service_time};
pub use lrms::{ClusterJob, LocalScheduler, SpaceShared, SpaceSharedFcfs, StartedJob};
pub use resource::ResourceSpec;
