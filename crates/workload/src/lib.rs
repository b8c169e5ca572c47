//! # grid-workload — parallel workload models for the Grid-Federation reproduction
//!
//! The paper drives its simulations with two days of real traces from the
//! Parallel Workloads Archive (CTC SP2, KTH SP2, LANL CM5, LANL Origin,
//! NASA iPSC, SDSC Par96, SDSC Blue and SDSC SP2).  Those traces cannot be
//! redistributed here, so this crate provides both halves of the
//! substitution:
//!
//! 1. a full **Standard Workload Format (SWF)** parser/writer ([`swf`]), so
//!    that anyone holding the original archive files can replay them
//!    unmodified, and
//! 2. a **synthetic workload generator** ([`synthetic`]) in the spirit of the
//!    Lublin–Feitelson model (daily arrival cycle, power-of-two parallelism,
//!    heavy-tailed runtimes) that is calibrated per resource to the job
//!    counts and offered load reported in the paper's Tables 1 and 2.
//!
//! Both halves produce jobs through the streaming [`source::JobSource`]
//! abstraction: synthetic populations and SWF traces yield jobs lazily
//! ([`synthetic::SyntheticJobStream`], [`swf::SwfJobStream`]) so
//! million-job workloads never need to be materialised as `Vec<Job>`, and
//! the sanctioned [`source::JobSource::collect_jobs`] adapter marks the few
//! consumers that still collect eagerly.
//!
//! The crate also defines the [`job::Job`] type shared by every other crate
//! in the workspace, the log-normal runtime distribution the generator
//! samples ([`dist`] — implemented from scratch so no extra dependencies are
//! needed), and the user population machinery that splits users into
//! *optimise-for-cost* (OFC) and *optimise-for-time* (OFT) camps
//! ([`population`]).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dist;
pub mod job;
pub mod population;
pub mod source;
pub mod swf;
pub mod synthetic;

pub use dist::LogNormal;
pub use job::{Job, JobId, Qos, Strategy, UserId};
pub use population::{PopulationProfile, UserPopulation};
pub use source::{JobSource, Populated};
pub use swf::{SwfJobStream, SwfParseError, SwfRecord, SwfTrace};
pub use synthetic::{SyntheticJobStream, SyntheticWorkload, SyntheticWorkloadConfig};
