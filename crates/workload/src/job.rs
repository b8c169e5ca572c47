//! The job model shared by every crate in the workspace.
//!
//! A job follows the paper's notation `J_{i,j,k}`: the *i*-th job of user *j*
//! originating at resource *k*.  It carries
//!
//! * the number of processors it needs (`processors`, the paper's `p`),
//! * its total length in million instructions (`length_mi`, the paper's `l`),
//! * the communication overhead `α` expressed in seconds on the originating
//!   resource (`comm_overhead`),
//! * and, once the economy layer has fabricated them, the QoS constraints:
//!   budget `b`, deadline `d` and the user's optimisation [`Strategy`].

use std::fmt;

/// Identifies a user within the federation.  Users are local to an
/// originating resource; the pair `(origin, local index)` is globally unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId {
    /// Index of the resource the user belongs to.
    pub origin: usize,
    /// Index of the user within that resource's local population.
    pub local: usize,
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}.{}", self.origin, self.local)
    }
}

/// Identifies a job.  The pair `(origin, seq)` is globally unique; `seq` is
/// the position of the job in its origin's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId {
    /// Index of the originating resource (the paper's `k`).
    pub origin: usize,
    /// Sequence number of the job within that resource's trace.
    pub seq: usize,
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}.{}", self.origin, self.seq)
    }
}

/// The QoS optimisation strategy a federation user attaches to a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Optimise for cost: minimum possible cost within the deadline.
    Ofc,
    /// Optimise for time: minimum possible response time within the budget.
    Oft,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Ofc => write!(f, "OFC"),
            Strategy::Oft => write!(f, "OFT"),
        }
    }
}

/// QoS constraints fabricated for a job (paper Eq. 7–8) plus the user's
/// strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Qos {
    /// Maximum the user is willing to pay, in Grid Dollars (`b`).
    pub budget: f64,
    /// Maximum acceptable delay from submission, in seconds (`d`).
    pub deadline: f64,
    /// Whether the user optimises for cost or for time.
    pub strategy: Strategy,
}

impl Qos {
    /// A permissive QoS used by the non-economy experiments: effectively
    /// unbounded budget, with the given deadline.
    #[must_use]
    pub fn deadline_only(deadline: f64) -> Self {
        Qos {
            budget: f64::INFINITY,
            deadline,
            strategy: Strategy::Ofc,
        }
    }
}

/// A parallel job, in the units used throughout the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Globally unique id (`(k, i)` in the paper's notation).
    pub id: JobId,
    /// The submitting user (`j`).
    pub user: UserId,
    /// Submission time in simulation seconds (`s_{i,j,k}`).
    pub submit: f64,
    /// Number of processors required (`p_{i,j,k}`).
    pub processors: u32,
    /// Total job length in million instructions (`l_{i,j,k}`).
    pub length_mi: f64,
    /// Communication overhead `α_{i,j,k}`, in seconds.
    pub comm_overhead: f64,
    /// QoS constraints; present once the economy layer has fabricated them.
    pub qos: Qos,
}

impl Job {
    /// The pure computation time of this job on a resource with per-processor
    /// speed `mips` (the `l / (µ·p)` term of Eq. 2).
    ///
    /// # Panics
    /// Panics if `mips` is not positive.
    #[must_use]
    pub fn compute_time(&self, mips: f64) -> f64 {
        assert!(mips > 0.0, "mips must be positive, got {mips}");
        self.length_mi / (mips * f64::from(self.processors))
    }

    /// Absolute completion deadline: `submit + deadline`.
    #[must_use]
    pub fn absolute_deadline(&self) -> f64 {
        self.submit + self.qos.deadline
    }

    /// Builds a job from a trace record expressed in *seconds of runtime on
    /// the originating resource* — the natural unit of both SWF traces and the
    /// synthetic generator.  `origin_mips` converts runtime to million
    /// instructions; `comm_fraction` is the share of the total execution time
    /// that is communication (the paper uses 10 %).
    ///
    /// # Panics
    /// Panics if `origin_mips <= 0`, `processors == 0`, or
    /// `comm_fraction ∉ [0, 1)`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn from_runtime(
        id: JobId,
        user: UserId,
        submit: f64,
        processors: u32,
        runtime_secs: f64,
        origin_mips: f64,
        comm_fraction: f64,
    ) -> Self {
        assert!(origin_mips > 0.0, "origin_mips must be positive");
        assert!(processors > 0, "a job needs at least one processor");
        assert!(
            (0.0..1.0).contains(&comm_fraction),
            "comm_fraction must be in [0,1), got {comm_fraction}"
        );
        // runtime = compute + comm, comm = comm_fraction * runtime
        let compute_secs = runtime_secs * (1.0 - comm_fraction);
        let comm_secs = runtime_secs * comm_fraction;
        let length_mi = compute_secs * origin_mips * f64::from(processors);
        Job {
            id,
            user,
            submit,
            processors,
            length_mi,
            comm_overhead: comm_secs,
            qos: Qos::deadline_only(f64::INFINITY),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        Job {
            id: JobId { origin: 1, seq: 4 },
            user: UserId {
                origin: 1,
                local: 2,
            },
            submit: 100.0,
            processors: 8,
            length_mi: 850.0 * 8.0 * 900.0, // 900 s of compute on an 850-MIPS cluster
            comm_overhead: 100.0,
            qos: Qos {
                budget: 50.0,
                deadline: 2_000.0,
                strategy: Strategy::Ofc,
            },
        }
    }

    #[test]
    fn compute_time_matches_eq2() {
        let j = job();
        assert!((j.compute_time(850.0) - 900.0).abs() < 1e-9);
        assert!((j.compute_time(1_700.0) - 450.0).abs() < 1e-9);
    }

    #[test]
    fn absolute_deadline() {
        assert_eq!(job().absolute_deadline(), 2_100.0);
    }

    #[test]
    fn from_runtime_splits_compute_and_comm() {
        let j = Job::from_runtime(
            JobId { origin: 0, seq: 0 },
            UserId {
                origin: 0,
                local: 0,
            },
            50.0,
            4,
            1_000.0, // total runtime on origin
            700.0,   // origin MIPS
            0.10,    // 10 % of runtime is communication, as in the paper
        );
        assert!((j.comm_overhead - 100.0).abs() < 1e-9);
        assert!((j.compute_time(700.0) - 900.0).abs() < 1e-9);
        // Total time on the origin is compute + comm = original runtime.
        assert!((j.compute_time(700.0) + j.comm_overhead - 1_000.0).abs() < 1e-9);
        assert_eq!(j.qos.budget, f64::INFINITY);
    }

    #[test]
    fn display_impls() {
        let j = job();
        assert_eq!(format!("{}", j.id), "j1.4");
        assert_eq!(format!("{}", j.user), "u1.2");
        assert_eq!(format!("{}", Strategy::Ofc), "OFC");
        assert_eq!(format!("{}", Strategy::Oft), "OFT");
    }

    #[test]
    fn deadline_only_qos_is_permissive() {
        let q = Qos::deadline_only(500.0);
        assert_eq!(q.deadline, 500.0);
        assert!(q.budget.is_infinite());
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processor_job_rejected() {
        let _ = Job::from_runtime(
            JobId { origin: 0, seq: 0 },
            UserId {
                origin: 0,
                local: 0,
            },
            0.0,
            0,
            10.0,
            100.0,
            0.1,
        );
    }
}
