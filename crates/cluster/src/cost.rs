//! The execution-time model of the paper (Eq. 2–3).
//!
//! Admission control and the OFC/OFT choice rank a candidate resource `R_m`
//! for a job `J` by `D(J, R_m)`, the job's execution (service) time on
//! `R_m`.  The price `B(J, R_m)` of Eq. 4 and the budget/deadline rules of
//! Eq. 7–8 belong to the charging policy, `ChargingPolicy` in
//! `grid-federation-core`'s economy module.

use crate::resource::ResourceSpec;
use grid_workload::Job;

/// Execution time of `job` on `target`,
/// `D(J, R_m) = l / (µ_m · p) + α·γ_k / γ_m` (Eq. 2–3).
///
/// The communication term scales with the ratio of the origin's bandwidth to
/// the target's: moving a job from a fat-pipe cluster to a thin-pipe cluster
/// inflates its communication phase proportionally.
#[must_use]
pub fn completion_time(job: &Job, target: &ResourceSpec, origin: &ResourceSpec) -> f64 {
    service_time(job, target.mips, target.bandwidth, origin)
}

/// [`completion_time`] on a target given by its per-processor speed `mips`
/// and interconnect `bandwidth` alone, e.g. read off a directory quote.
#[must_use]
pub fn service_time(job: &Job, mips: f64, bandwidth: f64, origin: &ResourceSpec) -> f64 {
    job.compute_time(mips) + job.comm_overhead * origin.bandwidth / bandwidth
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_workload::{JobId, Qos, Strategy, UserId};

    fn origin() -> ResourceSpec {
        // LANL CM5 from Table 1.
        ResourceSpec::new("LANL CM5", 1024, 700.0, 1.0, 3.98)
    }

    fn target_fast() -> ResourceSpec {
        // NASA iPSC: fastest and best-connected.
        ResourceSpec::new("NASA iPSC", 128, 930.0, 4.0, 5.3)
    }

    fn job() -> Job {
        Job {
            id: JobId { origin: 2, seq: 0 },
            user: UserId {
                origin: 2,
                local: 0,
            },
            submit: 0.0,
            processors: 32,
            // 1800 s of compute on the 700-MIPS origin.
            length_mi: 1_800.0 * 700.0 * 32.0,
            comm_overhead: 200.0,
            qos: Qos {
                budget: 0.0,
                deadline: 0.0,
                strategy: Strategy::Ofc,
            },
        }
    }

    #[test]
    fn completion_time_on_origin_is_compute_plus_comm() {
        let d = completion_time(&job(), &origin(), &origin());
        assert!((d - (1_800.0 + 200.0)).abs() < 1e-9);
    }

    #[test]
    fn completion_time_on_faster_resource_is_shorter() {
        let j = job();
        let d_origin = completion_time(&j, &origin(), &origin());
        let d_fast = completion_time(&j, &target_fast(), &origin());
        // Compute shrinks by 700/930, comm shrinks by 1.0/4.0.
        let expected = 1_800.0 * 700.0 / 930.0 + 200.0 * 1.0 / 4.0;
        assert!((d_fast - expected).abs() < 1e-9);
        assert!(d_fast < d_origin);
    }
}
