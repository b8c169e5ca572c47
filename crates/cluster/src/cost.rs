//! The analytic cost model of the paper (Eq. 1–4) and the QoS fabrication
//! rules (Eq. 7–8).
//!
//! Everything in the federation — admission control, the OFC/OFT choice,
//! incentive accounting — is expressed in terms of two functions of a job
//! `J` and a candidate resource `R_m`:
//!
//! * `D(J, R_m)` — the execution (service) time on `R_m`,
//! * `B(J, R_m)` — the price charged by `R_m`'s owner for that execution.

use crate::resource::ResourceSpec;
use grid_workload::Job;

/// Total data transferred during the parallel execution of `job`,
/// `Γ(J, R_k) = α·γ_k` (Eq. 1).  `origin` must be the resource the job
/// originated at (the paper's `R_k`).
#[must_use]
pub fn transfer_volume(job: &Job, origin: &ResourceSpec) -> f64 {
    job.comm_overhead * origin.bandwidth
}

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

/// Cost of executing `job` on `target`, `B(J, R_m) = c_m · l / (µ_m · p)`
/// (Eq. 4).  Only compute time is charged, as in the paper.
#[must_use]
pub fn cost(job: &Job, target: &ResourceSpec) -> f64 {
    target.price * job.compute_time(target.mips)
}

/// Fabricates the QoS constraints the paper assigns to every trace job
/// (Eq. 7–8): a budget of twice the cost on the originating resource and a
/// deadline of twice the execution time on the originating resource.
///
/// Returns `(budget, deadline)`.
#[must_use]
pub fn fabricate_qos(job: &Job, origin: &ResourceSpec) -> (f64, f64) {
    let budget = 2.0 * cost(job, origin);
    let deadline = 2.0 * completion_time(job, origin, origin);
    (budget, deadline)
}

/// Applies [`fabricate_qos`] to a whole slice of jobs in place, preserving
/// each job's strategy assignment.
pub fn fabricate_qos_all(jobs: &mut [Job], origin: &ResourceSpec) {
    for job in jobs.iter_mut() {
        let (budget, deadline) = fabricate_qos(job, origin);
        job.qos.budget = budget;
        job.qos.deadline = deadline;
    }
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
            user: UserId { origin: 2, local: 0 },
            submit: 0.0,
            processors: 32,
            // 1800 s of compute on the 700-MIPS origin.
            length_mi: 1_800.0 * 700.0 * 32.0,
            comm_overhead: 200.0,
            qos: Qos { budget: 0.0, deadline: 0.0, strategy: Strategy::Ofc },
        }
    }

    #[test]
    fn transfer_volume_is_alpha_times_origin_bandwidth() {
        assert!((transfer_volume(&job(), &origin()) - 200.0 * 1.0).abs() < 1e-12);
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

    #[test]
    fn cost_charges_only_compute_time() {
        let j = job();
        let b_origin = cost(&j, &origin());
        assert!((b_origin - 3.98 * 1_800.0).abs() < 1e-9);
        let b_fast = cost(&j, &target_fast());
        assert!((b_fast - 5.3 * (1_800.0 * 700.0 / 930.0)).abs() < 1e-6);
        // The fast resource is more expensive for this job even though it is
        // quicker — the price/speed ratio is what matters.
        assert!(b_fast > b_origin);
    }

    #[test]
    fn qos_fabrication_doubles_origin_cost_and_time() {
        let j = job();
        let (budget, deadline) = fabricate_qos(&j, &origin());
        assert!((budget - 2.0 * 3.98 * 1_800.0).abs() < 1e-9);
        assert!((deadline - 2.0 * 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn fabricate_all_preserves_strategy() {
        let mut jobs = vec![job(), job()];
        jobs[1].qos.strategy = Strategy::Oft;
        fabricate_qos_all(&mut jobs, &origin());
        assert_eq!(jobs[0].qos.strategy, Strategy::Ofc);
        assert_eq!(jobs[1].qos.strategy, Strategy::Oft);
        assert!(jobs.iter().all(|j| j.qos.budget > 0.0 && j.qos.deadline > 0.0));
    }

    #[test]
    fn budget_always_affords_the_origin_and_cheaper_resources() {
        // A corollary the scheduler relies on: with Eq. 7 budgets, OFC users
        // can always afford any resource whose price/MIPS ratio is at most
        // twice the origin's.
        let j = {
            let mut j = job();
            let (b, d) = fabricate_qos(&j, &origin());
            j.qos.budget = b;
            j.qos.deadline = d;
            j
        };
        assert!(cost(&j, &origin()) <= j.qos.budget);
        let cheaper = ResourceSpec::new("LANL Origin", 2048, 630.0, 1.6, 3.59);
        assert!(cost(&j, &cheaper) <= j.qos.budget);
    }
}
