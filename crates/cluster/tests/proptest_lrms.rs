//! Property-based tests for the local schedulers: the space-shared FCFS
//! policy and the EASY-backfilling variant must never over-allocate
//! processors, must account utilization consistently, and their
//! completion-time estimators must be safe (never optimistic for FCFS).

use grid_cluster::{ClusterJob, EasyBackfilling, LocalScheduler, SpaceSharedFcfs};
use grid_workload::JobId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct JobInput {
    arrival_gap: f64,
    procs_fraction: f64,
    service: f64,
}

fn job_input() -> impl Strategy<Value = JobInput> {
    (0.0f64..500.0, 0.01f64..1.0, 1.0f64..5_000.0).prop_map(|(arrival_gap, procs_fraction, service)| {
        JobInput {
            arrival_gap,
            procs_fraction,
            service,
        }
    })
}

/// Drives a scheduler through a whole workload, checking capacity and time
/// monotonicity at every step, and returns (completed jobs, makespan).
fn drive<S: LocalScheduler>(
    scheduler: &mut S,
    total_procs: u32,
    inputs: &[JobInput],
) -> (usize, f64) {
    let mut running: Vec<grid_cluster::StartedJob> = Vec::new();
    let mut now = 0.0f64;
    let mut completed = 0usize;
    for (i, input) in inputs.iter().enumerate() {
        // Finish everything that ends before this arrival.
        let arrival = now + input.arrival_gap;
        while let Some(next) = running
            .iter()
            .filter(|s| s.finish <= arrival)
            .min_by(|a, b| a.finish.total_cmp(&b.finish))
            .copied()
        {
            running.retain(|s| s.id != next.id);
            let newly = scheduler.on_finished(next.id, next.finish);
            completed += 1;
            running.extend(newly);
            assert!(scheduler.busy_processors() <= total_procs);
        }
        now = arrival;
        let procs = ((f64::from(total_procs) * input.procs_fraction).ceil() as u32).clamp(1, total_procs);
        let started = scheduler.submit(
            ClusterJob {
                id: JobId { origin: 0, seq: i },
                processors: procs,
                service_time: input.service,
            },
            now,
        );
        running.extend(started);
        assert!(scheduler.busy_processors() <= total_procs, "over-allocation");
    }
    // Drain the rest.
    let mut makespan = now;
    while let Some(next) = running
        .iter()
        .min_by(|a, b| a.finish.total_cmp(&b.finish))
        .copied()
    {
        running.retain(|s| s.id != next.id);
        let newly = scheduler.on_finished(next.id, next.finish);
        completed += 1;
        makespan = makespan.max(next.finish);
        running.extend(newly);
        assert!(scheduler.busy_processors() <= total_procs);
    }
    (completed, makespan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both schedulers run every submitted job exactly once, never
    /// over-allocate and end up with an empty machine whose accumulated busy
    /// time equals the total submitted work.
    #[test]
    fn schedulers_conserve_work(
        inputs in proptest::collection::vec(job_input(), 1..60),
        procs_pow in 3u32..9,
    ) {
        let total_procs = 1u32 << procs_pow;
        let total_work: f64 = inputs
            .iter()
            .map(|i| {
                let procs = ((f64::from(total_procs) * i.procs_fraction).ceil() as u32)
                    .clamp(1, total_procs);
                i.service * f64::from(procs)
            })
            .sum();

        let mut fcfs = SpaceSharedFcfs::new(total_procs);
        let (completed, makespan) = drive(&mut fcfs, total_procs, &inputs);
        prop_assert_eq!(completed, inputs.len());
        prop_assert_eq!(fcfs.busy_processors(), 0);
        prop_assert_eq!(fcfs.queued_count(), 0);
        let busy = fcfs.busy_processor_seconds(makespan);
        prop_assert!((busy - total_work).abs() <= 1e-6 * total_work.max(1.0),
            "FCFS busy {} != submitted work {}", busy, total_work);
        prop_assert!(busy <= f64::from(total_procs) * makespan * (1.0 + 1e-9));

        let mut easy = EasyBackfilling::new(total_procs);
        let (completed_e, makespan_e) = drive(&mut easy, total_procs, &inputs);
        prop_assert_eq!(completed_e, inputs.len());
        prop_assert_eq!(easy.busy_processors(), 0);
        let busy_e = easy.busy_processor_seconds(makespan_e);
        prop_assert!((busy_e - total_work).abs() <= 1e-6 * total_work.max(1.0));
        // Backfilling can only help the makespan on identical input when all
        // arrivals and services are identical... in general it may differ, but
        // it must never lose or duplicate work (checked above).
    }

    /// For FCFS without future arrivals, the completion-time estimator is
    /// exact: submitting the probed job immediately afterwards realises the
    /// estimated completion time.
    #[test]
    fn fcfs_estimator_is_exact(
        inputs in proptest::collection::vec(job_input(), 0..30),
        probe in job_input(),
        procs_pow in 3u32..8,
    ) {
        let total_procs = 1u32 << procs_pow;
        let mut fcfs = SpaceSharedFcfs::new(total_procs);
        let mut running: Vec<grid_cluster::StartedJob> = Vec::new();
        let mut now = 0.0;
        for (i, input) in inputs.iter().enumerate() {
            now += input.arrival_gap;
            let procs = ((f64::from(total_procs) * input.procs_fraction).ceil() as u32)
                .clamp(1, total_procs);
            running.extend(fcfs.submit(
                ClusterJob { id: JobId { origin: 0, seq: i }, processors: procs, service_time: input.service },
                now,
            ));
        }
        let probe_procs = ((f64::from(total_procs) * probe.procs_fraction).ceil() as u32)
            .clamp(1, total_procs);
        let estimate = fcfs.estimate_completion(probe_procs, probe.service, now);

        // Now actually submit the probe job and replay completions.
        let probe_id = JobId { origin: 9, seq: 0 };
        running.extend(fcfs.submit(
            ClusterJob { id: probe_id, processors: probe_procs, service_time: probe.service },
            now,
        ));
        let mut actual = None;
        while let Some(next) = running
            .iter()
            .min_by(|a, b| a.finish.total_cmp(&b.finish))
            .copied()
        {
            running.retain(|s| s.id != next.id);
            if next.id == probe_id {
                actual = Some(next.finish);
            }
            // Jobs whose finish time precedes the last submission are
            // acknowledged "late": the LRMS clock must not move backwards.
            running.extend(fcfs.on_finished(next.id, next.finish.max(now)));
        }
        let actual = actual.expect("probe job must complete");
        prop_assert!((actual - estimate).abs() < 1e-6,
            "estimate {} but realised {}", estimate, actual);
    }
}
