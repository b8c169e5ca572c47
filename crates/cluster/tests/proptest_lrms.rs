//! Property-based tests for the local scheduler: the space-shared FCFS
//! policy and its EASY-backfilling variant must never over-allocate
//! processors, must account utilization consistently, and their
//! completion-time estimators must be safe (never optimistic for FCFS).

use std::collections::VecDeque;

use grid_cluster::{ClusterJob, LocalScheduler, SpaceShared, StartedJob};
use grid_workload::JobId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct JobInput {
    arrival_gap: f64,
    procs_fraction: f64,
    service: f64,
}

fn job_input() -> impl Strategy<Value = JobInput> {
    (0.0f64..500.0, 0.01f64..1.0, 1.0f64..5_000.0).prop_map(
        |(arrival_gap, procs_fraction, service)| JobInput {
            arrival_gap,
            procs_fraction,
            service,
        },
    )
}

/// What [`drive`] tracks of one run: the running jobs, the queued ones in
/// submission order, and the queue head's reservation.
#[derive(Default)]
struct Run {
    total: u32,
    running: Vec<StartedJob>,
    queued: VecDeque<(JobId, u32)>,
    reservation: Option<f64>,
    /// `(reservation, start)` of every head that blocked: its reservation
    /// when it first blocked, and when it started.
    heads: Vec<(f64, f64)>,
    completed: usize,
    makespan: f64,
}

impl Run {
    /// Follows one scheduler call at `now` that started `newly`.  A head
    /// left blocked is reserved, unless it already is, for the earliest
    /// time its processors are free given the jobs running then.
    fn follow(&mut self, newly: Vec<StartedJob>, now: f64) {
        for s in &newly {
            if self.queued.front().is_some_and(|q| q.0 == s.id) {
                self.heads
                    .extend(self.reservation.take().map(|r| (r, s.start)));
            }
            self.queued.retain(|q| q.0 != s.id);
        }
        self.running.extend(newly);
        if let (None, Some(&(_, procs))) = (self.reservation, self.queued.front()) {
            let mut finishes: Vec<_> = self
                .running
                .iter()
                .map(|r| (r.finish, r.processors))
                .collect();
            finishes.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut free = self.total - finishes.iter().map(|f| f.1).sum::<u32>();
            let mut at = now;
            for (finish, processors) in finishes {
                if free >= procs {
                    break;
                }
                (at, free) = (finish, free + processors);
            }
            self.reservation = Some(at);
        }
    }
}

/// Drives a scheduler through a whole workload, finishing every job at its
/// recorded time and checking capacity and time monotonicity at every step.
fn drive(scheduler: &mut SpaceShared, total: u32, inputs: &[JobInput]) -> Run {
    let mut run = Run {
        total,
        ..Run::default()
    };
    let mut now = 0.0f64;
    // One round per arrival, then one that drains the machine.
    for (seq, input) in inputs.iter().map(Some).chain([None]).enumerate() {
        // Finish everything that ends by this arrival.
        let arrival = input.map_or(f64::INFINITY, |input| now + input.arrival_gap);
        while let Some(next) = run
            .running
            .iter()
            .filter(|s| s.finish <= arrival)
            .min_by(|a, b| a.finish.total_cmp(&b.finish))
            .copied()
        {
            run.running.retain(|s| s.id != next.id);
            run.follow(scheduler.on_finished(next.id, next.finish), next.finish);
            run.completed += 1;
            run.makespan = run.makespan.max(next.finish);
            assert!(scheduler.busy_processors() <= total);
        }
        let Some(input) = input else {
            break;
        };
        now = arrival;
        run.makespan = now;
        let job = ClusterJob {
            id: JobId { origin: 0, seq },
            processors: procs_for(total, input.procs_fraction),
            service_time: input.service,
        };
        run.queued.push_back((job.id, job.processors));
        run.follow(scheduler.submit(job, now), now);
        assert!(scheduler.busy_processors() <= total, "over-allocation");
    }
    run
}

fn procs_for(total_procs: u32, fraction: f64) -> u32 {
    ((f64::from(total_procs) * fraction).ceil() as u32).clamp(1, total_procs)
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
            .map(|i| i.service * f64::from(procs_for(total_procs, i.procs_fraction)))
            .sum();
        for (policy, mut s) in [
            ("FCFS", SpaceShared::new(total_procs)),
            ("EASY", SpaceShared::backfilling(total_procs)),
        ] {
            let run = drive(&mut s, total_procs, &inputs);
            prop_assert_eq!(run.completed, inputs.len());
            prop_assert_eq!(s.busy_processors(), 0);
            prop_assert_eq!(s.queued_count(), 0);
            let busy = s.busy_processor_seconds(run.makespan);
            prop_assert!((busy - total_work).abs() <= 1e-6 * total_work.max(1.0),
                "{} busy {} != submitted work {}", policy, busy, total_work);
            prop_assert!(busy <= f64::from(total_procs) * run.makespan * (1.0 + 1e-9));
        }
    }

    /// Under EASY, a head that blocks starts no later than the reservation
    /// it had when it first blocked.  Every job finishes at its recorded
    /// time, so backfilling may hold the reservation or, as running jobs
    /// leave, find it earlier, but never delay it.
    #[test]
    fn easy_heads_start_by_their_first_reservation(
        inputs in proptest::collection::vec(job_input(), 1..60),
        procs_pow in 3u32..9,
    ) {
        let total_procs = 1u32 << procs_pow;
        let run = drive(&mut SpaceShared::backfilling(total_procs), total_procs, &inputs);
        for (reservation, start) in run.heads {
            prop_assert!(start <= reservation + 1e-6,
                "a head reserved for {} started at {}", reservation, start);
        }
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
        let mut fcfs = SpaceShared::new(total_procs);
        let mut running: Vec<StartedJob> = Vec::new();
        let mut now = 0.0;
        for (i, input) in inputs.iter().enumerate() {
            now += input.arrival_gap;
            let procs = procs_for(total_procs, input.procs_fraction);
            running.extend(fcfs.submit(
                ClusterJob { id: JobId { origin: 0, seq: i }, processors: procs, service_time: input.service },
                now,
            ));
        }
        let probe_procs = procs_for(total_procs, probe.procs_fraction);
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
