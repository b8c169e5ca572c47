//! The local resource management system (LRMS).
//!
//! Every federation cluster runs a PBS/SGE-like space-shared scheduler with a
//! single central queue (master–worker organisation, as the paper assumes).
//! [`SpaceSharedFcfs`] reproduces GridSim's `SpaceShared` allocation policy:
//! a job occupies `processors` dedicated PEs for its entire service time and
//! queued jobs start strictly in FCFS order.
//!
//! The scheduler is a passive state machine.  The caller owns the clock and
//! drives it with three calls:
//!
//! * [`LocalScheduler::submit_into`] when a job arrives,
//! * [`LocalScheduler::on_finished_into`] when a previously started job's
//!   finish time is reached,
//! * [`LocalScheduler::estimate_completion`] when the GFA needs the
//!   admission-control answer "when would this job finish if I accepted it
//!   right now?".
//!
//! The mutating calls take an out-parameter for the newly started jobs so the
//! steady-state event loop never allocates; [`LocalScheduler::submit`] and
//! [`LocalScheduler::on_finished`] are collecting conveniences for tests and
//! one-off callers.  `estimate_completion` answers from an epoch-stamped
//! availability profile (see [`crate::estimate`]) that FCFS carries across
//! its submits and on-time finishes, making a quote O(log R) instead of a
//! full O((R+Q)·log(R+Q)) replay.

use std::cell::RefCell;
use std::collections::VecDeque;

use grid_workload::JobId;

use crate::estimate::{replay_estimate, QuoteCache};

/// A job as seen by the LRMS: identity, size and service time.
///
/// The service time is computed by the caller from the paper's cost model
/// (`D(J, R_m)`, Eq. 2), so the LRMS itself stays independent of the economy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterJob {
    /// Global job id.
    pub id: JobId,
    /// Processors the job occupies while running.
    pub processors: u32,
    /// Total service (execution) time in seconds on *this* cluster.
    pub service_time: f64,
}

/// A job the LRMS has dispatched onto processors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StartedJob {
    /// Global job id.
    pub id: JobId,
    /// Time the job started executing.
    pub start: f64,
    /// Time the job will finish executing (start + service time).
    pub finish: f64,
    /// Processors occupied.
    pub processors: u32,
}

/// Common interface of the local schedulers (`SpaceSharedFcfs` and the EASY
/// backfilling variant in [`crate::backfill`]).
pub trait LocalScheduler {
    /// Total processors managed by this scheduler.
    fn total_processors(&self) -> u32;

    /// Processors currently executing jobs.
    fn busy_processors(&self) -> u32;

    /// Number of running jobs.
    fn running_count(&self) -> usize;

    /// Number of queued (not yet started) jobs.
    fn queued_count(&self) -> usize;

    /// Submits a job at time `now`, appending every job that starts as a
    /// direct consequence (usually just this job, or nothing if it queued)
    /// to `started`.  The buffer is *appended to*, never cleared, so callers
    /// can reuse one scratch vector across the whole run.
    ///
    /// # Panics
    /// Implementations panic if the job requests more processors than the
    /// cluster owns or if time moves backwards.
    fn submit_into(&mut self, job: ClusterJob, now: f64, started: &mut Vec<StartedJob>);

    /// Notifies the scheduler that a running job finished at `now`,
    /// appending every queued job that starts as a consequence to `started`.
    ///
    /// # Panics
    /// Implementations panic if the job is not currently running.
    fn on_finished_into(&mut self, id: JobId, now: f64, started: &mut Vec<StartedJob>);

    /// Collecting convenience for [`Self::submit_into`]; allocates a fresh
    /// vector per call, so hot loops should use the out-parameter form.
    fn submit(&mut self, job: ClusterJob, now: f64) -> Vec<StartedJob> {
        let mut started = Vec::new();
        self.submit_into(job, now, &mut started);
        started
    }

    /// Collecting convenience for [`Self::on_finished_into`].
    fn on_finished(&mut self, id: JobId, now: f64) -> Vec<StartedJob> {
        let mut started = Vec::new();
        self.on_finished_into(id, now, &mut started);
        started
    }

    /// Estimated completion time (absolute) of a hypothetical job with the
    /// given size and service time submitted at `now`, assuming no further
    /// arrivals.  This is the quantity the GFA's admission control compares
    /// against the job deadline.
    fn estimate_completion(&self, processors: u32, service_time: f64, now: f64) -> f64;

    /// Busy processor-seconds accumulated up to `now` (the numerator of the
    /// utilization figure reported in Tables 2 and 3).
    fn busy_processor_seconds(&self, now: f64) -> f64;
}

/// The space-shared FCFS local scheduler.
#[derive(Debug, Clone)]
pub struct SpaceSharedFcfs {
    total: u32,
    busy: u32,
    running: Vec<StartedJob>,
    queue: VecDeque<ClusterJob>,
    // Utilization accounting.
    busy_acc: f64,
    last_change: f64,
    completed_jobs: u64,
    /// Bumped on every state change the quote profile could not follow in
    /// place (see [`crate::estimate`]): a finish off its recorded time, or
    /// any change while no current profile covers `now`.  Stamps the quote
    /// cache.
    epoch: u64,
    quote_cache: RefCell<QuoteCache>,
}

impl SpaceSharedFcfs {
    /// Creates a scheduler managing `processors` PEs.
    ///
    /// # Panics
    /// Panics if `processors == 0`.
    #[must_use]
    pub fn new(processors: u32) -> Self {
        assert!(processors > 0, "a cluster needs at least one processor");
        SpaceSharedFcfs {
            total: processors,
            busy: 0,
            running: Vec::new(),
            queue: VecDeque::new(),
            busy_acc: 0.0,
            last_change: 0.0,
            completed_jobs: 0,
            epoch: 0,
            quote_cache: RefCell::new(QuoteCache::default()),
        }
    }

    /// Number of jobs that have run to completion on this cluster.
    #[must_use]
    pub fn completed_jobs(&self) -> u64 {
        self.completed_jobs
    }

    /// The original full-replay estimator, retained as the differential
    /// oracle: property tests assert the incremental profile returns
    /// bit-identical answers, and `bench_perf` measures the speedup against
    /// it.
    #[must_use]
    pub fn estimate_completion_replay(&self, processors: u32, service_time: f64, now: f64) -> f64 {
        replay_estimate(
            self.total,
            self.busy,
            &self.running,
            &self.queue,
            processors,
            service_time,
            now,
        )
    }

    fn advance_accounting(&mut self, now: f64) {
        assert!(
            now + 1e-9 >= self.last_change,
            "time moved backwards: {now} < {}",
            self.last_change
        );
        let now = now.max(self.last_change);
        self.busy_acc += f64::from(self.busy) * (now - self.last_change);
        self.last_change = now;
    }

    fn start_job(&mut self, job: ClusterJob, now: f64) -> StartedJob {
        debug_assert!(self.busy + job.processors <= self.total);
        self.busy += job.processors;
        let started = StartedJob {
            id: job.id,
            start: now,
            finish: now + job.service_time,
            processors: job.processors,
        };
        self.running.push(started);
        started
    }

    fn try_start_queued(&mut self, now: f64, started: &mut Vec<StartedJob>) {
        while let Some(head) = self.queue.front() {
            if self.total - self.busy >= head.processors {
                let job = self.queue.pop_front().expect("front exists");
                let s = self.start_job(job, now);
                started.push(s);
            } else {
                break;
            }
        }
    }
}

impl LocalScheduler for SpaceSharedFcfs {
    fn total_processors(&self) -> u32 {
        self.total
    }

    fn busy_processors(&self) -> u32 {
        self.busy
    }

    fn running_count(&self) -> usize {
        self.running.len()
    }

    fn queued_count(&self) -> usize {
        self.queue.len()
    }

    fn submit_into(&mut self, job: ClusterJob, now: f64, started: &mut Vec<StartedJob>) {
        assert!(
            job.processors >= 1 && job.processors <= self.total,
            "job {} requests {} processors on a {}-processor cluster",
            job.id,
            job.processors,
            self.total
        );
        assert!(
            job.service_time >= 0.0 && job.service_time.is_finite(),
            "service time must be finite and non-negative"
        );
        self.advance_accounting(now);
        self.queue.push_back(job);
        self.try_start_queued(now, started);
        // FCFS starts the job where the profile's replay would, so the
        // profile takes the job in place.
        let kept = self.quote_cache.get_mut().keep_across_submit(
            self.epoch,
            now,
            &job,
            &self.running,
            self.queue.is_empty(),
        );
        if !kept {
            self.epoch += 1;
        }
    }

    fn on_finished_into(&mut self, id: JobId, now: f64, started: &mut Vec<StartedJob>) {
        self.advance_accounting(now);
        let pos = self
            .running
            .iter()
            .position(|r| r.id == id)
            .unwrap_or_else(|| panic!("job {id} is not running on this cluster"));
        let finished = self.running.swap_remove(pos);
        self.busy -= finished.processors;
        self.completed_jobs += 1;
        self.try_start_queued(now, started);
        // A finish the quote profile predicted leaves it exact; any other
        // one invalidates it.
        let kept = self.quote_cache.get_mut().keep_across_finish(
            self.epoch,
            finished.finish,
            now,
            &self.running,
            self.queue.is_empty(),
        );
        if !kept {
            self.epoch += 1;
        }
    }

    fn estimate_completion(&self, processors: u32, service_time: f64, now: f64) -> f64 {
        assert!(processors >= 1, "estimate needs at least one processor");
        if processors > self.total {
            return f64::INFINITY;
        }
        self.quote_cache.borrow_mut().estimate(
            self.total,
            self.busy,
            &self.running,
            &self.queue,
            self.epoch,
            processors,
            service_time,
            now,
        )
    }

    fn busy_processor_seconds(&self, now: f64) -> f64 {
        let extra = f64::from(self.busy) * (now - self.last_change).max(0.0);
        self.busy_acc + extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jid(seq: usize) -> JobId {
        JobId { origin: 0, seq }
    }

    fn job(seq: usize, procs: u32, service: f64) -> ClusterJob {
        ClusterJob {
            id: jid(seq),
            processors: procs,
            service_time: service,
        }
    }

    #[test]
    fn immediate_start_when_processors_available() {
        let mut s = SpaceSharedFcfs::new(16);
        let started = s.submit(job(0, 8, 100.0), 0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].start, 0.0);
        assert_eq!(started[0].finish, 100.0);
        assert_eq!(s.busy_processors(), 8);
        assert_eq!(s.running_count(), 1);
        assert_eq!(s.queued_count(), 0);
    }

    #[test]
    fn out_parameter_appends_without_clearing() {
        let mut s = SpaceSharedFcfs::new(16);
        let mut scratch = Vec::new();
        s.submit_into(job(0, 8, 100.0), 0.0, &mut scratch);
        s.submit_into(job(1, 8, 50.0), 0.0, &mut scratch);
        assert_eq!(scratch.len(), 2);
        assert_eq!(scratch[0].id, jid(0));
        assert_eq!(scratch[1].id, jid(1));
    }

    #[test]
    fn fcfs_queueing_and_release() {
        let mut s = SpaceSharedFcfs::new(16);
        s.submit(job(0, 12, 100.0), 0.0);
        // Doesn't fit next to the 12-proc job.
        let started = s.submit(job(1, 8, 50.0), 10.0);
        assert!(started.is_empty());
        assert_eq!(s.queued_count(), 1);
        // A small job behind it must NOT jump the queue (strict FCFS).
        let started = s.submit(job(2, 2, 10.0), 20.0);
        assert!(started.is_empty());
        assert_eq!(s.queued_count(), 2);
        // When the big job finishes, both queued jobs fit (8 + 2 <= 16).
        let started = s.on_finished(jid(0), 100.0);
        assert_eq!(started.len(), 2);
        assert_eq!(started[0].id, jid(1));
        assert_eq!(started[0].start, 100.0);
        assert_eq!(started[1].id, jid(2));
        assert_eq!(s.busy_processors(), 10);
        assert_eq!(s.completed_jobs(), 1);
    }

    #[test]
    fn fcfs_head_blocks_smaller_jobs() {
        let mut s = SpaceSharedFcfs::new(16);
        s.submit(job(0, 10, 100.0), 0.0);
        s.submit(job(1, 10, 100.0), 0.0); // queued, needs 10, only 6 free
        s.submit(job(2, 4, 10.0), 0.0); // would fit, but FCFS forbids starting it
        assert_eq!(s.running_count(), 1);
        assert_eq!(s.queued_count(), 2);
        assert_eq!(s.busy_processors(), 10);
    }

    #[test]
    fn estimator_matches_reality_for_fcfs() {
        let mut s = SpaceSharedFcfs::new(16);
        s.submit(job(0, 12, 100.0), 0.0);
        s.submit(job(1, 8, 50.0), 10.0);
        s.submit(job(2, 10, 30.0), 20.0);
        // Estimate a 6-processor, 40 s job submitted at t = 25.
        // FCFS replay: job0 runs to 100; job1 starts at 100 (free 4→... wait).
        // At t=100: job0 done, free = 16; job1 (8) starts → free 8; job2 needs 10 → waits
        // until job1 finishes at 150 → free 16, job2 starts at 150 (ends 180), free 6;
        // our 6-proc job starts at 150 as well (6 <= 6) → finishes 190.
        let est = s.estimate_completion(6, 40.0, 25.0);
        assert!((est - 190.0).abs() < 1e-9, "estimate {est}");
        // The incremental profile and the retained replay oracle agree.
        assert_eq!(est.to_bits(), s.estimate_completion_replay(6, 40.0, 25.0).to_bits());

        // Now actually run it and compare.
        let started_new = s.submit(job(3, 6, 40.0), 25.0);
        assert!(started_new.is_empty());
        let mut finish_of_3 = None;
        // Drive completions in order of their finish times.
        let mut started = s.on_finished(jid(0), 100.0);
        while let Some(next) = started.iter().min_by(|a, b| a.finish.total_cmp(&b.finish)).copied() {
            let more = s.on_finished(next.id, next.finish);
            if next.id == jid(3) {
                finish_of_3 = Some(next.finish);
            }
            started.retain(|x| x.id != next.id);
            started.extend(more);
        }
        assert!((finish_of_3.unwrap() - est).abs() < 1e-9);
    }

    #[test]
    fn estimator_handles_empty_cluster_and_oversized_jobs() {
        let s = SpaceSharedFcfs::new(8);
        assert_eq!(s.estimate_completion(4, 100.0, 50.0), 150.0);
        assert_eq!(s.estimate_completion(9, 100.0, 50.0), f64::INFINITY);
        assert_eq!(s.estimate_completion_replay(9, 100.0, 50.0), f64::INFINITY);
    }

    #[test]
    fn repeated_quotes_between_state_changes_stay_exact() {
        let mut s = SpaceSharedFcfs::new(16);
        s.submit(job(0, 12, 100.0), 0.0);
        s.submit(job(1, 8, 50.0), 10.0);
        // A burst of differently-shaped quotes, as the DBC loop issues them.
        for procs in 1..=16u32 {
            for service in [0.0, 5.0, 80.0] {
                let inc = s.estimate_completion(procs, service, 20.0);
                let oracle = s.estimate_completion_replay(procs, service, 20.0);
                assert_eq!(inc.to_bits(), oracle.to_bits(), "procs={procs} service={service}");
            }
        }
        // State change invalidates the profile; quotes stay exact.
        s.on_finished(jid(0), 100.0);
        let inc = s.estimate_completion(16, 10.0, 100.0);
        let oracle = s.estimate_completion_replay(16, 10.0, 100.0);
        assert_eq!(inc.to_bits(), oracle.to_bits());
    }

    /// Quote profile rebuilds so far.
    fn rebuilds(s: &SpaceSharedFcfs) -> u64 {
        s.quote_cache.borrow().rebuilds
    }

    /// A burst of quotes at `now`, each bit-identical to the replay oracle.
    fn assert_quotes_exact(s: &SpaceSharedFcfs, now: f64) {
        for procs in 1..=s.total_processors() {
            for service in [0.0, 7.5, 80.0] {
                let inc = s.estimate_completion(procs, service, now);
                let oracle = s.estimate_completion_replay(procs, service, now);
                assert_eq!(
                    inc.to_bits(),
                    oracle.to_bits(),
                    "procs={procs} service={service} now={now}"
                );
            }
        }
    }

    /// Three jobs on 16 PEs: job 0 (12 PEs) runs until 100, jobs 1 (8 PEs,
    /// 50 s) and 2 (10 PEs, 30 s) queue behind it.
    fn loaded() -> SpaceSharedFcfs {
        let mut s = SpaceSharedFcfs::new(16);
        s.submit(job(0, 12, 100.0), 0.0);
        s.submit(job(1, 8, 50.0), 10.0);
        s.submit(job(2, 10, 30.0), 20.0);
        s
    }

    #[test]
    fn on_time_finishes_keep_the_quote_profile() {
        let mut s = loaded();
        assert_quotes_exact(&s, 25.0);
        assert_eq!(rebuilds(&s), 1);
        // Job 0 finishes exactly at its recorded finish and job 1 starts, as
        // the profile's replay predicted: no rebuild.
        let started = s.on_finished(jid(0), 100.0);
        assert_eq!(started.len(), 1);
        assert_quotes_exact(&s, 100.0);
        assert_quotes_exact(&s, 130.0);
        // Job 1 finishes on time at 150 and job 2 starts; the queue is now
        // empty, so the profile holds for every later quote.
        let started = s.on_finished(jid(1), 150.0);
        assert_eq!(started[0].id, jid(2));
        assert_quotes_exact(&s, 150.0);
        assert_quotes_exact(&s, 170.0);
        s.on_finished(jid(2), 180.0);
        assert_quotes_exact(&s, 180.0);
        assert_quotes_exact(&s, 500.0);
        assert_eq!(rebuilds(&s), 1);
    }

    #[test]
    fn off_schedule_finishes_rebuild_the_quote_profile() {
        // Early (by ten seconds, or by one ulp): the replay credited job 0's
        // PEs at 100, not before.  Late: the finish lies past the profile's
        // window.
        for at in [90.0, f64::from_bits(100.0f64.to_bits() - 1), 100.5] {
            let mut s = loaded();
            assert_quotes_exact(&s, 25.0);
            s.on_finished(jid(0), at);
            assert_quotes_exact(&s, at);
            assert_quotes_exact(&s, at + 20.0);
            assert_eq!(rebuilds(&s), 2, "finish at {at}");
        }
        // Out of order: job 0 finishes on time while job 1, due earlier at
        // 50, is still running.
        let mut s = SpaceSharedFcfs::new(16);
        s.submit(job(0, 8, 100.0), 0.0);
        s.submit(job(1, 8, 50.0), 0.0);
        s.submit(job(2, 16, 10.0), 0.0);
        assert_quotes_exact(&s, 10.0);
        s.on_finished(jid(0), 100.0);
        assert_quotes_exact(&s, 100.0);
        assert_eq!(rebuilds(&s), 2);
    }

    #[test]
    fn a_stale_profile_is_not_kept_across_an_on_time_finish() {
        // Submits before any quote: there is no profile to keep, so the
        // first quote after the on-time finish builds one.
        let mut s = loaded();
        s.on_finished(jid(0), 100.0);
        assert_quotes_exact(&s, 100.0);
        assert_eq!(rebuilds(&s), 1);
        // An early finish leaves the profile a state behind; job 0's
        // on-time finish that follows, inside the old window, must not
        // revive it.
        let mut s = SpaceSharedFcfs::new(16);
        s.submit(job(0, 8, 100.0), 0.0);
        s.submit(job(1, 4, 200.0), 0.0);
        s.submit(job(2, 12, 30.0), 0.0);
        assert_quotes_exact(&s, 25.0);
        s.on_finished(jid(1), 50.0);
        s.on_finished(jid(0), 100.0);
        assert_quotes_exact(&s, 100.0);
        assert_eq!(rebuilds(&s), 2);
    }

    #[test]
    fn submits_between_quotes_keep_the_quote_profile() {
        let mut s = SpaceSharedFcfs::new(16);
        s.submit(job(0, 12, 100.0), 0.0);
        assert_quotes_exact(&s, 5.0);
        // Queued behind job 0: the profile lowers by 8 PEs on [100, 150).
        assert!(s.submit(job(1, 8, 50.0), 10.0).is_empty());
        assert_quotes_exact(&s, 10.0);
        assert_quotes_exact(&s, 40.0);
        let started = s.on_finished(jid(0), 100.0);
        assert_eq!(started[0].id, jid(1));
        assert_quotes_exact(&s, 100.0);
        // Starts now, next to job 1.
        let started = s.submit(job(2, 6, 30.0), 120.0);
        assert_eq!(started[0].start, 120.0);
        assert_quotes_exact(&s, 120.0);
        // Two submits with no quote between them: a zero-length job queued
        // behind the two running ones, then a job queued behind it.
        assert!(s.submit(job(3, 4, 0.0), 130.0).is_empty());
        assert!(s.submit(job(4, 16, 10.0), 130.0).is_empty());
        assert_quotes_exact(&s, 130.0);
        s.on_finished(jid(1), 150.0);
        s.on_finished(jid(2), 150.0);
        s.on_finished(jid(3), 150.0);
        assert_quotes_exact(&s, 150.0);
        s.on_finished(jid(4), 160.0);
        assert_quotes_exact(&s, 160.0);
        assert_quotes_exact(&s, 500.0);
        assert_eq!(rebuilds(&s), 1);
    }

    #[test]
    fn utilization_accounting() {
        let mut s = SpaceSharedFcfs::new(10);
        s.submit(job(0, 5, 100.0), 0.0);
        // At t=100 the job finishes: 5 procs × 100 s = 500 proc·s busy.
        s.on_finished(jid(0), 100.0);
        assert!((s.busy_processor_seconds(100.0) - 500.0).abs() < 1e-9);
        // Idle afterwards: the busy total stays put.
        assert!((s.busy_processor_seconds(200.0) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_counts_partial_intervals_of_running_jobs() {
        let mut s = SpaceSharedFcfs::new(4);
        s.submit(job(0, 4, 1_000.0), 0.0);
        // Half-way through, all 4 processors were busy for 500 s.
        assert!((s.busy_processor_seconds(500.0) - 2_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "requests 32 processors")]
    fn oversized_submission_panics() {
        let mut s = SpaceSharedFcfs::new(16);
        s.submit(job(0, 32, 10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn finishing_unknown_job_panics() {
        let mut s = SpaceSharedFcfs::new(16);
        s.on_finished(jid(7), 10.0);
    }

    #[test]
    #[should_panic(expected = "time moved backwards")]
    fn time_must_not_go_backwards() {
        let mut s = SpaceSharedFcfs::new(16);
        s.submit(job(0, 4, 10.0), 100.0);
        s.submit(job(1, 4, 10.0), 50.0);
    }

    #[test]
    fn zero_service_time_jobs_are_legal() {
        let mut s = SpaceSharedFcfs::new(4);
        let started = s.submit(job(0, 1, 0.0), 5.0);
        assert_eq!(started[0].finish, 5.0);
        s.on_finished(jid(0), 5.0);
        assert_eq!(s.busy_processors(), 0);
    }
}
