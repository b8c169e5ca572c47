//! The local resource management system (LRMS).
//!
//! Every federation cluster runs a PBS/SGE-like space-shared scheduler with a
//! single central queue (master–worker organisation, as the paper assumes).
//! [`SpaceShared`] reproduces GridSim's `SpaceShared` allocation policy: a
//! job occupies `processors` dedicated PEs for its entire service time and
//! queued jobs start strictly in FCFS order.  [`SpaceShared::backfilling`]
//! adds EASY backfilling, this repository's one extension of that policy:
//! queued jobs may jump ahead of a blocked head as long as they do not delay
//! the head's earliest possible start.
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
//! availability profile (see the crate's `estimate` module) that FCFS
//! carries across its submits and on-time finishes, making a quote
//! O(log R) instead of a full O((R+Q)·log(R+Q)) replay.  Under EASY the
//! quote is the same FCFS replay, an upper bound on the backfilling
//! schedule and therefore safe for admission control.

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

/// The interface of [`SpaceShared`], its one implementation.
///
/// It stays only because the whole-run benchmark (`perfbench/`) imports it;
/// the next change to that benchmark calls [`SpaceShared`] directly and
/// deletes this trait.
pub trait LocalScheduler {
    /// Processors currently executing jobs.
    fn busy_processors(&self) -> u32;

    /// Number of queued (not yet started) jobs.
    fn queued_count(&self) -> usize;

    /// Submits a job at time `now`, appending every job that starts as a
    /// direct consequence (usually just this job, or nothing if it queued)
    /// to `started`.  The buffer is *appended to*, never cleared, so callers
    /// can reuse one scratch vector across the whole run.
    ///
    /// # Panics
    /// Panics if the job requests more processors than the cluster owns or
    /// if time moves backwards.
    fn submit_into(&mut self, job: ClusterJob, now: f64, started: &mut Vec<StartedJob>);

    /// Notifies the scheduler that a running job finished at `now`,
    /// appending every queued job that starts as a consequence to `started`.
    ///
    /// # Panics
    /// Panics if the job is not currently running.
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

/// The former name of [`SpaceShared`], kept only because the whole-run
/// benchmark (`perfbench/`) names it; the next change to that benchmark
/// deletes it.
pub type SpaceSharedFcfs = SpaceShared;

/// The space-shared local scheduler: FCFS, or FCFS with EASY backfilling.
#[derive(Debug, Clone)]
pub struct SpaceShared {
    total: u32,
    busy: u32,
    running: Vec<StartedJob>,
    queue: VecDeque<ClusterJob>,
    /// Whether queued jobs may start ahead of a blocked head (EASY).
    backfill: bool,
    // Utilization accounting.
    busy_acc: f64,
    last_change: f64,
    /// Bumped on every state change the quote profile could not follow in
    /// place (see [`crate::estimate`]): a finish off its recorded time, any
    /// change while no current profile covers `now`, and every EASY change,
    /// since backfilling may start a job ahead of the queue, which the
    /// profile's FCFS replay does not follow.  Stamps the quote cache.
    epoch: u64,
    quote_cache: RefCell<QuoteCache>,
}

impl SpaceShared {
    /// Creates an FCFS scheduler managing `processors` PEs: the paper's
    /// policy.
    ///
    /// # Panics
    /// Panics if `processors == 0`.
    #[must_use]
    pub fn new(processors: u32) -> Self {
        assert!(processors > 0, "a cluster needs at least one processor");
        SpaceShared {
            total: processors,
            busy: 0,
            running: Vec::new(),
            queue: VecDeque::new(),
            backfill: false,
            busy_acc: 0.0,
            last_change: 0.0,
            epoch: 0,
            quote_cache: RefCell::new(QuoteCache::default()),
        }
    }

    /// Creates an EASY-backfilling scheduler managing `processors` PEs.
    ///
    /// # Panics
    /// Panics if `processors == 0`.
    #[must_use]
    pub fn backfilling(processors: u32) -> Self {
        SpaceShared {
            backfill: true,
            ..Self::new(processors)
        }
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

    /// Starts the queue's head, and each next head, while it fits; under
    /// EASY, then backfills behind a head that does not.
    fn start_queued(&mut self, now: f64, started: &mut Vec<StartedJob>) {
        while let Some(&head) = self.queue.front() {
            if self.total - self.busy < head.processors {
                break;
            }
            self.queue.pop_front();
            started.push(self.start_job(head, now));
        }
        if self.backfill {
            self.backfill_behind_head(now, started);
        }
    }

    /// Earliest time at which `procs` processors will be free, and the number
    /// of processors free at that time, considering only running jobs.
    fn shadow(&self, procs: u32, now: f64) -> (f64, u32) {
        let mut finishes: Vec<(f64, u32)> = self
            .running
            .iter()
            .map(|r| (r.finish, r.processors))
            .collect();
        finishes.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut t, mut free) = (now, self.total - self.busy);
        for (finish, processors) in finishes {
            if free >= procs {
                break;
            }
            if finish > t {
                t = finish;
            }
            free += processors;
        }
        (t, free)
    }

    /// Starts the queued jobs behind a blocked head that fit the free
    /// processors now and either end by the head's reservation (its shadow
    /// time) or fit the processors the head leaves free at it.
    fn backfill_behind_head(&mut self, now: f64, started: &mut Vec<StartedJob>) {
        let Some(&head) = self.queue.front() else {
            return;
        };
        let (shadow_time, shadow_free) = self.shadow(head.processors, now);
        let mut extra = shadow_free - head.processors;
        let mut idx = 1;
        while idx < self.queue.len() {
            let candidate = self.queue[idx];
            let fits_now = candidate.processors <= self.total - self.busy;
            let ends_before_shadow = now + candidate.service_time <= shadow_time + 1e-9;
            if fits_now && (ends_before_shadow || candidate.processors <= extra) {
                // A job that outlives the shadow time holds its processors
                // at the head's reservation too.
                if !ends_before_shadow {
                    extra -= candidate.processors;
                }
                self.queue.remove(idx);
                started.push(self.start_job(candidate, now));
            } else {
                idx += 1;
            }
        }
    }
}

impl LocalScheduler for SpaceShared {
    fn busy_processors(&self) -> u32 {
        self.busy
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
        self.start_queued(now, started);
        // FCFS starts the job where the profile's replay would, so the
        // profile takes the job in place.
        let kept = !self.backfill
            && self.quote_cache.get_mut().keep_across_submit(
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
        self.start_queued(now, started);
        // Under FCFS a finish the quote profile predicted leaves it exact;
        // any other one invalidates it.
        let kept = !self.backfill
            && self.quote_cache.get_mut().keep_across_finish(
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

    /// FCFS and EASY schedulers managing `processors` PEs.
    fn both_policies(processors: u32) -> [SpaceShared; 2] {
        [
            SpaceShared::new(processors),
            SpaceShared::backfilling(processors),
        ]
    }

    /// Finishes the `started` jobs and every job they free, each at its
    /// recorded finish time, and returns them in finish order.
    fn run_to_completion(s: &mut SpaceShared, mut started: Vec<StartedJob>) -> Vec<StartedJob> {
        let mut finished = Vec::new();
        while let Some(next) = started
            .iter()
            .min_by(|a, b| a.finish.total_cmp(&b.finish))
            .copied()
        {
            started.retain(|x| x.id != next.id);
            started.extend(s.on_finished(next.id, next.finish));
            finished.push(next);
        }
        finished
    }

    /// Runs `f` under EASY, where it must panic with a message containing
    /// `expected`, then under FCFS, whose panic the calling test's
    /// `should_panic` checks.
    fn panics_under_both_policies(processors: u32, expected: &str, f: impl Fn(SpaceShared)) {
        let easy = SpaceShared::backfilling(processors);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(easy)))
            .expect_err("EASY must panic like FCFS");
        let message = match payload.downcast_ref::<String>() {
            Some(formatted) => formatted.as_str(),
            None => payload.downcast_ref::<&str>().copied().unwrap_or_default(),
        };
        assert!(message.contains(expected), "EASY panicked with {message:?}");
        f(SpaceShared::new(processors));
    }

    #[test]
    fn immediate_start_when_processors_available() {
        let mut s = SpaceShared::new(16);
        let started = s.submit(job(0, 8, 100.0), 0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].start, 0.0);
        assert_eq!(started[0].finish, 100.0);
        assert_eq!(s.busy_processors(), 8);
        assert_eq!(s.running.len(), 1);
        assert_eq!(s.queued_count(), 0);
    }

    #[test]
    fn out_parameter_appends_without_clearing() {
        let mut s = SpaceShared::new(16);
        let mut scratch = Vec::new();
        s.submit_into(job(0, 8, 100.0), 0.0, &mut scratch);
        s.submit_into(job(1, 8, 50.0), 0.0, &mut scratch);
        assert_eq!(scratch.len(), 2);
        assert_eq!(scratch[0].id, jid(0));
        assert_eq!(scratch[1].id, jid(1));
    }

    #[test]
    fn fcfs_queueing_and_release() {
        let mut s = SpaceShared::new(16);
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
        assert_eq!(s.running.len(), 2);
    }

    #[test]
    fn fcfs_head_blocks_smaller_jobs() {
        let mut s = SpaceShared::new(16);
        s.submit(job(0, 10, 100.0), 0.0);
        s.submit(job(1, 10, 100.0), 0.0); // queued, needs 10, only 6 free
        s.submit(job(2, 4, 10.0), 0.0); // would fit, but FCFS forbids starting it
        assert_eq!(s.running.len(), 1);
        assert_eq!(s.queued_count(), 2);
        assert_eq!(s.busy_processors(), 10);
    }

    #[test]
    fn estimator_matches_reality_for_fcfs() {
        let mut s = SpaceShared::new(16);
        s.submit(job(0, 12, 100.0), 0.0);
        s.submit(job(1, 8, 50.0), 10.0);
        s.submit(job(2, 10, 30.0), 20.0);
        // Estimate a 6-processor, 40 s job submitted at t = 25.  FCFS replay:
        // job1 (8) starts when job0 ends at 100; job2 (10) waits for job1 to
        // end at 150 and leaves 6 free, so our job starts then → ends 190.
        let est = s.estimate_completion(6, 40.0, 25.0);
        assert!((est - 190.0).abs() < 1e-9, "estimate {est}");
        // The incremental profile and the retained replay oracle agree.
        assert_eq!(
            est.to_bits(),
            s.estimate_completion_replay(6, 40.0, 25.0).to_bits()
        );

        // Now actually run it and compare.
        let started_new = s.submit(job(3, 6, 40.0), 25.0);
        assert!(started_new.is_empty());
        let started = s.on_finished(jid(0), 100.0);
        let finished = run_to_completion(&mut s, started);
        let finish_of_3 = finished.iter().find(|j| j.id == jid(3)).unwrap().finish;
        assert!((finish_of_3 - est).abs() < 1e-9);
    }

    #[test]
    fn estimator_handles_empty_cluster_and_oversized_jobs() {
        let s = SpaceShared::new(8);
        assert_eq!(s.estimate_completion(4, 100.0, 50.0), 150.0);
        assert_eq!(s.estimate_completion(9, 100.0, 50.0), f64::INFINITY);
        assert_eq!(s.estimate_completion_replay(9, 100.0, 50.0), f64::INFINITY);
    }

    #[test]
    fn repeated_quotes_between_state_changes_stay_exact() {
        let mut s = SpaceShared::new(16);
        s.submit(job(0, 12, 100.0), 0.0);
        s.submit(job(1, 8, 50.0), 10.0);
        // A burst of differently-shaped quotes, as the DBC loop issues them.
        assert_quotes_exact(&s, 20.0);
        // State change invalidates the profile; quotes stay exact.
        s.on_finished(jid(0), 100.0);
        assert_quotes_exact(&s, 100.0);
    }

    /// Quote profile rebuilds so far.
    fn rebuilds(s: &SpaceShared) -> u64 {
        s.quote_cache.borrow().rebuilds
    }

    /// A burst of quotes at `now`, each bit-identical to the replay oracle.
    fn assert_quotes_exact(s: &SpaceShared, now: f64) {
        for procs in 1..=s.total {
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
    fn loaded() -> SpaceShared {
        let mut s = SpaceShared::new(16);
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
        let mut s = SpaceShared::new(16);
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
        let mut s = SpaceShared::new(16);
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
        let mut s = SpaceShared::new(16);
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
        let mut s = SpaceShared::new(10);
        s.submit(job(0, 5, 100.0), 0.0);
        // At t=100 the job finishes: 5 procs × 100 s = 500 proc·s busy.
        s.on_finished(jid(0), 100.0);
        assert!((s.busy_processor_seconds(100.0) - 500.0).abs() < 1e-9);
        // Idle afterwards: the busy total stays put.
        assert!((s.busy_processor_seconds(200.0) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_tracked_like_fcfs() {
        let mut s = SpaceShared::backfilling(10);
        s.submit(job(0, 5, 100.0), 0.0);
        s.on_finished(jid(0), 100.0);
        assert!((s.busy_processor_seconds(100.0) - 500.0).abs() < 1e-9);
        assert!((s.busy_processor_seconds(200.0) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_counts_partial_intervals_of_running_jobs() {
        let mut s = SpaceShared::new(4);
        s.submit(job(0, 4, 1_000.0), 0.0);
        // Half-way through, all 4 processors were busy for 500 s.
        assert!((s.busy_processor_seconds(500.0) - 2_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "requests 32 processors")]
    fn oversized_submission_panics() {
        let mut s = SpaceShared::new(16);
        s.submit(job(0, 32, 10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "requests 99 processors")]
    fn backfilling_oversized_submission_panics() {
        let mut s = SpaceShared::backfilling(16);
        s.submit(job(0, 99, 10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processor_estimate_panics() {
        panics_under_both_policies(16, "at least one processor", |s| {
            s.estimate_completion(0, 10.0, 0.0);
        });
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn finishing_unknown_job_panics() {
        let mut s = SpaceShared::new(16);
        s.on_finished(jid(7), 10.0);
    }

    #[test]
    #[should_panic(expected = "time moved backwards")]
    fn time_must_not_go_backwards() {
        let mut s = SpaceShared::new(16);
        s.submit(job(0, 4, 10.0), 100.0);
        s.submit(job(1, 4, 10.0), 50.0);
    }

    #[test]
    fn zero_service_time_jobs_are_legal() {
        let mut s = SpaceShared::new(4);
        let started = s.submit(job(0, 1, 0.0), 5.0);
        assert_eq!(started[0].finish, 5.0);
        s.on_finished(jid(0), 5.0);
        assert_eq!(s.busy_processors(), 0);
    }

    #[test]
    fn backfills_short_jobs_around_a_blocked_head() {
        let mut s = SpaceShared::backfilling(16);
        s.submit(job(0, 10, 100.0), 0.0); // running, 6 free
        s.submit(job(1, 12, 50.0), 0.0); // head: blocked until t=100
                                         // A short 4-proc job ends before the head's shadow time → backfilled.
        let started = s.submit(job(2, 4, 20.0), 0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, jid(2));
        assert_eq!(started[0].start, 0.0);
        assert_eq!(s.running.len(), 2);
        assert_eq!(s.queued_count(), 1);
    }

    #[test]
    fn does_not_backfill_jobs_that_would_delay_the_head() {
        let mut s = SpaceShared::backfilling(16);
        s.submit(job(0, 10, 100.0), 0.0); // 6 free
        s.submit(job(1, 12, 50.0), 0.0); // head, shadow time = 100, extra = 16-12 = 4
                                         // 6-proc job running 500 s: fits now, but outlives the shadow and
                                         // needs more than the 4 extra processors → must NOT start.
        let started = s.submit(job(2, 6, 500.0), 0.0);
        assert!(started.is_empty());
        // A 4-proc long job fits within the head's leftover processors → OK.
        let started = s.submit(job(3, 4, 500.0), 0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, jid(3));
    }

    #[test]
    fn backfilled_jobs_that_outlive_the_shadow_share_the_spare_processors() {
        let mut s = SpaceShared::backfilling(10);
        s.submit(job(0, 6, 100.0), 0.0);
        s.submit(job(1, 4, 10.0), 0.0);
        // The head: reserved for t = 100, when 10 PEs are free, 2 spare.
        s.submit(job(2, 8, 50.0), 0.0);
        s.submit(job(3, 2, 1_000.0), 0.0);
        s.submit(job(4, 2, 1_000.0), 0.0);
        // Jobs 3 and 4 each fit the 2 spare PEs, but not both together.
        let started = s.on_finished(jid(1), 10.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, jid(3));
        let started = s.on_finished(jid(0), 100.0);
        assert_eq!(started[0].id, jid(2));
        assert_eq!(started[0].start, 100.0);
    }

    #[test]
    fn same_workload_finishes_no_later_than_fcfs() {
        // A workload where backfilling clearly helps.
        let jobs = [
            job(0, 10, 100.0),
            job(1, 12, 50.0),
            job(2, 4, 20.0),
            job(3, 2, 10.0),
            job(4, 6, 30.0),
        ];
        let [fcfs_makespan, easy_makespan] = both_policies(16).map(|mut s| {
            let started = jobs.iter().flat_map(|&j| s.submit(j, 0.0)).collect();
            let finished = run_to_completion(&mut s, started);
            assert!(s.queue.is_empty() && s.running.is_empty());
            finished.last().unwrap().finish
        });
        assert!(easy_makespan <= fcfs_makespan + 1e-9);
    }

    #[test]
    fn estimator_is_conservative_upper_bound() {
        let mut s = SpaceShared::backfilling(16);
        s.submit(job(0, 10, 100.0), 0.0);
        s.submit(job(1, 12, 50.0), 0.0);
        let est = s.estimate_completion(4, 20.0, 0.0);
        // The FCFS bound starts the 4-proc job only once the blocked head has
        // started (t = 100, leaving 4 processors free), so it finishes at 120.
        assert!((est - 120.0).abs() < 1e-9, "estimate {est}");
        // Reality (with backfilling) would finish it at t=20; the estimate
        // must never be smaller than reality, and it isn't.
        // The incremental profile agrees bit-for-bit with the replay oracle.
        assert_eq!(
            est.to_bits(),
            s.estimate_completion_replay(4, 20.0, 0.0).to_bits()
        );
    }
}
