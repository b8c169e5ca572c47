//! EASY-backfilling local scheduler.
//!
//! The paper's evaluation uses plain space-shared FCFS (that is what GridSim's
//! `SpaceShared` policy does), but the conclusion notes that smarter local
//! policies would change the admission-control picture.  This module provides
//! the classic EASY backfilling variant — queued jobs may jump ahead of the
//! FCFS head as long as they do not delay the head's earliest possible start
//! — so the federation-level results of the two LRMS policies can be
//! compared on identical workloads (`tests/federation_integration.rs`).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use grid_workload::JobId;

use crate::estimate::{replay_estimate, FinishEvent, QuoteCache};
use crate::lrms::{ClusterJob, LocalScheduler, StartedJob};

/// EASY-backfilling space-shared scheduler.
#[derive(Debug, Clone)]
pub struct EasyBackfilling {
    total: u32,
    busy: u32,
    running: Vec<StartedJob>,
    queue: VecDeque<ClusterJob>,
    busy_acc: f64,
    last_change: f64,
    completed_jobs: u64,
    /// Bumped on every state change, since backfilling may start a job
    /// ahead of the queue, which the profile's FCFS replay does not follow;
    /// stamps the quote cache.
    epoch: u64,
    quote_cache: RefCell<QuoteCache>,
}

impl EasyBackfilling {
    /// Creates a scheduler managing `processors` PEs.
    ///
    /// # Panics
    /// Panics if `processors == 0`.
    #[must_use]
    pub fn new(processors: u32) -> Self {
        assert!(processors > 0, "a cluster needs at least one processor");
        EasyBackfilling {
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

    /// Number of jobs that ran to completion on this cluster.
    #[must_use]
    pub fn completed_jobs(&self) -> u64 {
        self.completed_jobs
    }

    /// The conservative FCFS full-replay estimator, retained as the
    /// differential oracle for the property tests and the `bench_perf`
    /// speedup baseline.
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

    /// Earliest time at which `procs` processors will be free, and the number
    /// of processors free at that time, considering only running jobs.
    fn shadow(&self, procs: u32, now: f64) -> (f64, u32) {
        let mut heap: BinaryHeap<Reverse<FinishEvent>> = self
            .running
            .iter()
            .map(|r| {
                Reverse(FinishEvent {
                    time: r.finish,
                    processors: r.processors,
                })
            })
            .collect();
        let mut free = self.total - self.busy;
        let mut t = now;
        while free < procs {
            let Reverse(ev) = heap.pop().expect("head job fits on the machine");
            if ev.time > t {
                t = ev.time;
            }
            free += ev.processors;
        }
        (t, free)
    }

    /// Starts queued jobs: the FCFS head whenever it fits, and backfill
    /// candidates that neither exceed the currently free processors nor delay
    /// the head's reservation.
    fn schedule_queue(&mut self, now: f64, started: &mut Vec<StartedJob>) {
        // Start the head (and successive heads) while they fit outright.
        while let Some(head) = self.queue.front() {
            if self.total - self.busy >= head.processors {
                let job = self.queue.pop_front().expect("front exists");
                let s = self.start_job(job, now);
                started.push(s);
            } else {
                break;
            }
        }
        // Backfill behind a blocked head.
        if let Some(head) = self.queue.front().copied() {
            let (shadow_time, shadow_free) = self.shadow(head.processors, now);
            // Processors not needed by the head even at its reservation time.
            let extra = shadow_free - head.processors;
            let mut idx = 1;
            while idx < self.queue.len() {
                let candidate = self.queue[idx];
                let free_now = self.total - self.busy;
                let fits_now = candidate.processors <= free_now;
                let ends_before_shadow = now + candidate.service_time <= shadow_time + 1e-9;
                let within_extra = candidate.processors <= extra;
                if fits_now && (ends_before_shadow || within_extra) {
                    let job = self.queue.remove(idx).expect("index in bounds");
                    let s = self.start_job(job, now);
                    started.push(s);
                    // Backfilled jobs consume `extra` capacity if they outlive
                    // the shadow time.
                    // (Recomputing the shadow keeps the approximation honest.)
                    continue;
                }
                idx += 1;
            }
        }
    }
}

impl LocalScheduler for EasyBackfilling {
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
        self.epoch += 1;
        self.queue.push_back(job);
        self.schedule_queue(now, started);
    }

    fn on_finished_into(&mut self, id: JobId, now: f64, started: &mut Vec<StartedJob>) {
        self.advance_accounting(now);
        self.epoch += 1;
        let pos = self
            .running
            .iter()
            .position(|r| r.id == id)
            .unwrap_or_else(|| panic!("job {id} is not running on this cluster"));
        let finished = self.running.swap_remove(pos);
        self.busy -= finished.processors;
        self.completed_jobs += 1;
        self.schedule_queue(now, started);
    }

    fn estimate_completion(&self, processors: u32, service_time: f64, now: f64) -> f64 {
        // Conservative estimate: assume pure FCFS behaviour for the estimate,
        // which is an upper bound on the backfilling schedule and therefore
        // safe for admission control.
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
    fn backfills_short_jobs_around_a_blocked_head() {
        let mut s = EasyBackfilling::new(16);
        s.submit(job(0, 10, 100.0), 0.0); // running, 6 free
        s.submit(job(1, 12, 50.0), 0.0); // head: blocked until t=100
        // A short 4-proc job ends before the head's shadow time → backfilled.
        let started = s.submit(job(2, 4, 20.0), 0.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, jid(2));
        assert_eq!(started[0].start, 0.0);
        assert_eq!(s.running_count(), 2);
        assert_eq!(s.queued_count(), 1);
    }

    #[test]
    fn does_not_backfill_jobs_that_would_delay_the_head() {
        let mut s = EasyBackfilling::new(16);
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
    fn same_workload_finishes_no_later_than_fcfs() {
        use crate::lrms::SpaceSharedFcfs;
        // A workload where backfilling clearly helps.
        let jobs = vec![
            job(0, 10, 100.0),
            job(1, 12, 50.0),
            job(2, 4, 20.0),
            job(3, 2, 10.0),
            job(4, 6, 30.0),
        ];
        fn drive<S: LocalScheduler>(s: &mut S, jobs: &[ClusterJob]) -> f64 {
            let mut started: Vec<StartedJob> = Vec::new();
            for j in jobs {
                started.extend(s.submit(*j, 0.0));
            }
            let mut makespan: f64 = 0.0;
            while let Some(next) = started
                .iter()
                .min_by(|a, b| a.finish.total_cmp(&b.finish))
                .copied()
            {
                started.retain(|x| x.id != next.id);
                started.extend(s.on_finished(next.id, next.finish));
                makespan = makespan.max(next.finish);
            }
            makespan
        }
        let mut fcfs = SpaceSharedFcfs::new(16);
        let mut easy = EasyBackfilling::new(16);
        let fcfs_makespan = drive(&mut fcfs, &jobs);
        let easy_makespan = drive(&mut easy, &jobs);
        assert!(easy_makespan <= fcfs_makespan + 1e-9);
        assert_eq!(fcfs.completed_jobs(), 5);
        assert_eq!(easy.completed_jobs(), 5);
    }

    #[test]
    fn estimator_is_conservative_upper_bound() {
        let mut s = EasyBackfilling::new(16);
        s.submit(job(0, 10, 100.0), 0.0);
        s.submit(job(1, 12, 50.0), 0.0);
        let est = s.estimate_completion(4, 20.0, 0.0);
        // The FCFS bound starts the 4-proc job only once the blocked head has
        // started (t = 100, leaving 4 processors free), so it finishes at 120.
        assert!((est - 120.0).abs() < 1e-9, "estimate {est}");
        // Reality (with backfilling) would finish it at t=20; the estimate
        // must never be smaller than reality, and it isn't.
        // The incremental profile agrees bit-for-bit with the replay oracle.
        assert_eq!(est.to_bits(), s.estimate_completion_replay(4, 20.0, 0.0).to_bits());
    }

    #[test]
    fn utilization_is_tracked_like_fcfs() {
        let mut s = EasyBackfilling::new(10);
        s.submit(job(0, 5, 100.0), 0.0);
        s.on_finished(jid(0), 100.0);
        assert!((s.busy_processor_seconds(100.0) - 500.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "requests 99 processors")]
    fn oversized_submission_panics() {
        let mut s = EasyBackfilling::new(16);
        s.submit(job(0, 99, 10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processor_estimate_panics_like_fcfs() {
        let s = EasyBackfilling::new(16);
        let _ = s.estimate_completion(0, 10.0, 0.0);
    }
}
