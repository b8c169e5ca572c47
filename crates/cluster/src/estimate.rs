//! Incremental admission-control estimation for the local scheduler.
//!
//! The GFA's DBC loop asks "when would this job finish if accepted now?"
//! (Eq. 2 / Algorithm 1) once per candidate per negotiation round, so a
//! loaded federation issues thousands of quotes between consecutive
//! scheduler state changes.  The original estimator replayed the entire
//! running set and queue into a fresh binary heap on *every* quote —
//! O((R+Q)·log(R+Q)) per call.
//!
//! This module replaces that with a persistent **availability profile**: one
//! replay builds a sorted step function `(time, cumulative free
//! processors)` describing when capacity becomes available once the current
//! queue has been dispatched.  A quote for `(processors, service_time)` is
//! then a binary search over the steps — O(log R) with zero allocation —
//! and the profile is rebuilt only when the scheduler's epoch advances (a
//! state change the profile could not follow) or the quote falls outside
//! the profile's window.
//!
//! FCFS follows its own state changes without a replay:
//!
//! * **Submits.**  The replay would start a new job of `p` PEs at the first
//!   step with at least `p` free, or at `now` if later — after the queue,
//!   or at once when it starts — and hold the PEs for its service time `s`.
//!   [`QuoteCache::keep_across_submit`] lowers the step function by `p` on
//!   `[start, start + s)` in place, O(steps) with no heap.
//! * **On-time finishes.**  The replay assumes every running job releases
//!   its processors exactly at its recorded finish and the queue then starts
//!   in FCFS order; a job finishing at exactly (bitwise) that time, inside
//!   the profile's window, is that prediction coming true, so the step
//!   function is still exact and only its window moves
//!   ([`QuoteCache::keep_across_finish`]).
//!
//! Any other finish, a state change outside the window, and every state
//! change under EASY backfilling (which may start a job ahead of the
//! queue) bump the epoch instead.
//!
//! The original replay estimator is retained as [`replay_estimate`]: it is
//! the differential oracle the property tests compare against and the
//! baseline the `bench_perf` binary measures the speedup from.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use crate::lrms::{ClusterJob, StartedJob};

/// Finish event used by the completion-time estimators (a job releasing
/// `processors` PEs at `time`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FinishEvent {
    time: f64,
    processors: u32,
}

impl Eq for FinishEvent {}
impl PartialOrd for FinishEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FinishEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.processors.cmp(&other.processors))
    }
}

/// Epoch-stamped availability profile answering completion-time quotes.
///
/// The profile is exact for any query time `now` in `[base, valid_until]`;
/// outside that window (or when the scheduler's epoch advanced) it rebuilds
/// itself from the current state, reusing its buffers so the steady-state
/// quote path stays allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct QuoteCache {
    /// Scheduler epoch the profile was built at.
    epoch: u64,
    /// Time the profile was built or last followed a state change at.
    base: f64,
    /// Largest query time the profile answers exactly (the earliest running
    /// finish while jobs are queued; +inf when the queue is empty because
    /// thresholds are re-clamped against `now` on every quote).
    valid_until: f64,
    /// `(time, cumulative free processors)` steps: times non-decreasing,
    /// free strictly increasing up to the cluster's total.
    steps: Vec<(f64, u32)>,
    /// Scratch heap reused across rebuilds.
    scratch: BinaryHeap<Reverse<FinishEvent>>,
    built: bool,
    /// Replays run so far, so tests can tell a kept profile from a rebuilt
    /// one.
    #[cfg(test)]
    pub(crate) rebuilds: u64,
}

impl QuoteCache {
    /// Answers a completion-time quote, rebuilding the profile first if the
    /// cached one cannot answer exactly at `now`.
    ///
    /// The caller must have rejected `processors > total` already.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn estimate(
        &mut self,
        total: u32,
        busy: u32,
        running: &[StartedJob],
        queue: &VecDeque<ClusterJob>,
        epoch: u64,
        processors: u32,
        service_time: f64,
        now: f64,
    ) -> f64 {
        debug_assert!(processors >= 1 && processors <= total);
        if self.stale(epoch, now) {
            self.rebuild(total, busy, running, queue, epoch, now);
        }
        self.threshold(processors).max(now) + service_time
    }

    /// Keeps the profile across a running job's finish at `now` that the
    /// profile predicted: the job's recorded `finish` equals `now` bitwise,
    /// the profile is current (built at `epoch`), and `now` lies in its
    /// window.  The caller has already released the job and started the
    /// queued jobs that fit, exactly as the replay did at this instant, so
    /// the steps stay exact; only the window moves to `now` and, while jobs
    /// are queued, to the earliest finish of the `running` jobs now.
    ///
    /// Returns `false`, leaving the cache untouched, when the finish was
    /// not predicted; the caller then bumps its epoch.
    pub(crate) fn keep_across_finish(
        &mut self,
        epoch: u64,
        finish: f64,
        now: f64,
        running: &[StartedJob],
        queue_empty: bool,
    ) -> bool {
        if finish.to_bits() != now.to_bits() || self.stale(epoch, now) {
            return false;
        }
        self.move_window(now, running, queue_empty);
        true
    }

    /// Keeps the profile across an FCFS submit at `now` by applying `job` to
    /// the step function in place.  The replay would start the job at
    /// `t' = max(threshold(p), now)` — after the queue, or at once when it
    /// started — and hold its `p` PEs until `t' + s`; so the new profile is
    /// the old one from `t'` on, lowered by `p` on `[t', t' + s)`.  The
    /// caller has already queued or started the job; `running` and
    /// `queue_empty` describe the state after it.
    ///
    /// Returns `false`, leaving the cache untouched, unless the profile is
    /// current (built at `epoch`) and `now` lies in its window; the caller
    /// then bumps its epoch.
    pub(crate) fn keep_across_submit(
        &mut self,
        epoch: u64,
        now: f64,
        job: &ClusterJob,
        running: &[StartedJob],
        queue_empty: bool,
    ) -> bool {
        if self.stale(epoch, now) {
            return false;
        }
        let start_idx = self.steps.partition_point(|&(_, f)| f < job.processors);
        let start = self.steps[start_idx].0.max(now);
        let end = start + job.service_time;
        self.steps.drain(..start_idx);
        // The steps not later than `end` are the finishes the replay pops
        // before the job's own (a tie pops in either order, which leaves the
        // step function the same).  A step time before `start` can only be
        // before `now`, and every reader clamps step times against `now`, so
        // no step needs rewriting.
        let mut released = 0;
        let mut free = 0;
        for step in self.steps.iter_mut().take_while(|s| s.0 <= end) {
            free = step.1;
            step.1 -= job.processors;
            released += 1;
        }
        self.steps.insert(released, (end, free));
        self.move_window(now, running, queue_empty);
        true
    }

    /// Whether the profile cannot answer exactly at `now`: none is built,
    /// it is not current (built at `epoch`), or `now` lies outside its
    /// window.
    fn stale(&self, epoch: u64, now: f64) -> bool {
        !self.built || self.epoch != epoch || now < self.base || now > self.valid_until
    }

    /// Re-anchors the window at `now` for the state the steps now describe.
    /// With a non-empty queue the replayed start times depend on `now` only
    /// while no running job finishes in between, so the window ends at the
    /// earliest running finish; with an empty queue every threshold is
    /// re-clamped against `now`, so the profile holds for the rest of the
    /// epoch.
    fn move_window(&mut self, now: f64, running: &[StartedJob], queue_empty: bool) {
        self.base = now;
        self.valid_until = if queue_empty {
            f64::INFINITY
        } else {
            running
                .iter()
                .map(|r| r.finish)
                .fold(f64::INFINITY, f64::min)
                .max(now)
        };
    }

    /// One FCFS replay of the current state, recorded as availability steps.
    fn rebuild(
        &mut self,
        total: u32,
        busy: u32,
        running: &[StartedJob],
        queue: &VecDeque<ClusterJob>,
        epoch: u64,
        now: f64,
    ) {
        self.steps.clear();
        self.scratch.clear();
        self.scratch.extend(running.iter().map(|r| {
            Reverse(FinishEvent {
                time: r.finish,
                processors: r.processors,
            })
        }));
        let mut free = total - busy;
        let mut t = now;
        for q in queue {
            while free < q.processors {
                // The LRMS admits only jobs that fit the cluster, so enough
                // finish events always remain to free the requested PEs.
                // fedlint: allow(hot-path-unwrap)
                let Reverse(ev) = self.scratch.pop().expect("not enough processors ever free");
                if ev.time > t {
                    t = ev.time;
                }
                free += ev.processors;
            }
            free -= q.processors;
            self.scratch.push(Reverse(FinishEvent {
                time: t + q.service_time,
                processors: q.processors,
            }));
        }
        // Base step: capacity left once the whole queue has been dispatched.
        self.steps.push((t, free));
        // Remaining finish events, in ascending order, grow the availability.
        while let Some(Reverse(ev)) = self.scratch.pop() {
            if ev.time > t {
                t = ev.time;
            }
            free += ev.processors;
            self.steps.push((t, free));
        }
        debug_assert_eq!(free, total, "all processors free once everything finished");
        self.epoch = epoch;
        self.built = true;
        self.move_window(now, running, queue.is_empty());
        #[cfg(test)]
        {
            self.rebuilds += 1;
        }
    }

    /// Earliest profile time at which `processors` PEs are simultaneously
    /// free (the hypothetical job's start, before clamping against `now`).
    fn threshold(&self, processors: u32) -> f64 {
        let idx = self.steps.partition_point(|&(_, f)| f < processors);
        debug_assert!(
            idx < self.steps.len(),
            "capacity check happens before the quote"
        );
        self.steps[idx].0
    }
}

/// The original O((R+Q)·log(R+Q)) replay estimator, retained verbatim as the
/// differential oracle for the property tests and the baseline measured by
/// `bench_perf`.
pub(crate) fn replay_estimate(
    total: u32,
    busy: u32,
    running: &[StartedJob],
    queue: &VecDeque<ClusterJob>,
    processors: u32,
    service_time: f64,
    now: f64,
) -> f64 {
    if processors > total {
        return f64::INFINITY;
    }
    let mut heap: BinaryHeap<Reverse<FinishEvent>> = running
        .iter()
        .map(|r| {
            Reverse(FinishEvent {
                time: r.finish,
                processors: r.processors,
            })
        })
        .collect();
    let mut free = total - busy;
    let mut t = now;

    let mut simulate_start = |procs: u32, service: f64, free: &mut u32, t: &mut f64| -> f64 {
        while *free < procs {
            // Capacity is prechecked above, so the replay can always free
            // enough PEs.  fedlint: allow(hot-path-unwrap)
            let Reverse(ev) = heap.pop().expect("not enough processors ever free");
            if ev.time > *t {
                *t = ev.time;
            }
            *free += ev.processors;
        }
        let start = *t;
        *free -= procs;
        heap.push(Reverse(FinishEvent {
            time: start + service,
            processors: procs,
        }));
        start
    };

    for q in queue {
        let _ = simulate_start(q.processors, q.service_time, &mut free, &mut t);
    }
    let start = simulate_start(processors, service_time, &mut free, &mut t);
    start + service_time
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_workload::JobId;

    fn started(seq: usize, start: f64, finish: f64, procs: u32) -> StartedJob {
        StartedJob {
            id: JobId { origin: 0, seq },
            start,
            finish,
            processors: procs,
        }
    }

    fn queued(seq: usize, procs: u32, service: f64) -> ClusterJob {
        ClusterJob {
            id: JobId { origin: 0, seq },
            processors: procs,
            service_time: service,
        }
    }

    #[test]
    fn profile_matches_replay_on_a_loaded_machine() {
        let running = vec![started(0, 0.0, 100.0, 12), started(1, 0.0, 60.0, 2)];
        let queue: VecDeque<ClusterJob> = vec![queued(2, 8, 50.0), queued(3, 10, 30.0)]
            .into_iter()
            .collect();
        let mut cache = QuoteCache::default();
        for procs in 1..=16u32 {
            for service in [0.0, 40.0, 123.5] {
                let fast = cache.estimate(16, 14, &running, &queue, 1, procs, service, 10.0);
                let slow = replay_estimate(16, 14, &running, &queue, procs, service, 10.0);
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "procs={procs} service={service}"
                );
            }
        }
    }

    #[test]
    fn cache_survives_advancing_now_until_the_next_finish() {
        let running = vec![started(0, 0.0, 100.0, 12)];
        let queue: VecDeque<ClusterJob> = vec![queued(1, 8, 50.0)].into_iter().collect();
        let mut cache = QuoteCache::default();
        // Build at t=10, then quote at t=40 (< first finish at 100): the
        // cached profile must still agree with a fresh replay at t=40.
        let _ = cache.estimate(16, 12, &running, &queue, 7, 4, 5.0, 10.0);
        let fast = cache.estimate(16, 12, &running, &queue, 7, 16, 5.0, 40.0);
        let slow = replay_estimate(16, 12, &running, &queue, 16, 5.0, 40.0);
        assert_eq!(fast.to_bits(), slow.to_bits());
    }

    #[test]
    fn stale_epoch_forces_a_rebuild() {
        let mut running = vec![started(0, 0.0, 100.0, 12)];
        let queue = VecDeque::new();
        let mut cache = QuoteCache::default();
        let before = cache.estimate(16, 12, &running, &queue, 1, 8, 10.0, 0.0);
        assert_eq!(before, 110.0); // must wait for the 12-proc job
        running.clear();
        let after = cache.estimate(16, 0, &running, &queue, 2, 8, 10.0, 0.0);
        assert_eq!(after, 10.0); // fresh epoch: the machine is empty now
    }

    #[test]
    fn empty_machine_quotes_are_immediate() {
        let mut cache = QuoteCache::default();
        let queue = VecDeque::new();
        let est = cache.estimate(8, 0, &[], &queue, 0, 4, 100.0, 50.0);
        assert_eq!(est, 150.0);
        // Later `now`, same epoch: still exact without a rebuild.
        let est = cache.estimate(8, 0, &[], &queue, 0, 8, 1.0, 99.0);
        assert_eq!(est, 100.0);
    }
}
