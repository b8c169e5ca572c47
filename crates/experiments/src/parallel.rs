//! Deterministic parallel execution of independent runs.
//!
//! Every experiment's scenario list ([`crate::scenario`]) consists of fully
//! independent simulation runs: each run derives every seed it needs from
//! its own parameters, never from execution order.  This module fans those
//! runs across a bounded worker pool (`--jobs N`) built on
//! `std::thread::scope` — no external crates, and the only OS threads the
//! experiments start — and merges the results **in deterministic run
//! order**, so the output of a parallel sweep is bitwise-identical to the
//! sequential one (asserted by regression tests).
//!
//! Work distribution uses a shared atomic cursor: workers claim the next
//! unclaimed index, so stragglers never serialise the tail of the sweep.
//! Which worker computes which index is scheduling-dependent, but since
//! results are placed by index, the merge order — and therefore every CSV —
//! is not.
//!
//! There is one pool, [`run_indexed_with_schedule`], and one claim-order
//! type, [`ClaimSchedule`].  Production runs ([`crate::scenario::run`]) pass
//! [`ClaimSchedule::identity`] (ascending indices, no stalls); the
//! **schedule-permutation harness** drives the very same pool through
//! adversarial claim orders — reversed, strided, seeded shuffles, with
//! OS-yield stalls injected mid-sweep — that the `fetch_add` cursor would
//! only reach under pathological thread scheduling.  The merged output must
//! stay identical under every schedule; `tests/parallel_determinism.rs`
//! extends the check to a mixed scenario list of Experiments 3, 5, 6 and 7,
//! comparing the digest manifest and every rendered CSV.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Default worker count: the machine's available parallelism, falling back
/// to 1 when it cannot be determined.
#[must_use]
pub fn default_jobs() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// An explicit claim order for [`run_indexed_with_schedule`]: the shared
/// cursor walks positions `0..count`, and the worker that wins position `p`
/// computes sweep index `order[p]` — optionally stalling (yielding its OS
/// time slice) first, to widen the window for other workers to overtake it.
///
/// Production sweeps claim in ascending index order
/// ([`ClaimSchedule::identity`]); the other schedules replay the claim
/// orders that only adversarial thread scheduling would produce, so the
/// determinism regression tests can cover them on demand instead of hoping
/// the OS eventually does.
#[derive(Debug, Clone)]
pub struct ClaimSchedule {
    /// `order[p]` is the sweep index claimed at cursor position `p`; must be
    /// a permutation of `0..count`.
    order: Vec<usize>,
    /// `stall[p]` injects a `yield_now` before computing position `p`.
    stall: Vec<bool>,
    /// Human-readable name used in assertion messages.
    label: String,
}

impl ClaimSchedule {
    fn new(label: &str, order: Vec<usize>) -> Self {
        let stall = vec![false; order.len()];
        ClaimSchedule {
            order,
            stall,
            label: label.to_string(),
        }
    }

    /// The production claim order: ascending indices, no stalls.
    #[must_use]
    pub fn identity(count: usize) -> Self {
        ClaimSchedule::new("identity", (0..count).collect())
    }

    /// Claims the sweep back to front — the straggler-heavy tail first.
    #[must_use]
    pub fn reversed(count: usize) -> Self {
        ClaimSchedule::new("reversed", (0..count).rev().collect())
    }

    /// Claims every `stride`-th index first (0, s, 2s, …, then 1, s+1, …),
    /// interleaving distant sweep points the way a skewed pool would.
    ///
    /// # Panics
    /// Panics when `stride` is zero.
    #[must_use]
    pub fn strided(count: usize, stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        let mut order = Vec::with_capacity(count);
        for phase in 0..stride.min(count.max(1)) {
            order.extend((phase..count).step_by(stride));
        }
        ClaimSchedule::new(&format!("strided({stride})"), order)
    }

    /// A seeded Fisher–Yates shuffle (SplitMix64 stream): reproducible
    /// "random" claim orders without any external crate.
    #[must_use]
    pub fn shuffled(count: usize, seed: u64) -> Self {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut order: Vec<usize> = (0..count).collect();
        for i in (1..count).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        ClaimSchedule::new(&format!("shuffled({seed:#x})"), order)
    }

    /// Marks every `each`-th claim position as a stall point: the winning
    /// worker yields its OS time slice before computing, so neighbouring
    /// claims race ahead of it.
    ///
    /// # Panics
    /// Panics when `each` is zero.
    #[must_use]
    pub fn with_stalls(mut self, each: usize) -> Self {
        assert!(each > 0, "stall period must be positive");
        for (position, stall) in self.stall.iter_mut().enumerate() {
            *stall = position % each == 0;
        }
        self.label.push_str(&format!("+stalls({each})"));
        self
    }

    /// The canonical adversarial suite the determinism tests iterate:
    /// reversed, strided, and seeded-shuffle claim orders, with and without
    /// stall injection.
    #[must_use]
    pub fn adversarial_suite(count: usize) -> Vec<Self> {
        vec![
            ClaimSchedule::reversed(count),
            ClaimSchedule::strided(count, 3),
            ClaimSchedule::shuffled(count, 0xDEC0_DE15),
            ClaimSchedule::shuffled(count, 0x5EED_CAFE).with_stalls(2),
            ClaimSchedule::reversed(count).with_stalls(1),
        ]
    }

    /// The schedule's human-readable name, used in assertion messages.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Asserts `order` is a permutation of `0..count`.
    fn validate(&self, count: usize) {
        assert_eq!(
            self.order.len(),
            count,
            "schedule {} covers {} positions, sweep has {count}",
            self.label,
            self.order.len()
        );
        let mut seen = vec![false; count];
        for &index in &self.order {
            assert!(
                index < count && !seen[index],
                "schedule {} is not a permutation of 0..{count}",
                self.label
            );
            seen[index] = true;
        }
    }
}

/// Runs `task(0..count)` across at most `jobs` worker threads, claiming
/// work in the order `schedule` gives, and returns the results ordered by
/// index (identical to a sequential `map` for any pure `task`).
///
/// `jobs <= 1` (or `count <= 1`) computes on the calling thread, still in
/// claim order; that is the reference the parallel path must reproduce.
/// For any pure `task` the output is the same under every schedule — the
/// schedule-permutation regression the determinism tests assert.
///
/// # Panics
/// Panics when the schedule is not a permutation of `0..count`, and
/// propagates a panic from any task once all workers have been joined.
pub fn run_indexed_with_schedule<T, F>(
    count: usize,
    jobs: usize,
    schedule: &ClaimSchedule,
    task: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    schedule.validate(count);
    let jobs = jobs.max(1).min(count.max(1));
    if jobs <= 1 {
        // The sequential reference still honours the claim order (and is
        // what makes `jobs = 1` a meaningful baseline for the harness):
        // compute in schedule order, merge back into index order.
        let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
        slots.resize_with(count, || None);
        for &index in &schedule.order {
            slots[index] = Some(task(index));
        }
        return slots
            .into_iter()
            .map(|slot| slot.expect("schedule visits every index"))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let task = &task;
    let cursor = &cursor;
    let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);

    let per_worker: Vec<Vec<(usize, T)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let position = cursor.fetch_add(1, Ordering::Relaxed);
                        if position >= count {
                            break;
                        }
                        if schedule.stall[position] {
                            thread::yield_now();
                        }
                        let index = schedule.order[position];
                        out.push((index, task(index)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker must not panic"))
            .collect()
    });

    for (index, value) in per_worker.into_iter().flatten() {
        debug_assert!(slots[index].is_none(), "index {index} computed twice");
        slots[index] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index computed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The production call shape: ascending claims.
    fn run_indexed<T: Send>(count: usize, jobs: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
        run_indexed_with_schedule(count, jobs, &ClaimSchedule::identity(count), task)
    }

    #[test]
    fn results_come_back_in_index_order() {
        // Task durations vary wildly with index so completion order differs
        // from submission order; the merge must restore index order anyway.
        let out = run_indexed(64, 8, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_sequential() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let sequential = run_indexed(100, 1, f);
        for jobs in [2, 4, 16, 1000] {
            assert_eq!(run_indexed(100, jobs, f), sequential, "jobs={jobs}");
        }
    }

    #[test]
    fn degenerate_inputs_are_handled() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
        assert_eq!(run_indexed(1, 0, |i| i), vec![0]);
        assert_eq!(run_indexed(3, 999, |i| i), vec![0, 1, 2]);
        assert!(default_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "sweep worker must not panic")]
    fn worker_panics_propagate() {
        let _ = run_indexed(8, 2, |i| {
            assert!(i != 5, "boom");
            i
        });
    }

    #[test]
    fn schedules_are_permutations() {
        for count in [0usize, 1, 2, 17, 64] {
            for schedule in ClaimSchedule::adversarial_suite(count) {
                schedule.validate(count);
            }
            ClaimSchedule::identity(count).validate(count);
            ClaimSchedule::strided(count, 1).validate(count);
            ClaimSchedule::strided(count, count + 1).validate(count);
        }
    }

    #[test]
    fn strided_claims_every_phase_in_order() {
        let schedule = ClaimSchedule::strided(7, 3);
        assert_eq!(schedule.order, vec![0, 3, 6, 1, 4, 2, 5]);
    }

    #[test]
    fn every_adversarial_schedule_reproduces_the_sequential_merge() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let reference = run_indexed(33, 1, f);
        for schedule in ClaimSchedule::adversarial_suite(33) {
            for jobs in [1usize, 2, 8] {
                assert_eq!(
                    run_indexed_with_schedule(33, jobs, &schedule, f),
                    reference,
                    "schedule {} with jobs={jobs} diverged",
                    schedule.label()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn duplicate_claim_indices_are_rejected() {
        let mut schedule = ClaimSchedule::identity(4);
        schedule.order[2] = 1;
        let _ = run_indexed_with_schedule(4, 2, &schedule, |i| i);
    }

    #[test]
    #[should_panic(expected = "covers 3 positions")]
    fn wrong_length_schedules_are_rejected() {
        let schedule = ClaimSchedule::identity(3);
        let _ = run_indexed_with_schedule(4, 2, &schedule, |i| i);
    }
}
