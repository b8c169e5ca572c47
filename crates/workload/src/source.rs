//! Streaming job sources: constant-memory workload production.
//!
//! Million-job traces must not be materialised as `Vec<Job>` before the
//! simulation starts — a [`Job`] carries QoS estimates and identity on top
//! of its scalar parameters, so an eager vector costs an order of magnitude
//! more resident memory than the underlying trace data.  [`JobSource`] is
//! the crate-wide abstraction for *lazy* workload production: any iterator
//! of jobs qualifies, producers ([`crate::synthetic::SyntheticJobStream`],
//! [`crate::swf::SwfJobStream`]) yield jobs one at a time, and consumers
//! either drain the stream directly or opt into materialisation through the
//! single sanctioned adapter, [`JobSource::collect_jobs`].
//!
//! The `fedlint` `eager-materialise` rule flags ad-hoc
//! `.collect::<Vec<Job>>()` in simulation code precisely so that every
//! materialisation point in the workspace is spelled `collect_jobs()` and
//! can be found — and removed — when a consumer learns to stream.

use crate::job::Job;
use crate::population::UserPopulation;

/// A lazy producer of [`Job`]s.
///
/// Blanket-implemented for every `Iterator<Item = Job>`, so producers only
/// implement `Iterator` and consumers get the adapters for free.
pub trait JobSource: Iterator<Item = Job> {
    /// Materialises the remainder of the source into a vector.
    ///
    /// This is the *one* sanctioned eager-collection point for simulation
    /// code: consumers that still need random access (today's federation
    /// engine pre-sorts per-origin queues) funnel through here, which keeps
    /// the streaming migration greppable.
    #[must_use]
    fn collect_jobs(self) -> Vec<Job>
    where
        Self: Sized,
    {
        let mut jobs = Vec::with_capacity(self.size_hint().0);
        jobs.extend(self);
        jobs
    }

    /// Adapts the source so every yielded job has its user's scheduling
    /// strategy assigned from `population` (jobs of other origins pass
    /// through untouched) — the streaming equivalent of
    /// [`UserPopulation::apply`].
    fn populated(self, population: &UserPopulation) -> Populated<'_, Self>
    where
        Self: Sized,
    {
        Populated {
            source: self,
            population,
        }
    }
}

impl<I: Iterator<Item = Job>> JobSource for I {}

/// Streaming adapter returned by [`JobSource::populated`].
#[derive(Debug, Clone)]
pub struct Populated<'a, S> {
    source: S,
    population: &'a UserPopulation,
}

impl<S: Iterator<Item = Job>> Iterator for Populated<'_, S> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let mut job = self.source.next()?;
        self.population.assign(&mut job);
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.source.size_hint()
    }
}

impl<S: ExactSizeIterator<Item = Job>> ExactSizeIterator for Populated<'_, S> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, Strategy, UserId};
    use crate::population::PopulationProfile;

    fn job(origin: usize, seq: usize, local: usize) -> Job {
        Job::from_runtime(
            JobId { origin, seq },
            UserId { origin, local },
            seq as f64,
            2,
            100.0,
            800.0,
            0.10,
        )
    }

    #[test]
    fn collect_jobs_matches_plain_collect() {
        let make = || (0..10).map(|s| job(1, s, s % 3));
        assert_eq!(make().collect_jobs(), make().collect::<Vec<_>>());
        assert_eq!(make().collect_jobs().len(), 10);
    }

    #[test]
    fn populated_assigns_streamed_strategies_like_apply() {
        let population = UserPopulation::new(1, 5, PopulationProfile::new(60), 42);
        let streamed: Vec<Job> = (0..20)
            .map(|s| job(1, s, s % 5))
            .populated(&population)
            .collect_jobs();
        let mut applied: Vec<Job> = (0..20).map(|s| job(1, s, s % 5)).collect_jobs();
        population.apply(&mut applied);
        assert_eq!(streamed, applied);
        assert!(streamed.iter().any(|j| j.qos.strategy == Strategy::Oft));
    }

    #[test]
    fn populated_leaves_foreign_origins_untouched() {
        let population = UserPopulation::new(0, 5, PopulationProfile::new(100), 7);
        let jobs: Vec<Job> = (0..4)
            .map(|s| job(3, s, 0))
            .populated(&population)
            .collect_jobs();
        assert!(jobs.iter().all(|j| j.qos.strategy == Strategy::Ofc));
    }

    #[test]
    fn populated_preserves_size_hints() {
        let population = UserPopulation::new(0, 3, PopulationProfile::new(0), 1);
        let src = (0..7).map(|s| job(0, s, 0));
        let adapted = src.populated(&population);
        assert_eq!(adapted.size_hint(), (7, Some(7)));
        assert_eq!(adapted.len(), 7);
    }
}
