//! User populations and OFC/OFT population profiles.
//!
//! Experiment 3 of the paper sweeps eleven *population profiles*: the share
//! of users that optimise for time (OFT) grows from 0 % to 100 % in steps of
//! ten, with the remainder optimising for cost (OFC).  Strategies are a
//! property of the **user**, not of the individual job: every job submitted
//! by an OFT user is scheduled with the OFT policy.

use crate::job::{Job, Strategy};
use rand::seq::SliceRandom;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A population mix: what percentage of users seek *optimise-for-time*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PopulationProfile {
    /// Percentage of users seeking OFT, in `[0, 100]`.
    pub oft_percent: u32,
}

impl PopulationProfile {
    /// Creates a profile with the given OFT percentage.
    ///
    /// # Panics
    /// Panics if `oft_percent > 100`.
    #[must_use]
    pub fn new(oft_percent: u32) -> Self {
        assert!(oft_percent <= 100, "oft_percent must be <= 100, got {oft_percent}");
        PopulationProfile { oft_percent }
    }

    /// Percentage of users seeking OFC.
    #[must_use]
    pub fn ofc_percent(&self) -> u32 {
        100 - self.oft_percent
    }

    /// The eleven profiles evaluated by the paper:
    /// OFT ∈ {0, 10, 20, …, 100}.
    #[must_use]
    pub fn paper_sweep() -> Vec<PopulationProfile> {
        (0..=10).map(|i| PopulationProfile::new(i * 10)).collect()
    }

    /// The profile the paper recommends as the sweet spot (70 % OFC / 30 % OFT).
    #[must_use]
    pub fn recommended() -> Self {
        PopulationProfile::new(30)
    }

    /// A short label such as `"OFC70/OFT30"` used in tables and CSV headers.
    #[must_use]
    pub fn label(&self) -> String {
        format!("OFC{}/OFT{}", self.ofc_percent(), self.oft_percent)
    }
}

/// Deterministic assignment of strategies to the users of one resource.
///
/// The assignment shuffles the local user indices with a seed derived from
/// the resource index, then marks the first `oft_percent`% of them as OFT.
/// This gives the exact requested proportion (up to rounding) while remaining
/// reproducible and independent of the job order.
#[derive(Debug, Clone)]
pub struct UserPopulation {
    origin: usize,
    strategies: Vec<Strategy>,
}

impl UserPopulation {
    /// Builds the population of `user_count` users local to resource
    /// `origin`, following `profile`.
    ///
    /// # Panics
    /// Panics if `user_count == 0`.
    #[must_use]
    pub fn new(origin: usize, user_count: usize, profile: PopulationProfile, seed: u64) -> Self {
        assert!(user_count > 0, "a resource needs at least one user");
        let mut order: Vec<usize> = (0..user_count).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ (origin as u64).wrapping_mul(0x9E37_79B9));
        order.shuffle(&mut rng);
        // Round to nearest so a 30 % profile over 10 users gives exactly 3.
        let oft_count = ((user_count as f64) * f64::from(profile.oft_percent) / 100.0).round() as usize;
        let mut strategies = vec![Strategy::Ofc; user_count];
        for &u in order.iter().take(oft_count) {
            strategies[u] = Strategy::Oft;
        }
        UserPopulation { origin, strategies }
    }

    /// The resource this population belongs to.
    #[must_use]
    pub fn origin(&self) -> usize {
        self.origin
    }

    /// Number of users.
    #[must_use]
    pub fn len(&self) -> usize {
        self.strategies.len()
    }

    /// Whether the population is empty (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.strategies.is_empty()
    }

    /// Number of OFT users.
    #[must_use]
    pub fn oft_count(&self) -> usize {
        self.strategies.iter().filter(|s| **s == Strategy::Oft).count()
    }

    /// Assigns the population's strategy to a single job in place — the
    /// per-job primitive behind both [`UserPopulation::apply`] and the
    /// streaming [`crate::source::JobSource::populated`] adapter.  Jobs
    /// belonging to other origins are left untouched.
    ///
    /// # Panics
    /// Panics if the job's `user.local` is not below [`UserPopulation::len`].
    pub fn assign(&self, job: &mut Job) {
        if job.user.origin == self.origin {
            job.qos.strategy = self.strategies[job.user.local];
        }
    }

    /// Applies the population's strategies to a slice of jobs in place.
    /// Jobs belonging to other origins are left untouched.
    ///
    /// # Panics
    /// Panics if a job of this origin has a `user.local` not below
    /// [`UserPopulation::len`].
    pub fn apply(&self, jobs: &mut [Job]) {
        for job in jobs.iter_mut() {
            self.assign(job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, Qos, UserId};

    #[test]
    fn profile_sweep_and_labels() {
        let sweep = PopulationProfile::paper_sweep();
        assert_eq!(sweep.len(), 11);
        assert_eq!(sweep[0].oft_percent, 0);
        assert_eq!(sweep[10].oft_percent, 100);
        assert_eq!(sweep[3].label(), "OFC70/OFT30");
        assert_eq!(PopulationProfile::recommended().oft_percent, 30);
        assert_eq!(PopulationProfile::new(40).ofc_percent(), 60);
    }

    #[test]
    #[should_panic(expected = "must be <= 100")]
    fn invalid_profile_panics() {
        let _ = PopulationProfile::new(101);
    }

    #[test]
    fn population_has_exact_proportion() {
        for pct in [0, 10, 30, 50, 70, 100] {
            let pop = UserPopulation::new(2, 200, PopulationProfile::new(pct), 42);
            assert_eq!(pop.oft_count(), 2 * pct as usize, "pct {pct}");
            assert_eq!(pop.len(), 200);
            assert!(!pop.is_empty());
        }
    }

    #[test]
    fn population_is_deterministic() {
        let a = UserPopulation::new(1, 50, PopulationProfile::new(40), 7);
        let b = UserPopulation::new(1, 50, PopulationProfile::new(40), 7);
        assert_eq!(a.strategies, b.strategies);
        // Different seed should (almost surely) produce a different assignment.
        let c = UserPopulation::new(1, 50, PopulationProfile::new(40), 8);
        assert_ne!(a.strategies, c.strategies, "different seeds should shuffle users differently");
    }

    #[test]
    fn apply_only_touches_own_origin() {
        let pop = UserPopulation::new(0, 10, PopulationProfile::new(100), 1);
        let mut jobs = vec![
            Job {
                id: JobId { origin: 0, seq: 0 },
                user: UserId { origin: 0, local: 3 },
                submit: 0.0,
                processors: 1,
                length_mi: 1.0,
                comm_overhead: 0.0,
                qos: Qos { budget: 1.0, deadline: 1.0, strategy: Strategy::Ofc },
            },
            Job {
                id: JobId { origin: 1, seq: 0 },
                user: UserId { origin: 1, local: 3 },
                submit: 0.0,
                processors: 1,
                length_mi: 1.0,
                comm_overhead: 0.0,
                qos: Qos { budget: 1.0, deadline: 1.0, strategy: Strategy::Ofc },
            },
        ];
        pop.apply(&mut jobs);
        assert_eq!(jobs[0].qos.strategy, Strategy::Oft);
        assert_eq!(jobs[1].qos.strategy, Strategy::Ofc);
    }
}
