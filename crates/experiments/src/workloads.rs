//! Workload construction for the experiments.
//!
//! Builds, for each resource of the paper's Table 1, a calibrated synthetic
//! two-day trace (the `grid-workload` crate docs give the substitution
//! argument), fabricates QoS constraints and applies a
//! population profile.  Experiment 5 replicates the eight base resources to
//! reach federations of 10–50 clusters, exactly as the paper does.

use grid_cluster::{paper_resources, replicated_resources, PaperResource, ResourceSpec};
use grid_workload::{Job, JobSource, PopulationProfile, SyntheticWorkloadConfig, UserPopulation};

/// Options controlling workload construction.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadOptions {
    /// Trace length in seconds (the paper simulates two days).
    pub duration: f64,
    /// Scales the per-resource job counts of Table 2 (1.0 = the paper's
    /// counts; smaller values make quick test/bench runs).
    pub job_scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Fraction of execution time that is communication (0.10 in the paper).
    pub comm_fraction: f64,
}

impl Default for WorkloadOptions {
    fn default() -> Self {
        WorkloadOptions {
            duration: 2.0 * 86_400.0,
            job_scale: 1.0,
            seed: 2_005,
            comm_fraction: 0.10,
        }
    }
}

impl WorkloadOptions {
    /// A reduced configuration for fast unit tests and `bench_perf`:
    /// a quarter of the paper's job counts over half a simulated day, which
    /// keeps each resource's offered load (and therefore the qualitative
    /// behaviour) close to the full configuration.
    #[must_use]
    pub fn quick() -> Self {
        WorkloadOptions {
            duration: 43_200.0,
            job_scale: 0.25,
            ..WorkloadOptions::default()
        }
    }
}

/// A ready-to-run experiment setup: resources plus one workload per resource.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    /// The participating resources (quotes included).
    pub resources: Vec<ResourceSpec>,
    /// The local workload of each resource, strategies already assigned.
    pub workloads: Vec<Vec<Job>>,
}

impl ExperimentSetup {
    /// Total number of jobs across all resources.
    #[must_use]
    pub fn total_jobs(&self) -> usize {
        self.workloads.iter().map(Vec::len).sum()
    }
}

fn synthetic_config(
    index: usize,
    resource: &PaperResource,
    options: &WorkloadOptions,
) -> SyntheticWorkloadConfig {
    let mut cfg = SyntheticWorkloadConfig::new(index, &resource.spec.name);
    cfg.duration = options.duration;
    cfg.total_jobs = ((resource.jobs_two_days as f64) * options.job_scale).round().max(1.0) as usize;
    cfg.max_processors = resource.spec.processors;
    cfg.origin_mips = resource.spec.mips;
    cfg.offered_load = resource.offered_load;
    cfg.max_runtime = 0.25 * options.duration;
    cfg.user_count = resource.user_count;
    cfg.comm_fraction = options.comm_fraction;
    cfg.seed = options.seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407);
    cfg
}

fn build_setup(
    resources: Vec<PaperResource>,
    profile: PopulationProfile,
    options: &WorkloadOptions,
) -> ExperimentSetup {
    let specs: Vec<ResourceSpec> = resources.iter().map(|r| r.spec.clone()).collect();
    // Jobs are produced through the streaming source and only materialised
    // at the very end (today's federation engine pre-sorts per-origin
    // queues, so it still needs the vectors).
    let workloads: Vec<Vec<Job>> = resources
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let population = UserPopulation::new(i, r.user_count, profile, options.seed);
            synthetic_config(i, r, options)
                .stream()
                .populated(&population)
                .collect_jobs()
        })
        .collect();
    ExperimentSetup {
        resources: specs,
        workloads,
    }
}

/// Builds the paper's eight-resource federation with the given population
/// profile.
#[must_use]
pub fn paper_workloads(profile: PopulationProfile, options: &WorkloadOptions) -> ExperimentSetup {
    build_setup(paper_resources(), profile, options)
}

/// Builds a federation of `n` clusters by replicating the Table 1 resources
/// (Experiment 5).
#[must_use]
pub fn replicated_workloads(
    n: usize,
    profile: PopulationProfile,
    options: &WorkloadOptions,
) -> ExperimentSetup {
    build_setup(replicated_resources(n), profile, options)
}

/// The synthetic configuration of paper resource `index % 8`, scaled to
/// exactly `total_jobs` jobs — the entry point of `bench_perf`'s
/// million-job streaming drain, which consumes
/// `scaled_stream_config(..).stream()` without ever materialising the
/// workload.
#[must_use]
pub fn scaled_stream_config(
    index: usize,
    total_jobs: usize,
    options: &WorkloadOptions,
) -> SyntheticWorkloadConfig {
    let resources = paper_resources();
    let mut cfg = synthetic_config(index, &resources[index % resources.len()], options);
    cfg.total_jobs = total_jobs.max(1);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_workload::Strategy;

    #[test]
    fn paper_setup_matches_table2_job_counts() {
        let setup = paper_workloads(PopulationProfile::new(30), &WorkloadOptions::default());
        assert_eq!(setup.resources.len(), 8);
        let counts: Vec<usize> = setup.workloads.iter().map(Vec::len).collect();
        assert_eq!(counts, vec![417, 163, 215, 817, 535, 189, 215, 111]);
        assert_eq!(setup.total_jobs(), 2_662);
        // Every job belongs to the resource it is attached to.
        for (i, jobs) in setup.workloads.iter().enumerate() {
            assert!(jobs.iter().all(|j| j.id.origin == i && j.user.origin == i));
            assert!(jobs.iter().all(|j| j.processors <= setup.resources[i].processors));
        }
    }

    #[test]
    fn population_profile_controls_strategy_mix() {
        let all_ofc = paper_workloads(PopulationProfile::new(0), &WorkloadOptions::quick());
        assert!(all_ofc
            .workloads
            .iter()
            .flatten()
            .all(|j| j.qos.strategy == Strategy::Ofc));
        let all_oft = paper_workloads(PopulationProfile::new(100), &WorkloadOptions::quick());
        assert!(all_oft
            .workloads
            .iter()
            .flatten()
            .all(|j| j.qos.strategy == Strategy::Oft));
        let mixed = paper_workloads(PopulationProfile::new(50), &WorkloadOptions::quick());
        let oft = mixed
            .workloads
            .iter()
            .flatten()
            .filter(|j| j.qos.strategy == Strategy::Oft)
            .count();
        let total = mixed.total_jobs();
        let share = oft as f64 / total as f64;
        assert!(
            (share - 0.5).abs() < 0.2,
            "OFT job share {share} should be near the 50 % user share"
        );
    }

    #[test]
    fn quick_options_scale_down_the_job_counts() {
        let quick = paper_workloads(PopulationProfile::recommended(), &WorkloadOptions::quick());
        assert!(quick.total_jobs() < 800);
        assert!(quick.total_jobs() > 400);
        assert!(quick
            .workloads
            .iter()
            .flatten()
            .all(|j| j.submit < WorkloadOptions::quick().duration));
    }

    #[test]
    fn replicated_setup_has_n_resources() {
        let setup = replicated_workloads(20, PopulationProfile::new(50), &WorkloadOptions::quick());
        assert_eq!(setup.resources.len(), 20);
        assert_eq!(setup.workloads.len(), 20);
        // Replicas carry distinct names but the same capacities.
        assert_eq!(setup.resources[8].name, "CTC SP2 #2");
        assert_eq!(setup.resources[8].processors, setup.resources[0].processors);
        // Jobs of replica 8 originate at index 8.
        assert!(setup.workloads[8].iter().all(|j| j.id.origin == 8));
    }

    #[test]
    fn workload_generation_is_deterministic() {
        let a = paper_workloads(PopulationProfile::new(30), &WorkloadOptions::quick());
        let b = paper_workloads(PopulationProfile::new(30), &WorkloadOptions::quick());
        assert_eq!(a.workloads, b.workloads);
    }

    #[test]
    fn scaled_stream_config_streams_the_requested_job_count() {
        let options = WorkloadOptions::quick();
        let cfg = scaled_stream_config(3, 10_000, &options);
        let mut stream = cfg.stream();
        assert_eq!(stream.len(), 10_000);
        let first = stream.next().expect("stream yields jobs");
        assert_eq!(first.id.origin, 3);
        // The scaled config inherits the base resource's calibration seed,
        // so prefixes of different scales still agree on shared structure.
        assert_eq!(scaled_stream_config(0, 1, &options).stream().len(), 1);
    }
}
