//! The benchmark's three workloads.  Every schedule a workload holds — the
//! synthetic traces, the repricing plan, the churn chains and the link
//! faults — derives from the `--seed` argument alone, so one seed always
//! yields the same inputs and the federation only ever sees generated data.

use grid_cluster::ResourceSpec;
use grid_des::{NetworkFaultConfig, SimRng};
use grid_experiments::exp6::DEFAULT_LEVELS;
use grid_experiments::workloads::{replicated_workloads, WorkloadOptions};
use grid_federation_core::{DirectoryBackend, FederationConfig, LrmsKind, SchedulingMode};
use grid_workload::{Job, PopulationProfile};

/// Federation size of every workload (replicated Table-1 clusters).
pub const N: usize = 200;

/// Share of OFT users in every population (the paper's 50 % profile).
const OFT_PERCENT: u32 = 50;

/// Scheduled repricings per GFA on `reprice_maan_n200`.
pub const REPRICINGS_PER_GFA: usize = 100;

/// Replication factor of the MAAN entries under churn.
pub const CHURN_REPLICATION: usize = 3;

/// Decorrelates the repricing plan from the workload and churn streams.
const REPRICE_SALT: u64 = 0x5EED_0F9A_1CE5_D1CE;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ideal backend, full two-day trace, static ring, lossless transport:
    /// negotiation fan-out dominates.
    FanoutN200,
    /// MAAN backend, quarter job scale, about 100 repricings per GFA:
    /// directory writes mixed with reads.
    RepriceMaanN200,
    /// MAAN backend, 10 % job scale, heavy churn at k = 3 and moderate link
    /// faults: overlay maintenance and the transport dominate.
    ChurnFaultsMaanN200,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FanoutN200,
        Workload::RepriceMaanN200,
        Workload::ChurnFaultsMaanN200,
    ];

    /// The name the benchmark's `--workload` argument takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FanoutN200 => "fanout_n200",
            Workload::RepriceMaanN200 => "reprice_maan_n200",
            Workload::ChurnFaultsMaanN200 => "churn_faults_maan_n200",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The directory backend the workload runs on.
    #[must_use]
    pub fn backend(self) -> DirectoryBackend {
        match self {
            Workload::FanoutN200 => DirectoryBackend::Ideal,
            Workload::RepriceMaanN200 | Workload::ChurnFaultsMaanN200 => DirectoryBackend::Maan,
        }
    }

    /// Federations one seed stands for.  Churn and fault draws make the
    /// event count of a `churn_faults_maan_n200` federation vary by about
    /// ±10 % from seed to seed, so that workload averages eight
    /// federations; the others vary by a few percent and run one.
    #[must_use]
    pub fn federations(self) -> usize {
        match self {
            Workload::FanoutN200 | Workload::RepriceMaanN200 => 1,
            Workload::ChurnFaultsMaanN200 => 8,
        }
    }

    fn job_scale(self) -> f64 {
        match self {
            Workload::FanoutN200 => 1.0,
            Workload::RepriceMaanN200 => 0.25,
            Workload::ChurnFaultsMaanN200 => 0.1,
        }
    }
}

/// Everything one federation run consumes.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The participating clusters.
    pub resources: Vec<ResourceSpec>,
    /// One local trace per cluster.
    pub workloads: Vec<Vec<Job>>,
    /// The run configuration, scripted repricings and churn included.
    pub config: FederationConfig,
}

impl Inputs {
    /// Jobs submitted across all clusters.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.workloads.iter().map(Vec::len).sum()
    }
}

/// The seeds of the federations `seed` stands for (see
/// [`Workload::federations`]), `seed` itself first.
#[must_use]
pub fn federation_seeds(workload: Workload, seed: u64) -> Vec<u64> {
    (0..workload.federations() as u64)
        .map(|k| seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

/// Generates the inputs of every federation `seed` stands for.
#[must_use]
pub fn generate_all(workload: Workload, seed: u64) -> Vec<Inputs> {
    federation_seeds(workload, seed)
        .into_iter()
        .map(|s| generate(workload, s))
        .collect()
}

/// Generates the inputs of one `workload` federation from `seed`.
#[must_use]
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let options = WorkloadOptions {
        job_scale: workload.job_scale(),
        seed,
        ..WorkloadOptions::default()
    };
    let setup = replicated_workloads(N, PopulationProfile::new(OFT_PERCENT), &options);
    let mut config = FederationConfig {
        mode: SchedulingMode::Economy,
        lrms: LrmsKind::SpaceSharedFcfs,
        seed,
        utilization_horizon: Some(options.duration),
        directory: workload.backend(),
        ..FederationConfig::default()
    };
    match workload {
        Workload::FanoutN200 => {}
        Workload::RepriceMaanN200 => {
            config.repricings = reprice_plan(&setup.resources, options.duration, seed);
        }
        Workload::ChurnFaultsMaanN200 => {
            let heavy = DEFAULT_LEVELS
                .iter()
                .find(|level| level.label == "heavy")
                .expect("exp6 defines a heavy churn level");
            config.churn = Some(heavy.to_config(&options, CHURN_REPLICATION));
            config.network = Some(NetworkFaultConfig::moderate());
        }
    }
    Inputs {
        resources: setup.resources,
        workloads: setup.workloads,
        config,
    }
}

/// [`REPRICINGS_PER_GFA`] repricings per cluster at uniform times over the
/// trace, each moving the access price to 0.8–1.25 × the published one.
fn reprice_plan(resources: &[ResourceSpec], duration: f64, seed: u64) -> Vec<(usize, f64, f64)> {
    let mut plan = Vec::with_capacity(resources.len() * REPRICINGS_PER_GFA);
    for (gfa, spec) in resources.iter().enumerate() {
        let mut rng = SimRng::derive(seed ^ REPRICE_SALT, gfa as u64);
        for _ in 0..REPRICINGS_PER_GFA {
            let at = rng.uniform_range(0.0, duration);
            let price = spec.price * rng.uniform_range(0.8, 1.25);
            plan.push((gfa, at, price));
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(origin, seq, submit bits, processors)` of every job.
    type JobPrint = Vec<(usize, usize, u64, u32)>;

    /// The seed-dependent parts of a workload, cheap to compare: the jobs,
    /// the repricings as bits, and the run seed.
    fn fingerprint(inputs: &Inputs) -> (JobPrint, Vec<(usize, u64, u64)>, u64) {
        let jobs = inputs
            .workloads
            .iter()
            .flatten()
            .map(|j| (j.id.origin, j.id.seq, j.submit.to_bits(), j.processors))
            .collect();
        let repricings = inputs
            .config
            .repricings
            .iter()
            .map(|&(gfa, at, price)| (gfa, at.to_bits(), price.to_bits()))
            .collect();
        (jobs, repricings, inputs.config.seed)
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("fanout"), None);
    }

    #[test]
    fn generators_are_deterministic_per_seed_and_vary_across_seeds() {
        for w in Workload::ALL {
            let a = generate(w, 7);
            let b = generate(w, 7);
            let c = generate(w, 8);
            assert_eq!(a.resources.len(), N);
            assert_eq!(
                fingerprint(&a),
                fingerprint(&b),
                "{}: same seed, same inputs",
                w.name()
            );
            assert_eq!(a.config, b.config, "{}: same seed, same config", w.name());
            assert_ne!(
                fingerprint(&a).0,
                fingerprint(&c).0,
                "{}: seeds must change the traces",
                w.name()
            );
            assert_ne!(a.config.seed, c.config.seed);
        }
    }

    #[test]
    fn a_seed_stands_for_distinct_reproducible_federations() {
        for w in Workload::ALL {
            let a = generate_all(w, 5);
            assert_eq!(a.len(), w.federations());
            assert_eq!(fingerprint(&a[0]), fingerprint(&generate(w, 5)));
            let b = generate_all(w, 5);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(fingerprint(x), fingerprint(y));
            }
            for pair in a.windows(2) {
                assert_ne!(fingerprint(&pair[0]).0, fingerprint(&pair[1]).0);
            }
        }
    }

    #[test]
    fn workload_shapes_match_their_purpose() {
        let fanout = generate(Workload::FanoutN200, 1);
        assert!(fanout.jobs() > 60_000, "full two-day trace at n = 200");
        assert!(fanout.config.repricings.is_empty() && fanout.config.churn.is_none());
        assert!(fanout.config.network.is_none());

        let reprice = generate(Workload::RepriceMaanN200, 1);
        assert_eq!(reprice.config.repricings.len(), N * REPRICINGS_PER_GFA);
        assert_ne!(
            generate(Workload::RepriceMaanN200, 2).config.repricings,
            reprice.config.repricings,
            "the repricing plan follows the seed"
        );

        let churn = generate(Workload::ChurnFaultsMaanN200, 1);
        let cfg = churn.config.churn.as_ref().expect("churn workload churns");
        assert!(cfg.is_active());
        assert_eq!(cfg.replication, CHURN_REPLICATION);
        assert!(churn.config.network.is_some_and(|n| n.is_active()));
    }
}
