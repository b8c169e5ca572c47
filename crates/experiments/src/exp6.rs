//! Experiment 6 — churn tolerance (beyond the paper): lookup availability,
//! self-healing traffic and latency degradation as functions of churn rate
//! and the MAAN replication factor *k*.
//!
//! The paper's directory is evaluated on a static ring; this experiment
//! subjects the Table 1 federation to a seeded stochastic failure process
//! (exponential uptime/downtime, a tunable fraction of departures being
//! ungraceful crashes) and sweeps churn level × k ∈ {1, 2, 3} on the MAAN
//! overlay (the ideal backend has no ring to degrade).  Reported per point:
//!
//! * **lookup success rate** — the fraction of ranking lookups the overlay
//!   could still answer (detours to live replicas count as answered);
//! * **retry traffic** — backoff retries plus local-only fallbacks at the
//!   GFAs, the graceful-degradation path;
//! * **stabilization traffic** — the publish-class messages the periodic
//!   repair rounds spend re-replicating and evicting ghosts;
//! * **latency degradation** — average job response time relative to the
//!   zero-churn baseline run.
//!
//! A churn-free baseline runs alongside every sweep; its digest is folded
//! into the manifest with the churned runs, so the zero-churn differential
//! (`ChurnConfig` inert ⇒ static-ring digests) stays pinned in CI.

use grid_federation_core::federation::SchedulingMode;
use grid_federation_core::{ChurnConfig, Counter, DirectoryBackend, FederationReport};
use grid_workload::PopulationProfile;

use crate::report::{f2, DataTable};
use crate::scenario::{self, Run, Scenario, Workload};
use crate::workloads::WorkloadOptions;

/// One churn intensity, parameterised as fractions of the trace duration so
/// quick and full runs see comparable failure densities.
#[derive(Debug, Clone, Copy)]
pub struct ChurnLevel {
    /// Label used in tables and manifest lines.
    pub label: &'static str,
    /// Mean node uptime as a fraction of the trace duration.
    pub uptime_fraction: f64,
    /// Mean downtime (before rejoining) as a fraction of the trace duration.
    pub downtime_fraction: f64,
    /// Probability that a departure is an ungraceful crash.
    pub crash_fraction: f64,
}

impl ChurnLevel {
    /// Concretises this level into a [`ChurnConfig`] for a given workload
    /// and replication factor.  Stabilization runs 48 rounds per trace.
    #[must_use]
    pub fn to_config(self, options: &WorkloadOptions, replication: usize) -> ChurnConfig {
        ChurnConfig {
            mean_uptime: self.uptime_fraction * options.duration,
            mean_downtime: self.downtime_fraction * options.duration,
            crash_fraction: self.crash_fraction,
            stabilization_interval: options.duration / 48.0,
            replication,
            horizon: options.duration,
            ..ChurnConfig::default()
        }
    }
}

/// The default churn grid: light (a node fails about once per trace),
/// moderate (every node cycles a few times) and heavy (rings spend much of
/// the trace degraded, departures mostly crashes).
pub const DEFAULT_LEVELS: [ChurnLevel; 3] = [
    ChurnLevel { label: "light", uptime_fraction: 1.0, downtime_fraction: 0.08, crash_fraction: 0.25 },
    ChurnLevel { label: "moderate", uptime_fraction: 0.4, downtime_fraction: 0.10, crash_fraction: 0.50 },
    ChurnLevel { label: "heavy", uptime_fraction: 0.15, downtime_fraction: 0.12, crash_fraction: 0.75 },
];

/// The replication factors the acceptance criterion sweeps.
pub const DEFAULT_KS: [usize; 3] = [1, 2, 3];

/// The sweep over churn levels and replication factors, plus the
/// churn-free baseline the degradation columns are relative to.
#[derive(Debug, Clone)]
pub struct ChurnSweep {
    /// Churn levels, in table-row order.
    pub levels: Vec<ChurnLevel>,
    /// Replication factors, in table-column order.
    pub ks: Vec<usize>,
    /// The zero-churn run of the same workload, then one run per
    /// (level, k) point, level-major.
    pub runs: Vec<Run>,
}

impl ChurnSweep {
    /// The zero-churn run.
    #[must_use]
    pub fn baseline(&self) -> &FederationReport {
        &self.runs[0].report
    }

    /// The churned runs at level index `li`, one per replication factor.
    #[must_use]
    pub fn row(&self, li: usize) -> &[Run] {
        let width = self.ks.len();
        &self.runs[1 + li * width..1 + (li + 1) * width]
    }
}

/// The federation Experiments 6 and 7 perturb: the economy federation of
/// the paper's eight resources (OFT share 50 %), served by `backend`.
pub(crate) fn robustness_scenario(
    label: String,
    options: &WorkloadOptions,
    backend: DirectoryBackend,
) -> Scenario {
    Scenario::new(label, Workload::Paper(PopulationProfile::new(50)), SchedulingMode::Economy, options)
        .with(|config| config.directory = backend)
}

/// [`robustness_scenario`] on the MAAN overlay, under `churn`.
fn maan_scenario(label: String, options: &WorkloadOptions, churn: Option<ChurnConfig>) -> Scenario {
    robustness_scenario(label, options, DirectoryBackend::Maan).with(|config| config.churn = churn)
}

/// The churn-free baseline, then every (level, k) point, level-major.
/// Every point's failure chains derive from the master seed and the GFA
/// index alone.
#[must_use]
pub fn scenarios(options: &WorkloadOptions, levels: &[ChurnLevel], ks: &[usize]) -> Vec<Scenario> {
    let baseline = maan_scenario("exp6/maan/baseline".to_string(), options, None);
    let churned = levels.iter().flat_map(|level| {
        ks.iter().map(move |&k| {
            let label = format!("exp6/maan/{}/k{k}", level.label);
            maan_scenario(label, options, Some(level.to_config(options, k)))
        })
    });
    std::iter::once(baseline).chain(churned).collect()
}

/// Runs the churn sweep on the MAAN backend across at most `jobs` worker
/// threads.
#[must_use]
pub fn run_sweep(
    options: &WorkloadOptions,
    levels: &[ChurnLevel],
    ks: &[usize],
    jobs: usize,
) -> ChurnSweep {
    ChurnSweep {
        levels: levels.to_vec(),
        ks: ks.to_vec(),
        runs: scenario::run(&scenarios(options, levels, ks), options, jobs),
    }
}

/// The lookup-success gate the knee ramp probes (the k = 3 acceptance
/// criterion of [`assert_acceptance`]).
pub const KNEE_THRESHOLD: f64 = 0.99;

/// The replication factor the knee ramp pins (the gate is stated for k = 3).
pub const KNEE_REPLICATION: usize = 3;

/// Doublings of the moderate churn rate the knee ramp tries before giving
/// up on breaking the lookup-success gate.
pub const KNEE_MAX_STEPS: usize = 8;

/// The availability-knee ramp: starting from the moderate churn level with
/// replication pinned at k = 3, each step doubles the churn intensity
/// (halves the mean uptime) until the ≥ 99 % lookup-success gate breaks — the knee is the first intensity past the
/// gate, i.e. how much more churn than "moderate" the self-healing overlay
/// absorbs before the acceptance criterion would fail.
#[derive(Debug, Clone)]
pub struct KneeSweep {
    /// `(intensity, run)` per ramp step in ramp order, where intensity is
    /// the multiple of the moderate churn rate and the run is labelled
    /// `exp6/maan/knee/x<intensity>`.
    pub points: Vec<(f64, Run)>,
    /// The first intensity whose lookup success fell below
    /// [`KNEE_THRESHOLD`], or `None` if the ramp ended before the gate
    /// broke.
    pub knee: Option<f64>,
}

fn knee_config(options: &WorkloadOptions, intensity: f64) -> ChurnConfig {
    let base = DEFAULT_LEVELS[1];
    ChurnConfig {
        mean_uptime: base.uptime_fraction * options.duration / intensity,
        ..base.to_config(options, KNEE_REPLICATION)
    }
}

/// Runs the availability-knee ramp on the MAAN backend, at most
/// [`KNEE_MAX_STEPS`] doublings.  The ramp is inherently sequential (each
/// step only runs if the gate survived the previous one), so there is no
/// `jobs` knob.
#[must_use]
pub fn run_knee(options: &WorkloadOptions) -> KneeSweep {
    let mut points = Vec::new();
    let mut knee = None;
    let mut intensity = 1.0;
    for _ in 0..KNEE_MAX_STEPS {
        let label = format!("exp6/maan/knee/x{intensity}");
        let run = Run::of(&maan_scenario(label, options, Some(knee_config(options, intensity))), options);
        let rate = run.report.lookup_success_rate();
        points.push((intensity, run));
        if rate < KNEE_THRESHOLD {
            knee = Some(intensity);
            break;
        }
        intensity *= 2.0;
    }
    KneeSweep { points, knee }
}

/// The knee ramp as a table: one row per step, the breaking step flagged.
#[must_use]
pub fn figure_knee(sweep: &KneeSweep) -> DataTable {
    let mut table = DataTable::new(
        &format!(
            "Availability knee (maan backend, k={KNEE_REPLICATION}): churn intensity ramp until the {:.0}% lookup-success gate breaks{}",
            KNEE_THRESHOLD * 100.0,
            match sweep.knee {
                Some(knee) => format!(" — knee at {knee}x moderate churn"),
                None => " — gate never broke within the ramp".to_string(),
            },
        ),
        &[
            "Churn xModerate",
            "Lookup faults",
            "Lookup success %",
            "Gate",
        ],
    );
    for (intensity, Run { report, .. }) in &sweep.points {
        let rate = report.lookup_success_rate();
        table.push_row(vec![
            format!("{intensity}"),
            format!("{}", report.metrics.counter(Counter::LookupFaults)),
            f2(rate * 100.0),
            if rate < KNEE_THRESHOLD { "KNEE".to_string() } else { "ok".to_string() },
        ]);
    }
    table
}

/// Which churn metric a table reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Metric {
    /// Lookup success percentage.
    Availability,
    /// Backoff retries + local-only fallbacks.
    Retries,
    /// Publish-class messages spent by stabilization rounds.
    Stabilization,
    /// Average response time relative to the zero-churn baseline.
    Latency,
}

fn extract_metric(report: &FederationReport, baseline: &FederationReport, metric: Metric) -> String {
    match metric {
        Metric::Availability => f2(report.lookup_success_rate() * 100.0),
        Metric::Retries => format!(
            "{}",
            report.metrics.counter(Counter::FaultRetries)
                + report.metrics.counter(Counter::LocalFallbacks)
        ),
        Metric::Stabilization => format!(
            "{}",
            report.metrics.counter(Counter::StabilizationMessages)
        ),
        Metric::Latency => {
            let base = baseline.federation_avg_response_time(false);
            if base > 0.0 {
                f2(report.federation_avg_response_time(false) / base)
            } else {
                f2(1.0)
            }
        }
    }
}

fn churn_table(sweep: &ChurnSweep, metric: Metric, title: &str) -> DataTable {
    let mut columns = vec!["Churn level".to_string()];
    columns.extend(sweep.ks.iter().map(|k| format!("k={k}")));
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = DataTable::new(title, &column_refs);
    for (li, level) in sweep.levels.iter().enumerate() {
        let mut row = vec![level.label.to_string()];
        row.extend(sweep.row(li).iter().map(|run| extract_metric(&run.report, sweep.baseline(), metric)));
        table.push_row(row);
    }
    table
}

/// Lookup success rate (%) per churn level and replication factor.
#[must_use]
pub fn figure_availability(sweep: &ChurnSweep) -> DataTable {
    churn_table(
        sweep,
        Metric::Availability,
        "Churn tolerance (maan backend): ranking-lookup success rate (%) vs. churn level and k",
    )
}

/// Retry traffic (backoff retries + local fallbacks) per churn level and k.
#[must_use]
pub fn figure_retries(sweep: &ChurnSweep) -> DataTable {
    churn_table(
        sweep,
        Metric::Retries,
        "Churn degradation (maan backend): directory retries + local fallbacks vs. churn level and k",
    )
}

/// Stabilization traffic (publish-class repair messages) per churn level
/// and k.
#[must_use]
pub fn figure_stabilization(sweep: &ChurnSweep) -> DataTable {
    churn_table(
        sweep,
        Metric::Stabilization,
        "Self-healing cost (maan backend): stabilization messages vs. churn level and k",
    )
}

/// Average response time relative to the zero-churn baseline per churn
/// level and k (1.00 = undisturbed).
#[must_use]
pub fn figure_latency(sweep: &ChurnSweep) -> DataTable {
    churn_table(
        sweep,
        Metric::Latency,
        "Latency degradation (maan backend): avg response time / zero-churn baseline vs. churn level and k",
    )
}

/// Every table a churn sweep produces, as `(file stem, table)` pairs in a
/// stable order.
#[must_use]
pub fn tables(sweep: &ChurnSweep) -> [(&'static str, DataTable); 4] {
    [
        ("churn_availability_maan", figure_availability(sweep)),
        ("churn_retries_maan", figure_retries(sweep)),
        ("churn_stabilization_maan", figure_stabilization(sweep)),
        ("churn_latency_maan", figure_latency(sweep)),
    ]
}

/// Churn events (departures plus rejoins) a run delivered.
fn churn_events(report: &FederationReport) -> u64 {
    [Counter::GracefulLeaves, Counter::Crashes, Counter::Rejoins]
        .into_iter()
        .map(|c| report.metrics.counter(c))
        .sum()
}

/// The acceptance criteria every churn sweep must uphold; `run_all` calls
/// it after the sweep, at `--quick` and at full scale.
///
/// # Panics
/// Panics when a criterion fails — CI runs this as a blocking step.
pub fn assert_acceptance(sweep: &ChurnSweep) {
    assert_eq!(churn_events(sweep.baseline()), 0, "maan: the baseline must be churn-free");
    for (li, level) in sweep.levels.iter().enumerate() {
        for (k, run) in sweep.ks.iter().zip(sweep.row(li)) {
            let report = &run.report;
            let l = level.label;
            assert!(churn_events(report) > 0, "maan/{l}: the churn process must fire");
            assert!(report.bank.is_balanced(), "maan/{l}/k{k}: Grid Dollars leaked under churn");
            // The headline robustness claim: k = 3 keeps moderate churn
            // above 99% lookup availability.
            if l == "moderate" && *k == 3 {
                let rate = report.lookup_success_rate();
                assert!(
                    rate >= 0.99,
                    "maan: lookup success {rate:.4} < 0.99 under moderate churn with k=3"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_sweep() -> ChurnSweep {
        run_sweep(&WorkloadOptions::quick(), &[DEFAULT_LEVELS[1]], &[1, 3], 2)
    }

    #[test]
    fn sweep_shape_lookup_and_acceptance() {
        let sweep = smoke_sweep();
        assert_eq!(sweep.runs.len(), 3);
        assert_eq!(sweep.row(0).len(), 2);
        let replication = |run: &Run| run.scenario.config.churn.as_ref().map(|c| c.replication);
        assert_eq!(replication(&sweep.runs[0]), None);
        assert_eq!(sweep.row(0).iter().map(replication).collect::<Vec<_>>(), [Some(1), Some(3)]);
        assert_acceptance(&sweep);
    }

    #[test]
    fn replication_recovers_availability_lost_to_churn() {
        let sweep = smoke_sweep();
        let (k1, k3) = (&sweep.row(0)[0].report, &sweep.row(0)[1].report);
        assert!(
            k3.lookup_success_rate() >= k1.lookup_success_rate(),
            "more replicas must not answer fewer lookups"
        );
        assert!(k3.lookup_success_rate() >= 0.99);
        // Replication is paid for in stabilization traffic.
        let stabilization = Counter::StabilizationMessages;
        assert!(k3.metrics.counter(stabilization) >= k1.metrics.counter(stabilization));
    }

    #[test]
    fn tables_have_one_row_per_level_and_manifest_is_stable() {
        let sweep = smoke_sweep();
        for (_, table) in tables(&sweep) {
            assert_eq!(table.len(), 1);
            assert_eq!(table.columns.len(), 3);
        }
        let manifest = scenario::digest_manifest(&sweep.runs);
        // Baseline + 1 level × 2 ks = 3 lines.
        assert_eq!(manifest.lines().count(), 3);
        assert!(manifest.starts_with("exp6/maan/baseline "), "got {manifest:?}");
        assert!(manifest.lines().nth(2).unwrap().starts_with("exp6/maan/moderate/k3 "));
        assert_eq!(manifest, scenario::digest_manifest(&sweep.runs));
    }

    #[test]
    fn knee_ramp_doubles_until_the_gate_breaks() {
        let sweep = run_knee(&WorkloadOptions::quick());
        for (i, (intensity, _)) in sweep.points.iter().enumerate() {
            assert_eq!(*intensity, (1u64 << i) as f64, "intensities must double");
        }
        let knee = sweep.knee.expect("k=3 must break within the ramp's doublings of moderate churn");
        let (last_intensity, last) = sweep.points.last().expect("ramp ran");
        assert_eq!(*last_intensity, knee, "the ramp stops at the knee");
        assert!(last.report.lookup_success_rate() < KNEE_THRESHOLD);
        let manifest = scenario::digest_manifest(sweep.points.iter().map(|(_, run)| run));
        for (line, (intensity, _)) in manifest.lines().zip(&sweep.points) {
            assert!(line.starts_with(&format!("exp6/maan/knee/x{intensity} ")), "got {line:?}");
        }
        let table = figure_knee(&sweep);
        assert_eq!(table.len(), sweep.points.len());
        assert!(table.title.contains("knee at"), "got {:?}", table.title);
    }
}
