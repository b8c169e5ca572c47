//! Experiment 7 — unreliable network (beyond the paper): the DBC
//! negotiation protocol under seeded message loss, latency jitter and
//! duplication, and the repair-mode tradeoff for faulted lookups.
//!
//! Two panels:
//!
//! * **Fault differential** — every directory backend runs the Table 1
//!   federation lossless and again under each fault level of the sweep.
//!   The acceptance gate pins the headline robustness claim: the outcome
//!   digest (job records, balances, payments) is **bit-identical** to the
//!   lossless run at every fault level, every negotiation eventually
//!   completes, and the retransmit/duplicate traffic is visible in the
//!   ledgers — exactly-once *effect* over at-most-once delivery.
//! * **Repair-mode comparison** — the MAAN overlay runs under moderate churn
//!   (k = 1, so crashed stores actually fault lookups) *and* moderate
//!   network faults, once with periodic-only stabilization and once with
//!   reactive lookup-time repair.  The table reports the messages-vs-latency
//!   tradeoff: reactive repair must measurably cut the mean wait a faulted
//!   lookup spends in retry backoff, paying for it in targeted repair
//!   messages.
//!
//! Like exp6, the lossless baseline runs alongside every sweep and is folded
//! into the digest manifest, so the reliable-transport differential
//! (`network: None` ≡ inactive config) stays pinned in CI.

use grid_federation_core::federation::{run_federation, FederationConfig, SchedulingMode};
use grid_federation_core::{
    Counter, DirectoryBackend, FSum, FederationReport, Jitter, NetworkFaultConfig, RepairMode,
};
use grid_workload::PopulationProfile;

use crate::exp6;
use crate::parallel;
use crate::report::{f2, DataTable};
use crate::workloads::{paper_workloads, WorkloadOptions};

/// One fault intensity of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct FaultLevel {
    /// Label used in tables and manifest lines.
    pub label: &'static str,
    /// The fault layer configuration this level injects.
    pub config: NetworkFaultConfig,
}

/// The default fault grid: light (1% loss), moderate (the acceptance
/// criterion's ≥1% drop + jitter + duplication) and heavy (8% loss, every
/// twelfth message duplicated, half-second mean jitter).
pub const DEFAULT_FAULTS: [FaultLevel; 3] = [
    FaultLevel {
        label: "light",
        config: NetworkFaultConfig {
            drop: 0.01,
            jitter: Jitter::Exponential { mean: 0.1 },
            duplicate: 0.005,
            reorder_window: 2.0,
            timeout: 30.0,
            max_retransmits: 8,
        },
    },
    FaultLevel {
        label: "moderate",
        config: NetworkFaultConfig {
            drop: 0.02,
            jitter: Jitter::Exponential { mean: 0.2 },
            duplicate: 0.01,
            reorder_window: 5.0,
            timeout: 30.0,
            max_retransmits: 8,
        },
    },
    FaultLevel {
        label: "heavy",
        config: NetworkFaultConfig {
            drop: 0.08,
            jitter: Jitter::Exponential { mean: 0.5 },
            duplicate: 0.08,
            reorder_window: 10.0,
            timeout: 20.0,
            max_retransmits: 10,
        },
    },
];

/// The fault sweep for one backend: the lossless run the differential is
/// against, plus one report per fault level.
#[derive(Debug, Clone)]
pub struct UnreliableSweep {
    /// The directory backend every run of this sweep used.
    pub backend: DirectoryBackend,
    /// Fault levels, in table-row order.
    pub levels: Vec<FaultLevel>,
    /// The lossless (`network: None`) run of the same workload and backend.
    pub lossless: FederationReport,
    /// One report per fault level, same order as `levels`.
    pub reports: Vec<FederationReport>,
}

/// Runs the fault sweep for one backend across at most `jobs` worker
/// threads.  Point 0 is the lossless baseline; the fault streams derive
/// from the master seed and the link endpoints alone, so the sweep is
/// bitwise-identical for any `jobs` value.
#[must_use]
pub fn run_sweep(
    options: &WorkloadOptions,
    levels: &[FaultLevel],
    backend: DirectoryBackend,
    jobs: usize,
) -> UnreliableSweep {
    let nets: Vec<Option<NetworkFaultConfig>> = std::iter::once(None)
        .chain(levels.iter().map(|level| Some(level.config)))
        .collect();
    let point = |i: usize| {
        let setup = paper_workloads(PopulationProfile::new(50), options);
        run_federation(
            setup.resources,
            setup.workloads,
            FederationConfig {
                mode: SchedulingMode::Economy,
                seed: options.seed,
                utilization_horizon: Some(options.duration),
                directory: backend,
                network: nets[i],
                ..FederationConfig::default()
            },
        )
    };
    let schedule = parallel::ClaimSchedule::identity(nets.len());
    let mut flat = parallel::run_indexed_with_schedule(nets.len(), jobs, &schedule, point)
        .into_iter();
    let lossless = flat.next().expect("the lossless run is point 0");
    let reports: Vec<FederationReport> = levels
        .iter()
        .map(|_| flat.next().expect("one report per fault level"))
        .collect();
    UnreliableSweep {
        backend,
        levels: levels.to_vec(),
        lossless,
        reports,
    }
}

/// One repair-mode comparison: the same churned, lossy MAAN federation run
/// with periodic-only stabilization and with reactive lookup-time repair.
#[derive(Debug, Clone)]
pub struct RepairComparison {
    /// The periodic-only run ([`RepairMode::Periodic`]).
    pub periodic: FederationReport,
    /// The reactive lookup-time repair run ([`RepairMode::Reactive`]).
    pub reactive: FederationReport,
}

/// Every counter the unreliable-network layer records, in the traffic
/// table's column order.
const NET_COUNTERS: [Counter; 6] = [
    Counter::NetEnveloped,
    Counter::NetRetransmissions,
    Counter::NetDuplicates,
    Counter::NetDedupDrops,
    Counter::NetDirectoryRetransmissions,
    Counter::NetPublishRetransmissions,
];

/// Mean seconds a faulted lookup spends waiting in retry backoff before
/// the overlay can answer again — the latency the repair mode trades
/// messages against.
#[must_use]
pub fn mean_fault_wait(report: &FederationReport) -> f64 {
    let faults = report.metrics.counter(Counter::LookupFaults);
    if faults == 0 {
        0.0
    } else {
        report.metrics.fsum(FSum::FaultWaitSeconds) / faults as f64
    }
}

/// Runs the repair-mode comparison on the MAAN overlay: moderate churn with
/// k = 1 (no replicas, so a crashed store faults its lookups) plus moderate
/// network faults, across at most `jobs` worker threads.
#[must_use]
pub fn run_repair_comparison(options: &WorkloadOptions, jobs: usize) -> RepairComparison {
    let modes = [RepairMode::Periodic, RepairMode::Reactive];
    let point = |i: usize| {
        let mut churn = exp6::DEFAULT_LEVELS[1].to_config(options, 1);
        churn.repair = modes[i];
        let setup = paper_workloads(PopulationProfile::new(50), options);
        run_federation(
            setup.resources,
            setup.workloads,
            FederationConfig {
                mode: SchedulingMode::Economy,
                seed: options.seed,
                utilization_horizon: Some(options.duration),
                directory: DirectoryBackend::Maan,
                churn: Some(churn),
                network: Some(DEFAULT_FAULTS[1].config),
                ..FederationConfig::default()
            },
        )
    };
    let schedule = parallel::ClaimSchedule::identity(modes.len());
    let mut flat = parallel::run_indexed_with_schedule(modes.len(), jobs, &schedule, point)
        .into_iter();
    let periodic = flat.next().expect("the periodic run is point 0");
    let reactive = flat.next().expect("the reactive run is point 1");
    RepairComparison { periodic, reactive }
}

/// Fault-layer traffic per fault level: what the retransmission protocol
/// spent to keep the outcome digest pinned.
#[must_use]
pub fn figure_fault_traffic(sweep: &UnreliableSweep) -> DataTable {
    let mut table = DataTable::new(
        &format!(
            "Unreliable network ({} backend): fault traffic vs. fault level (outcomes pinned to lossless at every level)",
            sweep.backend.label()
        ),
        &[
            "Fault level",
            "Enveloped",
            "Retransmits",
            "Duplicates",
            "Dedup drops",
            "Dir retransmits",
            "Publish retransmits",
            "Backoff s",
            "Outcomes pinned",
        ],
    );
    for (level, report) in sweep.levels.iter().zip(&sweep.reports) {
        let mut row = vec![level.label.to_string()];
        row.extend(NET_COUNTERS.map(|c| format!("{}", report.metrics.counter(c))));
        row.extend([
            f2(report.metrics.fsum(FSum::BackoffSeconds)),
            if report.digest.outcomes == sweep.lossless.digest.outcomes {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
        ]);
        table.push_row(row);
    }
    table
}

/// The repair-mode tradeoff table: mean faulted-lookup wait vs. repair
/// traffic, one row per mode.
#[must_use]
pub fn figure_repair_tradeoff(comparison: &RepairComparison) -> DataTable {
    let mut table = DataTable::new(
        "Reactive vs. periodic ring repair (moderate churn k=1 + moderate faults): mean faulted-lookup wait vs. repair traffic",
        &[
            "Backend",
            "Repair mode",
            "Lookup faults",
            "Mean wait/fault s",
            "Reactive repairs",
            "Repair messages",
            "Lookup success %",
        ],
    );
    for (mode, report) in [
        (RepairMode::Periodic, &comparison.periodic),
        (RepairMode::Reactive, &comparison.reactive),
    ] {
        let count = |c| report.metrics.counter(c);
        table.push_row(vec![
            DirectoryBackend::Maan.label().to_string(),
            mode.label().to_string(),
            format!("{}", count(Counter::LookupFaults)),
            f2(mean_fault_wait(report)),
            format!("{}", count(Counter::ReactiveRepairs)),
            format!(
                "{}",
                count(Counter::StabilizationMessages) + count(Counter::ReactiveRepairMessages)
            ),
            f2(report.lookup_success_rate() * 100.0),
        ]);
    }
    table
}

/// Renders every CSV the experiment produces, as `(name, csv)` pairs in a
/// stable order.
#[must_use]
pub fn render_all_csvs(
    sweeps: &[UnreliableSweep],
    repair: Option<&RepairComparison>,
) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for sweep in sweeps {
        out.push((
            format!("network_fault_traffic_{}", sweep.backend.label()),
            figure_fault_traffic(sweep).to_csv(),
        ));
    }
    if let Some(comparison) = repair {
        out.push((
            "network_repair_tradeoff".to_string(),
            figure_repair_tradeoff(comparison).to_csv(),
        ));
    }
    out
}

/// Renders the audit-ledger digest lines of the experiment in a stable
/// order — the format `run_all` appends to `MANIFEST_digests.txt`.
#[must_use]
pub fn digest_manifest(sweeps: &[UnreliableSweep], repair: Option<&RepairComparison>) -> String {
    let mut out = String::new();
    for sweep in sweeps {
        let b = sweep.backend.label();
        out.push_str(&format!("exp7/{b}/lossless {}\n", sweep.lossless.digest));
        for (level, report) in sweep.levels.iter().zip(&sweep.reports) {
            out.push_str(&format!("exp7/{b}/{} {}\n", level.label, report.digest));
        }
    }
    if let Some(cmp) = repair {
        out.push_str(&format!("exp7/repair/maan/periodic {}\n", cmp.periodic.digest));
        out.push_str(&format!("exp7/repair/maan/reactive {}\n", cmp.reactive.digest));
    }
    out
}

/// The fault-differential acceptance gate; `run_all` calls it after every
/// sweep — CI runs it as a blocking step.
///
/// # Panics
/// Panics when a criterion fails: outcome digest not pinned to the
/// lossless run, a negotiation that never completed, a Grid-Dollar leak,
/// or fault traffic that is invisible in the ledgers.
pub fn assert_acceptance(sweep: &UnreliableSweep) {
    let b = sweep.backend.label();
    assert!(
        NET_COUNTERS.iter().all(|&c| sweep.lossless.metrics.counter(c) == 0),
        "{b}: the lossless baseline must report no fault traffic"
    );
    for (level, report) in sweep.levels.iter().zip(&sweep.reports) {
        let l = level.label;
        assert_eq!(
            sweep.lossless.digest.outcomes, report.digest.outcomes,
            "{b}/{l}: job outcomes and balances must be bit-identical to the lossless run"
        );
        assert_eq!(
            sweep.lossless.jobs.len(),
            report.jobs.len(),
            "{b}/{l}: every negotiation must eventually complete"
        );
        assert!(report.bank.is_balanced(), "{b}/{l}: Grid Dollars leaked");
        let count = |c| report.metrics.counter(c);
        assert!(
            count(Counter::NetEnveloped) > 0,
            "{b}/{l}: protocol messages must travel enveloped"
        );
        assert!(
            count(Counter::NetRetransmissions) > 0,
            "{b}/{l}: ≥1% loss over this workload must force retransmissions"
        );
        assert!(
            report.messages.total_messages() > sweep.lossless.messages.total_messages(),
            "{b}/{l}: retransmit traffic must be visible in the ledgers"
        );
        assert_eq!(
            count(Counter::NetDedupDrops),
            count(Counter::NetDuplicates),
            "{b}/{l}: every delivered duplicate must be deduplicated, and nothing else"
        );
    }
}

/// The repair-mode acceptance gate: reactive repair must fire and must
/// measurably reduce the mean faulted-lookup wait relative to periodic-only
/// stabilization on the same seed.
///
/// # Panics
/// Panics when the periodic run saw no faulted lookup (there is nothing to
/// measure), when reactive repair never fires or fails to beat the periodic
/// mean wait, when the periodic run repairs reactively, or when either run
/// leaks Grid Dollars.
pub fn assert_repair_acceptance(cmp: &RepairComparison) {
    assert!(cmp.periodic.bank.is_balanced(), "maan: periodic run leaked");
    assert!(cmp.reactive.bank.is_balanced(), "maan: reactive run leaked");
    assert_eq!(
        cmp.periodic.metrics.counter(Counter::ReactiveRepairs), 0,
        "maan: periodic-only stabilization must never repair reactively"
    );
    assert!(
        cmp.periodic.metrics.counter(Counter::LookupFaults) > 0,
        "maan: the repair comparison needs faulted lookups to measure"
    );
    assert!(
        cmp.reactive.metrics.counter(Counter::ReactiveRepairs) > 0,
        "maan: reactive mode must execute lookup-time repairs"
    );
    let periodic_wait = mean_fault_wait(&cmp.periodic);
    let reactive_wait = mean_fault_wait(&cmp.reactive);
    assert!(
        reactive_wait < periodic_wait,
        "maan: reactive repair must reduce the mean faulted-lookup wait \
         ({reactive_wait:.2}s vs. {periodic_wait:.2}s periodic)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_sweep_upholds_acceptance_on_every_backend() {
        let options = WorkloadOptions::quick();
        for backend in DirectoryBackend::ALL {
            let sweep = run_sweep(&options, &[DEFAULT_FAULTS[1]], backend, parallel::default_jobs());
            assert_acceptance(&sweep);
            let table = figure_fault_traffic(&sweep);
            assert_eq!(table.len(), 1);
            assert_eq!(table.columns.len(), 9);
        }
    }

    #[test]
    fn reactive_repair_beats_periodic_on_the_overlays() {
        let comparison = run_repair_comparison(&WorkloadOptions::quick(), 2);
        assert_repair_acceptance(&comparison);
        let table = figure_repair_tradeoff(&comparison);
        assert_eq!(table.len(), 2, "one row per repair mode");
    }

    #[test]
    #[should_panic(expected = "the repair comparison needs faulted lookups to measure")]
    fn repair_gate_needs_one_exercised_backend() {
        // Both modes replaced by a churn-free run, so neither sees a faulted
        // lookup.
        let lossless = run_sweep(&WorkloadOptions::quick(), &[], DirectoryBackend::Maan, 1).lossless;
        assert_eq!(lossless.metrics.counter(Counter::LookupFaults), 0);
        assert_repair_acceptance(&RepairComparison {
            periodic: lossless.clone(),
            reactive: lossless,
        });
    }

    #[test]
    fn sweep_is_parallel_deterministic_and_manifest_stable() {
        let options = WorkloadOptions::quick();
        let levels = [DEFAULT_FAULTS[0]];
        let seq = run_sweep(&options, &levels, DirectoryBackend::Maan, 1);
        let par = run_sweep(&options, &levels, DirectoryBackend::Maan, 4);
        let seq_manifest = digest_manifest(std::slice::from_ref(&seq), None);
        assert_eq!(seq_manifest, digest_manifest(std::slice::from_ref(&par), None));
        // Lossless baseline + one level = 2 lines.
        assert_eq!(seq_manifest.lines().count(), 2);
        assert!(seq_manifest.starts_with("exp7/maan/lossless "));
        assert_eq!(
            render_all_csvs(std::slice::from_ref(&seq), None),
            render_all_csvs(std::slice::from_ref(&par), None)
        );
    }
}
