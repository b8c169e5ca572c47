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

use grid_federation_core::{
    Counter, DirectoryBackend, FSum, FederationReport, Jitter, NetworkFaultConfig, RepairMode,
};

use crate::exp6;
use crate::report::{f2, DataTable};
use crate::scenario::{self, Run, Scenario};
use crate::workloads::WorkloadOptions;

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
/// against, plus one run per fault level.
#[derive(Debug, Clone)]
pub struct UnreliableSweep {
    /// The directory backend every run of this sweep used.
    pub backend: DirectoryBackend,
    /// Fault levels, in table-row order.
    pub levels: Vec<FaultLevel>,
    /// The lossless (`network: None`) run of the same workload and backend,
    /// then one run per fault level, same order as `levels`.
    pub runs: Vec<Run>,
}

impl UnreliableSweep {
    /// The lossless run.
    #[must_use]
    pub fn lossless(&self) -> &FederationReport {
        &self.runs[0].report
    }

    /// `(level, report)` per fault level, in table-row order.
    pub fn faulted(&self) -> impl Iterator<Item = (&FaultLevel, &FederationReport)> {
        self.levels.iter().zip(self.runs[1..].iter().map(|run| &run.report))
    }
}

/// The lossless baseline, then one run per fault level, all served by
/// `backend`.  The fault streams derive from the master seed and the link
/// endpoints alone.
#[must_use]
pub fn scenarios(
    options: &WorkloadOptions,
    levels: &[FaultLevel],
    backend: DirectoryBackend,
) -> Vec<Scenario> {
    let b = backend.label();
    let lossless = exp6::robustness_scenario(format!("exp7/{b}/lossless"), options, backend);
    let faulted = levels.iter().map(|level| {
        exp6::robustness_scenario(format!("exp7/{b}/{}", level.label), options, backend)
            .with(|config| config.network = Some(level.config))
    });
    std::iter::once(lossless).chain(faulted).collect()
}

/// Runs the fault sweep for one backend across at most `jobs` worker
/// threads.
#[must_use]
pub fn run_sweep(
    options: &WorkloadOptions,
    levels: &[FaultLevel],
    backend: DirectoryBackend,
    jobs: usize,
) -> UnreliableSweep {
    UnreliableSweep {
        backend,
        levels: levels.to_vec(),
        runs: scenario::run(&scenarios(options, levels, backend), options, jobs),
    }
}

/// One repair-mode comparison: the same churned, lossy MAAN federation run
/// with periodic-only stabilization and with reactive lookup-time repair.
#[derive(Debug, Clone)]
pub struct RepairComparison {
    /// The periodic-only run ([`RepairMode::Periodic`]).
    pub periodic: Run,
    /// The reactive lookup-time repair run ([`RepairMode::Reactive`]).
    pub reactive: Run,
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

/// The repair-mode comparison on the MAAN overlay: moderate churn with
/// k = 1 (no replicas, so a crashed store faults its lookups) plus moderate
/// network faults, periodic-only then reactive.
#[must_use]
pub fn repair_scenarios(options: &WorkloadOptions) -> Vec<Scenario> {
    [RepairMode::Periodic, RepairMode::Reactive]
        .iter()
        .map(|&mode| {
            let label = format!("exp7/repair/maan/{}", mode.label());
            exp6::robustness_scenario(label, options, DirectoryBackend::Maan).with(|config| {
                let mut churn = exp6::DEFAULT_LEVELS[1].to_config(options, 1);
                churn.repair = mode;
                config.churn = Some(churn);
                config.network = Some(DEFAULT_FAULTS[1].config);
            })
        })
        .collect()
}

/// Runs the repair-mode comparison across at most `jobs` worker threads.
#[must_use]
pub fn run_repair_comparison(options: &WorkloadOptions, jobs: usize) -> RepairComparison {
    let [periodic, reactive]: [Run; 2] = scenario::run(&repair_scenarios(options), options, jobs)
        .try_into()
        .expect("the repair comparison is two runs");
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
    for (level, report) in sweep.faulted() {
        let mut row = vec![level.label.to_string()];
        row.extend(NET_COUNTERS.map(|c| format!("{}", report.metrics.counter(c))));
        row.extend([
            f2(report.metrics.fsum(FSum::BackoffSeconds)),
            if report.digest.outcomes == sweep.lossless().digest.outcomes {
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
        (RepairMode::Periodic, &comparison.periodic.report),
        (RepairMode::Reactive, &comparison.reactive.report),
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
    repair: &RepairComparison,
) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for sweep in sweeps {
        out.push((
            format!("network_fault_traffic_{}", sweep.backend.label()),
            figure_fault_traffic(sweep).to_csv(),
        ));
    }
    out.push((
        "network_repair_tradeoff".to_string(),
        figure_repair_tradeoff(repair).to_csv(),
    ));
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
    let lossless = sweep.lossless();
    assert!(
        NET_COUNTERS.iter().all(|&c| lossless.metrics.counter(c) == 0),
        "{b}: the lossless baseline must report no fault traffic"
    );
    for (level, report) in sweep.faulted() {
        let l = level.label;
        assert_eq!(
            lossless.digest.outcomes, report.digest.outcomes,
            "{b}/{l}: job outcomes and balances must be bit-identical to the lossless run"
        );
        assert_eq!(
            lossless.jobs.len(),
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
            report.messages.total_messages() > lossless.messages.total_messages(),
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
    let (periodic, reactive) = (&cmp.periodic.report, &cmp.reactive.report);
    assert!(periodic.bank.is_balanced(), "maan: periodic run leaked");
    assert!(reactive.bank.is_balanced(), "maan: reactive run leaked");
    assert_eq!(
        periodic.metrics.counter(Counter::ReactiveRepairs), 0,
        "maan: periodic-only stabilization must never repair reactively"
    );
    assert!(
        periodic.metrics.counter(Counter::LookupFaults) > 0,
        "maan: the repair comparison needs faulted lookups to measure"
    );
    assert!(
        reactive.metrics.counter(Counter::ReactiveRepairs) > 0,
        "maan: reactive mode must execute lookup-time repairs"
    );
    let periodic_wait = mean_fault_wait(periodic);
    let reactive_wait = mean_fault_wait(reactive);
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
            let sweep = run_sweep(&options, &[DEFAULT_FAULTS[1]], backend, 2);
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
        let lossless = run_sweep(&WorkloadOptions::quick(), &[], DirectoryBackend::Maan, 1).runs.remove(0);
        assert_eq!(lossless.report.metrics.counter(Counter::LookupFaults), 0);
        assert_repair_acceptance(&RepairComparison {
            periodic: lossless.clone(),
            reactive: lossless,
        });
    }
}
