//! Model-level metrics: per-job records, per-resource statistics and the
//! federation-wide report every experiment consumes.
//!
//! The quantities mirror the paper's tables and figures directly:
//! acceptance/rejection rates and utilization (Tables 2–3, Fig. 2, 4, 6),
//! local/migrated/remote job counts (Table 3, Fig. 2b, 5), owner incentive
//! (Fig. 3), user response time and budget spent with and without rejected
//! jobs (Fig. 7–8), and message counts (Fig. 9–11).

use grid_des::SimStats;
use grid_directory::{CacheStats, DirectoryBackend};
use grid_obs::{Counter, MetricsRegistry};
use grid_workload::{JobId, Strategy};

use crate::audit::RunDigest;
use crate::economy::GridBank;
use crate::messages::MessageLedger;

/// What finally happened to a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecutionOutcome {
    /// The job ran to completion somewhere in the federation.
    Completed {
        /// Resource that executed the job.
        executed_on: usize,
        /// Time execution started.
        start: f64,
        /// Time execution finished.
        finish: f64,
        /// Grid Dollars charged (`B(J, R_m)`).
        cost: f64,
    },
    /// No resource could guarantee the deadline; the job was dropped.
    Rejected,
}

/// The full per-job record collected by the origin GFA.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job identity.
    pub id: JobId,
    /// Originating resource (`k`).
    pub origin: usize,
    /// The submitting user's strategy (OFC or OFT).
    pub strategy: Strategy,
    /// Submission time.
    pub submit: f64,
    /// Processors requested.
    pub processors: u32,
    /// Relative deadline `d` (seconds).
    pub deadline: f64,
    /// Budget `b` (Grid Dollars).
    pub budget: f64,
    /// Execution time the job would have had on its originating resource,
    /// `D(J, R_k)` — used for Fig. 8's "including rejected jobs" series.
    pub expected_local_response: f64,
    /// Cost the job would have had on its originating resource, `B(J, R_k)`.
    pub expected_local_cost: f64,
    /// Accountable negotiation messages exchanged to schedule this job.
    pub messages: u32,
    /// Directory messages spent on this job's ranking queries, following
    /// the DHT range-query model `O(log n + k)`: a routed rank-1 lookup
    /// (modelled `⌈log₂ n⌉` under the ideal backend, the measured route and
    /// arc walk under MAAN) plus one cursor-advance message per further rank
    /// probed (MAAN adds the node boundaries the walk crosses).
    /// Accounted separately from `messages` so Fig. 10/11 remain comparable
    /// across directory backends.
    pub directory_messages: u32,
    /// Final outcome.
    pub outcome: ExecutionOutcome,
}

impl JobRecord {
    /// Response time (completion − submission), or `None` if rejected.
    #[must_use]
    pub fn response_time(&self) -> Option<f64> {
        match self.outcome {
            ExecutionOutcome::Completed { finish, .. } => Some(finish - self.submit),
            ExecutionOutcome::Rejected => None,
        }
    }

    /// Cost actually paid, or `None` if rejected.
    #[must_use]
    pub fn cost_paid(&self) -> Option<f64> {
        match self.outcome {
            ExecutionOutcome::Completed { cost, .. } => Some(cost),
            ExecutionOutcome::Rejected => None,
        }
    }

    /// Whether the job executed on a resource other than its origin.
    #[must_use]
    pub fn was_migrated(&self) -> bool {
        matches!(self.outcome, ExecutionOutcome::Completed { executed_on, .. } if executed_on != self.origin)
    }

    /// Whether the job was accepted (executed anywhere).
    #[must_use]
    pub fn was_accepted(&self) -> bool {
        matches!(self.outcome, ExecutionOutcome::Completed { .. })
    }
}

/// Per-resource statistics, as reported in Tables 2 and 3.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceMetrics {
    /// Resource name.
    pub name: String,
    /// Processors of the resource.
    pub processors: u32,
    /// Average utilization over the simulation, in `[0, 1]`.
    pub utilization: f64,
    /// Busy processor-seconds accumulated.
    pub busy_processor_seconds: f64,
    /// Jobs submitted by this resource's local users.
    pub total_local_jobs: usize,
    /// … of which accepted anywhere in the federation.
    pub accepted: usize,
    /// … of which rejected.
    pub rejected: usize,
    /// Local jobs executed on this resource itself.
    pub processed_locally: usize,
    /// Local jobs executed on some other resource.
    pub migrated: usize,
    /// Jobs from other origins executed on this resource.
    pub remote_jobs_processed: usize,
    /// Total incentive (Grid Dollars) earned by this resource's owner.
    pub incentive: f64,
}

impl ResourceMetrics {
    /// Acceptance rate of the local workload, in percent.
    #[must_use]
    pub fn acceptance_rate(&self) -> f64 {
        if self.total_local_jobs == 0 {
            100.0
        } else {
            100.0 * self.accepted as f64 / self.total_local_jobs as f64
        }
    }

    /// Rejection rate of the local workload, in percent.
    #[must_use]
    pub fn rejection_rate(&self) -> f64 {
        100.0 - self.acceptance_rate()
    }

    /// Utilization in percent, as printed in the paper's tables.
    #[must_use]
    pub fn utilization_percent(&self) -> f64 {
        100.0 * self.utilization
    }
}

/// Everything a federation run produces.
#[derive(Debug, Clone)]
pub struct FederationReport {
    /// Per-resource statistics, indexed like the input resources.
    pub resources: Vec<ResourceMetrics>,
    /// Per-job records for every job that entered the system.
    pub jobs: Vec<JobRecord>,
    /// Message accounting.
    pub messages: MessageLedger,
    /// The GridBank at the end of the run.
    pub bank: GridBank,
    /// Final simulation time.
    pub sim_end: f64,
    /// The engine's counters for the run (events delivered, messages,
    /// timers, pushes to the queue's FIFO lane).  Engine bookkeeping, not model state: it
    /// is not folded into [`FederationReport::digest`].
    pub engine: SimStats,
    /// Which directory backend served the run's ranking queries.
    pub backend: DirectoryBackend,
    /// Total ranking queries the directory served during the run.
    pub directory_queries: u64,
    /// Average messages of one *routed* ranking lookup (rank-1 cursor
    /// establishment): the charged `⌈log₂ n⌉` average under the ideal
    /// backend, the measured route plus arc walk under MAAN, zero if the run
    /// never touched the directory.  This is the quantity the paper's
    /// `O(log n)` assumption is about.
    pub directory_avg_route_messages: f64,
    /// Average closest-preceding-finger hops of one route the MAAN overlay
    /// actually walked, without the arc walk: the pure routing cost,
    /// measured against the paper's `⌈log₂ n⌉`.  Zero under the ideal
    /// backend, which routes nothing.
    pub directory_avg_finger_hops: f64,
    /// Aggregated hit/miss counters of the GFAs' epoch-keyed quote caches.
    /// Observability only — cache hits replay the exact charges and
    /// telemetry of a live query, so nothing rendered from a report depends
    /// on this field.
    pub directory_cache: CacheStats,
    /// The run's full metrics registry: every counter, floating-point sum
    /// and log-linear histogram the model recorded at event boundaries —
    /// the churn and self-healing telemetry, the unreliable-network
    /// telemetry (all zero when neither fault model is active) and the
    /// quote-cache tallies [`FederationReport::directory_cache`] copies.
    pub metrics: MetricsRegistry,
    /// The run's hash-chained audit digest (see [`crate::audit`]): two runs
    /// with equal `digest.full` executed the same audited history; equal
    /// `digest.outcomes` means identical job outcomes and bank transfers
    /// regardless of directory-backend traffic.
    pub digest: RunDigest,
}

impl FederationReport {
    /// Mean acceptance rate across resources (the paper's "average job
    /// acceptance rate over all resources", 90.3 % → 98.6 %).
    #[must_use]
    pub fn mean_acceptance_rate(&self) -> f64 {
        if self.resources.is_empty() {
            return 0.0;
        }
        self.resources.iter().map(ResourceMetrics::acceptance_rate).sum::<f64>()
            / self.resources.len() as f64
    }

    /// Mean utilization across resources, in percent.
    #[must_use]
    pub fn mean_utilization_percent(&self) -> f64 {
        if self.resources.is_empty() {
            return 0.0;
        }
        self.resources
            .iter()
            .map(ResourceMetrics::utilization_percent)
            .sum::<f64>()
            / self.resources.len() as f64
    }

    /// Total incentive earned across the federation (Fig. 3a's headline
    /// totals: 2.12 × 10⁹ under all-OFC vs 2.30 × 10⁹ under all-OFT).
    #[must_use]
    pub fn total_incentive(&self) -> f64 {
        self.resources.iter().map(|r| r.incentive).sum()
    }

    /// Jobs originating at `origin`.
    pub fn jobs_of(&self, origin: usize) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(move |j| j.origin == origin)
    }

    /// Average response time of the users local to `origin`.
    ///
    /// With `include_rejected = false` this is Fig. 7(a): rejected jobs are
    /// excluded.  With `include_rejected = true` it is Fig. 8(a): rejected
    /// jobs contribute their *expected* response time on the originating
    /// resource, as the paper does.
    #[must_use]
    pub fn avg_response_time(&self, origin: usize, include_rejected: bool) -> f64 {
        mean_over(self.jobs_of(origin), include_rejected, JobRecord::response_time, |j| {
            j.expected_local_response
        })
    }

    /// Average budget spent by the users local to `origin`; same
    /// including/excluding-rejected convention as [`Self::avg_response_time`]
    /// (Fig. 7(b) and 8(b)).
    #[must_use]
    pub fn avg_budget_spent(&self, origin: usize, include_rejected: bool) -> f64 {
        mean_over(self.jobs_of(origin), include_rejected, JobRecord::cost_paid, |j| {
            j.expected_local_cost
        })
    }

    /// Federation-wide average response time over *all* users
    /// (the quantity the paper compares against the without-federation case,
    /// 1.171 × 10⁴ vs 1.207 × 10⁴ sim units under all-OFT).
    #[must_use]
    pub fn federation_avg_response_time(&self, include_rejected: bool) -> f64 {
        mean_over(self.jobs.iter(), include_rejected, JobRecord::response_time, |j| {
            j.expected_local_response
        })
    }

    /// Federation-wide average budget spent over all users.
    #[must_use]
    pub fn federation_avg_budget_spent(&self, include_rejected: bool) -> f64 {
        mean_over(self.jobs.iter(), include_rejected, JobRecord::cost_paid, |j| {
            j.expected_local_cost
        })
    }

    /// (min, mean, max) of a per-job message count over the job records —
    /// `|j| j.messages` (Fig. 10) or `|j| j.directory_messages` — or zeros
    /// without jobs.  The mean is the exact integer sum over the job count.
    #[must_use]
    pub fn per_job_summary(&self, count: impl Fn(&JobRecord) -> u32) -> (u32, f64, u32) {
        let counts = || self.jobs.iter().map(&count);
        let sum: u64 = counts().map(u64::from).sum();
        let mean = if self.jobs.is_empty() { 0.0 } else { sum as f64 / self.jobs.len() as f64 };
        (counts().min().unwrap_or(0), mean, counts().max().unwrap_or(0))
    }

    /// Average publish-side directory messages per GFA.
    #[must_use]
    pub fn avg_publish_messages_per_gfa(&self) -> f64 {
        if self.resources.is_empty() {
            0.0
        } else {
            self.messages.publish_messages() as f64 / self.resources.len() as f64
        }
    }

    /// Fraction of ranking lookups that resolved despite churn:
    /// `served / (served + faults)`, or `1.0` when the run never touched the
    /// directory (in particular on a static ring, which never faults).
    #[must_use]
    pub fn lookup_success_rate(&self) -> f64 {
        let served = self.directory_queries;
        let total = served + self.metrics.counter(Counter::LookupFaults);
        if total == 0 {
            1.0
        } else {
            served as f64 / total as f64
        }
    }
}

/// Mean of `observed` over `jobs`, summed in job order; a job without an
/// observed value (a rejected one) contributes `expected` when
/// `include_rejected` and is skipped otherwise.  `0.0` over no jobs.
fn mean_over<'a>(
    jobs: impl Iterator<Item = &'a JobRecord>,
    include_rejected: bool,
    observed: fn(&JobRecord) -> Option<f64>,
    expected: fn(&JobRecord) -> f64,
) -> f64 {
    let (sum, count) = jobs
        .filter_map(|j| observed(j).or_else(|| include_rejected.then(|| expected(j))))
        .fold((0.0, 0usize), |(sum, count), v| (sum + v, count + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed_record(origin: usize, executed_on: usize, submit: f64, finish: f64, cost: f64) -> JobRecord {
        JobRecord {
            id: JobId { origin, seq: 0 },
            origin,
            strategy: Strategy::Ofc,
            submit,
            processors: 4,
            deadline: 1_000.0,
            budget: 100.0,
            expected_local_response: 500.0,
            expected_local_cost: 40.0,
            messages: 4,
            directory_messages: 2,
            outcome: ExecutionOutcome::Completed {
                executed_on,
                start: submit,
                finish,
                cost,
            },
        }
    }

    fn rejected_record(origin: usize) -> JobRecord {
        JobRecord {
            id: JobId { origin, seq: 1 },
            origin,
            strategy: Strategy::Oft,
            submit: 0.0,
            processors: 4,
            deadline: 100.0,
            budget: 10.0,
            expected_local_response: 800.0,
            expected_local_cost: 60.0,
            messages: 8,
            directory_messages: 6,
            outcome: ExecutionOutcome::Rejected,
        }
    }

    fn resource(name: &str, total: usize, accepted: usize) -> ResourceMetrics {
        ResourceMetrics {
            name: name.into(),
            processors: 64,
            utilization: 0.5,
            busy_processor_seconds: 1_000.0,
            total_local_jobs: total,
            accepted,
            rejected: total - accepted,
            processed_locally: accepted / 2,
            migrated: accepted - accepted / 2,
            remote_jobs_processed: 3,
            incentive: 1_000.0,
        }
    }

    fn report() -> FederationReport {
        FederationReport {
            resources: vec![resource("A", 10, 9), resource("B", 20, 20)],
            jobs: vec![
                completed_record(0, 0, 0.0, 400.0, 30.0),
                completed_record(0, 1, 100.0, 900.0, 70.0),
                rejected_record(0),
                completed_record(1, 1, 0.0, 2_000.0, 120.0),
            ],
            messages: MessageLedger::new(2),
            bank: GridBank::new(2),
            sim_end: 10_000.0,
            engine: SimStats::default(),
            backend: DirectoryBackend::Ideal,
            directory_queries: 0,
            directory_avg_route_messages: 0.0,
            directory_avg_finger_hops: 0.0,
            directory_cache: CacheStats::default(),
            metrics: MetricsRegistry::new(2),
            digest: crate::audit::AuditLedger::new(2).digest(),
        }
    }

    #[test]
    fn job_record_predicates() {
        let ok = completed_record(0, 1, 0.0, 400.0, 30.0);
        assert_eq!(ok.response_time(), Some(400.0));
        assert_eq!(ok.cost_paid(), Some(30.0));
        assert!(ok.was_migrated());
        assert!(ok.was_accepted());
        let local = completed_record(0, 0, 0.0, 5_000.0, 30.0);
        assert!(!local.was_migrated());
        let rej = rejected_record(0);
        assert_eq!(rej.response_time(), None);
        assert!(!rej.was_accepted());
    }

    #[test]
    fn resource_rates() {
        let r = resource("A", 10, 9);
        assert!((r.acceptance_rate() - 90.0).abs() < 1e-12);
        assert!((r.rejection_rate() - 10.0).abs() < 1e-12);
        assert!((r.utilization_percent() - 50.0).abs() < 1e-12);
        let empty = ResourceMetrics {
            total_local_jobs: 0,
            accepted: 0,
            rejected: 0,
            ..resource("E", 10, 9)
        };
        assert_eq!(empty.acceptance_rate(), 100.0);
    }

    #[test]
    fn report_aggregates() {
        let rep = report();
        assert!((rep.mean_acceptance_rate() - 95.0).abs() < 1e-12);
        assert!((rep.mean_utilization_percent() - 50.0).abs() < 1e-12);
        assert!((rep.total_incentive() - 2_000.0).abs() < 1e-12);
        assert_eq!(rep.jobs_of(0).count(), 3);
        // Excluding rejected: origin 0 has responses 400 and 800 → 600.
        assert!((rep.avg_response_time(0, false) - 600.0).abs() < 1e-12);
        // Including rejected adds the expected 800 on origin → (400+800+800)/3.
        assert!((rep.avg_response_time(0, true) - 2_000.0 / 3.0).abs() < 1e-9);
        assert!((rep.avg_budget_spent(0, false) - 50.0).abs() < 1e-12);
        assert!((rep.avg_budget_spent(0, true) - (30.0 + 70.0 + 60.0) / 3.0).abs() < 1e-9);
        // Federation-wide.
        assert!((rep.federation_avg_response_time(false) - (400.0 + 800.0 + 2_000.0) / 3.0).abs() < 1e-9);
        assert!((rep.federation_avg_budget_spent(true) - (30.0 + 70.0 + 60.0 + 120.0) / 4.0).abs() < 1e-9);
        // Per-job message summaries over the four records.
        assert_eq!(rep.per_job_summary(|j| j.messages), (4, 5.0, 8));
        assert_eq!(rep.per_job_summary(|j| j.directory_messages), (2, 3.0, 6));
    }

    #[test]
    fn empty_report_is_safe() {
        let rep = FederationReport {
            resources: vec![],
            jobs: vec![],
            messages: MessageLedger::new(0),
            bank: GridBank::new(0),
            sim_end: 0.0,
            engine: SimStats::default(),
            backend: DirectoryBackend::Maan,
            directory_queries: 0,
            directory_avg_route_messages: 0.0,
            directory_avg_finger_hops: 0.0,
            directory_cache: CacheStats::default(),
            metrics: MetricsRegistry::new(0),
            digest: crate::audit::AuditLedger::new(0).digest(),
        };
        assert_eq!(rep.mean_acceptance_rate(), 0.0);
        assert_eq!(rep.total_incentive(), 0.0);
        assert_eq!(rep.avg_response_time(0, true), 0.0);
        assert_eq!(rep.federation_avg_response_time(true), 0.0);
        assert_eq!(rep.federation_avg_budget_spent(false), 0.0);
        assert_eq!(rep.mean_utilization_percent(), 0.0);
        assert_eq!(rep.avg_budget_spent(3, false), 0.0);
        assert_eq!(rep.per_job_summary(|j| j.messages), (0, 0.0, 0));
    }

    #[test]
    fn lookup_success_rate_reads_the_fault_counter() {
        let mut rep = report();
        assert_eq!(rep.lookup_success_rate(), 1.0);
        rep.directory_queries = 3;
        assert_eq!(rep.lookup_success_rate(), 1.0);
        rep.metrics.add(0, Counter::LookupFaults, 1);
        assert!((rep.lookup_success_rate() - 0.75).abs() < 1e-12);
    }
}
