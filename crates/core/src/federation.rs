//! Building and running a Grid-Federation.
//!
//! [`FederationBuilder`] wires together everything the paper's simulation
//! contains: one GFA per cluster (each owning a space-shared LRMS and its
//! local user population's trace), the shared federation directory holding
//! every quote, the GridBank, and the message ledger.  [`FederationBuilder::run`]
//! executes the discrete-event simulation to completion and assembles the
//! [`FederationReport`] every experiment consumes.

use std::cell::RefCell;
use std::rc::Rc;

use grid_cluster::ResourceSpec;
use grid_des::{
    DedupWindow, LinkFaults, NetworkFaultConfig, RunOutcome, SimRng, SimStats, Simulation,
    TransmissionPlan,
};
use grid_des::{FlowRecord, SpanRecord};
use grid_directory::{AnyDirectory, CacheStats, DirectoryBackend, FederationDirectory, Quote};
use grid_obs::{Counter, HandlerProfiler, MetricsRegistry, ProfileTable, SpanCollector};
use grid_workload::Job;

use crate::accounting::Charge;
use crate::audit::AuditLedger;
use crate::economy::{ChargingPolicy, GridBank};
use crate::gfa::Gfa;
use crate::messages::{FedMessage, MessageLedger};
use crate::metrics::{FederationReport, JobRecord, ResourceMetrics};

/// Which resource-sharing environment to simulate (the paper's three
/// experiment families).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingMode {
    /// Experiment 1: every cluster schedules only its own workload.
    Independent,
    /// Experiment 2: federation without economy — local first, then the
    /// remaining clusters in decreasing order of computational speed.
    FederationNoEconomy,
    /// Experiments 3–5: the full economy-driven DBC (OFC/OFT) algorithm.
    Economy,
}

/// Which local scheduler each cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LrmsKind {
    /// Space-shared FCFS, as in the paper (GridSim `SpaceShared`).
    SpaceSharedFcfs,
    /// EASY backfilling, an extension beyond the paper's configuration.
    EasyBackfilling,
}

/// How a GFA reacts when a ranking lookup faults because the entry's store
/// crashed and no live replica could answer: it retries the same rank after
/// an exponential-backoff delay, and once the retry budget is exhausted the
/// job degrades to local-only scheduling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Base backoff delay in seconds; retry `i` (1-based) waits
    /// `backoff × 2^(i−1)`.
    pub backoff: f64,
    /// Retries granted per job before it falls back to local execution.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            backoff: 30.0,
            max_retries: 3,
        }
    }
}

impl RetryPolicy {
    /// Backoff delay (seconds) before retry `retry` (1-based):
    /// `backoff × 2^(retry−1)` with the exponent saturated at
    /// [`grid_des::net::MAX_BACKOFF_EXPONENT`], so arbitrarily large retry
    /// counts stay finite instead of overflowing the shift.
    #[must_use]
    pub fn backoff_delay(&self, retry: u32) -> f64 {
        grid_des::net::backoff_delay(self.backoff, retry.saturating_sub(1))
    }
}

/// When the overlay repairs the ring position of a crashed node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairMode {
    /// Crashed nodes are evicted only by the periodic stabilization rounds
    /// (the default): faulted lookups back off and retry, waiting the
    /// repair out.
    #[default]
    Periodic,
    /// A faulted lookup additionally triggers an immediate **targeted**
    /// repair: the directory evicts the crashed store the lookup hit and
    /// the job retries right away, trading repair messages (charged into
    /// the publish class) for post-fault latency.
    Reactive,
}

impl RepairMode {
    /// Short lowercase label used in file names and table headers.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RepairMode::Periodic => "periodic",
            RepairMode::Reactive => "reactive",
        }
    }
}

impl std::fmt::Display for RepairMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Stochastic fault-injection model of a churning federation.
///
/// Each GFA alternates exponentially distributed up- and down-phases, drawn
/// from a [`SimRng`] stream derived from the run's master seed, so churn
/// schedules are fully deterministic and independent of the workload draws.
/// A departure is an ungraceful *crash* with probability
/// [`ChurnConfig::crash_fraction`] (the node's stored directory entries are
/// dropped cold and the node squats in the overlay until a stabilization
/// round evicts it) and a graceful *leave* otherwise (entries are handed
/// off to their new owners immediately, charged as publish traffic).
///
/// A zero [`ChurnConfig::mean_uptime`] disables the failure process
/// entirely: no churn or stabilization event is scheduled and the run is
/// bit-identical (same [`crate::audit::RunDigest`]) to one with
/// [`FederationConfig::churn`] set to `None` — the differential the
/// zero-churn tests pin.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Mean up-time (seconds) before a node's next departure; exponential.
    /// `0.0` disables the failure process.
    pub mean_uptime: f64,
    /// Mean down-time (seconds) before a departed node rejoins;
    /// exponential.  `0.0` makes every departure permanent.
    pub mean_downtime: f64,
    /// Probability that a departure is an ungraceful crash.
    pub crash_fraction: f64,
    /// Period (seconds) of the overlay's stabilization rounds, delivered
    /// round-robin across the GFAs.  `0.0` disables stabilization.
    pub stabilization_interval: f64,
    /// Replication factor `k ≥ 1` for MAAN attribute entries; replicas are
    /// created and repaired by stabilization rounds.
    pub replication: usize,
    /// Horizon (seconds) out to which churn and stabilization events are
    /// pre-generated; typically the trace duration.
    pub horizon: f64,
    /// How GFAs retry faulted lookups before degrading to local execution.
    pub retry: RetryPolicy,
    /// Whether crashed ring positions are repaired only periodically or
    /// reactively at lookup-fault time (see [`RepairMode`]).
    pub repair: RepairMode,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            mean_uptime: 0.0,
            mean_downtime: 14_400.0,
            crash_fraction: 0.5,
            stabilization_interval: 1_800.0,
            replication: 2,
            horizon: 172_800.0,
            retry: RetryPolicy::default(),
            repair: RepairMode::Periodic,
        }
    }
}

impl ChurnConfig {
    /// Whether the failure process generates any event at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.mean_uptime > 0.0 && self.mean_uptime.is_finite() && self.horizon > 0.0
    }
}

/// Decorrelates the churn draws from both the workload and the overlay's
/// ring-placement streams.
const CHURN_STREAM_SALT: u64 = 0xC4A8_5EED_FA11_0CE5;

/// Pre-generates one GFA's alternating departure/rejoin chain out to the
/// churn horizon: `(departures as (time, graceful), rejoin times)`.
fn churn_chain(churn: &ChurnConfig, seed: u64, gfa: usize) -> (Vec<(f64, bool)>, Vec<f64>) {
    let mut rng = SimRng::derive(seed ^ CHURN_STREAM_SALT, gfa as u64);
    let mut departures = Vec::new();
    let mut rejoins = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exponential(churn.mean_uptime);
        if t >= churn.horizon {
            break;
        }
        let graceful = !rng.bernoulli(churn.crash_fraction);
        departures.push((t, graceful));
        if churn.mean_downtime <= 0.0 {
            break; // Departure is permanent.
        }
        t += rng.exponential(churn.mean_downtime);
        if t >= churn.horizon {
            break;
        }
        rejoins.push(t);
    }
    (departures, rejoins)
}

/// The stabilization ticks GFA `gfa` drives: the global tick sequence
/// (one round per interval) dealt round-robin across the `n` GFAs.
fn stabilization_ticks(churn: &ChurnConfig, gfa: usize, n: usize) -> Vec<f64> {
    let mut ticks = Vec::new();
    if churn.stabilization_interval <= 0.0 {
        return ticks;
    }
    let mut round = 0u64;
    loop {
        let t = churn.stabilization_interval * (round + 1) as f64;
        if t >= churn.horizon {
            return ticks;
        }
        if round as usize % n == gfa {
            ticks.push(t);
        }
        round += 1;
    }
}

/// Decorrelates protocol-link fault draws from every other stream family
/// (workload, churn, ring placement).
const NET_LINK_SALT: u64 = 0x0BAD_11E7_FA17_5EED;
/// Decorrelates per-GFA directory-query fault draws from the link streams.
const NET_QUERY_SALT: u64 = 0x0BAD_11E7_D1EC_5EED;
/// Decorrelates per-GFA publish-path fault draws from both families above.
const NET_PUBLISH_SALT: u64 = 0x0BAD_11E7_9B11_5EED;

/// The per-link state of one directed GFA link `src → dst`, packed into
/// one 64-byte cache line: the link's seeded fault stream (40 bytes), the
/// sender's next-sequence counter (8) and the receiver's [`DedupWindow`]
/// for that link (16).  Every enveloped message reads and writes all three,
/// so one line per link replaces three lines in three `n²`-sized arrays.
#[derive(Debug)]
#[repr(align(64))]
struct Link {
    /// The link's fault stream: drops, jitter and duplications.
    faults: LinkFaults,
    /// Last sequence number sent on the link (the first envelope gets 1).
    send_seq: u64,
    /// Receiver-side dedup window, held at `dst`.
    dedup: DedupWindow,
}

const _: () = assert!(std::mem::size_of::<Link>() == 64, "one cache line per directed link");

/// Runtime state of the unreliable-network fault layer: one `Link`
/// record per directed GFA link — its seeded fault stream, its send
/// sequence counter and the receiver-side [`DedupWindow`] that makes
/// protocol handlers idempotent — plus the per-GFA fault streams of the
/// charge-modelled directory paths.
///
/// Only materialised when [`FederationConfig::network`] holds an *active*
/// fault config — an inactive config takes the same code path as `None`,
/// which is how the `None ≡ inactive` digest equivalence holds by
/// construction.
#[derive(Debug)]
pub struct NetState {
    cfg: NetworkFaultConfig,
    n: usize,
    /// Directed protocol links, indexed `src * n + dst`.
    links: Vec<Link>,
    /// Per-GFA fault streams of the charge-modelled directory-query path.
    query_faults: Vec<LinkFaults>,
    /// Per-GFA fault streams of the charge-modelled publish path.
    publish_faults: Vec<LinkFaults>,
}

impl NetState {
    /// Builds the fault layer for `n` GFAs from the run's master seed.
    #[must_use]
    pub fn new(n: usize, seed: u64, cfg: NetworkFaultConfig) -> Self {
        NetState {
            cfg,
            n,
            links: (0..n * n)
                .map(|id| Link {
                    faults: LinkFaults::new(seed, NET_LINK_SALT, id as u64),
                    send_seq: 0,
                    dedup: DedupWindow::default(),
                })
                .collect(),
            query_faults: (0..n)
                .map(|id| LinkFaults::new(seed, NET_QUERY_SALT, id as u64))
                .collect(),
            publish_faults: (0..n)
                .map(|id| LinkFaults::new(seed, NET_PUBLISH_SALT, id as u64))
                .collect(),
        }
    }

    /// Allocates the next envelope sequence number of the `src → dst` link
    /// (1-based; 0 is reserved for the reliable transport).
    pub fn next_seq(&mut self, src: usize, dst: usize) -> u64 {
        let counter = &mut self.links[src * self.n + dst].send_seq;
        *counter += 1;
        *counter
    }

    /// Plans one protocol transmission on the `src → dst` link: drop-forced
    /// retransmissions, delivery jitter and the duplication decision.
    pub fn plan(&mut self, src: usize, dst: usize) -> TransmissionPlan {
        let cfg = self.cfg;
        self.links[src * self.n + dst].faults.plan(&cfg)
    }

    /// Receiver-side dedup: admits envelope `seq` arriving at `dst` from
    /// `src` at most once.
    pub fn admit(&mut self, src: usize, dst: usize, seq: u64) -> bool {
        self.links[src * self.n + dst].dedup.admit(seq)
    }

    /// Extra routed messages the query path of `gfa` pays for per-hop drops
    /// across a lookup that semantically cost `messages` hops.
    pub fn query_extra(&mut self, gfa: usize, messages: u64) -> u64 {
        let cfg = self.cfg;
        let link = &mut self.query_faults[gfa];
        (0..messages).map(|_| u64::from(link.drops(&cfg))).sum()
    }

    /// Extra routed messages the publish path of `gfa` pays for per-hop
    /// drops across a mutation that semantically cost `messages` hops.
    pub fn publish_extra(&mut self, gfa: usize, messages: u64) -> u64 {
        let cfg = self.cfg;
        let link = &mut self.publish_faults[gfa];
        (0..messages).map(|_| u64::from(link.drops(&cfg))).sum()
    }

    /// Sum of all dedup-window bases — monotone non-decreasing over the run,
    /// which is exactly what the invariants sentry checks.
    #[must_use]
    pub fn dedup_base_sum(&self) -> u64 {
        self.links.iter().map(|link| link.dedup.base()).sum()
    }
}

/// Federation-wide state: the simulation owns it and lends it to each GFA
/// handler in turn as `ctx.shared`.
#[derive(Debug)]
pub struct SharedState {
    /// The shared federation directory holding every quote, in whichever
    /// backend the run's [`FederationConfig::directory`] selected.
    pub directory: AnyDirectory,
    /// The GridBank accumulating incentives.
    pub bank: GridBank,
    /// Message accounting.
    pub ledger: MessageLedger,
    /// Per-job records, in the order the jobs' outcomes were recorded.
    pub jobs: Vec<JobRecord>,
    /// Hash-chained audit ledger folding every outcome, charge and bank
    /// mutation (see [`crate::audit`]).
    pub audit: AuditLedger,
    /// The unreliable-network fault layer, or `None` on the reliable
    /// transport (including inactive fault configs).
    pub net: Option<NetState>,
    /// One-way network latency (seconds) each directory and publish
    /// message is charged (see [`FederationConfig::latency`]).
    pub latency: f64,
    /// The single accounting surface for every observability counter,
    /// sum and histogram of the run: churn/self-healing telemetry,
    /// unreliable-network telemetry, quote-cache hit/miss tallies and the
    /// wait/slowdown/latency percentile panels all live here.  Kept
    /// strictly outside the audit chains, so recording into the registry
    /// can never move a [`crate::audit::RunDigest`].
    pub metrics: MetricsRegistry,
    /// The span-aware trace sink, when a run is traced.  `None` (the
    /// default) costs one discriminant test per emission site; emitting
    /// spans reads sim state but never writes it.
    pub tracer: Option<Rc<RefCell<SpanCollector>>>,
    /// Runtime invariant observer, consulted after every delivered event.
    #[cfg(feature = "invariants")]
    pub invariants: crate::invariants::InvariantSentry,
}

impl SharedState {
    /// Forwards a completed span to the armed trace sink, if any.
    pub fn emit_span(&self, record: SpanRecord) {
        if let Some(tracer) = &self.tracer {
            tracer.borrow_mut().span(record);
        }
    }

    /// Forwards one endpoint of a cross-GFA flow to the armed trace sink.
    pub fn emit_flow(&self, record: FlowRecord) {
        if let Some(tracer) = &self.tracer {
            tracer.borrow_mut().flow(record);
        }
    }

    /// Whether a span-aware trace sink is armed (emission sites use this to
    /// skip building detail strings on untraced runs).
    #[must_use]
    pub fn trace_armed(&self) -> bool {
        self.tracer.is_some()
    }
}

/// Configuration knobs of a federation run.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationConfig {
    /// Resource-sharing environment.
    pub mode: SchedulingMode,
    /// Local scheduler used by every cluster.
    pub lrms: LrmsKind,
    /// One-way network latency between two different GFAs, in seconds.
    pub latency: f64,
    /// Master seed of the simulation.
    pub seed: u64,
    /// How resource owners charge for executed jobs (see
    /// [`ChargingPolicy`]); also used to fabricate every job's budget and
    /// deadline (Eq. 7–8) before the run.
    pub charging: ChargingPolicy,
    /// Horizon (in seconds) over which per-resource utilization is reported.
    /// `None` uses the final simulation time; the experiments pass the trace
    /// duration (two days) so utilizations are comparable to the paper's
    /// tables even when a few late jobs run past the trace window.
    pub utilization_horizon: Option<f64>,
    /// Which directory backend serves the GFAs' ranking queries.  Backends
    /// resolve identical quotes and differ only in the directory-message
    /// counts (and simulated lookup time) they account.
    pub directory: DirectoryBackend,
    /// Scripted departures `(gfa, time)`: at `time` the GFA withdraws its
    /// quote from the directory (`unsubscribe`), refuses new negotiations
    /// and stops self-accepting, while jobs already reserved on its LRMS run
    /// to completion.  Empty by default.
    pub departures: Vec<(usize, f64)>,
    /// Scripted re-pricings `(gfa, time, new_price)`: at `time` the GFA
    /// republishes its access price through the directory's `update_price`
    /// primitive and charges the new price for subsequently accepted jobs.
    /// Empty by default.
    pub repricings: Vec<(usize, f64, f64)>,
    /// Stochastic churn model, or `None` for the static-ring path.  A
    /// config whose failure process is inactive (zero
    /// [`ChurnConfig::mean_uptime`]) schedules nothing and produces a run
    /// bit-identical to `None`; see [`ChurnConfig`].
    pub churn: Option<ChurnConfig>,
    /// Unreliable-network fault model, or `None` for the perfect transport.
    /// An *inactive* config (all fault rates zero) takes the same code path
    /// as `None` and is digest-identical to it; an active config charges
    /// retransmit/duplicate traffic into the existing ledger classes while
    /// keeping job outcomes and balances bit-identical to the lossless run
    /// (`digest.outcomes`).
    pub network: Option<NetworkFaultConfig>,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            mode: SchedulingMode::Economy,
            lrms: LrmsKind::SpaceSharedFcfs,
            latency: 0.05,
            seed: 42,
            charging: ChargingPolicy::default(),
            utilization_horizon: None,
            directory: DirectoryBackend::Ideal,
            departures: Vec::new(),
            repricings: Vec::new(),
            churn: None,
            network: None,
        }
    }
}

impl FederationConfig {
    /// Convenience constructor for a given mode with all other defaults.
    #[must_use]
    pub fn with_mode(mode: SchedulingMode) -> Self {
        FederationConfig {
            mode,
            ..FederationConfig::default()
        }
    }
}

/// Scripted directory actions of a single GFA, derived from
/// [`FederationConfig::departures`] and [`FederationConfig::repricings`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GfaSchedule {
    /// Time at which the GFA departs (withdraws its quote), if any.
    pub departure: Option<f64>,
    /// `(time, price)` re-pricings, in configuration order.
    pub repricings: Vec<(f64, f64)>,
    /// `(time, graceful)` departures drawn from the seeded churn process,
    /// in increasing time order.  Empty without an active churn config.
    pub churn_departures: Vec<(f64, bool)>,
    /// Rejoin times, interleaved with `churn_departures`.
    pub churn_joins: Vec<f64>,
    /// Times this GFA drives a periodic overlay stabilization round (its
    /// round-robin share of the global tick sequence).
    pub stabilizations: Vec<f64>,
}

/// Builder for a federation simulation.
pub struct FederationBuilder {
    resources: Vec<ResourceSpec>,
    workloads: Vec<Vec<Job>>,
    config: FederationConfig,
    tracer: Option<Rc<RefCell<SpanCollector>>>,
    profiler: Option<Rc<RefCell<ProfileTable>>>,
}

impl FederationBuilder {
    /// Starts a builder from the participating resources.
    #[must_use]
    pub fn new(resources: Vec<ResourceSpec>) -> Self {
        let n = resources.len();
        FederationBuilder {
            resources,
            workloads: vec![Vec::new(); n],
            config: FederationConfig::default(),
            tracer: None,
            profiler: None,
        }
    }

    /// Sets the configuration.
    #[must_use]
    pub fn config(mut self, config: FederationConfig) -> Self {
        self.config = config;
        self
    }

    /// Arms a span-aware trace sink: the run emits job-lifecycle,
    /// negotiation, directory and execution spans (plus cross-GFA dispatch
    /// and completion flows) into the collector.  Observation sites live
    /// outside the builder's `Clone + PartialEq` [`FederationConfig`]
    /// because sinks are identity, not configuration — two runs differing
    /// only in armed sinks are the same run, and the obs-inertness tests
    /// pin exactly that.
    #[must_use]
    pub fn tracer(mut self, tracer: Rc<RefCell<SpanCollector>>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Arms the self-profiling hook: every delivered event's handler is
    /// bracketed with wall-clock timing, aggregated per event type into the
    /// shared table.  Timings live strictly outside sim state.
    #[must_use]
    pub fn profiler(mut self, table: Rc<RefCell<ProfileTable>>) -> Self {
        self.profiler = Some(table);
        self
    }

    /// Sets the local workload (trace) of resource `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range or a job's origin does not match.
    #[must_use]
    pub fn workload(mut self, index: usize, jobs: Vec<Job>) -> Self {
        assert!(index < self.resources.len(), "unknown resource index {index}");
        assert!(
            jobs.iter().all(|j| j.id.origin == index),
            "every job's origin must equal the resource index it is attached to"
        );
        self.workloads[index] = jobs;
        self
    }

    /// Sets all workloads at once (must be one vector per resource).
    ///
    /// # Panics
    /// Panics if the number of workloads differs from the number of resources.
    #[must_use]
    pub fn workloads(mut self, workloads: Vec<Vec<Job>>) -> Self {
        assert_eq!(
            workloads.len(),
            self.resources.len(),
            "need exactly one workload per resource"
        );
        for (i, jobs) in workloads.iter().enumerate() {
            assert!(
                jobs.iter().all(|j| j.id.origin == i),
                "every job's origin must equal the resource index it is attached to"
            );
        }
        self.workloads = workloads;
        self
    }

    /// Builds and runs the simulation, returning the federation report.
    ///
    /// # Panics
    /// Panics if the federation has no resources.
    #[must_use]
    pub fn run(self) -> FederationReport {
        let FederationBuilder {
            resources,
            mut workloads,
            config,
            tracer,
            profiler,
        } = self;
        let n = resources.len();
        assert!(n > 0, "a federation needs at least one resource");

        for (i, jobs) in workloads.iter_mut().enumerate() {
            config.charging.fabricate_qos_all(jobs, &resources[i]);
        }

        // One pass over each scripted list, keeping configuration order: a
        // GFA's script numbers its timers in that order.
        let mut schedules = vec![GfaSchedule::default(); n];
        for &(gfa, at) in &config.departures {
            assert!(gfa < n, "departure refers to unknown GFA {gfa}");
            let departure = &mut schedules[gfa].departure;
            *departure = Some(departure.map_or(at, |earliest| earliest.min(at)));
        }
        for &(gfa, at, price) in &config.repricings {
            assert!(gfa < n, "repricing refers to unknown GFA {gfa}");
            schedules[gfa].repricings.push((at, price));
        }

        // Decorrelate the overlay's ring placement from the workload seed.
        let mut directory = config.directory.build(n, config.seed ^ 0xD1EC_70B5_EED5_EED5);
        if let Some(churn) = &config.churn {
            assert!(churn.replication >= 1, "replication factor must be at least 1");
            // Replication is configured even when the failure process is
            // inactive: replicas are only materialised by stabilization
            // rounds, so a zero-rate churn config stays bit-identical to
            // the static-ring path at any k.
            directory.set_replication(churn.replication);
        }
        let churn_active = config.churn.as_ref().is_some_and(ChurnConfig::is_active);
        // The fault layer exists only when it can actually fire: inactive
        // configs take the `None` path, which is how `network: None` and a
        // zero-rate config stay digest-identical by construction.
        let net = config
            .network
            .filter(NetworkFaultConfig::is_active)
            .map(|cfg| NetState::new(n, config.seed, cfg));
        let total_jobs: usize = workloads.iter().map(Vec::len).sum();
        let mut shared = SharedState {
            directory,
            bank: GridBank::new(n),
            ledger: MessageLedger::new(n),
            jobs: Vec::with_capacity(total_jobs),
            audit: AuditLedger::new(n),
            net: None,
            latency: config.latency,
            metrics: MetricsRegistry::new(n),
            tracer,
            #[cfg(feature = "invariants")]
            invariants: crate::invariants::InvariantSentry::new(),
        };
        for (i, spec) in resources.iter().enumerate() {
            // The initial publish: under a distributed backend the quote is
            // routed to the nodes owning its attribute keys, and that
            // traffic is accounted in the ledger's publish class.  This is
            // pre-run setup (the simulation has not started), so it is
            // recorded before the fault layer is installed — the network
            // can only fault messages sent while the clock is running.
            let publish = shared.directory.subscribe(Quote::from_spec(i, spec));
            shared.record(Charge::Publish(i, publish));
        }
        shared.net = net;

        let mut sim = Simulation::new(config.seed, shared);
        if let Some(table) = profiler {
            sim.set_profiler(Box::new(HandlerProfiler::new(table, FedMessage::label)));
        }
        for (i, (spec, mut schedule)) in resources.iter().zip(schedules).enumerate() {
            if churn_active {
                let churn = config.churn.as_ref().expect("churn_active implies a config");
                (schedule.churn_departures, schedule.churn_joins) =
                    churn_chain(churn, config.seed, i);
                schedule.stabilizations = stabilization_ticks(churn, i, n);
            }
            let gfa = Gfa::new(
                i,
                spec.clone(),
                std::mem::take(&mut workloads[i]),
                schedule,
                &config,
            );
            let id = sim.add_entity(gfa);
            assert_eq!(id.index(), i, "GFA entity ids must equal resource indices");
        }

        let outcome = sim.run();
        assert_eq!(
            outcome,
            RunOutcome::Exhausted,
            "a federation run must drain all events"
        );
        let sim_end = sim.now().as_secs();
        let engine = sim.stats().clone();
        let (gfas, state) = sim.into_parts();
        assemble_report(
            &resources,
            &gfas,
            state,
            sim_end,
            engine,
            config.utilization_horizon,
            config.directory,
        )
    }
}

fn assemble_report(
    resources: &[ResourceSpec],
    gfas: &[Gfa],
    state: SharedState,
    sim_end: f64,
    engine: SimStats,
    utilization_horizon: Option<f64>,
    backend: DirectoryBackend,
) -> FederationReport {
    let SharedState {
        directory,
        bank,
        ledger,
        jobs,
        audit,
        metrics: mut registry,
        ..
    } = state;
    for (i, gfa) in gfas.iter().enumerate() {
        let cache = gfa.quote_cache.stats();
        registry.add(i, Counter::CacheHits, cache.hits);
        registry.add(i, Counter::CacheMisses, cache.misses);
    }
    let directory_cache = CacheStats {
        hits: registry.counter(Counter::CacheHits),
        misses: registry.counter(Counter::CacheMisses),
    };
    let directory_queries = directory.queries_served();
    let directory_avg_route_messages = directory.average_route_messages();
    let directory_avg_finger_hops = directory.average_finger_hops();

    let mut metrics: Vec<ResourceMetrics> = resources
        .iter()
        .zip(gfas)
        .enumerate()
        .map(|(i, (spec, gfa))| {
            let busy_processor_seconds = gfa.lrms.busy_processor_seconds(sim_end);
            let horizon = utilization_horizon.unwrap_or(sim_end).max(f64::EPSILON);
            let utilization =
                (busy_processor_seconds / (f64::from(spec.processors) * horizon)).min(1.0);
            ResourceMetrics {
                name: spec.name.clone(),
                processors: spec.processors,
                utilization,
                busy_processor_seconds,
                total_local_jobs: 0,
                accepted: 0,
                rejected: 0,
                processed_locally: 0,
                migrated: 0,
                remote_jobs_processed: gfa.remote_jobs_processed,
                incentive: bank.earnings(i),
            }
        })
        .collect();

    for job in &jobs {
        let m = &mut metrics[job.origin];
        m.total_local_jobs += 1;
        if job.was_accepted() {
            m.accepted += 1;
            if job.was_migrated() {
                m.migrated += 1;
            } else {
                m.processed_locally += 1;
            }
        } else {
            m.rejected += 1;
        }
    }

    // Always-on end-of-run checks: each is one O(n) pass per run.
    assert!(bank.is_balanced(), "GridBank must conserve currency");
    assert!(audit.is_consistent(), "audit chains must stay consistent");

    FederationReport {
        resources: metrics,
        jobs,
        messages: ledger,
        bank,
        sim_end,
        engine,
        backend,
        directory_queries,
        directory_avg_route_messages,
        directory_avg_finger_hops,
        directory_cache,
        metrics: registry,
        digest: audit.digest(),
    }
}

/// Convenience function: builds and runs a federation in one call.
#[must_use]
pub fn run_federation(
    resources: Vec<ResourceSpec>,
    workloads: Vec<Vec<Job>>,
    config: FederationConfig,
) -> FederationReport {
    FederationBuilder::new(resources)
        .workloads(workloads)
        .config(config)
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_workload::{JobId, Qos, Strategy, UserId};

    fn two_resources() -> Vec<ResourceSpec> {
        vec![
            ResourceSpec::new("slow-cheap", 32, 500.0, 1.0, 2.0),
            ResourceSpec::new("fast-pricey", 32, 1_000.0, 2.0, 4.0),
        ]
    }

    fn job(origin: usize, seq: usize, submit: f64, procs: u32, runtime: f64, strategy: Strategy) -> Job {
        let mips = if origin == 0 { 500.0 } else { 1_000.0 };
        let mut j = Job::from_runtime(
            JobId { origin, seq },
            UserId { origin, local: seq % 4 },
            submit,
            procs,
            runtime,
            mips,
            0.10,
        );
        j.qos = Qos {
            budget: 0.0,
            deadline: 0.0,
            strategy,
        };
        j
    }

    #[test]
    fn retry_backoff_is_exponential_then_saturates() {
        let p = RetryPolicy {
            backoff: 30.0,
            max_retries: u32::MAX,
        };
        assert_eq!(p.backoff_delay(1), 30.0);
        assert_eq!(p.backoff_delay(2), 60.0);
        assert_eq!(p.backoff_delay(5), 480.0);
        let cap = 30.0 * 65_536.0;
        assert_eq!(p.backoff_delay(17), cap);
        // Boundary regression: retry counts past the exponent cap used to
        // overflow the `1u32 << exponent` shift; they now saturate at the
        // capped delay and stay finite for any retry count.
        assert_eq!(p.backoff_delay(18), cap);
        assert_eq!(p.backoff_delay(u32::MAX), cap);
        assert!(p.backoff_delay(u32::MAX).is_finite());
        // Retry 0 is never scheduled, but the subtraction saturates instead
        // of wrapping.
        assert_eq!(p.backoff_delay(0), 30.0);
    }

    #[test]
    fn repair_mode_labels_roundtrip() {
        assert_eq!(RepairMode::default(), RepairMode::Periodic);
        let modes = [RepairMode::Periodic, RepairMode::Reactive];
        for mode in modes {
            assert_eq!(format!("{mode}"), mode.label());
        }
        assert_eq!(modes.map(RepairMode::label), ["periodic", "reactive"]);
    }

    #[test]
    fn single_local_job_completes_on_its_origin() {
        let resources = two_resources();
        let workloads = vec![vec![job(0, 0, 10.0, 4, 100.0, Strategy::Ofc)], vec![]];
        let report = run_federation(resources, workloads, FederationConfig::default());
        assert_eq!(report.jobs.len(), 1);
        let rec = &report.jobs[0];
        assert!(rec.was_accepted());
        // OFC: resource 0 is the cheapest, and it is the origin → local run.
        assert!(!rec.was_migrated());
        assert!(rec.response_time().unwrap() <= rec.deadline + 1e-6);
        assert!(rec.cost_paid().unwrap() <= rec.budget + 1e-6);
        assert_eq!(rec.messages, 2); // self negotiate + reply
        assert_eq!(report.resources[0].processed_locally, 1);
        assert_eq!(report.resources[0].accepted, 1);
        assert_eq!(report.resources[1].remote_jobs_processed, 0);
        assert!(report.resources[0].incentive > 0.0);
        assert!(report.bank.is_balanced());
    }

    #[test]
    fn oft_job_migrates_to_the_faster_resource() {
        let resources = two_resources();
        let workloads = vec![vec![job(0, 0, 0.0, 4, 100.0, Strategy::Oft)], vec![]];
        let report = run_federation(resources, workloads, FederationConfig::default());
        let rec = &report.jobs[0];
        assert!(rec.was_accepted());
        assert!(rec.was_migrated(), "OFT should pick the fast resource");
        // 4 messages: negotiate, reply, job submission, job completion.
        assert_eq!(rec.messages, 4);
        assert_eq!(report.resources[1].remote_jobs_processed, 1);
        assert_eq!(report.resources[0].migrated, 1);
        assert!(report.resources[1].incentive > 0.0);
        assert!((report.total_incentive() - report.bank.total_volume()).abs() < 1e-9);
    }

    #[test]
    fn independent_mode_never_migrates_and_counts_no_messages() {
        let resources = two_resources();
        let workloads = vec![
            vec![
                job(0, 0, 0.0, 4, 100.0, Strategy::Oft),
                job(0, 1, 5.0, 8, 200.0, Strategy::Ofc),
            ],
            vec![job(1, 0, 0.0, 4, 50.0, Strategy::Ofc)],
        ];
        let report = run_federation(
            resources,
            workloads,
            FederationConfig::with_mode(SchedulingMode::Independent),
        );
        assert_eq!(report.jobs.len(), 3);
        assert!(report.jobs.iter().all(|j| !j.was_migrated()));
        assert!(report.jobs.iter().all(|j| j.messages == 0));
        assert_eq!(report.messages.total_messages(), 0);
        assert_eq!(report.resources[0].remote_jobs_processed, 0);
        assert_eq!(report.resources[1].remote_jobs_processed, 0);
    }

    #[test]
    fn independent_mode_rejects_local_jobs_after_a_departure() {
        // A departed GFA stops self-accepting under Experiment 1 too: its
        // jobs arriving after the departure are rejected, while the one
        // before it runs and the other GFA keeps accepting.
        let workloads = vec![
            vec![
                job(0, 0, 0.0, 4, 100.0, Strategy::Ofc),
                job(0, 1, 200.0, 4, 100.0, Strategy::Ofc),
                job(0, 2, 300.0, 4, 100.0, Strategy::Oft),
            ],
            vec![job(1, 0, 200.0, 4, 100.0, Strategy::Ofc)],
        ];
        let config = FederationConfig {
            departures: vec![(0, 150.0)],
            ..FederationConfig::with_mode(SchedulingMode::Independent)
        };
        let report = run_federation(two_resources(), workloads, config);
        let accepted = |origin, seq| {
            let id = JobId { origin, seq };
            report.jobs.iter().find(|j| j.id == id).map(JobRecord::was_accepted)
        };
        assert_eq!(accepted(0, 0), Some(true));
        assert_eq!(accepted(0, 1), Some(false));
        assert_eq!(accepted(0, 2), Some(false));
        assert_eq!(accepted(1, 0), Some(true));
        assert_eq!(report.messages.total_messages(), 0);
    }

    #[test]
    fn overloaded_origin_spills_into_the_federation() {
        // Resource 0 has only 4 processors; flood it with simultaneous jobs so
        // some must either migrate (federation) or be rejected (independent).
        let resources = vec![
            ResourceSpec::new("tiny", 4, 500.0, 1.0, 2.0),
            ResourceSpec::new("big", 64, 1_000.0, 2.0, 4.0),
        ];
        let make_workloads = || {
            vec![
                (0..8)
                    .map(|i| {
                        let mut j = Job::from_runtime(
                            JobId { origin: 0, seq: i },
                            UserId { origin: 0, local: i },
                            0.0,
                            4,
                            500.0,
                            500.0,
                            0.10,
                        );
                        j.qos.strategy = Strategy::Ofc;
                        j
                    })
                    .collect::<Vec<_>>(),
                vec![],
            ]
        };
        let fed = run_federation(
            resources.clone(),
            make_workloads(),
            FederationConfig::with_mode(SchedulingMode::Economy),
        );
        let ind = run_federation(
            resources,
            make_workloads(),
            FederationConfig::with_mode(SchedulingMode::Independent),
        );
        let fed_accepted = fed.resources[0].accepted;
        let ind_accepted = ind.resources[0].accepted;
        assert!(
            fed_accepted > ind_accepted,
            "federation should accept more jobs ({fed_accepted} vs {ind_accepted})"
        );
        assert!(fed.resources[0].migrated > 0);
        assert_eq!(fed.resources[1].remote_jobs_processed, fed.resources[0].migrated);
        // Deadlines and budgets of accepted jobs are honoured.
        assert!(fed.jobs.iter().filter(|j| j.was_accepted()).all(|j| {
            j.response_time().unwrap() <= j.deadline + 1e-6 && j.cost_paid().unwrap() <= j.budget + 1e-6
        }));
    }

    #[test]
    fn no_economy_mode_prefers_local_then_fastest() {
        let resources = two_resources();
        let workloads = vec![
            vec![job(0, 0, 0.0, 4, 100.0, Strategy::Ofc)],
            vec![job(1, 0, 0.0, 4, 100.0, Strategy::Ofc)],
        ];
        let report = run_federation(
            resources,
            workloads,
            FederationConfig::with_mode(SchedulingMode::FederationNoEconomy),
        );
        // Both resources are idle, so both jobs stay local.
        assert!(report.jobs.iter().all(|j| !j.was_migrated()));
        assert_eq!(report.resources[0].processed_locally, 1);
        assert_eq!(report.resources[1].processed_locally, 1);
    }

    #[test]
    fn runs_are_deterministic() {
        let resources = two_resources();
        let workloads = || {
            vec![
                (0..10)
                    .map(|i| job(0, i, i as f64 * 50.0, 2 + (i as u32 % 4), 200.0, if i % 3 == 0 { Strategy::Oft } else { Strategy::Ofc }))
                    .collect::<Vec<_>>(),
                (0..5)
                    .map(|i| job(1, i, i as f64 * 80.0, 4, 150.0, Strategy::Ofc))
                    .collect::<Vec<_>>(),
            ]
        };
        let a = run_federation(two_resources(), workloads(), FederationConfig::default());
        let b = run_federation(resources, workloads(), FederationConfig::default());
        assert_eq!(a.jobs.len(), b.jobs.len());
        assert_eq!(a.messages.total_messages(), b.messages.total_messages());
        assert!((a.total_incentive() - b.total_incentive()).abs() < 1e-9);
        assert_eq!(a.sim_end, b.sim_end);
        // The O(1) differential: identical runs fold to identical digests.
        assert_eq!(a.digest, b.digest);
        assert!(a.digest.entries > 0);
    }

    #[test]
    fn every_remote_protocol_message_takes_the_queue_lane() {
        // On a lossless transport every protocol message travels the one
        // configured latency, so each arrives in order at the queue's FIFO
        // lane, and no timer enters it: a routing change that sends either
        // through the wrong container shows up here as a count, not only
        // as a slower run.
        let workloads = vec![
            (0..12)
                .map(|i| {
                    let strategy = if i % 2 == 0 { Strategy::Oft } else { Strategy::Ofc };
                    job(0, i, (i / 3) as f64 * 20.0, 24, 400.0, strategy)
                })
                .collect::<Vec<_>>(),
            (0..6)
                .map(|i| job(1, i, i as f64 * 35.0, 16, 300.0, Strategy::Ofc))
                .collect::<Vec<_>>(),
        ];
        let report = run_federation(two_resources(), workloads, FederationConfig::default());
        assert_eq!(report.backend, DirectoryBackend::Ideal);
        let engine = &report.engine;
        assert!(report.resources.iter().any(|r| r.migrated > 0), "the run must negotiate remotely");
        assert!(engine.messages_delivered > 0);
        assert_eq!(engine.lane_pushes, engine.messages_delivered);
        assert_eq!(engine.events_delivered, engine.messages_delivered + engine.timers_delivered);
    }

    #[test]
    fn directory_queries_are_accounted_per_job_and_per_gfa() {
        let resources = two_resources();
        let workloads = vec![vec![job(0, 0, 10.0, 4, 100.0, Strategy::Ofc)], vec![]];
        let report = run_federation(resources, workloads, FederationConfig::default());
        assert_eq!(report.backend, DirectoryBackend::Ideal);
        let rec = &report.jobs[0];
        // One rank-1 query at ⌈log₂ 2⌉ = 1 modelled message.
        assert_eq!(rec.directory_messages, 1);
        assert_eq!(report.messages.directory_messages(), 1);
        assert_eq!(report.messages.gfa(0).directory, 1);
        assert_eq!(report.messages.gfa(1).directory, 0);
        // Each directory message is charged the configured one-way latency.
        assert!((report.messages.directory_seconds() - 0.05).abs() < 1e-12);
        // Negotiation accounting is unchanged by the new traffic class.
        assert_eq!(rec.messages, 2);
        assert_eq!(report.messages.total_messages(), 2);
        assert_eq!(report.per_job_summary(|j| j.directory_messages), (1, 1.0, 1));
    }

    #[test]
    fn maan_backend_matches_ideal_outcomes_and_charges_publish_traffic() {
        // The distributed backend must be outcome-invisible: identical jobs,
        // negotiation traffic and balances — while being the only backend
        // that accounts publish-side traffic (initial subscribes, the
        // scripted departure's routed removes, the repricing's routed move).
        let resources = two_resources();
        let make = || {
            vec![
                (0..6)
                    .map(|i| job(0, i, i as f64 * 40.0, 4, 150.0, if i % 2 == 0 { Strategy::Oft } else { Strategy::Ofc }))
                    .collect::<Vec<_>>(),
                vec![job(1, 0, 0.0, 8, 120.0, Strategy::Ofc)],
            ]
        };
        let with_scripts = |backend| FederationConfig {
            departures: vec![(1, 500.0)],
            repricings: vec![(0, 200.0, 1.5)],
            directory: backend,
            ..FederationConfig::default()
        };
        let ideal = run_federation(resources.clone(), make(), with_scripts(DirectoryBackend::Ideal));
        let maan = run_federation(resources, make(), with_scripts(DirectoryBackend::Maan));
        assert_eq!(maan.backend, DirectoryBackend::Maan);
        assert_eq!(ideal.jobs.len(), maan.jobs.len());
        for (a, b) in ideal.jobs.iter().zip(&maan.jobs) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.messages, b.messages);
        }
        assert_eq!(ideal.messages.total_messages(), maan.messages.total_messages());
        for i in 0..2 {
            assert!((ideal.bank.earnings(i) - maan.bank.earnings(i)).abs() < 1e-12);
        }
        // Publish traffic: MAAN routed 2 initial puts + a departure's
        // removes + a repricing's move; the central backends publish free.
        assert_eq!(ideal.messages.publish_messages(), 0);
        assert!(
            maan.messages.publish_messages() >= 5,
            "2 subscribes + unsubscribe + reprice must route publish messages (got {})",
            maan.messages.publish_messages()
        );
        assert!(maan.messages.publish_seconds() > 0.0);
        assert!(maan.avg_publish_messages_per_gfa() > 0.0);
        assert_eq!(
            maan.messages.gfa(0).publish + maan.messages.gfa(1).publish,
            maan.messages.publish_messages()
        );
    }

    #[test]
    fn departed_resource_is_unsubscribed_end_to_end() {
        // OFT jobs normally migrate to the fast resource (see
        // `oft_job_migrates_to_the_faster_resource`); once it departs, the
        // directory no longer offers it and the job runs at its origin.
        let resources = two_resources();
        let make = || vec![vec![job(0, 0, 100.0, 4, 100.0, Strategy::Oft)], vec![]];
        let baseline = run_federation(resources.clone(), make(), FederationConfig::default());
        assert!(baseline.jobs[0].was_migrated());

        for backend in DirectoryBackend::ALL {
            let config = FederationConfig {
                departures: vec![(1, 50.0)],
                directory: backend,
                ..FederationConfig::default()
            };
            let report = run_federation(resources.clone(), make(), config);
            let rec = &report.jobs[0];
            assert!(rec.was_accepted());
            assert!(
                !rec.was_migrated(),
                "{backend:?}: job must stay local after the fast resource departed"
            );
            assert_eq!(report.resources[1].remote_jobs_processed, 0);
            assert!(report.bank.is_balanced());
        }
    }

    #[test]
    fn departed_resource_still_finishes_reserved_work() {
        // The job is dispatched at t≈0 and runs for ~50 s on the remote
        // executor, which departs mid-execution: the reservation is honoured.
        let resources = two_resources();
        let workloads = vec![vec![job(0, 0, 0.0, 4, 100.0, Strategy::Oft)], vec![]];
        let config = FederationConfig {
            departures: vec![(1, 10.0)],
            ..FederationConfig::default()
        };
        let report = run_federation(resources, workloads, config);
        let rec = &report.jobs[0];
        assert!(rec.was_accepted());
        assert!(rec.was_migrated(), "dispatch preceded the departure");
        assert_eq!(report.resources[1].remote_jobs_processed, 1);
        assert!(report.bank.is_balanced());
    }

    #[test]
    fn repricing_updates_the_directory_end_to_end() {
        // Resource 1 (price 4.0) undercuts resource 0 (price 2.0) at t = 50;
        // an OFC job arriving later must now rank resource 1 first and
        // migrate, paying the *new* price.
        let resources = two_resources();
        let make = || vec![vec![job(0, 0, 100.0, 4, 100.0, Strategy::Ofc)], vec![]];
        let baseline = run_federation(resources.clone(), make(), FederationConfig::default());
        assert!(!baseline.jobs[0].was_migrated(), "origin starts out cheapest");

        for backend in DirectoryBackend::ALL {
            let config = FederationConfig {
                repricings: vec![(1, 50.0, 0.5)],
                directory: backend,
                ..FederationConfig::default()
            };
            let report = run_federation(resources.clone(), make(), config);
            let rec = &report.jobs[0];
            assert!(
                rec.was_migrated(),
                "{backend:?}: OFC job must follow the re-priced cheapest resource"
            );
            let baseline_cost = baseline.jobs[0].cost_paid().unwrap();
            let repriced_cost = rec.cost_paid().unwrap();
            assert!(
                repriced_cost < baseline_cost,
                "{backend:?}: new price must be cheaper ({repriced_cost} vs {baseline_cost})"
            );
            assert!((report.resources[1].incentive - repriced_cost).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "departure refers to unknown GFA")]
    fn departure_for_unknown_gfa_panics() {
        let _ = FederationBuilder::new(two_resources())
            .config(FederationConfig {
                departures: vec![(7, 0.0)],
                ..FederationConfig::default()
            })
            .run();
    }

    #[test]
    #[should_panic(expected = "origin must equal the resource index")]
    fn mismatched_workload_origin_panics() {
        let _ = FederationBuilder::new(two_resources())
            .workload(0, vec![job(1, 0, 0.0, 1, 10.0, Strategy::Ofc)]);
    }

    #[test]
    #[should_panic(expected = "at least one resource")]
    fn empty_federation_panics() {
        let _ = FederationBuilder::new(vec![]).run();
    }
}
