//! The Grid Federation Agent (GFA).
//!
//! A GFA is the paper's two-layer resource-management system: a *distributed
//! information manager* (the interface to the shared federation directory)
//! plus a *resource manager* (admission control and execution on the local
//! LRMS).  One GFA entity is instantiated per cluster; its entity id in the
//! simulation equals its resource index.
//!
//! ## Scheduling algorithm (paper §2.2)
//!
//! For every job submitted by its local users the GFA runs the deadline- and
//! budget-constrained (DBC) loop:
//!
//! 1. `r ← 1`.
//! 2. Query the federation directory for the `r`-th cheapest (OFC) or `r`-th
//!    fastest (OFT) quote: the candidate stream, `next_candidate`.
//! 3. Skip candidates that are statically infeasible.  The pure `screen`
//!    rules a quote `TooSmall` (fewer processors than the job needs),
//!    `TooSlow` (past the deadline even unloaded) or `TooDear` (economy
//!    mode, OFT only: over budget), or makes an `Offer` of the job's service
//!    time and cost there.  The paper lets the GFA make these checks locally
//!    from the quote ("using R_i and c_i, a GFA can determine the cost … and
//!    the time taken, assuming that cluster i has no load"), so they cost no
//!    messages.  On the paper's Table 1 resources (speeds within 1.48×,
//!    against Eq. 7–8's 2× slack) the deadline and budget screens never fail
//!    a job at its arrival; they do on less alike clusters, such as the
//!    `custom_federation` example's.
//! 4. `negotiate`: send a *negotiate* message to the candidate asking for a
//!    guarantee that the job finishes before its absolute deadline.  The
//!    candidate consults its LRMS queue estimate and answers with a *reply*.
//! 5. On acceptance the origin sends the *job-submission* message; on
//!    completion the executor sends the *job-completion* message back.  On
//!    refusal, `r ← r + 1` and the loop repeats; when the quotes are
//!    exhausted the job is dropped.
//!
//! Admission control doubles as a reservation: when a candidate accepts, it
//! immediately enters the job into its LRMS queue so that the guarantee it
//! just gave cannot be invalidated by a concurrent negotiation — this is the
//! coordination property the paper's one-to-one negotiation scheme is
//! designed to provide.

use std::collections::BTreeMap;

use grid_cluster::{
    completion_time, service_time, ClusterJob, LocalScheduler, ResourceSpec, SpaceShared,
    StartedJob,
};
use grid_des::{Context, Entity, EntityId, Event, FlowRecord, SimTime, SpanRecord, SpanTrack};
use grid_directory::{FederationDirectory, Quote, QuoteCache, RankCursor, RankOrder};
use grid_obs::{Counter, FSum, HistId};
use grid_workload::{Job, JobId, Strategy};

use crate::accounting::Charge;
use crate::economy::ChargingPolicy;
use crate::federation::{
    FederationConfig, GfaSchedule, LrmsKind, RepairMode, RetryPolicy, SchedulingMode, SharedState,
};
use crate::messages::{FedMessage, MessageType};
use crate::metrics::{ExecutionOutcome, JobRecord};
use crate::script::Script;

/// The engine context every GFA handler runs in: it lends the federation's
/// [`SharedState`] as `ctx.shared`.
type Ctx<'a> = Context<'a, FedMessage, SharedState>;

/// One locally submitted job on its way from arrival to its [`JobRecord`]:
/// the job itself plus the per-job tallies the record reports.  It moves,
/// never copied, inside its [`PendingJob`] (boxed in the GFA's [`OwnJobs`]
/// table) or [`ExecutingJob`] until the job concludes.
#[derive(Debug, Clone)]
struct Ticket {
    job: Job,
    /// Accountable negotiation messages exchanged so far for this job.
    messages: u32,
    /// Directory messages spent on this job's ranking queries so far.
    directory_messages: u32,
    /// Execution time on the origin, `D(J, R_k)`.
    expected_local_response: f64,
    /// Cost on the origin, `B(J, R_k)`.
    expected_local_cost: f64,
}

impl Ticket {
    /// The job's conclusion: its final per-job message totals.
    fn concluded(&self) -> Charge {
        Charge::Concluded(self.job.id, self.messages, self.directory_messages)
    }

    /// The job's final record at `origin`.
    fn record(&self, origin: usize, outcome: ExecutionOutcome) -> JobRecord {
        let job = &self.job;
        JobRecord {
            id: job.id,
            origin,
            strategy: job.qos.strategy,
            submit: job.submit,
            processors: job.processors,
            deadline: job.qos.deadline,
            budget: job.qos.budget,
            expected_local_response: self.expected_local_response,
            expected_local_cost: self.expected_local_cost,
            messages: self.messages,
            directory_messages: self.directory_messages,
            outcome,
        }
    }
}

/// A job this GFA is placing (it is the origin).  Boxed once on arrival:
/// each negotiation leg takes the box out of [`OwnJobs`] and puts it back,
/// after a refusal as pending and after a remote acceptance as awaiting, so
/// the reply handler owns the job while the DBC loop resumes and a leg moves
/// a pointer, not the job.
#[derive(Debug, Clone)]
struct PendingJob {
    ticket: Ticket,
    /// Next rank `r` to query (1-based).
    next_rank: usize,
    /// This job's streaming position in the directory ranking: opened
    /// (routed) on the first probed rank and advanced one rank per probe, so
    /// resuming the DBC loop after a refused negotiation never recomputes
    /// rank `r` from scratch.  `None` until the job first misses the GFA's
    /// quote cache.
    cursor: Option<RankCursor>,
    /// Backoff retries already spent after faulted lookups (see
    /// [`RetryPolicy`]).
    retries: u32,
    /// When the current remote negotiation round-trip was launched (only
    /// meaningful while a reply is awaited; read by the negotiation span).
    negotiation_start: f64,
    /// Service time on the candidate currently being negotiated with (or,
    /// once dispatched, executing the job), so it need not be recomputed
    /// when the reply or the completion arrives.
    candidate_service: f64,
}

/// Where one of this GFA's own jobs stands between arrival and conclusion,
/// while it is not on the local LRMS.
#[derive(Debug)]
enum OwnJob {
    /// Still being placed: a negotiation is in flight or a faulted lookup's
    /// retry is parked.
    Pending(Box<PendingJob>),
    /// Dispatched to a remote executor, awaiting its completion message.
    Awaiting(Box<PendingJob>),
}

/// Marks a sequence number with no entry in [`OwnJobs`].
const VACANT: u32 = u32::MAX;

/// This GFA's own jobs in flight, keyed by [`JobId`].
///
/// Every job a GFA places originates there (the federation builder asserts
/// each trace's origin), so `JobId::seq` alone picks the entry: `slot_of`
/// maps a sequence number straight to a slot of a small slab that holds
/// only the jobs in flight, and freed slots are reused.  A negotiation leg
/// therefore takes its job out and puts it back in O(1), without a tree
/// walk.  Nothing iterates the table, so it needs no key order.
///
/// Entries are boxed, so a slot is two words.  Most jobs in flight are
/// awaiting a remote completion, and the allocator hands a concluded job's
/// box to whichever GFA places a job next: the federation's memory follows
/// its peak of jobs in flight, not the sum of every GFA's own peak.
#[derive(Debug)]
struct OwnJobs {
    origin: usize,
    /// `slot_of[seq]`: the slot holding job `seq`, or [`VACANT`].  Sized
    /// from the trace's largest sequence number, which may skip values.
    slot_of: Vec<u32>,
    slots: Vec<Option<OwnJob>>,
    free: Vec<u32>,
}

impl OwnJobs {
    /// An empty table sized for `trace`, the jobs `origin` submits.
    fn new(origin: usize, trace: &[Job]) -> Self {
        let seqs = trace.iter().map(|job| job.id.seq + 1).max().unwrap_or(0);
        OwnJobs {
            origin,
            slot_of: vec![VACANT; seqs],
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `id`'s entry.
    ///
    /// # Panics
    /// Panics if `id` is not a job of this table's trace.
    fn insert(&mut self, id: JobId, job: OwnJob) {
        assert_eq!(id.origin, self.origin, "job {id} is not an own job");
        debug_assert_eq!(self.slot_of[id.seq], VACANT, "job {id} is already in flight");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(job);
                slot
            }
            None => {
                // At most one slot per job of the trace, and `slot_of`
                // already holds one `u32` per job, so this can never panic.
                // fedlint: allow(hot-path-unwrap)
                let slot = u32::try_from(self.slots.len()).expect("fewer jobs than u32::MAX");
                self.slots.push(Some(job));
                slot
            }
        };
        self.slot_of[id.seq] = slot;
    }

    /// Removes and returns `id`'s entry, or `None` if it has none.
    fn take(&mut self, id: JobId) -> Option<OwnJob> {
        if id.origin != self.origin {
            return None;
        }
        let index = self.slot_of.get_mut(id.seq)?;
        let slot = std::mem::replace(index, VACANT);
        let job = self.slots.get_mut(slot as usize)?.take();
        self.free.push(slot);
        job
    }
}

/// A job reserved/executing on this GFA's own LRMS, with its `cost` here
/// and its `start` once the LRMS started it.
#[derive(Debug, Clone)]
enum ExecutingJob {
    /// One of this GFA's own jobs: its ticket turns into its record at
    /// completion.
    Own {
        ticket: Ticket,
        cost: f64,
        start: Option<f64>,
    },
    /// Another GFA's job: completion is reported back to `origin`.
    Remote {
        origin: usize,
        cost: f64,
        start: Option<f64>,
    },
}

/// Tolerance of the deadline and budget comparisons: a bound met to within
/// this many seconds or Grid Dollars is met.
const SLACK: f64 = 1e-9;

/// What the candidate stream ([`next_candidate`]) yields next for one job:
/// the quote at its next rank, the end of the ranking, or a faulted lookup
/// (see [`Gfa::probe_directory`]) whose rank the next call retries.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Candidate {
    Quote(Quote),
    Exhausted,
    Faulted,
}

/// The DBC loop's candidate stream (step 2): the quote at `next_rank`
/// (1-based), advancing `next_rank` past every rank it consumes.  Economy
/// mode walks the directory cheapest-first for OFC, fastest-first for OFT.
/// Without economy the paper runs jobs locally whenever possible: rank 1 is
/// `local`, the origin's quote, then the directory fastest-first without it.
/// `probe(order, r)` resolves the directory's `r`-th quote and whether the
/// lookup faulted; ranks past `directory_len` are exhausted unprobed.
fn next_candidate(
    mode: SchedulingMode,
    strategy: Strategy,
    local: Quote,
    next_rank: &mut usize,
    directory_len: usize,
    mut probe: impl FnMut(RankOrder, usize) -> (Option<Quote>, bool),
) -> Candidate {
    let no_economy = mode == SchedulingMode::FederationNoEconomy;
    loop {
        let rank = *next_rank;
        let quote = if no_economy && rank == 1 {
            local
        } else {
            let r = if no_economy { rank - 1 } else { rank };
            if r > directory_len {
                return Candidate::Exhausted;
            }
            let order = if no_economy || strategy == Strategy::Oft {
                RankOrder::Fastest
            } else {
                RankOrder::Cheapest
            };
            match probe(order, r) {
                (_, true) => return Candidate::Faulted,
                (None, false) => return Candidate::Exhausted,
                (Some(quote), false) => quote,
            }
        };
        *next_rank += 1;
        if !(no_economy && rank > 1 && quote.gfa == local.gfa) {
            return Candidate::Quote(quote);
        }
    }
}

/// The static screen's verdict on a candidate: too few processors, past the
/// deadline even unloaded, over an OFT user's budget, or an offer of the
/// job's service time and cost there.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    TooSmall,
    TooSlow,
    TooDear,
    Offer { service: f64, cost: f64 },
}

/// The DBC loop's static screen (step 3) of `quote` for `job` at `now`,
/// from the quote alone.  `origin_spec` scales the job's communication time
/// and `charging` prices it.  `budget_bound` is set in economy mode, where
/// an OFT job's budget bounds its candidates.
fn screen(
    job: &Job,
    quote: &Quote,
    origin_spec: &ResourceSpec,
    charging: ChargingPolicy,
    budget_bound: bool,
    now: f64,
) -> Verdict {
    if quote.processors < job.processors {
        return Verdict::TooSmall;
    }
    let service = service_time(job, quote.mips, quote.bandwidth, origin_spec);
    if now + service > job.absolute_deadline() + SLACK {
        return Verdict::TooSlow;
    }
    let cost = charging.charge_at(job, quote.mips, quote.price);
    if budget_bound && job.qos.strategy == Strategy::Oft && cost > job.qos.budget + SLACK {
        return Verdict::TooDear;
    }
    Verdict::Offer { service, cost }
}

/// The Grid Federation Agent entity.
pub struct Gfa {
    index: usize,
    spec: ResourceSpec,
    mode: SchedulingMode,
    charging: ChargingPolicy,
    latency: f64,
    pub(crate) lrms: SpaceShared,
    /// The local users' job arrivals and the scripted and churn-drawn
    /// directory actions, streamed into the event queue one at a time.
    script: Script,
    /// Set once the departure timer fired: the quote is withdrawn and no new
    /// work is admitted.
    departed: bool,
    /// Set by a *scripted* departure, which is permanent: later churn-drawn
    /// rejoin events must not resurrect the GFA.
    retired: bool,
    /// How this GFA retries faulted directory lookups before degrading a
    /// job to local-only scheduling.
    retry: RetryPolicy,
    /// Whether a faulted lookup triggers an immediate targeted ring repair
    /// or only the periodic stabilization rounds heal the overlay.
    repair: RepairMode,
    /// Epoch-keyed memo of quotes this GFA already streamed from the
    /// directory; invalidated automatically when the directory mutates.
    pub(crate) quote_cache: QuoteCache,
    /// Remote jobs (another GFA's) this GFA's LRMS has executed.
    pub(crate) remote_jobs_processed: usize,
    own_jobs: OwnJobs,
    executing: BTreeMap<JobId, ExecutingJob>,
    /// Reusable buffer for LRMS start notifications, so the steady-state
    /// event loop performs no per-event allocation; empty between events.
    scratch: Vec<StartedJob>,
}

impl Gfa {
    /// Creates a GFA for resource `index`.
    ///
    /// `local_jobs` is the trace of jobs submitted by this cluster's local
    /// user population (QoS already fabricated); `schedule` holds the
    /// scripted and churn-drawn directory actions; `config` supplies the
    /// scheduling mode, charging policy, latency, local scheduler and the
    /// churn config's retry and repair policies.
    #[must_use]
    pub fn new(
        index: usize,
        spec: ResourceSpec,
        local_jobs: Vec<Job>,
        schedule: GfaSchedule,
        config: &FederationConfig,
    ) -> Self {
        let lrms = match config.lrms {
            LrmsKind::SpaceSharedFcfs => SpaceShared::new(spec.processors),
            LrmsKind::EasyBackfilling => SpaceShared::backfilling(spec.processors),
        };
        let churn = config.churn.as_ref();
        let own_jobs = OwnJobs::new(index, &local_jobs);
        Gfa {
            index,
            spec,
            mode: config.mode,
            charging: config.charging,
            latency: config.latency,
            lrms,
            script: Script::new(local_jobs, schedule),
            departed: false,
            retired: false,
            retry: churn.map_or_else(RetryPolicy::default, |c| c.retry),
            repair: churn.map_or(RepairMode::Periodic, |c| c.repair),
            quote_cache: QuoteCache::new(),
            remote_jobs_processed: 0,
            own_jobs,
            executing: BTreeMap::new(),
            scratch: Vec::new(),
        }
    }

    /// Sends one negotiation-protocol message to a *remote* GFA over the
    /// (possibly unreliable) transport.
    ///
    /// The semantic copy is always delivered after the nominal link latency,
    /// so job outcomes do not depend on the fault layer.  When the fault
    /// layer is active the message additionally gets a per-link envelope
    /// sequence, and the link's fault stream decides how many transmissions
    /// were dropped before the timeout/retransmit machinery got it through
    /// (each one an extra copy of the same accountable message, charged into
    /// the same ledger class as the original) and whether the delivery was
    /// duplicated in flight — the duplicate is delivered as a real second
    /// event inside the reorder window and rejected by the receiver's dedup
    /// window.  Retransmission is bounded by the configured
    /// `max_retransmits` budget, after which the final attempt always goes
    /// through (see [`grid_des::NetworkFaultConfig`]), so every negotiation
    /// eventually completes.
    ///
    /// The ledger books each message against the job's origin and its
    /// counterpart: enquiries and submissions leave the origin, replies and
    /// completions return to it.
    fn send_protocol(
        &mut self,
        to: usize,
        ty: MessageType,
        build: impl Fn(u64) -> FedMessage,
        ctx: &mut Ctx<'_>,
    ) -> u64 {
        debug_assert_ne!(to, self.index, "protocol sends are strictly remote");
        let (ledger_origin, ledger_counterpart) = match ty {
            MessageType::Negotiate | MessageType::JobSubmission => (self.index, to),
            MessageType::Reply | MessageType::JobCompletion => (to, self.index),
        };
        let mut seq = 0;
        let mut duplicate_delay = None;
        {
            let state = &mut *ctx.shared;
            state.record(Charge::Message(ty, ledger_origin, ledger_counterpart));
            let planned = state.net.as_mut().map(|net| {
                let seq = net.next_seq(self.index, to);
                let plan = net.plan(self.index, to);
                (seq, plan)
            });
            if let Some((envelope, plan)) = planned {
                seq = envelope;
                let metrics = &mut state.metrics;
                metrics.inc(self.index, Counter::NetEnveloped);
                let retransmissions = u64::from(plan.retransmissions);
                metrics.add(self.index, Counter::NetRetransmissions, retransmissions);
                metrics.add_f(self.index, FSum::BackoffSeconds, plan.backoff_seconds);
                metrics.add_f(self.index, FSum::JitterSeconds, plan.jitter_seconds);
                for _ in 0..plan.retransmissions {
                    state.record(Charge::Message(ty, ledger_origin, ledger_counterpart));
                }
                if plan.duplicate {
                    state.metrics.inc(self.index, Counter::NetDuplicates);
                    state.record(Charge::Message(ty, ledger_origin, ledger_counterpart));
                    duplicate_delay = Some(plan.duplicate_delay);
                }
            }
        }
        // The federation builder registers GFAs in resource order, so the
        // entity id equals the resource index.
        let dst = EntityId::new(to);
        ctx.send(dst, self.latency, build(seq));
        if let Some(extra) = duplicate_delay {
            // Same-timestamp events deliver in insertion order, so even a
            // zero-window duplicate arrives after the original.
            ctx.send(dst, self.latency + extra, build(seq));
        }
        seq
    }

    /// Deterministic flow identity linking a send to its delivery in the
    /// trace.  With an envelope sequence the id composes the directed link
    /// and the PR-9 sequence number (unique because seqs are per-link
    /// monotone); on the reliable transport (`seq == 0`) it falls back to
    /// the job identity plus a completion bit, which is unique because each
    /// job dispatches and completes at most once.
    fn flow_id(seq: u64, src: usize, dst: usize, job: JobId, completion: bool) -> u64 {
        if seq != 0 {
            ((src as u64) << 52) | ((dst as u64) << 44) | (seq & 0xFFF_FFFF_FFFF)
        } else {
            (1 << 63) | ((job.origin as u64) << 40) | ((job.seq as u64) << 1) | u64::from(completion)
        }
    }

    /// Receiver-side dedup: decides whether a delivered event's payload may
    /// take effect.  Envelopes already admitted on this link (in-flight
    /// duplicates, hypothetical retransmit races) are rejected, making every
    /// protocol handler effectively idempotent; un-enveloped payloads
    /// (self-timers, reliable-transport messages with `seq == 0`) always
    /// pass.
    fn admit_envelope(&self, event: &Event<FedMessage>, state: &mut SharedState) -> bool {
        let (Some(seq @ 1..), Some(net)) = (event.payload.envelope_seq(), state.net.as_mut()) else {
            return true;
        };
        let admitted = net.admit(event.src.index(), self.index, seq);
        if !admitted {
            state.metrics.inc(self.index, Counter::NetDedupDrops);
        }
        admitted
    }

    /// Registers the jobs the last LRMS call appended to `scratch`:
    /// remembers their start times and schedules their completion timers.
    fn register_started(&mut self, ctx: &mut Ctx<'_>) {
        for s in self.scratch.drain(..) {
            if let Some(ExecutingJob::Own { start, .. } | ExecutingJob::Remote { start, .. }) =
                self.executing.get_mut(&s.id)
            {
                *start = Some(s.start);
            }
            ctx.timer_at(
                SimTime::new(s.finish.max(ctx.now().as_secs())),
                FedMessage::LocalJobFinished { job: s.id },
            );
        }
    }

    /// Reserves `job` on the local LRMS as `entry`: admission control
    /// doubles as a reservation, so a guarantee just given cannot be
    /// invalidated by a concurrent negotiation.
    fn reserve(&mut self, job: ClusterJob, entry: ExecutingJob, ctx: &mut Ctx<'_>) {
        let now = ctx.now().as_secs();
        self.executing.insert(job.id, entry);
        self.lrms.submit_into(job, now, &mut self.scratch);
        self.register_started(ctx);
    }

    /// Handles a job arriving from the local user population.
    fn on_job_arrival(&mut self, job: Job, ctx: &mut Ctx<'_>) {
        let ticket = Ticket {
            expected_local_response: completion_time(&job, &self.spec, &self.spec),
            expected_local_cost: self.charging.charge(&job, &self.spec),
            job,
            messages: 0,
            directory_messages: 0,
        };
        ctx.shared.metrics.observe(HistId::QueueDepth, self.lrms.queued_count() as f64);

        match self.mode {
            SchedulingMode::Independent => self.schedule_independent(ticket, ctx),
            SchedulingMode::FederationNoEconomy | SchedulingMode::Economy => {
                let pending = Box::new(PendingJob {
                    ticket,
                    next_rank: 1,
                    cursor: None,
                    retries: 0,
                    negotiation_start: 0.0,
                    candidate_service: 0.0,
                });
                self.try_candidates(pending, ctx);
            }
        }
    }

    /// Experiment 1 behaviour: accept iff the local LRMS can finish the job
    /// before its deadline; no federation, no messages.
    fn schedule_independent(&mut self, ticket: Ticket, ctx: &mut Ctx<'_>) {
        let job = &ticket.job;
        let service = completion_time(job, &self.spec, &self.spec);
        if self.admits(job.processors, service, job.absolute_deadline(), ctx.now().as_secs()) {
            let cost = self.charging.charge(job, &self.spec);
            self.accept_locally(ticket, service, cost, ctx);
        } else {
            self.record_rejection(ticket, ctx.shared);
        }
    }

    /// Resolves the `r`-th quote of `order` for one in-flight job,
    /// accounting its directory messages into `job_messages` and (with the
    /// simulated network time they represent, hops × latency) the ledger.
    ///
    /// The probe is served from this GFA's epoch-keyed quote cache when
    /// possible and otherwise streamed through the job's [`RankCursor`] —
    /// O(1) work per rank, with the routed open paid once per
    /// `(ordering, epoch)`.  Quotes, charges and telemetry are bit-identical
    /// to the paper's literal query-per-rank model
    /// ([`FederationDirectory::query_ranked`]), which the directory's
    /// cursor property tests assert on every backend.
    ///
    /// The second return value is `true` when the probe *faulted*: the node
    /// storing the entry crashed and no live replica could answer before a
    /// stabilization round repaired the overlay.  A faulted probe still
    /// charges its route, returns no quote, and is never memoised.
    fn probe_directory(
        &mut self,
        order: RankOrder,
        r: usize,
        cursor: &mut Option<RankCursor>,
        job_messages: &mut u32,
        now: f64,
        shared: &mut SharedState,
    ) -> (Option<Quote>, bool) {
        let traced = self.quote_cache.probe(&shared.directory, self.index, order, r, cursor);
        *job_messages += u32::try_from(traced.messages).unwrap_or(u32::MAX);
        let fault = shared.directory.take_fault();
        if traced.messages > 0 {
            shared.record(Charge::Directory(self.index, traced.messages));
            if shared.trace_armed() {
                // Lookups are accounted out-of-band (they never delay the
                // negotiation timeline), so the span renders the simulated
                // hops × latency interval the charge represents.
                let seconds = traced.messages as f64 * self.latency;
                shared.emit_span(SpanRecord {
                    gfa: self.index,
                    track: SpanTrack::Directory,
                    name: "probe",
                    start: SimTime::new(now),
                    end: SimTime::new(now + seconds),
                    detail: format!("rank {r}{}", if fault { " (faulted)" } else { "" }),
                });
            }
        }
        (traced.quote, fault)
    }

    /// Runs the DBC candidate loop until a negotiation is launched, the job
    /// is accepted locally, or the quotes are exhausted (rejection): the
    /// candidate stream feeds the static screen, and each offer is
    /// negotiated.
    fn try_candidates(&mut self, mut pending: Box<PendingJob>, ctx: &mut Ctx<'_>) {
        let now = ctx.now().as_secs();
        let directory_len = ctx.shared.directory.len();
        let local = Quote::from_spec(self.index, &self.spec);
        let budget_bound = self.mode == SchedulingMode::Economy;
        loop {
            let p = &mut *pending;
            let (cursor, messages) = (&mut p.cursor, &mut p.ticket.directory_messages);
            let candidate = next_candidate(
                self.mode,
                p.ticket.job.qos.strategy,
                local,
                &mut p.next_rank,
                directory_len,
                |order, r| self.probe_directory(order, r, cursor, messages, now, ctx.shared),
            );
            let quote = match candidate {
                Candidate::Quote(quote) => quote,
                Candidate::Exhausted => return self.record_rejection(pending.ticket, ctx.shared),
                Candidate::Faulted => return self.defer_after_fault(pending, ctx),
            };
            let job = &p.ticket.job;
            let verdict = screen(job, &quote, &self.spec, self.charging, budget_bound, now);
            if let Verdict::Offer { service, cost } = verdict {
                match self.negotiate(pending, quote.gfa, service, cost, ctx) {
                    Some(refused) => pending = refused,
                    None => return,
                }
            }
        }
    }

    /// Negotiates a screened offer (step 4) with candidate `gfa`: books the
    /// enquiry, then either answers it here or sends it and parks the job
    /// until the reply.  Returns the job if this GFA, negotiating with
    /// itself, refused it.
    fn negotiate(
        &mut self,
        mut pending: Box<PendingJob>,
        gfa: usize,
        service: f64,
        cost: f64,
        ctx: &mut Ctx<'_>,
    ) -> Option<Box<PendingJob>> {
        let now = ctx.now().as_secs();
        let job = &pending.ticket.job;
        let (id, processors, absolute_deadline) = (job.id, job.processors, job.absolute_deadline());
        if gfa == self.index {
            // Self-negotiation: the admission-control enquiry and answer
            // still count as two (local) messages, per the paper's per-job
            // message model, and resolve within the event as a
            // zero-duration round-trip on the negotiation track.
            let shared = &mut *ctx.shared;
            shared.record(Charge::Message(MessageType::Negotiate, self.index, self.index));
            shared.record(Charge::Message(MessageType::Reply, self.index, self.index));
            if shared.trace_armed() {
                shared.emit_span(SpanRecord {
                    gfa: self.index,
                    track: SpanTrack::Negotiation,
                    name: "negotiation",
                    start: SimTime::new(now),
                    end: SimTime::new(now),
                    detail: format!("{id} self"),
                });
            }
            pending.ticket.messages += 2;
            if !self.admits(processors, service, absolute_deadline, now) {
                return Some(pending);
            }
            self.accept_locally(pending.ticket, service, cost, ctx);
            return None;
        }
        pending.ticket.messages += 1;
        pending.candidate_service = service;
        pending.negotiation_start = now;
        let attempt = u32::try_from(pending.next_rank - 1).unwrap_or(u32::MAX);
        let origin = self.index;
        self.send_protocol(
            gfa,
            MessageType::Negotiate,
            |seq| FedMessage::Negotiate {
                job: id,
                origin,
                processors,
                service_time: service,
                cost,
                absolute_deadline,
                attempt,
                seq,
            },
            ctx,
        );
        self.own_jobs.insert(id, OwnJob::Pending(pending));
        None
    }

    /// Accepts a job onto the local LRMS (the origin is this GFA itself).
    fn accept_locally(&mut self, ticket: Ticket, service: f64, cost: f64, ctx: &mut Ctx<'_>) {
        let job = ClusterJob {
            id: ticket.job.id,
            processors: ticket.job.processors,
            service_time: service,
        };
        let concluded = ticket.concluded();
        self.reserve(
            job,
            ExecutingJob::Own {
                ticket,
                cost,
                start: None,
            },
            ctx,
        );
        ctx.shared.record(concluded);
    }

    /// The one admission test, for this GFA's own jobs and remote enquiries
    /// alike: whether it takes a job of `processors` PEs and `service`
    /// seconds at `now` and the local LRMS finishes it by
    /// `absolute_deadline`.  A departed GFA takes nothing.
    fn admits(&self, processors: u32, service: f64, absolute_deadline: f64, now: f64) -> bool {
        !self.departed
            && processors <= self.spec.processors
            && self.lrms.estimate_completion(processors, service, now) <= absolute_deadline + SLACK
    }

    /// Records a rejected job.
    fn record_rejection(&self, ticket: Ticket, shared: &mut SharedState) {
        shared.record(ticket.concluded());
        shared.record(Charge::Outcome(ticket.record(self.index, ExecutionOutcome::Rejected)));
    }

    /// Handles an incoming admission-control enquiry from another GFA: can
    /// `job` be reserved here and finish by `absolute_deadline`?
    fn on_negotiate(
        &mut self,
        job: ClusterJob,
        origin: usize,
        cost: f64,
        absolute_deadline: f64,
        attempt: u32,
        ctx: &mut Ctx<'_>,
    ) {
        let now = ctx.now().as_secs();
        // A departed GFA refuses every new enquiry (its quote is already
        // withdrawn, but negotiations launched before the departure can still
        // be in flight).
        let accept = self.admits(job.processors, job.service_time, absolute_deadline, now);
        if accept {
            let entry = ExecutingJob::Remote {
                origin,
                cost,
                start: None,
            };
            self.reserve(job, entry, ctx);
        }
        let candidate = self.index;
        self.send_protocol(
            origin,
            MessageType::Reply,
            |seq| FedMessage::NegotiateReply {
                job: job.id,
                accept,
                candidate,
                attempt,
                seq,
            },
            ctx,
        );
    }

    /// Handles the reply to one of our own negotiations.
    fn on_negotiate_reply(
        &mut self,
        job: JobId,
        accept: bool,
        candidate: usize,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(OwnJob::Pending(mut pending)) = self.own_jobs.take(job) else {
            panic!("negotiate reply for unknown pending job {job}");
        };
        pending.ticket.messages += 1;
        if ctx.shared.trace_armed() {
            ctx.shared.emit_span(SpanRecord {
                gfa: self.index,
                track: SpanTrack::Negotiation,
                name: "negotiation",
                start: SimTime::new(pending.negotiation_start),
                end: SimTime::new(ctx.now().as_secs()),
                detail: format!(
                    "{job} gfa-{candidate} {}",
                    if accept { "accepted" } else { "refused" }
                ),
            });
        }
        if accept {
            pending.ticket.messages += 1;
            let seq = self.send_protocol(
                candidate,
                MessageType::JobSubmission,
                |seq| FedMessage::JobDispatch { job, seq },
                ctx,
            );
            if ctx.shared.trace_armed() {
                ctx.shared.emit_flow(FlowRecord {
                    id: Self::flow_id(seq, self.index, candidate, job, false),
                    gfa: self.index,
                    track: SpanTrack::Negotiation,
                    time: ctx.now(),
                    start: true,
                });
            }
            self.own_jobs.insert(job, OwnJob::Awaiting(pending));
        } else {
            self.try_candidates(pending, ctx);
        }
    }

    /// Handles the arrival of an actual job we previously accepted.
    fn on_job_dispatch(&self, job: JobId, seq: u64, ctx: &mut Ctx<'_>) {
        assert!(
            self.executing.contains_key(&job),
            "job {job} dispatched to gfa-{} without a prior reservation",
            self.index
        );
        if ctx.shared.trace_armed() {
            // Consuming endpoint of the dispatch flow; the id composes the
            // same link + envelope sequence the producing side used.
            ctx.shared.emit_flow(FlowRecord {
                id: Self::flow_id(seq, job.origin, self.index, job, false),
                gfa: self.index,
                track: SpanTrack::Execution,
                time: ctx.now(),
                start: false,
            });
        }
    }

    /// Handles the completion of a job running on the local LRMS.
    fn on_local_job_finished(&mut self, job: JobId, ctx: &mut Ctx<'_>) {
        let now = ctx.now().as_secs();
        self.lrms.on_finished_into(job, now, &mut self.scratch);
        self.register_started(ctx);
        let entry = self
            .executing
            .remove(&job)
            .unwrap_or_else(|| panic!("finished job {job} has no executing entry"));
        let (origin, cost, start) = match entry {
            ExecutingJob::Own { cost, start, .. } => (self.index, cost, start),
            ExecutingJob::Remote { origin, cost, start } => (origin, cost, start),
        };
        {
            let shared = &mut *ctx.shared;
            shared.record(Charge::Payment(origin, self.index, cost));
            shared.metrics.observe(HistId::QueueDepth, self.lrms.queued_count() as f64);
            if shared.trace_armed() {
                shared.emit_span(SpanRecord {
                    gfa: self.index,
                    track: SpanTrack::Execution,
                    name: "execute",
                    start: SimTime::new(start.unwrap_or(now)),
                    end: SimTime::new(now),
                    detail: format!("{job} origin gfa-{origin}"),
                });
            }
        }

        if let ExecutingJob::Own { ticket, .. } = entry {
            let record = ticket.record(
                self.index,
                ExecutionOutcome::Completed {
                    executed_on: self.index,
                    start: start.unwrap_or(ticket.job.submit),
                    finish: now,
                    cost,
                },
            );
            ctx.shared.record(Charge::Outcome(record));
        } else {
            self.remote_jobs_processed += 1;
            let executed_on = self.index;
            let seq = self.send_protocol(
                origin,
                MessageType::JobCompletion,
                |seq| FedMessage::JobCompletion {
                    job,
                    executed_on,
                    finish: now,
                    cost,
                    seq,
                },
                ctx,
            );
            if ctx.shared.trace_armed() {
                ctx.shared.emit_flow(FlowRecord {
                    id: Self::flow_id(seq, self.index, origin, job, true),
                    gfa: self.index,
                    track: SpanTrack::Execution,
                    time: ctx.now(),
                    start: true,
                });
            }
        }
    }

    /// Handles the completion notification of one of our jobs that executed
    /// remotely.
    fn on_job_completion(
        &mut self,
        job: JobId,
        executed_on: usize,
        finish: f64,
        cost: f64,
        seq: u64,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(OwnJob::Awaiting(mut awaiting)) = self.own_jobs.take(job) else {
            panic!("completion message for unknown job {job}");
        };
        awaiting.ticket.messages += 1;
        let now = ctx.now();
        let shared = &mut *ctx.shared;
        if shared.trace_armed() {
            shared.emit_flow(FlowRecord {
                id: Self::flow_id(seq, executed_on, self.index, job, true),
                gfa: self.index,
                track: SpanTrack::Lifecycle,
                time: now,
                start: false,
            });
        }
        let ticket = &awaiting.ticket;
        shared.record(ticket.concluded());
        shared.record(Charge::Outcome(ticket.record(
            self.index,
            ExecutionOutcome::Completed {
                executed_on,
                start: finish - awaiting.candidate_service,
                finish,
                cost,
            },
        )));
    }

    /// A ranking probe faulted (see [`Gfa::probe_directory`]).  Graceful
    /// degradation: park the job and retry the *same* rank after an
    /// exponential-backoff delay — by then a stabilization round has
    /// usually evicted the crashed store and repaired its replicas — and
    /// once the retry budget is exhausted, treat the directory as
    /// unreachable and fall back to local-only scheduling.
    fn defer_after_fault(
        &mut self,
        mut pending: Box<PendingJob>,
        ctx: &mut Ctx<'_>,
    ) {
        ctx.shared.metrics.inc(self.index, Counter::LookupFaults);
        if self.repair == RepairMode::Reactive {
            // Reactive ring repair: evict the crashed store this lookup hit
            // right now (a targeted repair, charged as publish traffic) and
            // resume the loop at the same rank immediately instead of
            // waiting a backoff out.  Every successful repair evicts at
            // least one dead ring position, so the repair→retry recursion is
            // bounded by the number of crashed nodes; when there is nothing
            // left to evict the job falls through to the backoff path.
            let shared = &mut *ctx.shared;
            let messages = shared.directory.repair_faulted();
            if messages > 0 {
                shared.metrics.inc(self.index, Counter::ReactiveRepairs);
                shared.metrics.add(self.index, Counter::ReactiveRepairMessages, messages);
                shared.record(Charge::Publish(self.index, messages));
                return self.try_candidates(pending, ctx);
            }
        }
        if pending.retries < self.retry.max_retries {
            pending.retries += 1;
            let delay = self.retry.backoff_delay(pending.retries);
            let metrics = &mut ctx.shared.metrics;
            metrics.inc(self.index, Counter::FaultRetries);
            metrics.add_f(self.index, FSum::FaultWaitSeconds, delay);
            let job = pending.ticket.job.id;
            ctx.timer_at(
                SimTime::new(ctx.now().as_secs() + delay),
                FedMessage::DirectoryRetry { job },
            );
            self.own_jobs.insert(job, OwnJob::Pending(pending));
            return;
        }
        // Retry budget exhausted: schedule as if the federation were
        // unreachable (Experiment-1 behaviour), keeping the message
        // counters the job accumulated while the directory was still up.
        ctx.shared.metrics.inc(self.index, Counter::LocalFallbacks);
        self.schedule_independent(pending.ticket, ctx);
    }

    /// Resumes a job's DBC loop after its backoff delay elapsed.
    fn on_directory_retry(&mut self, job: JobId, ctx: &mut Ctx<'_>) {
        // Only a parked pending job schedules this retry, and nothing else
        // takes it out of the table meanwhile.
        if let Some(OwnJob::Pending(pending)) = self.own_jobs.take(job) {
            self.try_candidates(pending, ctx);
        }
    }

    /// Handles this GFA's scripted departure: a graceful, *permanent* leave
    /// through the directory's `node_depart` primitive — the quote is
    /// withdrawn, stored attribute entries are handed off to their new
    /// owners (routed removes and moves, charged as publish traffic) — and
    /// no new work is admitted.
    fn on_depart(&mut self, shared: &mut SharedState) {
        self.departed = true;
        self.retired = true;
        let messages = shared.directory.node_depart(self.index, true);
        shared.record(Charge::Publish(self.index, messages));
    }

    /// Handles a churn-drawn departure.  Graceful leaves behave like the
    /// scripted kind (withdraw, hand off, pay the publish traffic); crashes
    /// drop the node's stored entries cold and cost nothing — the overlay
    /// only finds out when lookups start faulting, and stabilization later
    /// evicts the dead node.
    fn on_churn_depart(&mut self, graceful: bool, shared: &mut SharedState) {
        if self.departed {
            return;
        }
        self.departed = true;
        let counter = if graceful { Counter::GracefulLeaves } else { Counter::Crashes };
        shared.metrics.inc(self.index, counter);
        let messages = shared.directory.node_depart(self.index, graceful);
        shared.record(Charge::Publish(self.index, messages));
    }

    /// Handles a churn-drawn rejoin: the GFA re-enters the overlay (a
    /// routed join plus any entry reconciliation) and republishes its quote
    /// at the current access price.  Scripted departures are permanent, so
    /// a retired GFA ignores the event.
    fn on_churn_join(&mut self, shared: &mut SharedState) {
        if self.retired || !self.departed {
            return;
        }
        self.departed = false;
        shared.metrics.inc(self.index, Counter::Rejoins);
        let join = shared.directory.node_join(self.index);
        let publish = shared.directory.subscribe(Quote::from_spec(self.index, &self.spec));
        shared.record(Charge::Publish(self.index, join + publish));
    }

    /// Drives one periodic stabilization round of the overlay: crashed
    /// nodes are evicted, displaced entries reconciled onto their new
    /// owners, and attribute-entry replicas repaired up to the configured
    /// factor.  The round's overlay messages are charged to this GFA's
    /// publish class (it is this round's round-robin driver).
    fn on_stabilize(&self, shared: &mut SharedState) {
        let messages = shared.directory.stabilize();
        shared.metrics.inc(self.index, Counter::StabilizationRounds);
        shared.metrics.add(self.index, Counter::StabilizationMessages, messages);
        shared.record(Charge::Publish(self.index, messages));
    }

    /// Handles a scripted re-pricing: republishes the access price through
    /// the directory's `update_price` primitive — under a distributed
    /// backend a routed *move* of the price entry, charged as publish
    /// traffic — and charges the new price for subsequently accepted jobs.
    fn on_reprice(&mut self, price: f64, shared: &mut SharedState) {
        if self.departed {
            return;
        }
        self.spec.price = price;
        let messages = shared.directory.update_price(self.index, price);
        shared.record(Charge::Publish(self.index, messages));
    }
}

impl Entity<FedMessage, SharedState> for Gfa {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.script.start(ctx);
    }

    fn on_event(&mut self, event: Event<FedMessage>, ctx: &mut Ctx<'_>) {
        // A scripted timer schedules its successor before it is handled.
        let arrival = self.script.on_delivery(&event.payload, ctx);
        // Duplicated deliveries are filtered here, before their payload can
        // take any semantic effect; the end-of-event invariants sweep still
        // runs so at-most-once-effect violations would be caught at the
        // exact event that caused them.
        if self.admit_envelope(&event, ctx.shared) {
            match event.payload {
                FedMessage::JobArrival => {
                    if let Some(job) = arrival {
                        self.on_job_arrival(job, ctx);
                    }
                }
                FedMessage::Negotiate {
                    job,
                    origin,
                    processors,
                    service_time,
                    cost,
                    absolute_deadline,
                    attempt,
                    seq: _,
                } => self.on_negotiate(
                    ClusterJob {
                        id: job,
                        processors,
                        service_time,
                    },
                    origin,
                    cost,
                    absolute_deadline,
                    attempt,
                    ctx,
                ),
                FedMessage::NegotiateReply {
                    job,
                    accept,
                    candidate,
                    attempt: _,
                    seq: _,
                } => self.on_negotiate_reply(job, accept, candidate, ctx),
                FedMessage::JobDispatch { job, seq } => self.on_job_dispatch(job, seq, ctx),
                FedMessage::JobCompletion {
                    job,
                    executed_on,
                    finish,
                    cost,
                    seq,
                } => self.on_job_completion(job, executed_on, finish, cost, seq, ctx),
                FedMessage::LocalJobFinished { job } => self.on_local_job_finished(job, ctx),
                FedMessage::Depart => self.on_depart(ctx.shared),
                FedMessage::Reprice { price } => self.on_reprice(price, ctx.shared),
                FedMessage::ChurnDepart { graceful } => self.on_churn_depart(graceful, ctx.shared),
                FedMessage::ChurnJoin => self.on_churn_join(ctx.shared),
                FedMessage::Stabilize => self.on_stabilize(ctx.shared),
                FedMessage::DirectoryRetry { job } => self.on_directory_retry(job, ctx),
            }
        }
        // Under the `invariants` feature every delivered event ends with a
        // sweep of the federation's global accounting invariants (currency
        // conservation, traffic/epoch monotonicity, at-most-once job
        // effects, dedup-window monotonicity) over the shared state.
        #[cfg(feature = "invariants")]
        {
            let now = ctx.now().as_secs();
            let crate::federation::SharedState {
                ref directory,
                ref bank,
                ref ledger,
                ref audit,
                ref jobs,
                ref net,
                ref mut invariants,
                ..
            } = *ctx.shared;
            let dedup_base = net.as_ref().map(crate::federation::NetState::dedup_base_sum);
            invariants.check(now, bank, ledger, directory, audit, jobs, dedup_base);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_workload::UserId;
    use SchedulingMode::{Economy, FederationNoEconomy};

    fn job(origin: usize, seq: usize) -> Job {
        Job::from_runtime(
            JobId { origin, seq },
            UserId { origin, local: 0 },
            0.0,
            1,
            100.0,
            500.0,
            0.10,
        )
    }

    fn ticket(origin: usize, seq: usize) -> Ticket {
        Ticket {
            job: job(origin, seq),
            messages: 0,
            directory_messages: 0,
            expected_local_response: 0.0,
            expected_local_cost: 0.0,
        }
    }

    fn placing(origin: usize, seq: usize) -> Box<PendingJob> {
        Box::new(PendingJob {
            ticket: ticket(origin, seq),
            next_rank: 1,
            cursor: None,
            retries: 0,
            negotiation_start: 0.0,
            candidate_service: 0.0,
        })
    }

    fn pending(origin: usize, seq: usize) -> OwnJob {
        OwnJob::Pending(placing(origin, seq))
    }

    fn awaiting(origin: usize, seq: usize) -> OwnJob {
        OwnJob::Awaiting(placing(origin, seq))
    }

    /// The id of a taken entry and whether it was pending.
    fn taken(entry: Option<OwnJob>) -> Option<(JobId, bool)> {
        entry.map(|entry| match entry {
            OwnJob::Pending(p) => (p.ticket.job.id, true),
            OwnJob::Awaiting(a) => (a.ticket.job.id, false),
        })
    }

    fn table(origin: usize, seqs: &[usize]) -> OwnJobs {
        let trace: Vec<Job> = seqs.iter().map(|&seq| job(origin, seq)).collect();
        OwnJobs::new(origin, &trace)
    }

    #[test]
    fn own_jobs_insert_take_and_reuse_slots() {
        let id = |seq| JobId { origin: 2, seq };
        let mut own = table(2, &[0, 1, 2]);
        own.insert(id(0), pending(2, 0));
        own.insert(id(1), awaiting(2, 1));
        assert_eq!(own.slots.len(), 2);
        assert_eq!(taken(own.take(id(0))), Some((id(0), true)));
        assert_eq!(taken(own.take(id(0))), None, "a taken entry is gone");
        // The freed slot is reused instead of growing the slab.
        own.insert(id(2), pending(2, 2));
        assert_eq!(own.slots.len(), 2);
        // A leg puts its job back under the same id, in either state.
        own.insert(id(0), awaiting(2, 0));
        assert_eq!(own.slots.len(), 3);
        assert_eq!(taken(own.take(id(1))), Some((id(1), false)));
        assert_eq!(taken(own.take(id(2))), Some((id(2), true)));
        assert_eq!(taken(own.take(id(0))), Some((id(0), false)));
        assert_eq!(own.free.len(), own.slots.len(), "every slot is free again");
    }

    #[test]
    fn own_jobs_index_a_sparse_trace_by_its_largest_seq() {
        // A replayed trace can skip records, so sequence numbers have gaps.
        let id = |seq| JobId { origin: 0, seq };
        let mut own = table(0, &[3, 7, 4]);
        assert_eq!(own.slot_of.len(), 8);
        own.insert(id(7), pending(0, 7));
        own.insert(id(3), awaiting(0, 3));
        assert_eq!(taken(own.take(id(5))), None, "a gap in the trace is a miss");
        assert_eq!(taken(own.take(id(7))), Some((id(7), true)));
        assert_eq!(taken(own.take(id(3))), Some((id(3), false)));
        assert!(table(0, &[]).slot_of.is_empty());
    }

    #[test]
    fn own_jobs_miss_on_unknown_ids() {
        let mut own = table(1, &[0, 1]);
        own.insert(JobId { origin: 1, seq: 1 }, pending(1, 1));
        // Past the trace, another origin's job with a stored seq, and an
        // in-range seq that was never stored.
        assert_eq!(taken(own.take(JobId { origin: 1, seq: 99 })), None);
        assert_eq!(taken(own.take(JobId { origin: 0, seq: 1 })), None);
        assert_eq!(taken(own.take(JobId { origin: 1, seq: 0 })), None);
        assert!(own.take(JobId { origin: 1, seq: 1 }).is_some(), "misses leave entries intact");
        assert!(table(1, &[]).take(JobId { origin: 1, seq: 0 }).is_none());
    }

    #[test]
    #[should_panic(expected = "is not an own job")]
    fn own_jobs_refuse_another_origins_job() {
        let mut own = table(1, &[0]);
        own.insert(JobId { origin: 0, seq: 0 }, pending(0, 0));
    }

    /// The origin the screen tests run from: 500 MIPS, 1 Gb/s, 2 G$.
    fn origin() -> ResourceSpec {
        ResourceSpec::new("origin", 8, 500.0, 1.0, 2.0)
    }

    /// A 4-PE job submitted at 0 that runs 100 s on [`origin`] (90 s of
    /// compute, 10 s of communication).
    fn dbc_job(strategy: Strategy, deadline: f64, budget: f64) -> Job {
        let mut job = Job::from_runtime(
            JobId { origin: 0, seq: 0 },
            UserId {
                origin: 0,
                local: 0,
            },
            0.0,
            4,
            100.0,
            500.0,
            0.10,
        );
        job.qos = grid_workload::Qos {
            budget,
            deadline,
            strategy,
        };
        job
    }

    fn quote(gfa: usize, processors: u32, mips: f64, price: f64) -> Quote {
        Quote {
            gfa,
            processors,
            mips,
            bandwidth: 1.0,
            price,
        }
    }

    /// Screens `job` per CPU-second on `quote` at `now`.
    fn screen_on(job: &Job, quote: &Quote, budget_bound: bool, now: f64) -> Verdict {
        screen(job, quote, &origin(), ChargingPolicy::PerCpuSecond, budget_bound, now)
    }

    /// Screens `job` on a copy of the origin at `now`, per CPU-second.
    fn screen_at(job: &Job, budget_bound: bool, now: f64) -> Verdict {
        screen_on(job, &quote(0, 8, 500.0, 2.0), budget_bound, now)
    }

    fn is_offer(verdict: Verdict) -> bool {
        matches!(verdict, Verdict::Offer { .. })
    }

    #[test]
    fn screen_offers_the_service_time_and_cost_on_the_quote() {
        let job = dbc_job(Strategy::Oft, 100.0, 1_000.0);
        let quote = quote(3, 4, 500.0, 2.0);
        let offer = |charging| screen(&job, &quote, &origin(), charging, true, 0.0);
        // 90 s of compute plus 10 s of communication; 2 G$ per CPU-second of
        // compute, or per 1,000 MI of the job's 180,000.
        let (service, cost) = (100.0, 180.0);
        assert_eq!(offer(ChargingPolicy::PerCpuSecond), Verdict::Offer { service, cost });
        let cost = 360.0;
        assert_eq!(offer(ChargingPolicy::PerKiloMi), Verdict::Offer { service, cost });
    }

    #[test]
    fn screen_passes_over_too_small_candidates_first() {
        // Three processors short of four, and also too slow and too dear.
        let job = dbc_job(Strategy::Oft, 100.0, 0.0);
        for budget_bound in [false, true] {
            let verdict = screen_on(&job, &quote(1, 3, 100.0, 50.0), budget_bound, 0.0);
            assert_eq!(verdict, Verdict::TooSmall);
        }
    }

    #[test]
    fn screen_deadline_holds_to_within_the_slack() {
        let job = dbc_job(Strategy::Ofc, 100.0, f64::INFINITY);
        // The service time meets the deadline exactly at `now = 0`, and
        // still at `now = SLACK`, where both sides equal 100 + SLACK.
        assert!(is_offer(screen_at(&job, true, 0.0)));
        assert!(is_offer(screen_at(&job, true, SLACK)));
        assert_eq!(screen_at(&job, true, 2.0 * SLACK), Verdict::TooSlow);
        // A slower candidate (190 s) misses the deadline even at `now = 0`,
        // before its price is looked at.
        let verdict = screen_on(&job, &quote(1, 8, 250.0, 50.0), true, 0.0);
        assert_eq!(verdict, Verdict::TooSlow);
    }

    #[test]
    fn screen_budget_holds_to_within_the_slack() {
        // The job costs 180 G$; `(180 - SLACK) + SLACK` is exactly 180.
        let at = |budget: f64| screen_at(&dbc_job(Strategy::Oft, 100.0, budget), true, 0.0);
        assert!(is_offer(at(180.0)));
        assert!(is_offer(at(180.0 - SLACK)));
        assert_eq!(at(180.0 - 2.0 * SLACK), Verdict::TooDear);
    }

    #[test]
    fn screen_is_too_dear_only_for_oft_in_economy_mode() {
        for strategy in [Strategy::Ofc, Strategy::Oft] {
            for budget_bound in [false, true] {
                let verdict = screen_at(&dbc_job(strategy, 100.0, 1.0), budget_bound, 0.0);
                if budget_bound && strategy == Strategy::Oft {
                    assert_eq!(verdict, Verdict::TooDear);
                } else {
                    assert!(is_offer(verdict), "{strategy:?} {budget_bound}");
                }
            }
        }
    }

    /// A scripted directory for the candidate stream: `ranked` answers both
    /// orders, each rank in `faults` faults once, and `probes` logs every
    /// probe.
    struct Scripted {
        ranked: Vec<Quote>,
        faults: Vec<usize>,
        probes: Vec<(RankOrder, usize)>,
    }

    impl Scripted {
        fn new(ranked: &[Quote], faults: &[usize]) -> Self {
            let (ranked, faults) = (ranked.to_vec(), faults.to_vec());
            Scripted { ranked, faults, probes: Vec::new() }
        }

        /// The next candidate at `rank` for a job of GFA 1, whose own quote
        /// is `quote(1, 8, 500.0, 2.0)`.
        fn next(&mut self, mode: SchedulingMode, by: Strategy, rank: &mut usize) -> Candidate {
            let local = quote(1, 8, 500.0, 2.0);
            next_candidate(mode, by, local, rank, self.ranked.len(), |order, r| {
                self.probes.push((order, r));
                if let Some(at) = self.faults.iter().position(|&f| f == r) {
                    self.faults.remove(at);
                    return (None, true);
                }
                (self.ranked.get(r - 1).copied(), false)
            })
        }
    }

    #[test]
    fn stream_yields_the_local_quote_first_without_economy() {
        let ranked = [quote(0, 8, 900.0, 4.0), quote(1, 8, 500.0, 2.0)];
        let (mut dir, mut rank) = (Scripted::new(&ranked, &[]), 1);
        let first = dir.next(FederationNoEconomy, Strategy::Ofc, &mut rank);
        assert_eq!(first, Candidate::Quote(quote(1, 8, 500.0, 2.0)));
        assert_eq!((rank, dir.probes.len()), (2, 0), "rank 1 never touches the directory");
        // Economy mode starts at the directory's first rank, in the
        // strategy's order.
        let orders = [(Strategy::Ofc, RankOrder::Cheapest), (Strategy::Oft, RankOrder::Fastest)];
        for (strategy, order) in orders {
            let (mut dir, mut rank) = (Scripted::new(&ranked, &[]), 1);
            assert_eq!(dir.next(Economy, strategy, &mut rank), Candidate::Quote(ranked[0]));
            assert_eq!((rank, dir.probes), (2, vec![(order, 1)]));
        }
    }

    #[test]
    fn stream_skips_the_own_quote_only_without_economy() {
        // The origin (GFA 1) ranks first in the directory.
        let ranked = [quote(1, 8, 500.0, 2.0), quote(0, 8, 400.0, 1.0)];
        let (mut dir, mut rank) = (Scripted::new(&ranked, &[]), 2);
        let next = dir.next(FederationNoEconomy, Strategy::Oft, &mut rank);
        assert_eq!(next, Candidate::Quote(ranked[1]));
        assert_eq!(rank, 4, "the skipped rank is consumed");
        assert_eq!(dir.probes, [(RankOrder::Fastest, 1), (RankOrder::Fastest, 2)]);
        // In economy mode the own quote is an ordinary candidate.
        let mut rank = 1;
        let next = dir.next(Economy, Strategy::Oft, &mut rank);
        assert_eq!((next, rank), (Candidate::Quote(ranked[0]), 2));
    }

    #[test]
    fn stream_retries_the_same_rank_after_a_fault() {
        let ranked = [quote(0, 8, 900.0, 1.0), quote(2, 8, 800.0, 2.0)];
        // Directory rank 2 is stream rank 2 with economy and 3 without.
        for (mode, rank_of_2) in [(Economy, 2), (FederationNoEconomy, 3)] {
            let (mut dir, mut rank) = (Scripted::new(&ranked, &[2]), rank_of_2);
            assert_eq!(dir.next(mode, Strategy::Oft, &mut rank), Candidate::Faulted);
            assert_eq!(rank, rank_of_2, "{mode:?} advanced past a fault");
            assert_eq!(dir.next(mode, Strategy::Oft, &mut rank), Candidate::Quote(ranked[1]));
            assert_eq!(rank, rank_of_2 + 1);
            assert_eq!(dir.probes, [(RankOrder::Fastest, 2), (RankOrder::Fastest, 2)]);
        }
    }

    #[test]
    fn stream_is_exhausted_past_the_directory() {
        let ranked = [quote(0, 8, 900.0, 1.0), quote(2, 8, 800.0, 2.0)];
        for (mode, past) in [(Economy, 3), (FederationNoEconomy, 4)] {
            let (mut dir, mut rank) = (Scripted::new(&ranked, &[]), past);
            assert_eq!(dir.next(mode, Strategy::Ofc, &mut rank), Candidate::Exhausted);
            assert_eq!(rank, past);
            assert!(dir.probes.is_empty(), "{mode:?} probed past the directory");
            // The last rank is still probed.
            let mut rank = past - 1;
            assert_eq!(dir.next(mode, Strategy::Ofc, &mut rank), Candidate::Quote(ranked[1]));
        }
        // A directory that answers no quote within its length is exhausted too.
        let mut rank = 1;
        let none = |_, _| (None, false);
        let next = next_candidate(Economy, Strategy::Ofc, ranked[0], &mut rank, 2, none);
        assert_eq!(next, Candidate::Exhausted);
    }
}
