//! `bench_perf` — the repo's tracked micro-benchmark baseline.
//!
//! Times the simulator's hot kernels and writes them as `BENCH_perf.json`;
//! `perf_gate` compares the medians of several such files against the
//! committed one:
//!
//! * **event queue**: events/s through the engine's queue in a hold model
//!   shaped like a negotiation-heavy run — every delivered event schedules
//!   the next, nine in ten a message one fixed latency out (a negotiation
//!   leg, which the queue keeps in its FIFO lane) and one in ten a timer
//!   scattered over the next 1,000 s (its heap).  The federation message
//!   enum is the payload.  The retained `BinaryHeap<Event>` layout runs the
//!   same schedule as an ungated comparison;
//! * **engine dispatch**: events/sec through `Simulation::run` end to end;
//! * **admission-control estimator**: ns/quote of the incremental
//!   availability profile vs. the retained replay oracle on a loaded
//!   128-job queue, for both LRMS policies, and ns per FCFS *accept cycle*
//!   (submit, on-time finish, quote) on a steady 128-job queue — the cycle
//!   keeps the quote profile across the submit and the finish instead of
//!   rebuilding it.  Every answer is asserted bit-identical to the replay
//!   oracle's;
//! * **directory ranking**: ns/rank of the streaming cursor (routed open
//!   vs. O(1) advance) against the query-per-rank oracle at n = 50, on both
//!   backends (ideal and the distributed MAAN range index) — quotes are
//!   asserted identical while measuring — and µs per ring membership change
//!   on MAAN: a graceful departure plus the rejoin (and re-publish) of the
//!   same GFA on a populated n = 200 ring, the overlay and walk-index
//!   maintenance a churned run pays per node cycle;
//! * **workload generation**: jobs/sec of building a replicated Experiment-5
//!   federation's synthetic traces, plus the streaming path: jobs/sec of
//!   draining a million-job synthetic stream without materialising a
//!   `Vec<Job>`, with the peak-memory proxy (bytes the stream holds vs. the
//!   eager allocation).
//!
//! Every timing is in *reference-host* seconds: just before it, the binary
//! times a fixed kernel that shares no code with the simulator (sorting
//! 2^18 xorshift `u64`s, best of three — the probe `perfbench` scales its
//! runs by) and scales the wall time to a host on which that kernel takes
//! 5 ms.  A neighbour that slows the whole host slows the probe as well.
//!
//! Usage: `bench_perf [--out PATH]` (default `BENCH_perf.json` in the
//! working directory).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use grid_bench::{bench_quote, populated_directory};
use grid_cluster::{ClusterJob, EasyBackfilling, LocalScheduler, SpaceSharedFcfs, StartedJob};
use grid_des::{BinaryHeapEventQueue, Context, Entity, EntityId, Event, EventKind, EventQueue, SimTime, Simulation};
use grid_directory::{AnyDirectory, FederationDirectory, MaanDirectory, RankOrder};
use grid_experiments::workloads::{replicated_workloads, scaled_stream_config, WorkloadOptions};
use grid_federation_core::{DirectoryBackend, FedMessage};
use grid_workload::{JobId, PopulationProfile};

fn parse_args() -> String {
    let mut out = "BENCH_perf.json".to_string();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--out" => out = argv.next().expect("--out needs a path"),
            other => panic!("unknown argument: {other}"),
        }
    }
    out
}

/// Times `f`, returning (seconds, result).
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_secs_f64(), result)
}

/// Time the probe kernel takes on a quiet reference host, seconds.
const REFERENCE_PROBE_SECS: f64 = 0.005;

/// Reference seconds per wall second on this host right now: the probe
/// kernel's reference time over its best-of-three time here.
fn host_speed() -> f64 {
    let kernel = (0..3)
        .map(|_| {
            timed(|| {
                let mut x = 0x9E37_79B9_7F4A_7C15_u64;
                let mut v: Vec<u64> = (0..1 << 18)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    })
                    .collect();
                v.sort_unstable();
                black_box(v[v.len() / 2])
            })
            .0
        })
        .fold(f64::INFINITY, f64::min);
    REFERENCE_PROBE_SECS / kernel
}

/// Best-of-`reps` time of `f` (which returns its own wall seconds), in
/// reference-host seconds by the probe taken just before it.
fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let speed = host_speed();
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min) * speed
}

fn queue_event(time: f64, kind: EventKind, i: usize) -> Event<FedMessage> {
    Event {
        time: SimTime::new(time),
        seq: 0,
        src: EntityId::new(0),
        dst: EntityId::new(0),
        kind,
        // The enum is sized by its widest variant whichever one this is, so
        // the moves cost what the federation's do.
        payload: FedMessage::LocalJobFinished {
            job: JobId { origin: i % 8, seq: i },
        },
    }
}

/// One-way latency of every message in the hold model.
const LEG_LATENCY: f64 = 0.05;

/// A timer `1..=1000` s after `now`, scattered like the job finishes and
/// arrivals a federation keeps pending.
fn scattered_timer(now: f64, i: usize) -> Event<FedMessage> {
    queue_event(now + 1.0 + ((i * 7919) % 1000) as f64, EventKind::Timer, i)
}

/// What the `i`-th delivered event schedules: nine times in ten a message
/// one fixed latency out (a negotiation leg), otherwise a scattered timer.
fn leg_event(now: f64, i: usize) -> Event<FedMessage> {
    if i % 10 == 0 {
        scattered_timer(now, i)
    } else {
        queue_event(now + LEG_LATENCY, EventKind::Message, i)
    }
}

/// Timers pending throughout the hold model.
const HOLD_PENDING: usize = 10_000;

/// Delivered events per hold-model pass.
const HOLD_STEPS: usize = 200_000;

/// The hold model on `q`: [`HOLD_PENDING`] scattered timers pending, then
/// `steps` steps that each pop the earliest event and push what it
/// schedules (see [`leg_event`]).  Returns the seconds the steps took.
fn hold_legs<Q>(
    q: &mut Q,
    steps: usize,
    push: impl Fn(&mut Q, Event<FedMessage>),
    pop: impl Fn(&mut Q) -> Option<Event<FedMessage>>,
) -> f64 {
    for i in 0..HOLD_PENDING {
        push(q, scattered_timer(0.0, i));
    }
    timed(|| {
        for i in 0..steps {
            let ev = pop(q).expect("the hold model keeps the queue populated");
            push(q, leg_event(ev.time.as_secs(), i));
        }
    })
    .0
}

/// Events/s of [`HOLD_STEPS`] steps of the hold model on the queues `new`
/// builds.
fn bench_hold_legs<Q>(
    new: impl Fn() -> Q,
    push: impl Fn(&mut Q, Event<FedMessage>) + Copy,
    pop: impl Fn(&mut Q) -> Option<Event<FedMessage>> + Copy,
) -> f64 {
    let secs = best_of(3, || hold_legs(&mut new(), HOLD_STEPS, push, pop));
    HOLD_STEPS as f64 / secs
}

/// Self-ticking entity measuring raw engine dispatch overhead.
struct Ticker {
    remaining: u64,
}
impl Entity<u32> for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.timer(1.0, 0);
    }
    fn on_event(&mut self, _event: Event<u32>, ctx: &mut Context<'_, u32>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.timer(1.0, 0);
        }
    }
}

fn bench_dispatch(events: u64) -> f64 {
    let secs = best_of(3, || {
        let mut sim = Simulation::new(1, ());
        sim.add_entity(Ticker { remaining: events });
        let (secs, delivered) = timed(|| {
            sim.run();
            sim.stats().events_delivered
        });
        assert_eq!(delivered, events + 1);
        secs
    });
    (events + 1) as f64 / secs
}

/// Builds a scheduler with a deep queue: 4 running jobs and 128 queued ones
/// (the acceptance criterion's "loaded 128-job queue").
fn loaded<S: LocalScheduler>(mut scheduler: S) -> S {
    let mut sink = Vec::new();
    for i in 0..132usize {
        scheduler.submit_into(
            ClusterJob {
                id: JobId { origin: 0, seq: i },
                processors: 32,
                service_time: 500.0 + (i % 37) as f64 * 13.0,
            },
            0.0,
            &mut sink,
        );
    }
    assert_eq!(scheduler.queued_count(), 128, "the quote bench expects a 128-job queue");
    scheduler
}

/// (incremental ns/quote, replay ns/quote), asserting bit-identical answers.
fn bench_estimator<S: LocalScheduler>(
    scheduler: &S,
    quotes: usize,
    oracle: impl Fn(&S, u32, f64, f64) -> f64,
) -> (f64, f64) {
    // Varying probe shapes, drawn before the clock starts, so each quote
    // answers a distinct question from one profile, as the DBC loop does.
    let probes: Vec<(u32, f64)> = (0..quotes)
        .map(|i| (1 + (i % 128) as u32, 50.0 + (i % 61) as f64 * 7.0))
        .collect();
    let mut incremental = vec![0.0f64; quotes];
    let inc_secs = best_of(3, || {
        let (secs, _) = timed(|| {
            for (slot, &(procs, service)) in incremental.iter_mut().zip(&probes) {
                *slot = scheduler.estimate_completion(procs, service, 10.0);
            }
        });
        secs
    });
    // The replay oracle is orders of magnitude slower; measure fewer quotes.
    let replay_quotes = (quotes / 8).max(64).min(quotes);
    let rep_secs = best_of(2, || {
        let (secs, _) = timed(|| {
            for (i, (fast, &(procs, service))) in incremental.iter().zip(&probes).enumerate().take(replay_quotes) {
                let slow = oracle(scheduler, procs, service, 10.0);
                assert_eq!(
                    slow.to_bits(),
                    fast.to_bits(),
                    "estimator diverged from the replay oracle at quote {i}"
                );
            }
        });
        secs
    });
    (
        inc_secs / quotes as f64 * 1e9,
        rep_secs / replay_quotes as f64 * 1e9,
    )
}

/// A 128-PE FCFS cluster of 4-PE jobs, 32 running and 128 queued: each
/// on-time finish starts exactly one queued job, so the queue stays at 128.
struct AcceptCycle {
    lrms: SpaceSharedFcfs,
    running: Vec<StartedJob>,
    now: f64,
    seq: usize,
}

impl AcceptCycle {
    const QUEUED: usize = 128;

    fn new() -> Self {
        let mut cycle = AcceptCycle {
            lrms: SpaceSharedFcfs::new(128),
            running: Vec::new(),
            now: 0.0,
            seq: 0,
        };
        for _ in 0..32 + Self::QUEUED {
            cycle.submit();
        }
        cycle
    }

    fn submit(&mut self) {
        let job = ClusterJob {
            id: JobId {
                origin: 0,
                seq: self.seq,
            },
            processors: 4,
            service_time: 100.0 + (self.seq * 37 % 97) as f64,
        };
        self.seq += 1;
        self.lrms.submit_into(job, self.now, &mut self.running);
    }

    /// One accept cycle: submit a job, finish the earliest running one on
    /// time, then quote with `quote`.
    fn step(&mut self, quote: impl Fn(&SpaceSharedFcfs, u32, f64, f64) -> f64) -> f64 {
        self.submit();
        let (idx, next) = self
            .running
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.finish.total_cmp(&b.1.finish))
            .map(|(idx, job)| (idx, *job))
            .expect("the cluster is never idle");
        self.running.swap_remove(idx);
        self.now = next.finish;
        self.lrms.on_finished_into(next.id, self.now, &mut self.running);
        quote(&self.lrms, 1 + (self.seq % 128) as u32, 500.0, self.now)
    }
}

/// ns per [`AcceptCycle::step`] over `cycles` steps, asserting every quote
/// bit-identical to the replay oracle's on the same states.
fn bench_accept_cycle(cycles: usize) -> f64 {
    let mut quotes = vec![0.0f64; cycles];
    let secs = best_of(3, || {
        let mut cycle = AcceptCycle::new();
        let (secs, _) = timed(|| {
            for slot in &mut quotes {
                *slot = cycle.step(SpaceSharedFcfs::estimate_completion);
            }
        });
        assert_eq!(cycle.lrms.queued_count(), AcceptCycle::QUEUED);
        secs
    });
    let mut oracle = AcceptCycle::new();
    for (i, fast) in quotes.iter().enumerate() {
        let slow = oracle.step(SpaceSharedFcfs::estimate_completion_replay);
        assert_eq!(
            slow.to_bits(),
            fast.to_bits(),
            "accept cycle {i} diverged from the replay oracle"
        );
    }
    secs / cycles as f64 * 1e9
}

/// The system size the directory acceptance criterion is stated at.
const DIRECTORY_N: usize = 50;

/// Per-backend ns/rank figures of the directory ranking paths.
struct DirectoryPerf {
    /// One fresh *routed* ranked query (the query-per-rank model's rank-1
    /// lookup: route establishment + head resolution).
    fresh_query_ns: f64,
    /// Cursor open + head yield (the cursor path's routed establishment).
    open_ns: f64,
    /// One cursor advance on an open cursor (the steady-state cost the DBC
    /// loop pays per additional candidate).
    advance_ns: f64,
    /// One fresh rank-`r` query with `r ≥ 2` (the oracle's cursor-advance
    /// charge executed from scratch).
    legacy_rank_ns: f64,
}

/// One timing protocol for every directory ranking path (best-of-3,
/// `black_box`'d accumulator), generic so each call monomorphizes — no
/// dispatch overhead pollutes the ns-level loop and the four measured paths
/// can never drift onto different protocols.
fn measure_ranks<F: FnMut(usize) -> usize>(iters: usize, mut op: F) -> f64 {
    best_of(3, || {
        let (secs, acc) = timed(|| {
            let mut acc = 0usize;
            for i in 0..iters {
                acc += op(i);
            }
            acc
        });
        black_box(acc);
        secs
    })
}

/// Measures the ranking paths of one backend at size `n`, asserting along
/// the way that the cursor resolves exactly what the oracle resolves.
fn bench_directory(backend: DirectoryBackend, n: usize, iters: usize) -> DirectoryPerf {
    let dir = populated_directory(backend, n);

    // Correctness while measuring: one full streamed sweep vs. the oracle.
    let mut check = dir.open_cursor(0, RankOrder::Cheapest);
    for r in 1..=n {
        assert_eq!(
            dir.cursor_next(&mut check).quote,
            dir.query_ranked(0, RankOrder::Cheapest, r).quote,
            "cursor diverged from the query-per-rank oracle at rank {r}"
        );
    }

    let fresh_secs = measure_ranks(iters, |i| {
        dir.query_ranked(i % n, RankOrder::Cheapest, 1).quote.map_or(0, |q| q.gfa)
    });
    let legacy_secs = measure_ranks(iters, |i| {
        dir.query_ranked(i % n, RankOrder::Cheapest, 2 + (i % (n - 1))).quote.map_or(0, |q| q.gfa)
    });
    let open_secs = measure_ranks(iters, |i| {
        let mut cursor = dir.open_cursor(i % n, RankOrder::Cheapest);
        dir.cursor_next(&mut cursor).quote.map_or(0, |q| q.gfa)
    });
    // Steady-state advances: one long-lived cursor, repositioned (O(1))
    // instead of re-opened when it runs off the end, so every measured op is
    // a real in-range advance.
    let mut cursor = dir.open_cursor(0, RankOrder::Cheapest);
    let _ = dir.cursor_next(&mut cursor);
    let advance_secs = measure_ranks(iters, |_| {
        if cursor.next_rank() > n {
            cursor.seek(2);
        }
        dir.cursor_next(&mut cursor).quote.map_or(0, |q| q.gfa)
    });

    let per_op = |secs: f64| secs / iters as f64 * 1e9;
    DirectoryPerf {
        fresh_query_ns: per_op(fresh_secs),
        open_ns: per_op(open_secs),
        advance_ns: per_op(advance_secs),
        legacy_rank_ns: per_op(legacy_secs),
    }
}

/// The ring size the membership row is measured at: the whole-run churn
/// workload's federation size.
const MEMBERSHIP_N: usize = 200;

/// µs per graceful `node_depart` + `node_join` pair (plus the rejoined
/// GFA's re-publish) on a populated MAAN ring of `n`, cycling through the
/// GFAs.  Checks along the way that the patched overlay equals a rebuild
/// and that every quote is back after each pair.
fn bench_membership(n: usize, pairs: usize) -> f64 {
    let AnyDirectory::Maan(mut dir) = populated_directory(DirectoryBackend::Maan, n) else {
        unreachable!("the MAAN backend builds a MAAN directory")
    };
    let cycle = |dir: &mut MaanDirectory| {
        let mut messages = 0u64;
        for i in 0..pairs {
            let gfa = (i * 7) % n;
            messages += dir.node_depart(gfa, true);
            messages += dir.node_join(gfa);
            messages += dir.subscribe(bench_quote(gfa, n));
        }
        messages
    };
    let _ = cycle(&mut dir);
    assert!(*dir.overlay() == dir.overlay().rebuilt(), "patched ring differs from a rebuild");
    assert_eq!(dir.len(), n, "every departed GFA rejoined and re-published");
    let secs = best_of(3, || timed(|| black_box(cycle(&mut dir))).0);
    secs / pairs as f64 * 1e6
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.2}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let out = parse_args();
    let (dispatch_events, quotes, accept_cycles, ranks) = (200_000u64, 20_000usize, 20_000usize, 500_000usize);
    let membership_pairs = 2_000usize;

    eprintln!("[1/5] event queue layouts ({HOLD_STEPS} hold steps over {HOLD_PENDING} pending timers, FedMessage payload)…");
    let dary_eps = bench_hold_legs(|| EventQueue::with_capacity(HOLD_PENDING), EventQueue::push, EventQueue::pop);
    let binary_eps = bench_hold_legs(
        || BinaryHeapEventQueue::with_capacity(HOLD_PENDING),
        BinaryHeapEventQueue::push,
        BinaryHeapEventQueue::pop,
    );

    eprintln!("[2/5] engine dispatch ({dispatch_events} timer events)…");
    let dispatch_eps = bench_dispatch(dispatch_events);

    eprintln!("[3/5] admission-control estimator ({quotes} quotes and {accept_cycles} accept cycles, 128-job queue)…");
    let fcfs = loaded(SpaceSharedFcfs::new(128));
    let (fcfs_inc, fcfs_rep) =
        bench_estimator(&fcfs, quotes, |s, p, t, now| s.estimate_completion_replay(p, t, now));
    let easy = loaded(EasyBackfilling::new(128));
    let (easy_inc, easy_rep) =
        bench_estimator(&easy, quotes, |s, p, t, now| s.estimate_completion_replay(p, t, now));
    let accept_cycle_ns = bench_accept_cycle(accept_cycles);

    eprintln!(
        "[4/5] directory ranking ({ranks} ranks, n = {DIRECTORY_N}, both backends) and MAAN membership \
         ({membership_pairs} depart/join pairs, n = {MEMBERSHIP_N})…"
    );
    let dir_ideal = bench_directory(DirectoryBackend::Ideal, DIRECTORY_N, ranks);
    let dir_maan = bench_directory(DirectoryBackend::Maan, DIRECTORY_N, ranks);
    let membership_us = bench_membership(MEMBERSHIP_N, membership_pairs);

    eprintln!("[5/5] workload generation (replicated exp5 federation)…");
    let workload_size = 20usize;
    let workload_profile = PopulationProfile::new(50);
    let workload_options = WorkloadOptions::quick();
    let mut workload_jobs = 0usize;
    let workload_secs = best_of(5, || {
        let (secs, setup) =
            timed(|| replicated_workloads(workload_size, workload_profile, &workload_options));
        workload_jobs = setup.total_jobs();
        black_box(&setup);
        secs
    });
    let workload_jobs_per_sec = workload_jobs as f64 / workload_secs;

    // Streaming path: drain a million-job synthetic stream through a
    // counting consumer without ever materialising the `Vec<Job>`.  Peak
    // working memory is the stream's three scalar calibration arrays
    // (20 B/job) instead of `size_of::<Job>()` per job, which is what lets
    // the drain run flat.
    let stream_jobs = 1_000_000usize;
    eprintln!("    streaming generation ({stream_jobs} jobs, no materialisation)…");
    let stream_cfg = scaled_stream_config(0, stream_jobs, &workload_options);
    let stream_secs = best_of(5, || {
        let (secs, drained) = timed(|| {
            let mut drained = 0usize;
            let mut bits = 0u64;
            for job in stream_cfg.stream() {
                bits ^= job.submit.to_bits();
                drained += 1;
            }
            black_box(bits);
            drained
        });
        assert_eq!(drained, stream_jobs, "the stream must yield every requested job");
        secs
    });
    let stream_jobs_per_sec = stream_jobs as f64 / stream_secs;
    let stream_peak_bytes = stream_jobs * (8 + 4 + 8);
    let eager_peak_bytes = stream_jobs * std::mem::size_of::<grid_workload::Job>();

    let fcfs_speedup = fcfs_rep / fcfs_inc;
    let easy_speedup = easy_rep / easy_inc;
    eprintln!(
        "event queue: EventQueue (FIFO lane + 4-ary heap of whole events) {:.0} ev/s vs BinaryHeap {:.0} ev/s ({:.2}x)",
        dary_eps,
        binary_eps,
        dary_eps / binary_eps
    );
    eprintln!("dispatch: {dispatch_eps:.0} ev/s");
    eprintln!(
        "estimator: FCFS {fcfs_inc:.1} ns/quote vs replay {fcfs_rep:.0} ns/quote ({fcfs_speedup:.1}x); \
         EASY {easy_inc:.1} ns/quote vs replay {easy_rep:.0} ns/quote ({easy_speedup:.1}x); \
         FCFS accept cycle {accept_cycle_ns:.1} ns"
    );
    let backends = [("ideal", &dir_ideal, None), ("maan", &dir_maan, Some(membership_us))];
    for (label, perf, _) in backends {
        eprintln!(
            "directory[{label}]: fresh routed query {:.1} ns vs cursor open {:.1} ns, \
             advance {:.1} ns ({:.1}x cheaper than a fresh query), legacy rank-r {:.1} ns",
            perf.fresh_query_ns,
            perf.open_ns,
            perf.advance_ns,
            perf.fresh_query_ns / perf.advance_ns,
            perf.legacy_rank_ns,
        );
    }
    eprintln!("directory[maan]: depart + rejoin {membership_us:.2} µs at n = {MEMBERSHIP_N}");
    eprintln!(
        "workload generation: {workload_jobs} jobs (n = {workload_size}) in {workload_secs:.4}s \
         = {workload_jobs_per_sec:.0} jobs/s"
    );
    eprintln!(
        "workload streaming: {stream_jobs} jobs in {stream_secs:.3}s = {stream_jobs_per_sec:.0} jobs/s, \
         peak {stream_peak_bytes} B streamed vs {eager_peak_bytes} B eager ({:.2}x)",
        eager_peak_bytes as f64 / stream_peak_bytes as f64
    );
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": 2,");
    let _ = writeln!(json, "  \"event_queue\": {{");
    let _ = writeln!(json, "    \"payload\": \"FedMessage\",");
    let _ = writeln!(json, "    \"pending\": {HOLD_PENDING},");
    let _ = writeln!(json, "    \"events\": {HOLD_STEPS},");
    let _ = writeln!(json, "    \"dary_index_heap_events_per_sec\": {},", json_num(dary_eps));
    let _ = writeln!(json, "    \"binary_heap_events_per_sec\": {},", json_num(binary_eps));
    let _ = writeln!(json, "    \"dary_vs_binary_speedup\": {}", json_num(dary_eps / binary_eps));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"dispatch\": {{");
    let _ = writeln!(json, "    \"events\": {dispatch_events},");
    let _ = writeln!(json, "    \"events_per_sec\": {}", json_num(dispatch_eps));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"estimator\": {{");
    let _ = writeln!(json, "    \"queue_depth\": 128,");
    let _ = writeln!(json, "    \"quotes\": {quotes},");
    let _ = writeln!(json, "    \"fcfs_incremental_ns_per_quote\": {},", json_num(fcfs_inc));
    let _ = writeln!(json, "    \"fcfs_replay_ns_per_quote\": {},", json_num(fcfs_rep));
    let _ = writeln!(json, "    \"fcfs_speedup\": {},", json_num(fcfs_speedup));
    let _ = writeln!(json, "    \"easy_incremental_ns_per_quote\": {},", json_num(easy_inc));
    let _ = writeln!(json, "    \"easy_replay_ns_per_quote\": {},", json_num(easy_rep));
    let _ = writeln!(json, "    \"easy_speedup\": {},", json_num(easy_speedup));
    let _ = writeln!(json, "    \"accept_cycles\": {accept_cycles},");
    let _ = writeln!(json, "    \"fcfs_accept_cycle_ns\": {}", json_num(accept_cycle_ns));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"directory\": {{");
    let _ = writeln!(json, "    \"n\": {DIRECTORY_N},");
    let _ = writeln!(json, "    \"ranks\": {ranks},");
    for (i, (label, perf, membership_us)) in backends.iter().enumerate() {
        let _ = writeln!(json, "    \"{label}\": {{");
        if let Some(us) = membership_us {
            let _ = writeln!(json, "      \"membership_n\": {MEMBERSHIP_N},");
            let _ = writeln!(json, "      \"membership_us\": {},", json_num(*us));
        }
        let _ = writeln!(json, "      \"fresh_query_ns\": {},", json_num(perf.fresh_query_ns));
        let _ = writeln!(json, "      \"open_ns\": {},", json_num(perf.open_ns));
        let _ = writeln!(json, "      \"advance_ns\": {},", json_num(perf.advance_ns));
        let _ = writeln!(json, "      \"legacy_rank_ns\": {},", json_num(perf.legacy_rank_ns));
        let _ = writeln!(
            json,
            "      \"fresh_vs_advance_speedup\": {}",
            json_num(perf.fresh_query_ns / perf.advance_ns)
        );
        let _ = writeln!(json, "    }}{}", if i + 1 < backends.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"workload\": {{");
    let _ = writeln!(json, "    \"federation_size\": {workload_size},");
    let _ = writeln!(json, "    \"jobs\": {workload_jobs},");
    let _ = writeln!(json, "    \"jobs_per_sec\": {},", json_num(workload_jobs_per_sec));
    let _ = writeln!(json, "    \"stream_jobs\": {stream_jobs},");
    let _ = writeln!(json, "    \"stream_jobs_per_sec\": {},", json_num(stream_jobs_per_sec));
    let _ = writeln!(json, "    \"stream_peak_bytes\": {stream_peak_bytes},");
    let _ = writeln!(json, "    \"eager_peak_bytes\": {eager_peak_bytes}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    std::fs::write(&out, json).expect("failed to write the benchmark JSON");
    eprintln!("wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_hold_model_sends_nine_legs_in_ten_to_the_lane() {
        let mut q = EventQueue::with_capacity(HOLD_PENDING);
        hold_legs(&mut q, 1_000, EventQueue::push, EventQueue::pop);
        assert_eq!(q.lane_pushed(), 900);
        assert_eq!(q.len(), HOLD_PENDING);
    }

    #[test]
    fn the_accept_cycle_keeps_its_queue_and_matches_the_replay_oracle() {
        let (mut fast, mut slow) = (AcceptCycle::new(), AcceptCycle::new());
        for i in 0..200 {
            let quote = fast.step(SpaceSharedFcfs::estimate_completion);
            assert_eq!(quote.to_bits(), slow.step(SpaceSharedFcfs::estimate_completion_replay).to_bits(), "cycle {i}");
            assert_eq!(fast.lrms.queued_count(), AcceptCycle::QUEUED);
        }
    }

    #[test]
    fn the_membership_cycle_keeps_the_ring_patched_and_populated() {
        // `bench_membership` asserts both after a warm-up cycle.
        assert!(bench_membership(20, 40) > 0.0);
    }
}
