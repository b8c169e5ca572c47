//! Outside-in timings of each layer's public entry points.
//!
//! The traced run tells how long each event type's handler took; these
//! microbenchmarks tell what one call into a layer costs at the workload's
//! own sizes, so that the handler time can be split across the layers by
//! multiplying each cost by the call count the run reported.  Nothing here
//! reaches inside a crate: every timed call is public API.

use std::hint::black_box;
use std::time::Instant;

use grid_cluster::{ClusterJob, LocalScheduler, ResourceSpec, SpaceSharedFcfs};
use grid_des::{
    DedupWindow, EntityId, Event, EventKind, EventQueue, LinkFaults, NetworkFaultConfig, SimTime,
};
use grid_directory::{AnyDirectory, FederationDirectory, Quote, QuoteCache, RankCursor, RankOrder};
use grid_federation_core::{
    AuditLedger, DirectoryBackend, FedMessage, HistId, MessageLedger, MessageType, MetricsRegistry,
};
use grid_workload::JobId;

/// A running wall clock: the benchmark's only clock read.
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the clock.
    #[must_use]
    pub fn start() -> Stopwatch {
        // fedlint: allow(wall-clock) — the benchmark's measurements are wall
        // time by definition; no simulation reads this clock.
        Stopwatch(Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Wall-clock seconds taken by `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let clock = Stopwatch::start();
    let result = f();
    (clock.secs(), result)
}

/// Time the calibration kernel takes on a quiet reference host (a 2-vCPU
/// 2.1 GHz VM), seconds.
const REFERENCE_KERNEL_SECS: f64 = 0.005;

/// How much slower than the reference host this host runs right now: the
/// factor that turns a wall time measured next to this probe into
/// reference seconds.
///
/// The probe times a fixed kernel — sorting 2^18 pseudo-random `u64`s,
/// best of three — that shares no code with the federation, so a change to
/// the program cannot move it.  On a shared host, contention slows every
/// run for tens of seconds at a time; scaling each run by the probe taken
/// just before it removes most of that from the end-to-end figures.
#[must_use]
pub fn host_speed() -> f64 {
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
    REFERENCE_KERNEL_SECS / kernel
}

/// Nanoseconds per call of `op` over `iters` calls, best of three passes.
fn ns_per_op(iters: usize, mut op: impl FnMut(usize) -> u64) -> f64 {
    let best = (0..3)
        .map(|_| {
            timed(|| {
                let mut acc = 0u64;
                for i in 0..iters {
                    acc = acc.wrapping_add(op(i));
                }
                black_box(acc)
            })
            .0
        })
        .fold(f64::INFINITY, f64::min);
    best / iters as f64 * 1e9
}

/// Most queue operations the event-queue probe performs, bounding its time.
const QUEUE_OPS_CAP: u64 = 2_000_000;

fn negotiate(i: usize) -> FedMessage {
    FedMessage::Negotiate {
        job: JobId {
            origin: i % 200,
            seq: i,
        },
        origin: i % 200,
        processors: 8,
        service_time: 600.0,
        cost: 1.0,
        absolute_deadline: 1e6,
        attempt: 1,
        seq: 0,
    }
}

fn event_at(time: f64, i: usize) -> Event<FedMessage> {
    Event {
        time: SimTime::new(time),
        seq: 0,
        src: EntityId::new(0),
        dst: EntityId::new(0),
        kind: EventKind::Message,
        payload: negotiate(i),
    }
}

/// Nanoseconds per push+pop of the engine's event queue, over `events`
/// deliveries (capped), in the classic hold model: every pop is followed by
/// one push.  The queue holds `depth` far-future events, standing for the
/// job arrivals a GFA schedules up front, and most pushes land one network
/// latency ahead, as negotiation messages do; every 20th lands anywhere in
/// the trace, as job completions do.
#[must_use]
pub fn queue_ns_per_event(depth: usize, events: u64) -> f64 {
    const TRACE_SECS: usize = 172_800;
    let depth = depth.max(1);
    let ops = events.clamp(1, QUEUE_OPS_CAP) as usize;
    let mut queue: EventQueue<FedMessage> = EventQueue::with_capacity(depth + 1);
    for i in 0..depth {
        queue.push(event_at(((i * 7919) % TRACE_SECS) as f64, i));
    }
    ns_per_op(ops, |i| {
        let next = queue.pop().expect("the hold model never drains the queue");
        let delay = if i % 20 == 0 {
            ((i * 2_654_435_761) % TRACE_SECS) as f64
        } else {
            0.05
        };
        queue.push(event_at(next.time.as_secs() + delay, i));
        u64::from(next.dst.index() == 0)
    })
}

/// Nanoseconds per `estimate_completion` quote on a cluster shaped like
/// `spec` with `depth` jobs queued behind four running ones.
#[must_use]
pub fn quote_ns(spec: &ResourceSpec, depth: usize) -> f64 {
    let mut lrms = SpaceSharedFcfs::new(spec.processors);
    let width = (spec.processors / 4).max(1);
    let mut started = Vec::new();
    for i in 0..depth + 4 {
        let job = ClusterJob {
            id: JobId { origin: 0, seq: i },
            processors: width,
            service_time: 500.0 + (i % 37) as f64 * 13.0,
        };
        lrms.submit_into(job, 0.0, &mut started);
    }
    ns_per_op(20_000, |i| {
        let procs = 1 + (i as u32 % spec.processors);
        lrms.estimate_completion(procs, 50.0 + (i % 61) as f64 * 7.0, 10.0)
            .to_bits()
    })
}

/// Per-call costs of the directory's read and write paths at one backend
/// and size.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectoryCosts {
    /// Routed cursor open plus head yield, ns.
    pub open_ns: f64,
    /// One in-range cursor advance, ns.
    pub advance_ns: f64,
    /// One quote-cache hit (replayed charge included), ns.
    pub probe_hit_ns: f64,
    /// One `update_price`, µs.
    pub update_price_us: f64,
    /// One graceful `node_depart` (entry handoff), µs.
    pub node_depart_us: f64,
    /// One crash `node_depart`, µs.
    pub node_crash_us: f64,
    /// One `node_join` plus the quote re-publish a rejoining GFA does, µs.
    pub node_join_us: f64,
    /// One stabilization round after a departure, ms.
    pub stabilize_ms: f64,
}

/// Membership cycles the directory probe times (depart, stabilize, join).
const MEMBERSHIP_CYCLES: usize = 48;

fn populated(
    backend: DirectoryBackend,
    resources: &[ResourceSpec],
    seed: u64,
    k: usize,
) -> AnyDirectory {
    let mut dir = backend.build(resources.len(), seed);
    dir.set_replication(k);
    for (i, spec) in resources.iter().enumerate() {
        let _ = dir.subscribe(Quote::from_spec(i, spec));
    }
    let _ = dir.stabilize();
    dir
}

/// Times the directory entry points on `backend` holding `resources`, with
/// replication factor `k`.
#[must_use]
pub fn directory_costs(
    backend: DirectoryBackend,
    resources: &[ResourceSpec],
    seed: u64,
    k: usize,
) -> DirectoryCosts {
    let n = resources.len();
    let mut dir = populated(backend, resources, seed, k);
    let ranks = 50_000;

    let open_ns = ns_per_op(ranks, |i| {
        let mut cursor = dir.open_cursor(i % n, RankOrder::Cheapest);
        dir.cursor_next(&mut cursor).messages
    });
    let mut cursor = dir.open_cursor(0, RankOrder::Cheapest);
    let _ = dir.cursor_next(&mut cursor);
    let advance_ns = ns_per_op(ranks, |_| {
        if cursor.next_rank() > n {
            cursor.seek(2);
        }
        dir.cursor_next(&mut cursor).messages
    });
    let mut cache = QuoteCache::new();
    let mut slot: Option<RankCursor> = None;
    for r in 1..=8 {
        let _ = cache.probe(&dir, 0, RankOrder::Cheapest, r, &mut slot);
    }
    let probe_hit_ns = ns_per_op(ranks, |i| {
        cache
            .probe(&dir, 0, RankOrder::Cheapest, 1 + i % 8, &mut slot)
            .messages
    });

    let updates = 4_000;
    let update_price_us = ns_per_op(updates, |i| {
        let gfa = i % n;
        let factor = if (i / n) % 2 == 0 { 1.05 } else { 1.0 };
        dir.update_price(gfa, resources[gfa].price * factor)
    }) / 1e3;

    // Every cycle rejoins the node it removed, so each pass starts from the
    // same membership; the fastest of three passes damps host noise as
    // `ns_per_op` does.
    let [depart, crash, join, stabilize] = (0..3)
        .map(|_| membership_pass(&mut dir, resources))
        .fold([f64::INFINITY; 4], |best, pass| {
            std::array::from_fn(|i| best[i].min(pass[i]))
        });
    let half = (MEMBERSHIP_CYCLES / 2) as f64;
    DirectoryCosts {
        open_ns,
        advance_ns,
        probe_hit_ns,
        update_price_us,
        node_depart_us: depart / half * 1e6,
        node_crash_us: crash / half * 1e6,
        node_join_us: join / MEMBERSHIP_CYCLES as f64 * 1e6,
        stabilize_ms: stabilize / MEMBERSHIP_CYCLES as f64 * 1e3,
    }
}

/// One pass of [`MEMBERSHIP_CYCLES`] depart → stabilize → rejoin cycles,
/// alternating graceful leaves and crashes: total seconds spent in graceful
/// departures, crashes, joins (with the re-subscribe) and stabilizations.
fn membership_pass(dir: &mut AnyDirectory, resources: &[ResourceSpec]) -> [f64; 4] {
    let n = resources.len();
    let mut totals = [0.0; 4];
    for cycle in 0..MEMBERSHIP_CYCLES {
        let gfa = (cycle * 37) % n;
        let graceful = cycle % 2 == 0;
        let (secs, _) = timed(|| dir.node_depart(gfa, graceful));
        totals[usize::from(!graceful)] += secs;
        totals[3] += timed(|| dir.stabilize()).0;
        totals[2] +=
            timed(|| dir.node_join(gfa) + dir.subscribe(Quote::from_spec(gfa, &resources[gfa]))).0;
    }
    totals
}

/// Per-call costs of the three accounting stores, ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccountingCosts {
    /// `MessageLedger::record`.
    pub ledger_ns: f64,
    /// `AuditLedger::record_message` (one chained fold).
    pub audit_ns: f64,
    /// `MetricsRegistry::observe` (one histogram observation).
    pub observe_ns: f64,
}

/// Times the accounting stores' `record*` calls for `n` GFAs.
#[must_use]
pub fn accounting_costs(n: usize) -> AccountingCosts {
    let iters = 200_000;
    let mut ledger = MessageLedger::new(n);
    let ledger_ns = ns_per_op(iters, |i| {
        ledger.record(MessageType::Negotiate, i % n, (i * 7) % n);
        1
    });
    let mut audit = AuditLedger::new(n);
    let audit_ns = ns_per_op(iters, |i| {
        audit.record_message(MessageType::Reply, i % n, (i * 7) % n);
        1
    });
    let mut registry = MetricsRegistry::new(n);
    let observe_ns = ns_per_op(iters, |i| {
        registry.observe(HistId::QueueDepth, (i % 97) as f64);
        1
    });
    black_box((
        ledger.total_messages(),
        audit.entries(),
        registry.hist(HistId::QueueDepth).count(),
    ));
    AccountingCosts {
        ledger_ns,
        audit_ns,
        observe_ns,
    }
}

/// Per-call costs of the unreliable transport, ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCosts {
    /// `LinkFaults::plan` under the moderate fault preset.
    pub plan_ns: f64,
    /// `DedupWindow::admit` of an in-order sequence number.
    pub admit_ns: f64,
}

/// Times the transport's per-envelope calls.
#[must_use]
pub fn net_costs(seed: u64) -> NetCosts {
    let iters = 200_000;
    let cfg = NetworkFaultConfig::moderate();
    let mut link = LinkFaults::new(seed, 0x0BAD_11E7, 0);
    let plan_ns = ns_per_op(iters, |_| u64::from(link.plan(&cfg).retransmissions));
    let mut window = DedupWindow::default();
    let mut next = 0u64;
    let admit_ns = ns_per_op(iters, |i| {
        // Every 100th envelope replays its predecessor, as a duplicate would.
        if i % 100 != 0 {
            next += 1;
        }
        u64::from(window.admit(next))
    });
    NetCosts { plan_ns, admit_ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_cluster::replicated_resources;

    #[test]
    fn probes_report_positive_finite_costs() {
        let resources: Vec<ResourceSpec> = replicated_resources(16)
            .into_iter()
            .map(|r| r.spec)
            .collect();
        assert!(queue_ns_per_event(64, 10_000).is_finite());
        assert!(quote_ns(&resources[0], 8) > 0.0);
        for backend in [DirectoryBackend::Ideal, DirectoryBackend::Maan] {
            let costs = directory_costs(backend, &resources, 3, 2);
            for v in [
                costs.open_ns,
                costs.advance_ns,
                costs.probe_hit_ns,
                costs.update_price_us,
            ] {
                assert!(v.is_finite() && v > 0.0, "{backend:?}: {costs:?}");
            }
        }
        let acct = accounting_costs(16);
        assert!(acct.ledger_ns > 0.0 && acct.audit_ns > 0.0 && acct.observe_ns > 0.0);
        let net = net_costs(1);
        assert!(net.plan_ns > 0.0 && net.admit_ns > 0.0);
    }
}
