//! Microbenchmarks of the substrates: the event queue, the LRMS, the
//! directory, the Chord overlay and the synthetic workload generator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use grid_cluster::{ClusterJob, EasyBackfilling, LocalScheduler, SpaceSharedFcfs, StartedJob};
use grid_des::{BinaryHeapEventQueue, Context, Entity, EntityId, Event, EventQueue, SimTime, Simulation};
use grid_bench::{populated_directory, population_quote};
use grid_directory::{
    AnyDirectory, ChordOverlay, DirectoryBackend, FederationDirectory, IdealDirectory, Quote,
    RankOrder,
};
use grid_workload::{JobId, SyntheticWorkloadConfig};

/// A payload as wide as the federation's message enum, so the layout benches
/// measure the memmove cost the real model pays.
type WidePayload = [u64; 12];

fn wide_event(i: usize, n: usize) -> Event<WidePayload> {
    Event {
        time: SimTime::new(((i * 7919) % n) as f64),
        seq: 0,
        src: EntityId::new(0),
        dst: EntityId::new(0),
        kind: grid_des::EventKind::Message,
        payload: [i as u64; 12],
    }
}

/// Compares the two future-event-list layouts on an identical schedule: the
/// index-based 4-ary heap (sift moves 24-byte keys; these scattered times
/// mostly miss its FIFO lane) vs. the retained `BinaryHeap<Event>` baseline
/// (sift memmoves the whole payload).  This measurement decides the
/// engine's layout; see `bench_perf` for the tracked numbers.
fn event_queue_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_event_queue");
    for n in [1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("dary_index_heap", n), &n, |b, &n| {
            b.iter(|| {
                let mut q: EventQueue<WidePayload> = EventQueue::with_capacity(n);
                for i in 0..n {
                    q.push(wide_event(i, n));
                }
                let mut acc = 0u64;
                while let Some(ev) = q.pop() {
                    acc = acc.wrapping_add(ev.payload[0]);
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("binary_heap_baseline", n), &n, |b, &n| {
            b.iter(|| {
                let mut q: BinaryHeapEventQueue<WidePayload> = BinaryHeapEventQueue::with_capacity(n);
                for i in 0..n {
                    q.push(wide_event(i, n));
                }
                let mut acc = 0u64;
                while let Some(ev) = q.pop() {
                    acc = acc.wrapping_add(ev.payload[0]);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

/// One-way latency of every protocol message in the leg-shaped hold model.
const LEG_LATENCY: f64 = 0.05;

/// Hold steps per queued event in the leg-shaped hold model.
const HOLD_STEPS_PER_EVENT: usize = 4;

/// A timer `1..=1000` s after `now`, scattered like the job finishes and
/// arrivals a federation keeps pending.
fn scattered_timer(now: f64, i: usize) -> Event<WidePayload> {
    Event {
        time: SimTime::new(now + 1.0 + ((i * 7919) % 1000) as f64),
        kind: grid_des::EventKind::Timer,
        ..wide_event(i, 1)
    }
}

/// What a delivered event schedules next: nine times in ten a protocol
/// message one fixed latency out (a negotiation leg), otherwise a
/// scattered timer.
fn leg_event(now: f64, i: usize) -> Event<WidePayload> {
    if i % 10 == 0 {
        scattered_timer(now, i)
    } else {
        Event {
            time: SimTime::new(now + LEG_LATENCY),
            ..wide_event(i, 1)
        }
    }
}

/// The hold model on `$queue`: `$n` scattered timers pending, then
/// `HOLD_STEPS_PER_EVENT * $n` steps that each pop the earliest event and
/// push what it schedules (see [`leg_event`]).
macro_rules! hold_legs {
    ($queue:expr, $n:expr) => {{
        let mut q = $queue;
        for i in 0..$n {
            q.push(scattered_timer(0.0, i));
        }
        let mut acc = 0u64;
        for i in 0..$n * HOLD_STEPS_PER_EVENT {
            let ev = q.pop().expect("the hold model keeps the queue populated");
            acc = acc.wrapping_add(ev.payload[0]);
            q.push(leg_event(ev.time.as_secs(), i));
        }
        black_box(acc)
    }};
}

/// Compares the two layouts on the shape of a negotiation-heavy run:
/// constant-latency messages, which the engine's queue keeps in its FIFO
/// lane, among scattered timers, which go to its heap.  This measurement
/// keeps the lane decision measured like the layout decision above.
fn event_queue_negotiation_legs(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_event_queue_legs");
    for n in [1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("dary_heap_with_lane", n), &n, |b, &n| {
            b.iter(|| hold_legs!(EventQueue::<WidePayload>::with_capacity(n), n))
        });
        group.bench_with_input(BenchmarkId::new("binary_heap_baseline", n), &n, |b, &n| {
            b.iter(|| hold_legs!(BinaryHeapEventQueue::<WidePayload>::with_capacity(n), n))
        });
    }
    group.finish();
}

/// A self-ticking entity used to measure raw engine dispatch overhead.
struct Ticker {
    remaining: u32,
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

fn simulation_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_dispatch");
    group.bench_function("100k_timer_events", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(1, ());
            sim.add_entity(Ticker { remaining: 100_000 });
            sim.run();
            black_box(sim.stats().events_delivered)
        })
    });
    group.finish();
}

fn lrms_operations(c: &mut Criterion) {
    let mut group = c.benchmark_group("lrms");
    group.bench_function("fcfs_submit_finish_1000_jobs", |b| {
        b.iter(|| {
            let mut s = SpaceSharedFcfs::new(256);
            let mut running = Vec::new();
            for i in 0..1_000usize {
                let started = s.submit(
                    ClusterJob {
                        id: JobId { origin: 0, seq: i },
                        processors: 1 + (i % 64) as u32,
                        service_time: 100.0 + (i % 17) as f64,
                    },
                    i as f64,
                );
                running.extend(started);
            }
            // Drain every completion in finish order with a monotone clock.
            running.sort_by(|a: &StartedJob, b| a.finish.total_cmp(&b.finish));
            let mut now = 1_000.0f64;
            let mut idx = 0;
            while idx < running.len() {
                let job = running[idx];
                now = now.max(job.finish);
                let newly = s.on_finished(job.id, now);
                running.extend(newly);
                running[idx..].sort_by(|a, b| a.finish.total_cmp(&b.finish));
                idx += 1;
            }
            black_box(s.completed_jobs())
        })
    });
    let deep = {
        let mut s = SpaceSharedFcfs::new(128);
        for i in 0..500usize {
            s.submit(
                ClusterJob {
                    id: JobId { origin: 0, seq: i },
                    processors: 32,
                    service_time: 1_000.0,
                },
                0.0,
            );
        }
        s
    };
    // Varying probe shapes so the incremental path answers distinct quotes
    // from one profile, exactly as the DBC loop does.
    group.bench_function("estimate_completion_deep_queue_incremental", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(deep.estimate_completion(1 + i % 128, 500.0 + f64::from(i % 13), 0.0))
        })
    });
    group.bench_function("estimate_completion_deep_queue_replay_oracle", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(deep.estimate_completion_replay(1 + i % 128, 500.0 + f64::from(i % 13), 0.0))
        })
    });
    // The admission-control accept cycle on a steady 128-job queue: submit
    // one job, finish the earliest running one on time, quote.  Against the
    // replay oracle on the same states.
    group.bench_function("accept_cycle_queue_128_incremental", |b| {
        let mut cycle = AcceptCycle::new();
        b.iter(|| black_box(cycle.step(SpaceSharedFcfs::estimate_completion)))
    });
    group.bench_function("accept_cycle_queue_128_replay_oracle", |b| {
        let mut cycle = AcceptCycle::new();
        b.iter(|| black_box(cycle.step(SpaceSharedFcfs::estimate_completion_replay)))
    });
    group.bench_function("easy_backfilling_mixed_queue", |b| {
        b.iter(|| {
            let mut s = EasyBackfilling::new(128);
            for i in 0..300usize {
                s.submit(
                    ClusterJob {
                        id: JobId { origin: 0, seq: i },
                        processors: 1 + (i % 96) as u32,
                        service_time: 50.0 + (i % 29) as f64 * 10.0,
                    },
                    i as f64 * 0.5,
                );
            }
            black_box(s.busy_processors())
        })
    });
    group.finish();
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

    /// One accept cycle, quoting with `quote`.
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
        self.lrms
            .on_finished_into(next.id, self.now, &mut self.running);
        debug_assert_eq!(self.lrms.queued_count(), Self::QUEUED);
        quote(&self.lrms, 1 + (self.seq % 128) as u32, 500.0, self.now)
    }
}

fn directory_operations(c: &mut Criterion) {
    let mut group = c.benchmark_group("directory");
    let quotes: Vec<Quote> = (0..64)
        .map(|i| Quote {
            gfa: i,
            processors: 128,
            mips: 400.0 + i as f64 * 9.0,
            bandwidth: 1.0 + (i % 4) as f64,
            price: 2.0 + i as f64 * 0.05,
        })
        .collect();
    group.bench_function("ideal_subscribe_64", |b| {
        b.iter(|| black_box(IdealDirectory::with_quotes(quotes.clone()).len()))
    });
    let dir = IdealDirectory::with_quotes(quotes);
    group.bench_function("ideal_rank_queries", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for r in 1..=64 {
                for order in RankOrder::ALL {
                    acc += dir.query_ranked(0, order, r).quote.map(|q| q.gfa).unwrap_or(0);
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("chord_build_128", |b| {
        b.iter(|| black_box(ChordOverlay::new(128, 3).len()))
    });
    let overlay = ChordOverlay::new(128, 3);
    group.bench_function("chord_lookup_128", |b| {
        b.iter(|| black_box(overlay.average_lookup_hops(64, 5)))
    });

    // Cursor streaming vs. the query-per-rank oracle, both backends at the
    // acceptance criterion's n = 50 (tracked numbers live in `bench_perf`'s
    // `directory` section; this group is the per-commit smoke view).
    let n = 50usize;
    for backend in DirectoryBackend::ALL {
        let dir = populated_directory(backend, n);
        directory_cursor_matches_oracle(&dir, n);
        let label = backend.label();
        group.bench_function(format!("cursor_open_{label}_50"), |b| {
            let mut origin = 0usize;
            b.iter(|| {
                origin = (origin + 1) % n;
                let mut cursor = dir.open_cursor(origin, RankOrder::Cheapest);
                black_box(dir.cursor_next(&mut cursor).quote)
            })
        });
        group.bench_function(format!("cursor_advance_{label}_50"), |b| {
            let mut cursor = dir.open_cursor(0, RankOrder::Cheapest);
            let _ = dir.cursor_next(&mut cursor);
            b.iter(|| {
                if cursor.next_rank() > n {
                    cursor.seek(2);
                }
                black_box(dir.cursor_next(&mut cursor).quote)
            })
        });
        group.bench_function(format!("legacy_per_rank_{label}_50"), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                black_box(dir.query_ranked(i % n, RankOrder::Cheapest, 1 + (i % n)).quote)
            })
        });
    }

    // MAAN maintenance at n = 200: a reprice splices one price entry and
    // refreshes the speed replica; a membership cycle patches the ring and
    // fingers, hands entries off and rebuilds the walk index.
    let n = 200usize;
    let mut maan = populated_directory(DirectoryBackend::Maan, n);
    group.bench_function("maan_update_price_200", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let gfa = i % n;
            // Each pass shifts every price one step, so no write is a no-op.
            black_box(maan.update_price(gfa, 1.0 + 0.07 * ((gfa * 7 + 1 + i / n) % n) as f64))
        })
    });
    group.bench_function("maan_depart_join_cycle_200", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            // Alternate graceful leaves and crashes; every cycle restores
            // the membership it started from.
            let gfa = (i * 37) % n;
            let departed = maan.node_depart(gfa, i % 2 == 0);
            let repaired = maan.stabilize();
            let joined = maan.node_join(gfa) + maan.subscribe(population_quote(gfa, n));
            black_box(departed + repaired + joined)
        })
    });
    group.finish();
}

/// The cursor paths must stream exactly what the oracle answers — checked
/// here (not just in the directory crate's tests) so a future bench-only
/// refactor cannot drift the measured workload away from the verified one.
fn directory_cursor_matches_oracle(dir: &AnyDirectory, n: usize) {
    let mut cursor = dir.open_cursor(0, RankOrder::Cheapest);
    for r in 1..=n {
        let oracle = dir.query_ranked(0, RankOrder::Cheapest, r).quote;
        assert_eq!(dir.cursor_next(&mut cursor).quote, oracle);
    }
}

fn workload_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_generator");
    for jobs in [100usize, 1_000] {
        group.bench_with_input(BenchmarkId::new("synthetic", jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                let mut cfg = SyntheticWorkloadConfig::new(0, "bench");
                cfg.total_jobs = jobs;
                cfg.max_processors = 512;
                cfg.origin_mips = 850.0;
                cfg.offered_load = 0.6;
                cfg.seed = 42;
                black_box(cfg.generate().len())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    event_queue_throughput,
    event_queue_negotiation_legs,
    simulation_dispatch,
    lrms_operations,
    directory_operations,
    workload_generation
);
criterion_main!(benches);
