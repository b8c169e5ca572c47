//! Invariant-checker coverage (the `invariants` feature).
//!
//! Two kinds of test live here: end-to-end runs proving a healthy
//! federation passes every per-event check, and deliberately-corrupting
//! test doubles — a bank that leaks one Grid Dollar, a directory that
//! rewinds its epoch, an audit ledger with a tampered chain — proving each
//! invariant actually fires.
#![cfg(feature = "invariants")]

use grid_cluster::ResourceSpec;
use grid_des::DedupWindow;
use grid_directory::{AnyDirectory, FederationDirectory, Quote};
use grid_federation_core::{
    run_federation, AuditLedger, Charge, ChurnConfig, Counter, DirectoryBackend, ExecutionOutcome,
    FederationConfig, GridBank, InvariantSentry, JobRecord, MessageLedger, MessageType,
    MetricsRegistry, SchedulingMode, SharedState,
};
use grid_workload::{Job, JobId, Strategy, UserId};

fn healthy_state() -> (GridBank, MessageLedger, AnyDirectory, AuditLedger) {
    let mut bank = GridBank::new(3);
    bank.pay(0, 1, 40.0);
    bank.pay(2, 0, 2.5);
    let mut ledger = MessageLedger::new(3);
    ledger.record_directory(0, 4, 0.2);
    let mut dir = DirectoryBackend::Ideal.build(3, 0xBEEF);
    let _ = dir.subscribe(Quote {
        gfa: 0,
        processors: 16,
        mips: 500.0,
        bandwidth: 1.0,
        price: 2.0,
    });
    let mut audit = AuditLedger::new(3);
    audit.record_payment(0, 1, 40.0);
    audit.record_payment(2, 0, 2.5);
    audit.record_directory(0, 4);
    (bank, ledger, dir, audit)
}

#[test]
fn healthy_state_passes_repeated_checks() {
    let (bank, ledger, dir, audit) = healthy_state();
    let mut sentry = InvariantSentry::new();
    sentry.check(0.0, &bank, &ledger, &dir, &audit, &[], None);
    sentry.check(10.0, &bank, &ledger, &dir, &audit, &[], None);
    sentry.check(10.0, &bank, &ledger, &dir, &audit, &[], None); // equal time is fine
    assert_eq!(sentry.checks(), 3);
}

#[test]
#[should_panic(expected = "Grid Dollars leaked")]
fn leaked_grid_dollar_fires_conservation() {
    let (mut bank, ledger, dir, audit) = healthy_state();
    let mut sentry = InvariantSentry::new();
    sentry.check(0.0, &bank, &ledger, &dir, &audit, &[], None);
    // The corrupting double credits an owner without debiting any user.
    bank.corrupt_leak(1, 1.0);
    sentry.check(1.0, &bank, &ledger, &dir, &audit, &[], None);
}

#[test]
#[should_panic(expected = "bank volume shrank")]
fn shrinking_volume_fires_monotonicity() {
    let (bank, ledger, dir, audit) = healthy_state();
    let mut sentry = InvariantSentry::new();
    sentry.check(0.0, &bank, &ledger, &dir, &audit, &[], None);
    // A *fresh* bank stands in for one that forgot recorded payments.
    let empty = GridBank::new(3);
    sentry.check(1.0, &empty, &ledger, &dir, &audit, &[], None);
}

#[test]
#[should_panic(expected = "time ran backwards")]
fn reordered_check_fires_time_monotonicity() {
    let (bank, ledger, dir, audit) = healthy_state();
    let mut sentry = InvariantSentry::new();
    sentry.check(10.0, &bank, &ledger, &dir, &audit, &[], None);
    sentry.check(5.0, &bank, &ledger, &dir, &audit, &[], None);
}

#[test]
#[should_panic(expected = "message counters ran backwards")]
fn forgotten_traffic_fires_ledger_monotonicity() {
    let (bank, ledger, dir, audit) = healthy_state();
    let mut sentry = InvariantSentry::new();
    sentry.check(0.0, &bank, &ledger, &dir, &audit, &[], None);
    let empty = MessageLedger::new(3);
    sentry.check(1.0, &bank, &empty, &dir, &audit, &[], None);
}

#[test]
#[should_panic(expected = "directory epoch rewound")]
fn epoch_rewind_fires_on_every_backend() {
    let (bank, ledger, mut dir, audit) = healthy_state();
    let mut sentry = InvariantSentry::new();
    sentry.check(0.0, &bank, &ledger, &dir, &audit, &[], None);
    // The corrupting double forgets every mutation's epoch bump.
    dir.corrupt_epoch_rewind();
    sentry.check(1.0, &bank, &ledger, &dir, &audit, &[], None);
}

#[test]
#[should_panic(expected = "audit chain corrupted")]
fn tampered_audit_chain_fires_consistency() {
    let (bank, ledger, dir, mut audit) = healthy_state();
    let mut sentry = InvariantSentry::new();
    sentry.check(0.0, &bank, &ledger, &dir, &audit, &[], None);
    // The corrupting double rewrites a chain digest out of band, leaving
    // its witness stale — exactly the tamper case the chains exist to catch.
    audit.corrupt_chain(1);
    sentry.check(1.0, &bank, &ledger, &dir, &audit, &[], None);
}

#[test]
#[should_panic(expected = "audit records vanished")]
fn forgotten_audit_records_fire_monotonicity() {
    let (bank, ledger, dir, audit) = healthy_state();
    let mut sentry = InvariantSentry::new();
    sentry.check(0.0, &bank, &ledger, &dir, &audit, &[], None);
    // A fresh ledger stands in for one that dropped audited records.
    let empty = AuditLedger::new(3);
    sentry.check(1.0, &bank, &ledger, &dir, &empty, &[], None);
}

#[test]
fn audit_records_keep_the_sentry_green_as_they_accumulate() {
    let (bank, ledger, dir, mut audit) = healthy_state();
    let mut sentry = InvariantSentry::new();
    sentry.check(0.0, &bank, &ledger, &dir, &audit, &[], None);
    audit.record_message(MessageType::Negotiate, 1, 2);
    audit.record_publish(2, 3);
    sentry.check(1.0, &bank, &ledger, &dir, &audit, &[], None);
    assert_eq!(sentry.checks(), 2);
}

/// An overlay directory with one published quote, for the churn doubles.
fn overlay_state() -> (GridBank, MessageLedger, AnyDirectory, AuditLedger) {
    let (bank, ledger, _, audit) = healthy_state();
    let mut dir = DirectoryBackend::Maan.build(4, 0xBEEF);
    let _ = dir.subscribe(Quote {
        gfa: 0,
        processors: 16,
        mips: 500.0,
        bandwidth: 1.0,
        price: 2.0,
    });
    (bank, ledger, dir, audit)
}

#[test]
#[should_panic(expected = "membership epoch rewound")]
fn membership_rewind_fires_monotonicity() {
    let (bank, ledger, mut dir, audit) = overlay_state();
    // A graceful departure bumps the membership epoch past zero.
    let _ = dir.node_depart(1, true);
    let mut sentry = InvariantSentry::new();
    sentry.check(0.0, &bank, &ledger, &dir, &audit, &[], None);
    // The corrupting double snaps the epoch back to the pre-churn ring.
    dir.corrupt_membership_rewind();
    sentry.check(1.0, &bank, &ledger, &dir, &audit, &[], None);
}

#[test]
#[should_panic(expected = "replication factor exceeded")]
fn overreplication_fires_replication_bound() {
    let (bank, ledger, mut dir, audit) = overlay_state();
    dir.set_replication(2);
    let mut sentry = InvariantSentry::new();
    sentry.check(0.0, &bank, &ledger, &dir, &audit, &[], None);
    // The corrupting double piles more copies onto an entry than k allows.
    dir.corrupt_overreplicate();
    sentry.check(1.0, &bank, &ledger, &dir, &audit, &[], None);
}

#[test]
#[should_panic(expected = "departed node still serves")]
fn serving_from_departed_node_fires_liveness() {
    let (bank, ledger, mut dir, audit) = overlay_state();
    let mut sentry = InvariantSentry::new();
    sentry.check(0.0, &bank, &ledger, &dir, &audit, &[], None);
    // The corrupting double marks the quote's owner down without the
    // handoff/repair that a real departure performs.
    dir.corrupt_serve_departed();
    sentry.check(1.0, &bank, &ledger, &dir, &audit, &[], None);
}

/// The index check runs only when an epoch moved, so the corrupting double
/// is followed by a reprice, exactly as a real write would follow a stale
/// patch.
#[test]
#[should_panic(expected = "directory index diverged")]
fn corrupt_finger_fires_index_consistency_on_maan() {
    let (bank, ledger, mut dir, audit) = overlay_state();
    // Churn first, so the check also covers the patched ring.
    let _ = dir.node_depart(2, true);
    let _ = dir.node_join(2);
    let mut sentry = InvariantSentry::new();
    sentry.check(0.0, &bank, &ledger, &dir, &audit, &[], None);
    // The corrupting double points a finger at the wrong node.
    dir.corrupt_finger();
    let _ = dir.update_price(0, 2.5);
    sentry.check(1.0, &bank, &ledger, &dir, &audit, &[], None);
}

#[test]
fn unchanged_epochs_skip_the_index_check() {
    let (bank, ledger, mut dir, audit) = overlay_state();
    let mut sentry = InvariantSentry::new();
    sentry.check(0.0, &bank, &ledger, &dir, &audit, &[], None);
    // No epoch moves after the corruption, so the sentry does not pay for
    // the from-scratch comparison and stays green.
    dir.corrupt_finger();
    sentry.check(1.0, &bank, &ledger, &dir, &audit, &[], None);
    assert!(!dir.index_consistent());
}

/// End to end: a churning federation — departures, crashes, rejoins,
/// stabilization and replica repair — keeps every invariant green on
/// the genuinely distributed backend.
#[test]
fn churning_federation_passes_under_invariant_checking() {
    let resources = vec![
        ResourceSpec::new("slow-cheap", 32, 500.0, 1.0, 2.0),
        ResourceSpec::new("fast-pricey", 32, 1_000.0, 2.0, 4.0),
        ResourceSpec::new("middling", 32, 750.0, 1.5, 3.0),
    ];
    let workloads = vec![
        vec![job(0, 0, 10.0, Strategy::Ofc), job(0, 1, 40.0, Strategy::Oft)],
        vec![job(1, 0, 25.0, Strategy::Ofc)],
        vec![job(2, 0, 55.0, Strategy::Oft)],
    ];
    let config = FederationConfig {
        mode: SchedulingMode::Economy,
        directory: DirectoryBackend::Maan,
        seed: 0xFED5EED,
        churn: Some(ChurnConfig {
            mean_uptime: 1_800.0,
            mean_downtime: 900.0,
            crash_fraction: 0.5,
            stabilization_interval: 600.0,
            replication: 2,
            horizon: 7_200.0,
            ..ChurnConfig::default()
        }),
        ..FederationConfig::default()
    };
    let report = run_federation(resources, workloads, config);
    assert!(
        report.metrics.counter(Counter::Crashes) + report.metrics.counter(Counter::GracefulLeaves)
            > 0,
        "the churn model must actually inject failures for this test to bite"
    );
    assert!(report.bank.is_balanced());
    assert!(report.digest.entries > 0);
}

#[test]
fn epoch_rewind_double_works_on_overlay_backends() {
    let backend = DirectoryBackend::Maan;
    let mut dir = backend.build(4, 0xF00D);
    let _ = dir.subscribe(Quote {
        gfa: 1,
        processors: 8,
        mips: 700.0,
        bandwidth: 1.0,
        price: 3.0,
    });
    assert!(dir.epoch() > 0, "{backend:?}: mutation must bump the epoch");
    dir.corrupt_epoch_rewind();
    assert_eq!(dir.epoch(), 0, "{backend:?}: double must rewind the epoch");
}

/// A minimal shared state with one concluded job, for the at-most-once
/// doubles.
fn shared_with_one_job() -> SharedState {
    let mut shared = SharedState {
        directory: DirectoryBackend::Ideal.build(2, 0xBEEF),
        bank: GridBank::new(2),
        ledger: MessageLedger::new(2),
        jobs: Vec::new(),
        audit: AuditLedger::new(2),
        net: None,
        latency: 0.05,
        metrics: MetricsRegistry::new(2),
        tracer: None,
        invariants: InvariantSentry::new(),
    };
    let id = JobId { origin: 0, seq: 0 };
    shared.record(Charge::Concluded(id, 4, 2));
    shared.record(Charge::Outcome(JobRecord {
        id,
        origin: 0,
        strategy: Strategy::Ofc,
        submit: 0.0,
        processors: 4,
        deadline: 600.0,
        budget: 100.0,
        expected_local_response: 120.0,
        expected_local_cost: 8.0,
        messages: 4,
        directory_messages: 2,
        outcome: ExecutionOutcome::Rejected,
    }));
    shared
}

#[test]
#[should_panic(expected = "concluded twice")]
fn replayed_delivery_fires_at_most_once_conclude() {
    let mut shared = shared_with_one_job();
    // The corrupting double replays the last concluded job, exactly as a
    // duplicated completion delivery slipping past the dedup window would;
    // the accounting fold's at-most-once check panics at the duplicate
    // charge itself, before any per-event sweep.
    shared.corrupt_replay_message();
}

#[test]
#[should_panic(expected = "recorded twice")]
fn duplicated_record_fires_at_most_once_record() {
    let shared = shared_with_one_job();
    let mut sentry = InvariantSentry::new();
    // Same record id twice in the record stream, with no second conclusion
    // charged: only the record-side scan can catch this one.
    let mut jobs = shared.jobs.clone();
    jobs.push(jobs[0].clone());
    sentry.check(
        0.0,
        &shared.bank,
        &shared.ledger,
        &shared.directory,
        &shared.audit,
        &jobs,
        None,
    );
}

#[test]
#[should_panic(expected = "dedup windows rewound")]
fn dedup_rewind_fires_monotonicity() {
    let (bank, ledger, dir, audit) = healthy_state();
    let mut window = DedupWindow::default();
    assert!(window.admit(200), "a fresh window admits any new sequence");
    assert!(window.base() > 0, "admitting far ahead slides the window");
    let mut sentry = InvariantSentry::new();
    sentry.check(0.0, &bank, &ledger, &dir, &audit, &[], Some(window.base()));
    // The corrupting double snaps the window back to its initial state, so
    // already-admitted envelopes would be admitted again.
    window.corrupt_rewind();
    sentry.check(1.0, &bank, &ledger, &dir, &audit, &[], Some(window.base()));
}

#[test]
fn advancing_dedup_windows_keep_the_sentry_green() {
    let (bank, ledger, dir, audit) = healthy_state();
    let mut sentry = InvariantSentry::new();
    sentry.check(0.0, &bank, &ledger, &dir, &audit, &[], None);
    sentry.check(1.0, &bank, &ledger, &dir, &audit, &[], Some(0));
    sentry.check(2.0, &bank, &ledger, &dir, &audit, &[], Some(64));
    sentry.check(3.0, &bank, &ledger, &dir, &audit, &[], Some(64));
    // A reliable-transport check between network checks is not a rewind.
    sentry.check(4.0, &bank, &ledger, &dir, &audit, &[], None);
    sentry.check(5.0, &bank, &ledger, &dir, &audit, &[], Some(128));
    assert_eq!(sentry.checks(), 6);
}

fn job(origin: usize, seq: usize, submit: f64, strategy: Strategy) -> Job {
    let mips = if origin == 0 { 500.0 } else { 1_000.0 };
    let mut j = Job::from_runtime(
        JobId { origin, seq },
        UserId { origin, local: seq % 4 },
        submit,
        4,
        120.0,
        mips,
        0.10,
    );
    j.qos.strategy = strategy;
    j
}

/// End to end: a real federation run executes the sentry after every
/// delivered event and finishes cleanly on every backend — the economy
/// workload conserves currency, keeps every counter monotone and leaves
/// the audit chains consistent.
#[test]
fn federation_runs_pass_under_invariant_checking() {
    for backend in DirectoryBackend::ALL {
        let resources = vec![
            ResourceSpec::new("slow-cheap", 32, 500.0, 1.0, 2.0),
            ResourceSpec::new("fast-pricey", 32, 1_000.0, 2.0, 4.0),
        ];
        let workloads = vec![
            vec![
                job(0, 0, 10.0, Strategy::Ofc),
                job(0, 1, 40.0, Strategy::Oft),
            ],
            vec![job(1, 0, 25.0, Strategy::Ofc)],
        ];
        let config = FederationConfig {
            mode: SchedulingMode::Economy,
            directory: backend,
            seed: 0xFED5EED,
            ..FederationConfig::default()
        };
        let report = run_federation(resources, workloads, config);
        assert_eq!(
            report.jobs.len(),
            3,
            "{backend:?}: the run must process jobs for the sentry to see events"
        );
        assert!(report.bank.is_balanced());
        assert!(report.digest.entries > 0);
    }
}
