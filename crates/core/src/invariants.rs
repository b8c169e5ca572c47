//! Runtime invariant checking (the `invariants` feature).
//!
//! When the feature is on, every GFA runs an [`InvariantSentry`] pass over
//! the shared federation state after each delivered event.  The sentry is a
//! pure observer: it holds the high-water marks of the monotone quantities
//! and asserts that the federation's global accounting identities still
//! hold.  Eleven invariants are checked:
//!
//! 1. **Grid-Dollar conservation** — every payment debits a user account
//!    and credits an owner account, so total earnings must equal total
//!    spending at every instant ([`GridBank::is_balanced`]).
//! 2. **Payment monotonicity** — completed-job payments are never
//!    reversed, so the bank's total volume may only grow.
//! 3. **Traffic monotonicity** — message counters (negotiation, directory,
//!    publish) only accumulate.
//! 4. **Epoch monotonicity** — the directory epoch is bumped by mutations
//!    and never rewinds, which is what cursor/cache revalidation relies on.
//! 5. **Audit-chain consistency** — every audit chain's witness matches its
//!    digest and entry count ([`AuditLedger::is_consistent`]), and the
//!    number of audited records only grows; out-of-band tampering with a
//!    chain digest trips the sentry on the next event.
//! 6. **Membership-epoch monotonicity** — churn only moves the overlay
//!    membership epoch forward; a rewind would let stale cursors validate
//!    against a ring that no longer exists.
//! 7. **Replication bound** — the MAAN overlay never holds more than the
//!    configured `k` live replicas of an entry; repair that over-replicates
//!    would inflate publish traffic unbounded under churn.
//! 8. **Liveness of service** — no quote is served from a node that has
//!    departed the overlay; detours and repairs must land on live owners.
//! 9. **At-most-once job effects** — no job is *concluded* twice (its
//!    per-job message totals finalised) and no job record is emitted twice.
//!    This is what the unreliable transport's receiver-side dedup windows
//!    guarantee: a duplicated completion delivery that slipped past them
//!    would double-conclude its job (and double-charge the origin).  The
//!    conclusion half is checked at the write itself: the accounting fold
//!    calls [`InvariantSentry::note_concluded`] for every
//!    `Charge::Concluded`, so the duplicate charge panics where it is
//!    recorded; the record half is checked by the per-event sweep.
//! 10. **Dedup-window monotonicity** — the receiver dedup windows of the
//!     network fault layer only slide forward (their base-sequence sum never
//!     decreases); a rewound window would re-admit envelopes it already
//!     accepted, voiding invariant 9's premise.
//! 11. **Index consistency** — the overlay's ring order and finger tables,
//!     and MAAN's walk index, are patched in place on every directory
//!     change; they must equal a from-scratch rebuild over the current
//!     membership and stores.  Checked only on events after which the
//!     content or membership epoch moved.
//!
//! Event-*time* monotonicity is the engine's own invariant and is enforced
//! inside `grid-des` (promoted to a hard assert under the same feature).
//! Companion corrupting test doubles — [`GridBank::corrupt_leak`],
//! `AnyDirectory::corrupt_epoch_rewind`, [`AuditLedger::corrupt_chain`],
//! `AnyDirectory::corrupt_membership_rewind`,
//! `AnyDirectory::corrupt_overreplicate`,
//! `AnyDirectory::corrupt_serve_departed`,
//! `AnyDirectory::corrupt_finger`,
//! `SharedState::corrupt_replay_message`,
//! `DedupWindow::corrupt_rewind`, the event-time corruptor in
//! `grid-des` — exist so the test suite can prove each check actually
//! fires.

use std::collections::BTreeSet;

use grid_directory::{AnyDirectory, FederationDirectory};
use grid_workload::JobId;

use crate::audit::AuditLedger;
use crate::economy::GridBank;
use crate::messages::MessageLedger;
use crate::metrics::JobRecord;

/// Per-run observer asserting the federation's global accounting
/// invariants after every delivered event (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct InvariantSentry {
    /// Highest simulation time observed so far.
    last_time: f64,
    /// Bank volume at the previous check.
    last_volume: f64,
    /// Ledger traffic (negotiation + directory + publish) at the previous
    /// check.
    last_traffic: u64,
    /// Directory epoch at the previous check.
    last_epoch: u64,
    /// Overlay membership epoch at the previous check.
    last_membership_epoch: u64,
    /// Audited record count at the previous check.
    last_audit_entries: u64,
    /// Dedup-window base sum of the network fault layer at the previous
    /// check (0 while the reliable transport is in use).
    last_dedup_base: u64,
    /// Jobs already concluded, as noted by the accounting fold.
    seen_concluded: BTreeSet<JobId>,
    /// Job ids already seen in the emitted record stream.
    seen_records: BTreeSet<JobId>,
    /// Job records scanned so far.
    scanned_records: usize,
    /// Checks executed, for test observability.
    checks: u64,
}

impl InvariantSentry {
    /// Creates a sentry with empty high-water marks.
    #[must_use]
    pub fn new() -> Self {
        InvariantSentry::default()
    }

    /// Number of checks executed so far.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Notes that `job` concluded (its per-job message totals were charged).
    ///
    /// # Panics
    /// Panics if `job` already concluded.
    pub fn note_concluded(&mut self, job: JobId) {
        assert!(
            self.seen_concluded.insert(job),
            "job {job} concluded twice: a duplicated delivery slipped past \
             the dedup window and double-finalised its per-job message totals"
        );
    }

    /// Asserts every invariant against the shared state as of `now`,
    /// updating the high-water marks.  `dedup_base` is the network fault
    /// layer's dedup-window base sum, or `None` on the reliable transport.
    ///
    /// # Panics
    /// Panics when an invariant is violated — that is the whole point.
    #[allow(clippy::too_many_arguments)]
    pub fn check(
        &mut self,
        now: f64,
        bank: &GridBank,
        ledger: &MessageLedger,
        directory: &AnyDirectory,
        audit: &AuditLedger,
        jobs: &[JobRecord],
        dedup_base: Option<u64>,
    ) {
        assert!(
            now >= self.last_time,
            "time ran backwards: checked at {now} after {}",
            self.last_time
        );
        self.last_time = now;

        assert!(
            bank.is_balanced(),
            "Grid Dollars leaked at t={now}: owners earned {} but users spent {}",
            bank.total_volume(),
            bank.all_spending().iter().sum::<f64>(),
        );
        let volume = bank.total_volume();
        assert!(
            volume >= self.last_volume,
            "bank volume shrank at t={now}: {volume} after {}",
            self.last_volume
        );
        self.last_volume = volume;

        let traffic = ledger.total_messages() + ledger.directory_messages() + ledger.publish_messages();
        assert!(
            traffic >= self.last_traffic,
            "message counters ran backwards at t={now}: {traffic} after {}",
            self.last_traffic
        );
        self.last_traffic = traffic;

        let epoch = directory.epoch();
        assert!(
            epoch >= self.last_epoch,
            "directory epoch rewound at t={now}: {epoch} after {}",
            self.last_epoch
        );
        let membership = directory.membership_epoch();
        assert!(
            membership >= self.last_membership_epoch,
            "membership epoch rewound at t={now}: {membership} after {}",
            self.last_membership_epoch
        );
        // The derived indexes only change with the directory, and every
        // directory change moves one of the two epochs, so the (costly)
        // from-scratch comparison runs only then.
        if epoch != self.last_epoch || membership != self.last_membership_epoch {
            assert!(
                directory.index_consistent(),
                "directory index diverged at t={now}: the incrementally \
                 maintained ring, fingers or walk index differ from a \
                 from-scratch rebuild"
            );
        }
        self.last_epoch = epoch;
        self.last_membership_epoch = membership;

        assert!(
            directory.replication_ok(),
            "replication factor exceeded at t={now}: an entry holds more \
             live replicas than the configured k"
        );
        assert!(
            directory.serves_only_live(),
            "departed node still serves at t={now}: a quote is stored on a \
             node that has left the overlay"
        );

        assert!(
            audit.is_consistent(),
            "audit chain corrupted at t={now}: a chain's witness no longer \
             matches its digest and entry count"
        );
        let audit_entries = audit.entries();
        assert!(
            audit_entries >= self.last_audit_entries,
            "audit records vanished at t={now}: {audit_entries} after {}",
            self.last_audit_entries
        );
        self.last_audit_entries = audit_entries;

        for record in &jobs[self.scanned_records..] {
            assert!(
                self.seen_records.insert(record.id),
                "job {} recorded twice at t={now}: a duplicated delivery \
                 slipped past the dedup window and re-emitted its outcome \
                 record",
                record.id
            );
        }
        self.scanned_records = jobs.len();

        if let Some(base) = dedup_base {
            assert!(
                base >= self.last_dedup_base,
                "dedup windows rewound at t={now}: base sum {base} after {}",
                self.last_dedup_base
            );
            self.last_dedup_base = base;
        }

        self.checks += 1;
    }
}
