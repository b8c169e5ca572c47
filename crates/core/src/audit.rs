//! Hash-chained audit ledger: tamper-evident, O(1)-comparable run digests.
//!
//! Every job outcome, negotiation/directory/publish message charge and bank
//! mutation folds into per-GFA *hash chains* as the simulation executes, in
//! the spirit of append-only commitment ledgers: each record's digest mixes
//! the previous digest, so the final chain value commits to the full ordered
//! history of that GFA's activity.  Two runs are behaviourally identical iff
//! their [`RunDigest`]s are equal — which turns whole-run differentials
//! (backend conformance, schedule permutations, parallel-vs-sequential
//! sweeps) from 30+ CSV file comparisons into a single `u64` comparison.
//!
//! The mixer is the dependency-free SplitMix64 finalizer already used by the
//! deterministic sweep scheduler; it is *not* cryptographic, but it is
//! avalanche-complete, so adjacent mutations (swapping, duplicating or
//! dropping one charge) change the chain with overwhelming probability — the
//! property the differential suites rely on and the property tests pin.
//!
//! Two chain families are kept per GFA:
//!
//! * **outcome chains** — job records and Grid-Dollar bank transfers.  These
//!   are identical across directory backends (the conformance guarantee), so
//!   [`RunDigest::outcomes`] compares them in isolation.
//! * **traffic chains** — negotiation messages and directory/publish charge
//!   accounting, which legitimately differ per backend.  Together with the
//!   outcome chains they form [`RunDigest::full`].
//!
//! Each chain also maintains a *witness* — a mix of its digest and entry
//! count — recomputed on every fold.  Out-of-band mutation of a digest (the
//! tamper case, modelled by the feature-gated [`AuditLedger::corrupt_chain`]
//! double) leaves the witness stale, which the `invariants` sentry detects.

use grid_workload::JobId;

use crate::messages::MessageType;
use crate::metrics::{ExecutionOutcome, JobRecord};

/// SplitMix64 finalizer: a fast, avalanche-complete 64-bit mixer.
#[inline]
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain-separation seed of the outcome chain family.
const OUTCOME_DOMAIN: u64 = 0x0A0D_17C0_5EED_0001;
/// Domain-separation seed of the traffic chain family.
const TRAFFIC_DOMAIN: u64 = 0x0A0D_17C0_5EED_0002;

/// Record tags: every fold starts by mixing a distinct tag so records of
/// different kinds can never collide by carrying the same field values.
const TAG_OUTCOME: u64 = 1;
const TAG_PAYMENT: u64 = 2;
const TAG_MESSAGE: u64 = 3;
const TAG_DIRECTORY: u64 = 4;
const TAG_PUBLISH: u64 = 5;
const TAG_JOB_MESSAGES: u64 = 6;

/// One append-only hash chain with a consistency witness.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Chain {
    digest: u64,
    entries: u64,
    witness: u64,
}

impl Chain {
    fn new(seed: u64) -> Self {
        let digest = mix(seed);
        Chain {
            digest,
            entries: 0,
            witness: mix(digest),
        }
    }

    /// Folds one record into the chain: the previous digest, the record tag
    /// and each field are mixed *sequentially*, so the chain commits to the
    /// order of records, not just their multiset.
    fn fold(&mut self, tag: u64, fields: &[u64]) {
        let mut h = mix(self.digest ^ tag);
        for &f in fields {
            h = mix(h ^ f);
        }
        self.digest = h;
        self.entries += 1;
        self.witness = mix(self.digest ^ self.entries);
    }

    fn is_consistent(&self) -> bool {
        self.witness
            == if self.entries == 0 {
                mix(self.digest)
            } else {
                mix(self.digest ^ self.entries)
            }
    }
}

/// The run-level digest snapshot exposed on `FederationReport`.
///
/// Equality of two digests is the O(1) differential: `outcomes` covers job
/// records and bank transfers only (bit-identical across directory
/// backends), `full` additionally folds the per-backend message/directory/
/// publish traffic chains, and `entries` is the total number of audited
/// records (a cheap sanity count that makes "empty vs empty" collisions
/// readable in test failures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDigest {
    /// Chained digest over job outcomes and bank mutations (backend-invariant).
    pub outcomes: u64,
    /// Chained digest over everything, traffic charges included.
    pub full: u64,
    /// Total number of records folded into the ledger.
    pub entries: u64,
}

impl std::fmt::Display for RunDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:016x} {:016x} {}",
            self.outcomes, self.full, self.entries
        )
    }
}

/// Hash-chained audit ledger: one outcome chain and one traffic chain per
/// GFA, folded incrementally as the federation executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditLedger {
    outcomes: Vec<Chain>,
    traffic: Vec<Chain>,
}

impl AuditLedger {
    /// Creates the ledger for a federation of `n` GFAs.
    #[must_use]
    pub fn new(n: usize) -> Self {
        AuditLedger {
            outcomes: (0..n)
                .map(|i| Chain::new(OUTCOME_DOMAIN ^ (i as u64)))
                .collect(),
            traffic: (0..n)
                .map(|i| Chain::new(TRAFFIC_DOMAIN ^ (i as u64)))
                .collect(),
        }
    }

    /// Total number of records folded so far, across all chains.
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.outcomes
            .iter()
            .chain(&self.traffic)
            .map(|c| c.entries)
            .sum()
    }

    /// Folds a finished job record (completed or rejected) into the outcome
    /// chain of its origin GFA.
    ///
    /// The record's per-job message counters are deliberately *not* folded
    /// here: they are backend-dependent traffic, committed to the traffic
    /// chain by [`AuditLedger::record_job_messages`] instead, which keeps
    /// the outcome chains bit-identical across directory backends.
    pub fn record_outcome(&mut self, rec: &JobRecord) {
        let mut fields = vec![
            rec.id.origin as u64,
            rec.id.seq as u64,
            rec.strategy as u64,
            rec.submit.to_bits(),
            u64::from(rec.processors),
            rec.deadline.to_bits(),
            rec.budget.to_bits(),
            rec.expected_local_response.to_bits(),
            rec.expected_local_cost.to_bits(),
        ];
        match rec.outcome {
            ExecutionOutcome::Completed {
                executed_on,
                start,
                finish,
                cost,
            } => fields.extend([
                1,
                executed_on as u64,
                start.to_bits(),
                finish.to_bits(),
                cost.to_bits(),
            ]),
            ExecutionOutcome::Rejected => fields.push(0),
        }
        self.outcomes[rec.origin].fold(TAG_OUTCOME, &fields);
    }

    /// Folds a Grid-Dollar transfer into the paying GFA's outcome chain.
    pub fn record_payment(&mut self, payer: usize, payee: usize, amount: f64) {
        self.outcomes[payer].fold(TAG_PAYMENT, &[payee as u64, amount.to_bits()]);
    }

    /// Folds one negotiation-protocol message charge into the originating
    /// GFA's traffic chain.
    pub fn record_message(&mut self, ty: MessageType, origin: usize, counterpart: usize) {
        self.traffic[origin].fold(TAG_MESSAGE, &[ty as u64, counterpart as u64]);
    }

    /// Folds a routed directory-query charge into a GFA's traffic chain.
    pub fn record_directory(&mut self, gfa: usize, messages: u64) {
        self.traffic[gfa].fold(TAG_DIRECTORY, &[messages]);
    }

    /// Folds a publish (subscribe/unsubscribe/reprice) charge into a GFA's
    /// traffic chain.
    pub fn record_publish(&mut self, gfa: usize, messages: u64) {
        self.traffic[gfa].fold(TAG_PUBLISH, &[messages]);
    }

    /// Folds a job's final per-job message totals into the traffic chain of
    /// the job's origin.
    pub fn record_job_messages(&mut self, job: JobId, messages: u32, directory_messages: u32) {
        self.traffic[job.origin].fold(
            TAG_JOB_MESSAGES,
            &[
                job.seq as u64,
                u64::from(messages),
                u64::from(directory_messages),
            ],
        );
    }

    /// Whether every chain's witness matches its digest and entry count —
    /// the tamper-evidence check the `invariants` sentry runs per event.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.outcomes
            .iter()
            .chain(&self.traffic)
            .all(Chain::is_consistent)
    }

    /// The run-level digest snapshot.
    #[must_use]
    pub fn digest(&self) -> RunDigest {
        let mut outcomes = mix(OUTCOME_DOMAIN ^ (self.outcomes.len() as u64));
        for c in &self.outcomes {
            outcomes = mix(outcomes ^ c.digest);
        }
        let mut full = outcomes;
        for c in &self.traffic {
            full = mix(full ^ c.digest);
        }
        RunDigest {
            outcomes,
            full,
            entries: self.entries(),
        }
    }

    /// Corrupting test double: flips bits in one traffic chain's digest
    /// *without* refreshing its witness, modelling out-of-band tampering
    /// with the audit trail.  The invariant sentry must detect this.
    #[cfg(feature = "invariants")]
    pub fn corrupt_chain(&mut self, gfa: usize) {
        self.traffic[gfa].digest ^= 0xDEAD_BEEF_DEAD_BEEF;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_workload::Strategy;

    fn ledger() -> AuditLedger {
        AuditLedger::new(4)
    }

    fn sample_record(origin: usize, seq: usize) -> JobRecord {
        JobRecord {
            id: JobId { origin, seq },
            origin,
            strategy: Strategy::Ofc,
            submit: 10.0,
            processors: 8,
            deadline: 500.0,
            budget: 40.0,
            expected_local_response: 120.0,
            expected_local_cost: 30.0,
            messages: 4,
            directory_messages: 6,
            outcome: ExecutionOutcome::Completed {
                executed_on: origin,
                start: 11.0,
                finish: 99.0,
                cost: 25.5,
            },
        }
    }

    #[test]
    fn empty_ledgers_of_equal_size_agree() {
        assert_eq!(ledger().digest(), ledger().digest());
        assert_ne!(ledger().digest(), AuditLedger::new(5).digest());
        assert_eq!(ledger().digest().entries, 0);
        assert!(ledger().is_consistent());
    }

    #[test]
    fn identical_histories_produce_identical_digests() {
        let mut a = ledger();
        let mut b = ledger();
        for l in [&mut a, &mut b] {
            l.record_message(MessageType::Negotiate, 0, 2);
            l.record_payment(1, 2, 12.5);
            l.record_outcome(&sample_record(0, 0));
            l.record_directory(3, 7);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest().entries, 4);
        assert!(a.is_consistent());
    }

    #[test]
    fn chains_are_order_sensitive() {
        let mut a = ledger();
        a.record_message(MessageType::Negotiate, 0, 1);
        a.record_message(MessageType::Reply, 0, 1);
        let mut b = ledger();
        b.record_message(MessageType::Reply, 0, 1);
        b.record_message(MessageType::Negotiate, 0, 1);
        assert_ne!(a.digest().full, b.digest().full);
    }

    #[test]
    fn outcomes_digest_ignores_traffic_but_full_does_not() {
        let mut a = ledger();
        let mut b = ledger();
        a.record_outcome(&sample_record(1, 0));
        b.record_outcome(&sample_record(1, 0));
        // Different directory traffic, same outcomes.
        a.record_directory(1, 3);
        b.record_directory(1, 9);
        b.record_publish(2, 4);
        let (da, db) = (a.digest(), b.digest());
        assert_eq!(da.outcomes, db.outcomes);
        assert_ne!(da.full, db.full);
    }

    #[test]
    fn payments_and_outcomes_land_in_the_outcomes_digest() {
        let mut a = ledger();
        let mut b = ledger();
        a.record_payment(0, 1, 5.0);
        b.record_payment(0, 1, 5.0 + 1e-12);
        assert_ne!(a.digest().outcomes, b.digest().outcomes);
        let mut c = ledger();
        let mut rejected = sample_record(2, 7);
        rejected.outcome = ExecutionOutcome::Rejected;
        c.record_outcome(&rejected);
        assert_ne!(c.digest().outcomes, ledger().digest().outcomes);
    }

    #[test]
    fn record_kinds_are_domain_separated() {
        // Same numeric payload through different record kinds must land on
        // different digests (the tag mixing at work).
        let mut a = ledger();
        a.record_directory(1, 7);
        let mut b = ledger();
        b.record_publish(1, 7);
        assert_ne!(a.digest().full, b.digest().full);
    }

    #[test]
    fn display_is_stable_hex() {
        let d = ledger().digest();
        let s = d.to_string();
        let parts: Vec<&str> = s.split(' ').collect();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 16);
        assert_eq!(parts[1].len(), 16);
        assert_eq!(parts[2], "0");
    }

    #[cfg(feature = "invariants")]
    #[test]
    fn corruption_breaks_consistency() {
        let mut l = ledger();
        l.record_message(MessageType::Negotiate, 2, 0);
        assert!(l.is_consistent());
        l.corrupt_chain(2);
        assert!(!l.is_consistent());
    }
}
