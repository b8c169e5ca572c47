//! The federation's message vocabulary and the message accounting used by
//! Experiments 4 and 5.
//!
//! The paper counts four message types — *negotiate*, *reply*,
//! *job-submission* and *job-completion* — and classifies them, per GFA, as
//! **local** (traffic a GFA generates to schedule its own users' jobs) or
//! **remote** (traffic a GFA handles on behalf of other GFAs' jobs).
//! Directory queries are accounted as a **separate** message class
//! (`directory`): every ranking query reports the number of overlay messages
//! it cost — a routed rank-1 lookup (modelled `⌈log₂ n⌉` for the ideal
//! backend, measured overlay hops for the MAAN backend) plus one
//! cursor-advance message per further rank, the `O(log n + k)` complexity of
//! DHT range queries — and the ledger tracks those counts, plus the
//! simulated network time they represent, without ever mixing them into the
//! four negotiation counters, so the paper's Fig. 9–11 stay comparable.
//! The *execution* now matches that model too: the DBC loop streams ranks
//! through a per-job [`grid_directory::RankCursor`] backed by a per-GFA
//! quote cache, charging exactly what the query-per-rank oracle charges
//! (asserted bit-identical by the differential tests).
//!
//! The ledger keeps per-GFA and federation-wide totals only.  A job's own
//! totals live on its [`crate::metrics::JobRecord`], and
//! [`crate::metrics::FederationReport::per_job_summary`] summarises them;
//! every write arrives through [`crate::federation::SharedState::record`].

use grid_workload::{Job, JobId};

/// Message and timer payloads exchanged between federation entities.
///
/// Every variant stays small (no inline [`Job`]), so an `Event<FedMessage>`
/// is at most 112 bytes.  The event queue's FIFO lane carries each
/// negotiation leg whole, moving those bytes in on the send and out on the
/// delivery, so `events_carrying_federation_messages_stay_within_112_bytes`
/// guards the lane's per-leg cost.
#[derive(Debug, Clone, PartialEq)]
pub enum FedMessage {
    /// Self-timer: one of this GFA's local users submits a job.  Boxed so
    /// the job's memory is released once it arrives.
    JobArrival(Box<Job>),
    /// Admission-control enquiry sent to a candidate GFA: "can you finish
    /// this job before its deadline?"
    Negotiate {
        /// Job being negotiated.
        job: JobId,
        /// GFA the job originates from (where the reply must go).
        origin: usize,
        /// Processors the job needs.
        processors: u32,
        /// Service time of the job on the *candidate* resource (computed by
        /// the origin from the candidate's quote, Eq. 2).
        service_time: f64,
        /// Cost of the job on the candidate resource (Eq. 4), carried so the
        /// candidate can account its incentive on completion.
        cost: f64,
        /// Absolute deadline (`submit + d`).
        absolute_deadline: f64,
        /// 1-based iteration counter `r` of the scheduling loop.
        attempt: u32,
        /// Per-link envelope sequence number (0 on a reliable transport).
        /// Under the network fault layer every remote protocol message
        /// carries a monotone per-(src, dst) sequence the receiver's dedup
        /// window filters duplicates by.
        seq: u64,
    },
    /// Admission-control answer.
    NegotiateReply {
        /// Job the reply refers to.
        job: JobId,
        /// Whether the candidate guarantees completion before the deadline.
        accept: bool,
        /// Candidate GFA replying.
        candidate: usize,
        /// Echo of the attempt counter.
        attempt: u32,
        /// Per-link envelope sequence number (0 on a reliable transport).
        seq: u64,
    },
    /// The actual job, sent after an accepted negotiation.  The executor
    /// already reserved the job (identity, processors, service time) when it
    /// accepted the negotiation, so the dispatch carries only its id.
    JobDispatch {
        /// Job being dispatched.
        job: JobId,
        /// Per-link envelope sequence number (0 on a reliable transport).
        seq: u64,
    },
    /// Completion notification (with "output") sent back to the origin GFA.
    JobCompletion {
        /// Job that finished.
        job: JobId,
        /// GFA that executed it.
        executed_on: usize,
        /// Time the job finished executing.
        finish: f64,
        /// Amount charged.
        cost: f64,
        /// Per-link envelope sequence number (0 on a reliable transport).
        seq: u64,
    },
    /// Self-timer: a job running on the local LRMS reached its finish time.
    LocalJobFinished {
        /// Job that finished locally.
        job: JobId,
    },
    /// Self-timer: this GFA departs the federation, withdrawing its quote
    /// from the directory.  Work already reserved on its LRMS still runs to
    /// completion; new negotiations are refused.
    Depart,
    /// Self-timer: this GFA republishes its access price through the
    /// directory's `update_price` primitive.
    Reprice {
        /// The new access price in Grid Dollars.
        price: f64,
    },
    /// Self-timer drawn from the seeded churn process: this GFA leaves the
    /// federation, either gracefully (handing its stored directory entries
    /// off to their new owners) or by crashing (dropping them cold).
    ChurnDepart {
        /// `true` for a graceful leave, `false` for an ungraceful crash.
        graceful: bool,
    },
    /// Self-timer drawn from the seeded churn process: a churned-out GFA
    /// comes back, rejoins the overlay and republishes its quote.
    ChurnJoin,
    /// Self-timer: this GFA drives one periodic stabilization round of the
    /// overlay — evicting crashed nodes, reconciling entry placement and
    /// repairing attribute-entry replicas up to the configured factor.
    Stabilize,
    /// Self-timer: a job whose directory lookup faulted retries its
    /// scheduling loop after an exponential-backoff delay.
    DirectoryRetry {
        /// Job whose scheduling loop resumes.
        job: JobId,
    },
}

impl FedMessage {
    /// The per-link envelope sequence number of a protocol message, or
    /// `None` for self-timers and other un-enveloped payloads.  Only the
    /// four remote negotiation-protocol messages travel the faultable
    /// transport, so only they carry a dedup-window envelope.
    #[must_use]
    pub fn envelope_seq(&self) -> Option<u64> {
        match self {
            FedMessage::Negotiate { seq, .. }
            | FedMessage::NegotiateReply { seq, .. }
            | FedMessage::JobDispatch { seq, .. }
            | FedMessage::JobCompletion { seq, .. } => Some(*seq),
            _ => None,
        }
    }

    /// A static per-variant label, used by the self-profiling hook to
    /// aggregate wall-clock handler timings by event type.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FedMessage::JobArrival(_) => "job_arrival",
            FedMessage::Negotiate { .. } => "negotiate",
            FedMessage::NegotiateReply { .. } => "negotiate_reply",
            FedMessage::JobDispatch { .. } => "job_dispatch",
            FedMessage::JobCompletion { .. } => "job_completion",
            FedMessage::LocalJobFinished { .. } => "local_job_finished",
            FedMessage::Depart => "depart",
            FedMessage::Reprice { .. } => "reprice",
            FedMessage::ChurnDepart { .. } => "churn_depart",
            FedMessage::ChurnJoin => "churn_join",
            FedMessage::Stabilize => "stabilize",
            FedMessage::DirectoryRetry { .. } => "directory_retry",
        }
    }
}

/// The four accountable message types of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageType {
    /// Admission-control enquiry.
    Negotiate,
    /// Admission-control answer.
    Reply,
    /// Message containing the actual job.
    JobSubmission,
    /// Message containing the job output.
    JobCompletion,
}

impl MessageType {
    /// All four types, in declaration order (useful for table headers);
    /// `mtype as usize` is a type's index here.
    pub const ALL: [MessageType; 4] = [
        MessageType::Negotiate,
        MessageType::Reply,
        MessageType::JobSubmission,
        MessageType::JobCompletion,
    ];
}

/// Per-GFA message counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GfaMessageCounters {
    /// Messages this GFA sent or received for its **own** users' jobs.
    pub local: u64,
    /// Messages this GFA sent or received for **other** GFAs' jobs.
    pub remote: u64,
    /// Breakdown by message type (sum of local + remote contributions
    /// counted at this GFA).
    pub by_type: [u64; 4],
    /// Directory messages this GFA's ranking queries cost.  Kept out of
    /// `local`/`remote` so the negotiation panels remain comparable.
    pub directory: u64,
    /// Publish-side directory messages this GFA's quote mutations cost —
    /// the routed put/remove/move operations of `subscribe`, `unsubscribe`
    /// and `update_price` under a distributed backend (always zero under
    /// the centrally-stored `Ideal` backend).  Its own traffic
    /// class, kept out of both the negotiation counters and `directory`.
    pub publish: u64,
}

impl GfaMessageCounters {
    /// Total messages seen at this GFA.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.local + self.remote
    }
}

/// Federation-wide message ledger.
///
/// For every accountable message exchanged between the origin GFA `k` and a
/// candidate/executing GFA `m`:
///
/// * the federation total is incremented once (a message is one message,
///   no matter how many parties look at it),
/// * GFA `k` records one **local** message,
/// * GFA `m` (if different from `k`) records one **remote** message.
///
/// Self-negotiation (the scheduling loop picking the origin itself) still
/// exchanges a negotiate/reply pair in the paper's accounting (`n = 2`
/// messages for an immediately-local job, "n/2 entries traversed"), so those
/// count as local messages at the origin with no remote counterpart.
#[derive(Debug, Clone, Default)]
pub struct MessageLedger {
    per_gfa: Vec<GfaMessageCounters>,
    total: u64,
    directory_total: u64,
    directory_seconds: f64,
    publish_total: u64,
    publish_seconds: f64,
}

impl MessageLedger {
    /// Creates a ledger for `n` GFAs.
    #[must_use]
    pub fn new(n: usize) -> Self {
        MessageLedger {
            per_gfa: vec![GfaMessageCounters::default(); n],
            total: 0,
            directory_total: 0,
            directory_seconds: 0.0,
            publish_total: 0,
            publish_seconds: 0.0,
        }
    }

    /// Records one message of `mtype` concerning a job originating at
    /// `origin`, whose counterpart GFA is `counterpart` (equal to `origin`
    /// for self-negotiation).
    ///
    /// # Panics
    /// Panics if either GFA index is out of range.
    pub fn record(&mut self, mtype: MessageType, origin: usize, counterpart: usize) {
        assert!(
            origin < self.per_gfa.len() && counterpart < self.per_gfa.len(),
            "unknown GFA in message record ({origin}, {counterpart})"
        );
        // `ALL` lists the variants in declaration order, so the
        // discriminant is the type's index.
        let type_idx = mtype as usize;
        self.per_gfa[origin].local += 1;
        self.per_gfa[origin].by_type[type_idx] += 1;
        if counterpart != origin {
            self.per_gfa[counterpart].remote += 1;
            self.per_gfa[counterpart].by_type[type_idx] += 1;
        }
        self.total += 1;
    }

    /// Records directory traffic: a ranking query issued by `origin` that
    /// cost `messages` overlay messages and `seconds` of simulated network
    /// time (hops × latency).  Directory traffic is accounted separately
    /// from the four negotiation message types.
    ///
    /// # Panics
    /// Panics if the GFA index is out of range.
    pub fn record_directory(&mut self, origin: usize, messages: u64, seconds: f64) {
        assert!(
            origin < self.per_gfa.len(),
            "unknown GFA in directory record ({origin})"
        );
        self.per_gfa[origin].directory += messages;
        self.directory_total += messages;
        self.directory_seconds += seconds;
    }

    /// Records publish-side directory traffic: a quote mutation
    /// (`subscribe` / `unsubscribe` / `update_price`) issued by `origin`
    /// whose routed put/remove/move operations cost `messages` overlay
    /// messages and `seconds` of simulated network time.  A third traffic
    /// class, accounted separately from both the negotiation messages and
    /// the query-side `directory` class.
    ///
    /// # Panics
    /// Panics if the GFA index is out of range.
    pub fn record_publish(&mut self, origin: usize, messages: u64, seconds: f64) {
        assert!(
            origin < self.per_gfa.len(),
            "unknown GFA in publish record ({origin})"
        );
        self.per_gfa[origin].publish += messages;
        self.publish_total += messages;
        self.publish_seconds += seconds;
    }

    /// Counters of one GFA.
    #[must_use]
    pub fn gfa(&self, idx: usize) -> &GfaMessageCounters {
        &self.per_gfa[idx]
    }

    /// Total number of accountable negotiation messages exchanged in the
    /// federation (directory traffic excluded, as in the paper's figures).
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.total
    }

    /// Total directory messages spent on ranking queries.
    #[must_use]
    pub fn directory_messages(&self) -> u64 {
        self.directory_total
    }

    /// Total simulated time (seconds) spent on directory lookups, i.e. the
    /// sum of hops × latency over all ranking queries.  Accounted out-of-band
    /// — lookups do not delay the negotiation timeline — so different
    /// backends produce identical job outcomes and differ only in this
    /// ledger.
    #[must_use]
    pub fn directory_seconds(&self) -> f64 {
        self.directory_seconds
    }

    /// Total publish-side directory messages spent on quote mutations
    /// (routed puts/removes/moves; zero under centrally-stored backends).
    #[must_use]
    pub fn publish_messages(&self) -> u64 {
        self.publish_total
    }

    /// Total simulated time (seconds) the publish-side traffic represents
    /// (messages × latency), accounted out-of-band like
    /// [`Self::directory_seconds`].
    #[must_use]
    pub fn publish_seconds(&self) -> f64 {
        self.publish_seconds
    }

    /// (min, mean, max) of per-GFA total (local + remote) message counts.
    #[must_use]
    pub fn per_gfa_summary(&self) -> (u64, f64, u64) {
        if self.per_gfa.is_empty() {
            return (0, 0.0, 0);
        }
        let totals: Vec<u64> = self.per_gfa.iter().map(GfaMessageCounters::total).collect();
        let min = *totals.iter().min().expect("non-empty");
        let max = *totals.iter().max().expect("non-empty");
        let sum: u64 = totals.iter().sum();
        (min, sum as f64 / totals.len() as f64, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_messages_count_at_both_sides() {
        let mut ledger = MessageLedger::new(3);
        // Origin 0 negotiates with candidate 2: negotiate + reply.
        ledger.record(MessageType::Negotiate, 0, 2);
        ledger.record(MessageType::Reply, 0, 2);
        // Accepted: dispatch + completion.
        ledger.record(MessageType::JobSubmission, 0, 2);
        ledger.record(MessageType::JobCompletion, 0, 2);

        assert_eq!(ledger.gfa(0).local, 4);
        assert_eq!(ledger.gfa(0).remote, 0);
        assert_eq!(ledger.gfa(2).remote, 4);
        assert_eq!(ledger.gfa(2).local, 0);
        assert_eq!(ledger.gfa(1).total(), 0);
        assert_eq!(ledger.total_messages(), 4);
        assert_eq!(ledger.per_gfa_summary(), (0, 8.0 / 3.0, 4));
    }

    #[test]
    fn self_negotiation_counts_as_local_only() {
        let mut ledger = MessageLedger::new(2);
        ledger.record(MessageType::Negotiate, 1, 1);
        ledger.record(MessageType::Reply, 1, 1);
        assert_eq!(ledger.gfa(1).local, 2);
        assert_eq!(ledger.gfa(1).remote, 0);
        assert_eq!(ledger.total_messages(), 2);
    }

    #[test]
    fn per_gfa_summary_is_min_mean_max() {
        let mut ledger = MessageLedger::new(3);
        ledger.record(MessageType::Negotiate, 0, 1);
        ledger.record(MessageType::Reply, 0, 1);
        ledger.record(MessageType::Negotiate, 2, 2);
        // GFA 0 and 1 each see two messages, GFA 2 one.
        let (min, mean, max) = ledger.per_gfa_summary();
        assert_eq!((min, max), (1, 2));
        assert!((mean - 5.0 / 3.0).abs() < 1e-12);
        // Empty ledger edge case.
        assert_eq!(MessageLedger::new(0).per_gfa_summary(), (0, 0.0, 0));
    }

    #[test]
    fn discriminants_index_all() {
        for (i, mtype) in MessageType::ALL.iter().enumerate() {
            assert_eq!(*mtype as usize, i);
        }
    }

    #[test]
    fn events_carrying_federation_messages_stay_within_112_bytes() {
        assert!(std::mem::size_of::<grid_des::Event<FedMessage>>() <= 112);
    }

    #[test]
    fn type_breakdown_is_tracked() {
        let mut ledger = MessageLedger::new(2);
        ledger.record(MessageType::Negotiate, 0, 1);
        ledger.record(MessageType::Negotiate, 0, 1);
        ledger.record(MessageType::Reply, 0, 1);
        assert_eq!(ledger.gfa(0).by_type[0], 2);
        assert_eq!(ledger.gfa(0).by_type[1], 1);
        assert_eq!(ledger.gfa(1).by_type[0], 2);
        assert_eq!(MessageType::ALL.len(), 4);
    }

    #[test]
    fn directory_traffic_is_accounted_separately() {
        let mut ledger = MessageLedger::new(2);
        ledger.record(MessageType::Negotiate, 0, 1);
        ledger.record(MessageType::Reply, 0, 1);
        ledger.record_directory(0, 3, 0.15);
        ledger.record_directory(1, 5, 0.25);

        // Negotiation counters are untouched by directory traffic.
        assert_eq!(ledger.total_messages(), 2);
        assert_eq!(ledger.gfa(0).local, 2);
        assert_eq!(ledger.gfa(0).directory, 3);
        assert_eq!(ledger.gfa(1).directory, 5);
        assert_eq!(ledger.directory_messages(), 8);
        assert!((ledger.directory_seconds() - 0.40).abs() < 1e-12);
        // Empty ledger edge case.
        assert_eq!(MessageLedger::new(1).directory_messages(), 0);
    }

    #[test]
    fn publish_traffic_is_a_third_class() {
        let mut ledger = MessageLedger::new(2);
        ledger.record(MessageType::Negotiate, 0, 1);
        ledger.record_directory(0, 3, 0.15);
        ledger.record_publish(1, 4, 0.20);
        ledger.record_publish(1, 2, 0.10);
        // Neither the negotiation counters nor the query-side directory
        // class move.
        assert_eq!(ledger.total_messages(), 1);
        assert_eq!(ledger.directory_messages(), 3);
        assert_eq!(ledger.gfa(1).publish, 6);
        assert_eq!(ledger.gfa(0).publish, 0);
        assert_eq!(ledger.publish_messages(), 6);
        assert!((ledger.publish_seconds() - 0.30).abs() < 1e-12);
        assert_eq!(MessageLedger::new(1).publish_messages(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown GFA in publish record")]
    fn out_of_range_publish_record_panics() {
        let mut ledger = MessageLedger::new(1);
        ledger.record_publish(2, 1, 0.05);
    }

    #[test]
    #[should_panic(expected = "unknown GFA")]
    fn out_of_range_gfa_panics() {
        let mut ledger = MessageLedger::new(1);
        ledger.record(MessageType::Negotiate, 0, 5);
    }

    #[test]
    #[should_panic(expected = "unknown GFA in directory record")]
    fn out_of_range_directory_record_panics() {
        let mut ledger = MessageLedger::new(1);
        ledger.record_directory(3, 1, 0.05);
    }
}
