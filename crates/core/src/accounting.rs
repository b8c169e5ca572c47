//! The federation's one accounting write path.
//!
//! Every accountable fact of a run — a message, directory or publish
//! charge, a job's conclusion, a GridBank payment, a job's outcome — is a
//! [`Charge`], and [`SharedState::record`] is the only code that writes it
//! into the message ledger, the audit chains, the bank, the job records and
//! the registry entries that follow from charges (fedlint's
//! `single-charge-path` rule keeps it so).  These views cannot drift apart.

use grid_des::{SimTime, SpanRecord, SpanTrack};
use grid_obs::{Counter, HistId};
use grid_workload::JobId;

use crate::federation::SharedState;
use crate::messages::MessageType;
use crate::metrics::{ExecutionOutcome, JobRecord};

/// One accountable fact of a federation run.
#[derive(Debug, Clone, PartialEq)]
pub enum Charge {
    /// A negotiation message of a type, for a job of the first GFA,
    /// exchanged with the second (the same GFA for self-negotiation).
    Message(MessageType, usize, usize),
    /// A GFA's ranking query cost this many overlay messages.
    Directory(usize, u64),
    /// A GFA's quote mutation cost this many overlay messages; zero records
    /// nothing.
    Publish(usize, u64),
    /// A job concluded with these negotiation and directory message totals.
    Concluded(JobId, u32, u32),
    /// The first GFA's users pay the second GFA's owner this many G$.
    Payment(usize, usize, f64),
    /// A job's final record.
    Outcome(JobRecord),
}

impl SharedState {
    /// Folds one charge into every store it concerns.  Directory and
    /// publish messages are charged the one-way latency each; the fault
    /// layer's per-hop drops cost extra messages, charged as a second record
    /// of the same class so the lossless charge stays intact in the chain.
    #[inline]
    pub fn record(&mut self, charge: Charge) {
        match charge {
            Charge::Message(ty, origin, counterpart) => {
                self.ledger.record(ty, origin, counterpart);
                self.audit.record_message(ty, origin, counterpart);
            }
            Charge::Directory(gfa, messages) => {
                let seconds = messages as f64 * self.latency;
                self.ledger.record_directory(gfa, messages, seconds);
                self.audit.record_directory(gfa, messages);
                self.metrics.observe(HistId::DirectoryLookupLatency, seconds);
                let extra = self.net.as_mut().map_or(0, |net| net.query_extra(gfa, messages));
                if extra > 0 {
                    self.metrics.add(gfa, Counter::NetDirectoryRetransmissions, extra);
                    let per_hop = seconds / messages as f64;
                    self.ledger.record_directory(gfa, extra, per_hop * extra as f64);
                    self.audit.record_directory(gfa, extra);
                }
            }
            Charge::Publish(_, 0) => {}
            Charge::Publish(gfa, messages) => {
                let seconds = messages as f64 * self.latency;
                self.ledger.record_publish(gfa, messages, seconds);
                self.audit.record_publish(gfa, messages);
                let extra = self.net.as_mut().map_or(0, |net| net.publish_extra(gfa, messages));
                if extra > 0 {
                    self.metrics.add(gfa, Counter::NetPublishRetransmissions, extra);
                    let per_hop = seconds / messages as f64;
                    self.ledger.record_publish(gfa, extra, per_hop * extra as f64);
                    self.audit.record_publish(gfa, extra);
                }
            }
            Charge::Concluded(job, messages, directory_messages) => {
                // The sentry panics at the duplicate charge itself.
                #[cfg(feature = "invariants")]
                self.invariants.note_concluded(job);
                self.audit.record_job_messages(job, messages, directory_messages);
            }
            Charge::Payment(payer, payee, amount) => {
                self.bank.pay(payer, payee, amount);
                self.audit.record_payment(payer, payee, amount);
            }
            Charge::Outcome(record) => self.record_outcome(record),
        }
    }

    /// Folds a job record into its origin's outcome chain, then records its
    /// observations and lifecycle span and appends it.  Out of line, so the
    /// hot arms of [`Self::record`] stay small where it is inlined.
    #[inline(never)]
    fn record_outcome(&mut self, record: JobRecord) {
        self.audit.record_outcome(&record);
        self.metrics.observe(HistId::NegotiationMessages, f64::from(record.messages));
        let end = match record.outcome {
            ExecutionOutcome::Completed { start, finish, .. } => {
                self.metrics.inc(record.origin, Counter::JobsCompleted);
                self.metrics.observe(HistId::JobWait, (start - record.submit).max(0.0));
                let service = finish - start;
                if service > 0.0 {
                    self.metrics.observe(HistId::JobSlowdown, (finish - record.submit) / service);
                }
                finish
            }
            ExecutionOutcome::Rejected => {
                self.metrics.inc(record.origin, Counter::JobsRejected);
                record.submit
            }
        };
        if self.trace_armed() {
            let verdict = if record.was_accepted() { "completed" } else { "rejected" };
            self.emit_span(SpanRecord {
                gfa: record.origin,
                track: SpanTrack::Lifecycle,
                name: "job",
                start: SimTime::new(record.submit),
                end: SimTime::new(end),
                detail: format!("{} {verdict}", record.id),
            });
        }
        self.jobs.push(record);
    }

    /// Corrupting test double: concludes and records the last finished job
    /// again, as a duplicated completion slipping past the dedup window
    /// would, so the invariant tests can prove the at-most-once checks fire.
    ///
    /// # Panics
    /// Panics if no job has concluded yet.
    #[cfg(feature = "invariants")]
    pub fn corrupt_replay_message(&mut self) {
        let record = self.jobs.last().expect("a concluded job to replay").clone();
        self.record(Charge::Concluded(record.id, record.messages, record.directory_messages));
        self.record(Charge::Outcome(record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AuditLedger, DirectoryBackend, GridBank, MessageLedger, MetricsRegistry};

    #[test]
    fn free_publish_records_nothing() {
        let mut shared = SharedState {
            directory: DirectoryBackend::Ideal.build(2, 1),
            bank: GridBank::new(2),
            ledger: MessageLedger::new(2),
            jobs: Vec::new(),
            audit: AuditLedger::new(2),
            net: None,
            latency: 0.05,
            metrics: MetricsRegistry::new(2),
            tracer: None,
            #[cfg(feature = "invariants")]
            invariants: crate::InvariantSentry::new(),
        };
        shared.record(Charge::Message(MessageType::Negotiate, 0, 1));
        shared.record(Charge::Publish(1, 2));
        let view = |s: &SharedState| {
            let l = &s.ledger;
            let totals = (l.total_messages(), l.directory_messages(), l.publish_messages());
            (totals, l.publish_seconds(), l.gfa(1).clone(), s.audit.digest())
        };
        let before = view(&shared);
        shared.record(Charge::Publish(1, 0));
        assert_eq!(view(&shared), before);
        assert_eq!(before.0, (1, 0, 2));
        assert_eq!(shared.audit.entries(), 2);
    }
}
