//! Deterministic network fault model for the DES transport.
//!
//! The simulator's default transport is perfect: every message is delivered
//! exactly once, in order, after its nominal latency.  This module provides
//! the knobs to make a run *unreliable* — per-link message loss, latency
//! jitter, duplication and bounded reordering — while keeping the run
//! exactly reproducible:
//!
//! * every link draws its faults from its own [`SimRng`] sub-stream, salted
//!   so that enabling faults never perturbs workload or churn draws;
//! * loss is modelled **out-of-band**: the sender is assumed to retransmit
//!   on timeout with bounded exponential backoff until a transmission gets
//!   through (the final attempt always does), so the fault layer converts a
//!   drop probability into a deterministic *transmission count* and backoff
//!   wait, charged as extra traffic rather than as a lost message;
//! * duplicates are real — the consumer is expected to deliver the duplicate
//!   as a genuine second event and suppress it with a receiver-side
//!   [`DedupWindow`], which is how handler idempotency gets exercised.
//!
//! The model deliberately keeps the *semantic* delivery at its nominal
//! latency: retransmissions and jitter are accounted in seconds and message
//! counts but do not move the simulation timeline, so a faulty run reaches
//! bit-identical job outcomes to its lossless twin while paying visibly more
//! traffic.  See the federation crate for the protocol-level integration.

use crate::rng::SimRng;

/// Largest exponent used for exponential backoff (`2^16` ≈ 65 536 × the base
/// timeout).  Capping the exponent keeps the delay finite for any retry
/// count instead of overflowing the shift.
pub const MAX_BACKOFF_EXPONENT: u32 = 16;

/// Retransmission backoff before attempt `attempt` (0-based): the base
/// `timeout` doubled per attempt, with the exponent saturated at
/// [`MAX_BACKOFF_EXPONENT`] so large attempt counts stay finite.
#[must_use]
pub fn backoff_delay(timeout: f64, attempt: u32) -> f64 {
    let exponent = attempt.min(MAX_BACKOFF_EXPONENT);
    timeout * f64::from(1u32 << exponent)
}

/// Latency jitter distribution added (statistically) to each delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Jitter {
    /// No jitter: deliveries observe exactly the nominal latency.
    None,
    /// Exponentially distributed extra latency with the given mean (seconds).
    Exponential {
        /// Mean extra latency in seconds (> 0).
        mean: f64,
    },
    /// Uniformly distributed extra latency in `[min, max)` seconds.
    Uniform {
        /// Lower bound of the extra latency (seconds).
        min: f64,
        /// Upper bound of the extra latency (seconds).
        max: f64,
    },
}

impl Jitter {
    /// Draws one jitter sample in seconds (0 for [`Jitter::None`]).
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Jitter::None => 0.0,
            Jitter::Exponential { mean } => rng.exponential(mean),
            Jitter::Uniform { min, max } => rng.uniform_range(min, max),
        }
    }

    /// Returns `true` if this distribution ever produces non-zero jitter.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !matches!(self, Jitter::None)
    }
}

/// Per-link fault parameters for an unreliable network.
///
/// The default value is fully inactive (no loss, no jitter, no duplication):
/// a federation configured with an inactive fault config is digest-identical
/// to one with no fault config at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkFaultConfig {
    /// Probability that any single transmission is dropped (each drop forces
    /// a timeout + retransmission; the attempt after the last allowed
    /// retransmission always succeeds, so delivery is eventual).
    pub drop: f64,
    /// Extra-latency distribution applied to deliveries (statistics only;
    /// the semantic timeline is unaffected).
    pub jitter: Jitter,
    /// Probability that a delivered message is duplicated in flight.  The
    /// duplicate is delivered as a real event and must be suppressed by the
    /// receiver's [`DedupWindow`].
    pub duplicate: f64,
    /// Upper bound (seconds) on how much later than the original a duplicate
    /// may arrive; duplicates never arrive earlier than the original, so a
    /// window of `w` bounds reordering to `w` seconds.
    pub reorder_window: f64,
    /// Base retransmission timeout in seconds (doubled per attempt, capped
    /// by [`MAX_BACKOFF_EXPONENT`]).
    pub timeout: f64,
    /// Maximum number of retransmissions per message.  Bounds both the
    /// traffic amplification and the worst-case backoff wait.
    pub max_retransmits: u32,
}

impl Default for NetworkFaultConfig {
    fn default() -> Self {
        NetworkFaultConfig {
            drop: 0.0,
            jitter: Jitter::None,
            duplicate: 0.0,
            reorder_window: 0.0,
            timeout: 30.0,
            max_retransmits: 8,
        }
    }
}

impl NetworkFaultConfig {
    /// Returns `true` if any fault mechanism can actually fire.  An inactive
    /// config behaves exactly like having no fault layer at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.drop > 0.0 || self.duplicate > 0.0 || self.jitter.is_active()
    }

    /// The "moderate faults" preset used by the unreliable-network
    /// experiment: 2% loss, exponential jitter, 1% duplication.
    #[must_use]
    pub fn moderate() -> Self {
        NetworkFaultConfig {
            drop: 0.02,
            jitter: Jitter::Exponential { mean: 0.2 },
            duplicate: 0.01,
            reorder_window: 5.0,
            timeout: 30.0,
            max_retransmits: 8,
        }
    }
}

/// Outcome of planning one message transmission over a faulty link.
///
/// All quantities are *extra* cost relative to the perfect transport: the
/// semantic delivery itself is not represented here.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransmissionPlan {
    /// Number of transmissions that were dropped and had to be repeated
    /// (each one is an extra message on the wire).
    pub retransmissions: u32,
    /// Total sender-side backoff wait accumulated across the drops, in
    /// seconds (exponential, capped per [`backoff_delay`]).
    pub backoff_seconds: f64,
    /// Jitter drawn for the successful delivery, in seconds.
    pub jitter_seconds: f64,
    /// Whether the delivered message was duplicated in flight.
    pub duplicate: bool,
    /// Extra delay of the duplicate relative to the original delivery
    /// (within the configured reorder window); 0 when `duplicate` is false.
    pub duplicate_delay: f64,
}

/// The fault state of one directed link: a dedicated random stream from
/// which that link's drops, jitter and duplications are drawn.
///
/// Links are derived with a caller-chosen salt so the fault streams are
/// disjoint from every other stream family in the simulation.
pub struct LinkFaults {
    rng: SimRng,
}

impl std::fmt::Debug for LinkFaults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkFaults")
            .field("seed", &self.rng.seed())
            .finish()
    }
}

impl LinkFaults {
    /// Creates the fault stream for one link.  `stream_id` must uniquely
    /// identify the link within the chosen salt family (e.g.
    /// `src * n + dst`).
    #[must_use]
    pub fn new(master_seed: u64, salt: u64, stream_id: u64) -> Self {
        LinkFaults {
            rng: SimRng::derive(master_seed ^ salt, stream_id),
        }
    }

    /// Plans one message transmission: draws the drop sequence, the delivery
    /// jitter and the duplication decision, in a fixed order so plans are
    /// reproducible for a given config.
    pub fn plan(&mut self, cfg: &NetworkFaultConfig) -> TransmissionPlan {
        let mut plan = TransmissionPlan::default();
        while plan.retransmissions < cfg.max_retransmits && self.rng.bernoulli(cfg.drop) {
            plan.backoff_seconds += backoff_delay(cfg.timeout, plan.retransmissions);
            plan.retransmissions += 1;
        }
        plan.jitter_seconds = cfg.jitter.sample(&mut self.rng);
        if self.rng.bernoulli(cfg.duplicate) {
            plan.duplicate = true;
            plan.duplicate_delay = self.rng.uniform_range(0.0, cfg.reorder_window.max(0.0));
        }
        plan
    }

    /// Draws only the drop/retransmit count for one transmission, without
    /// jitter or duplication.  Used for charge-modelled traffic (directory
    /// lookups, publishes) where only the message count matters.
    pub fn drops(&mut self, cfg: &NetworkFaultConfig) -> u32 {
        let mut dropped = 0;
        while dropped < cfg.max_retransmits && self.rng.bernoulli(cfg.drop) {
            dropped += 1;
        }
        dropped
    }
}

/// Receiver-side anti-replay window (IPsec style): a 64-entry sliding bitmap
/// over message sequence numbers that admits each sequence number at most
/// once and rejects anything older than the window.
///
/// The window base is monotone non-decreasing — the invariants sentry checks
/// exactly that — so a duplicate can never be re-admitted by sliding the
/// window backwards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupWindow {
    base: u64,
    seen: u64,
}

/// Width of the [`DedupWindow`] bitmap in sequence numbers.
pub const DEDUP_WINDOW_WIDTH: u64 = 64;

impl DedupWindow {
    /// Admits `seq` if it has not been seen before and is not older than the
    /// window; returns `false` for duplicates and stale sequence numbers.
    pub fn admit(&mut self, seq: u64) -> bool {
        if seq < self.base {
            return false;
        }
        if seq >= self.base + DEDUP_WINDOW_WIDTH {
            let shift = seq - (self.base + DEDUP_WINDOW_WIDTH - 1);
            if shift >= DEDUP_WINDOW_WIDTH {
                self.seen = 0;
            } else {
                // Bit positions are `seq - base`; advancing the base shrinks
                // every live position, so the bitmap shifts toward bit 0.
                self.seen >>= shift;
            }
            self.base += shift;
        }
        let bit = 1u64 << (seq - self.base);
        if self.seen & bit != 0 {
            return false;
        }
        self.seen |= bit;
        true
    }

    /// The lowest sequence number the window can still admit.  Monotone
    /// non-decreasing over the window's lifetime.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Corrupting test double: rewinds the window to its initial state, so a
    /// previously admitted sequence number would be admitted again.  The
    /// invariants sentry must catch the base regression.
    #[cfg(feature = "invariants")]
    pub fn corrupt_rewind(&mut self) {
        self.base = 0;
        self.seen = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_config_plans_nothing() {
        let cfg = NetworkFaultConfig::default();
        assert!(!cfg.is_active());
        let mut link = LinkFaults::new(7, 0xABCD, 3);
        for _ in 0..100 {
            let plan = link.plan(&cfg);
            assert_eq!(plan, TransmissionPlan::default());
            assert_eq!(link.drops(&cfg), 0);
        }
    }

    #[test]
    fn moderate_preset_is_active() {
        assert!(NetworkFaultConfig::moderate().is_active());
        assert!(NetworkFaultConfig {
            jitter: Jitter::Uniform { min: 0.0, max: 1.0 },
            ..NetworkFaultConfig::default()
        }
        .is_active());
    }

    #[test]
    fn plans_are_reproducible() {
        let cfg = NetworkFaultConfig::moderate();
        let mut a = LinkFaults::new(42, 0x5EED, 11);
        let mut b = LinkFaults::new(42, 0x5EED, 11);
        for _ in 0..500 {
            assert_eq!(a.plan(&cfg), b.plan(&cfg));
        }
    }

    #[test]
    fn distinct_links_draw_distinct_fault_sequences() {
        let cfg = NetworkFaultConfig {
            drop: 0.5,
            ..NetworkFaultConfig::moderate()
        };
        let seq = |id: u64| -> Vec<TransmissionPlan> {
            let mut link = LinkFaults::new(42, 0x5EED, id);
            (0..64).map(|_| link.plan(&cfg)).collect()
        };
        assert_ne!(seq(0), seq(1));
    }

    #[test]
    fn retransmissions_are_bounded() {
        let cfg = NetworkFaultConfig {
            drop: 1.0,
            max_retransmits: 5,
            ..NetworkFaultConfig::default()
        };
        let mut link = LinkFaults::new(1, 2, 3);
        for _ in 0..20 {
            let plan = link.plan(&cfg);
            assert_eq!(plan.retransmissions, 5);
            assert_eq!(link.drops(&cfg), 5);
        }
    }

    #[test]
    fn backoff_is_exponential_then_capped() {
        assert_eq!(backoff_delay(30.0, 0), 30.0);
        assert_eq!(backoff_delay(30.0, 1), 60.0);
        assert_eq!(backoff_delay(30.0, 4), 480.0);
        let cap = 30.0 * f64::from(1u32 << MAX_BACKOFF_EXPONENT);
        assert_eq!(backoff_delay(30.0, MAX_BACKOFF_EXPONENT), cap);
        // Saturates instead of overflowing the shift for huge attempt counts.
        assert_eq!(backoff_delay(30.0, u32::MAX), cap);
        assert!(backoff_delay(30.0, u32::MAX).is_finite());
    }

    #[test]
    fn duplicate_delay_respects_reorder_window() {
        let cfg = NetworkFaultConfig {
            duplicate: 1.0,
            reorder_window: 2.5,
            ..NetworkFaultConfig::default()
        };
        let mut link = LinkFaults::new(9, 9, 9);
        for _ in 0..200 {
            let plan = link.plan(&cfg);
            assert!(plan.duplicate);
            assert!((0.0..2.5).contains(&plan.duplicate_delay));
        }
    }

    #[test]
    fn dedup_admits_each_sequence_number_once() {
        let mut w = DedupWindow::default();
        assert!(w.admit(1));
        assert!(w.admit(2));
        assert!(!w.admit(1), "replay must be rejected");
        assert!(!w.admit(2), "replay must be rejected");
        assert!(w.admit(5), "gaps are fine");
        assert!(w.admit(3), "reordered-but-fresh within the window is fine");
        assert!(!w.admit(5));
    }

    #[test]
    fn dedup_window_slides_and_rejects_stale() {
        let mut w = DedupWindow::default();
        assert!(w.admit(100));
        assert!(w.base() > 0, "window must have slid past zero");
        assert!(!w.admit(1), "stale sequence numbers are rejected");
        assert!(
            w.admit(100 + DEDUP_WINDOW_WIDTH * 3),
            "far jumps clear the bitmap"
        );
        assert!(!w.admit(100), "the original is now stale");
        // Base never decreases as the window slides.
        let mut prev = 0;
        let mut w2 = DedupWindow::default();
        for seq in [3u64, 80, 80, 200, 190, 1000] {
            let _ = w2.admit(seq);
            assert!(w2.base() >= prev);
            prev = w2.base();
        }
    }

    #[test]
    fn dedup_edge_of_window_boundary() {
        let mut w = DedupWindow::default();
        assert!(w.admit(0));
        assert!(w.admit(DEDUP_WINDOW_WIDTH - 1), "still inside the window");
        assert_eq!(w.base(), 0);
        assert!(w.admit(DEDUP_WINDOW_WIDTH), "first slide by exactly one");
        assert_eq!(w.base(), 1);
        assert!(!w.admit(DEDUP_WINDOW_WIDTH), "and it is remembered");
    }

    #[test]
    fn dedup_monotone_stream_never_rejects_fresh_sequences() {
        // The production pattern: senders allocate 1, 2, 3, …; originals must
        // all be admitted no matter how many slides happen, and every replay
        // (a delivered duplicate) must still be rejected afterwards.
        let mut w = DedupWindow::default();
        for seq in 1..=DEDUP_WINDOW_WIDTH * 4 {
            assert!(w.admit(seq), "fresh seq {seq} wrongly rejected");
            assert!(!w.admit(seq), "replay of seq {seq} wrongly admitted");
        }
    }

    #[cfg(feature = "invariants")]
    #[test]
    fn corrupt_rewind_regresses_base() {
        let mut w = DedupWindow::default();
        assert!(w.admit(500));
        let before = w.base();
        w.corrupt_rewind();
        assert!(w.base() < before);
        assert!(w.admit(500), "corrupted window re-admits a replay");
    }
}
