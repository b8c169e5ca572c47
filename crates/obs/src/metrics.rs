//! The static-id metrics registry: counters, float accumulators and
//! log-linear (HDR-style) histograms with per-GFA and per-run scopes.
//!
//! Every instrument is identified by a small enum, so recording is an array
//! index away from free: a counter bump is `run[i] += 1; gfa[g][i] += 1`,
//! and a histogram observation is two increments plus an exponent extract.
//! Nothing here allocates on the hot path after the first observation, and
//! nothing reads simulation state — the registry only ever receives values
//! the caller already computed.
//!
//! The histogram is the classic log-linear design: the f64's exponent picks
//! an octave, the top three mantissa bits pick one of eight sub-buckets, so
//! quantiles carry at most ~±6 % relative error over the full range the
//! simulation produces (sub-microsecond latencies to multi-day waits).
//! Quantiles are reported from the bucket midpoint, clamped into the
//! observed `[min, max]`, which keeps p50/p90/p99 deterministic across
//! hosts — no sampling, no interpolation on machine-dependent layouts.

use std::fmt::Write as _;

/// Monotone event counters: the one accounting surface for the run's
/// quote-cache, churn, self-healing, network-fault and job-outcome tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Quote-cache hits (per-GFA caches, merged at run end).
    CacheHits,
    /// Quote-cache misses.
    CacheMisses,
    /// Graceful departures under churn.
    GracefulLeaves,
    /// Crash departures under churn.
    Crashes,
    /// Nodes re-joining the overlay.
    Rejoins,
    /// Periodic stabilization rounds executed.
    StabilizationRounds,
    /// Messages spent on stabilization.
    StabilizationMessages,
    /// Directory lookups that hit a departed node.
    LookupFaults,
    /// Bounded lookup retries after a fault.
    FaultRetries,
    /// Jobs that fell back to local execution after exhausting retries.
    LocalFallbacks,
    /// Reactive ring repairs triggered by a faulted lookup.
    ReactiveRepairs,
    /// Messages spent on reactive repairs.
    ReactiveRepairMessages,
    /// Protocol messages wrapped in a sequenced envelope.
    NetEnveloped,
    /// Envelope retransmissions on lossy links.
    NetRetransmissions,
    /// Envelopes duplicated by the link.
    NetDuplicates,
    /// Duplicate envelopes dropped by the receiver's dedup window.
    NetDedupDrops,
    /// Extra directory-query messages charged to retransmissions.
    NetDirectoryRetransmissions,
    /// Extra publish messages charged to retransmissions.
    NetPublishRetransmissions,
    /// Jobs that completed (locally or remotely).
    JobsCompleted,
    /// Jobs rejected by every feasible candidate.
    JobsRejected,
}

impl Counter {
    /// Number of counter ids (array dimension).
    pub const COUNT: usize = 20;

    /// All counters, in reporting order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::GracefulLeaves,
        Counter::Crashes,
        Counter::Rejoins,
        Counter::StabilizationRounds,
        Counter::StabilizationMessages,
        Counter::LookupFaults,
        Counter::FaultRetries,
        Counter::LocalFallbacks,
        Counter::ReactiveRepairs,
        Counter::ReactiveRepairMessages,
        Counter::NetEnveloped,
        Counter::NetRetransmissions,
        Counter::NetDuplicates,
        Counter::NetDedupDrops,
        Counter::NetDirectoryRetransmissions,
        Counter::NetPublishRetransmissions,
        Counter::JobsCompleted,
        Counter::JobsRejected,
    ];

    /// Stable snake_case id used in the metrics JSON artifact.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Counter::CacheHits => "directory_cache_hits",
            Counter::CacheMisses => "directory_cache_misses",
            Counter::GracefulLeaves => "churn_graceful_leaves",
            Counter::Crashes => "churn_crashes",
            Counter::Rejoins => "churn_rejoins",
            Counter::StabilizationRounds => "churn_stabilization_rounds",
            Counter::StabilizationMessages => "churn_stabilization_messages",
            Counter::LookupFaults => "churn_lookup_faults",
            Counter::FaultRetries => "churn_retries",
            Counter::LocalFallbacks => "churn_local_fallbacks",
            Counter::ReactiveRepairs => "churn_reactive_repairs",
            Counter::ReactiveRepairMessages => "churn_reactive_repair_messages",
            Counter::NetEnveloped => "net_enveloped",
            Counter::NetRetransmissions => "net_retransmissions",
            Counter::NetDuplicates => "net_duplicates",
            Counter::NetDedupDrops => "net_dedup_drops",
            Counter::NetDirectoryRetransmissions => "net_directory_retransmissions",
            Counter::NetPublishRetransmissions => "net_publish_retransmissions",
            Counter::JobsCompleted => "jobs_completed",
            Counter::JobsRejected => "jobs_rejected",
        }
    }
}

/// Float accumulators (sums of simulated seconds); kept apart from the
/// `u64` counters so every addition stays in the exact order the events
/// fired, which keeps the sums deterministic bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FSum {
    /// Simulated seconds jobs spent waiting out lookup-fault retries.
    FaultWaitSeconds,
    /// Simulated seconds of link jitter added to envelope deliveries.
    JitterSeconds,
    /// Simulated seconds of retransmission backoff added to deliveries.
    BackoffSeconds,
}

impl FSum {
    /// Number of float-accumulator ids.
    pub const COUNT: usize = 3;

    /// All accumulators, in reporting order.
    pub const ALL: [FSum; FSum::COUNT] =
        [FSum::FaultWaitSeconds, FSum::JitterSeconds, FSum::BackoffSeconds];

    /// Stable snake_case id used in the metrics JSON artifact.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            FSum::FaultWaitSeconds => "churn_fault_wait_seconds",
            FSum::JitterSeconds => "net_jitter_seconds",
            FSum::BackoffSeconds => "net_backoff_seconds",
        }
    }
}

/// Run-scope histogram ids, recorded at event boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistId {
    /// Seconds between a job's submission and its execution start.
    JobWait,
    /// (finish − submit) / service-time of completed jobs.
    JobSlowdown,
    /// Negotiation + directory messages spent per concluded job.
    NegotiationMessages,
    /// Simulated seconds charged per directory lookup.
    DirectoryLookupLatency,
    /// LRMS queue depth observed at job-arrival and job-finish boundaries.
    QueueDepth,
}

impl HistId {
    /// Number of histogram ids.
    pub const COUNT: usize = 5;

    /// All histograms, in reporting order.
    pub const ALL: [HistId; HistId::COUNT] = [
        HistId::JobWait,
        HistId::JobSlowdown,
        HistId::NegotiationMessages,
        HistId::DirectoryLookupLatency,
        HistId::QueueDepth,
    ];

    /// Stable snake_case id used in the metrics JSON artifact.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            HistId::JobWait => "job_wait_seconds",
            HistId::JobSlowdown => "job_slowdown",
            HistId::NegotiationMessages => "negotiation_messages_per_job",
            HistId::DirectoryLookupLatency => "directory_lookup_seconds",
            HistId::QueueDepth => "queue_depth",
        }
    }
}

/// Lowest biased exponent with its own octave (≈ 6e-8); smaller values
/// share the first octave's floor bucket.
const EXP_LOW: i64 = 1023 - 24;
/// Highest biased exponent with its own octave (≈ 1.1e12); larger values
/// saturate into the top bucket.
const EXP_HIGH: i64 = 1023 + 40;
/// Sub-buckets per octave (top three mantissa bits).
const SUBS: usize = 8;
/// Dense bucket count: one zero/negative bucket plus eight sub-buckets per
/// octave across the covered exponent range.
const BUCKETS: usize = 1 + (EXP_HIGH - EXP_LOW + 1) as usize * SUBS;

/// A log-linear histogram: eight sub-buckets per power-of-two octave, a
/// dedicated zero bucket, and saturating under/overflow — every observation
/// lands somewhere, and quantiles come back with ≤ ~6 % relative error.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Allocated lazily on the first observation, so untouched histograms
    /// cost four words.
    buckets: Vec<u64>,
}

/// Dense bucket index of a sample (0 = zero/negative/NaN).
fn bucket_index(v: f64) -> usize {
    if v.partial_cmp(&0.0) != Some(core::cmp::Ordering::Greater) {
        return 0;
    }
    let bits = v.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i64;
    let mut sub = ((bits >> 49) & 0x7) as usize;
    if e < EXP_LOW {
        e = EXP_LOW;
        sub = 0;
    } else if e > EXP_HIGH {
        e = EXP_HIGH;
        sub = SUBS - 1;
    }
    1 + (e - EXP_LOW) as usize * SUBS + sub
}

/// Midpoint value represented by a dense bucket index.
fn bucket_value(idx: usize) -> f64 {
    if idx == 0 {
        return 0.0;
    }
    let e = EXP_LOW + ((idx - 1) / SUBS) as i64;
    let sub = (idx - 1) % SUBS;
    let scale = ((e - 1023) as f64).exp2();
    scale * (1.0 + (sub as f64 + 0.5) / SUBS as f64)
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, v: f64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.buckets[bucket_index(v)] += 1;
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (for means).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the midpoint of the bucket that
    /// holds the rank-⌈q·count⌉ sample, clamped into the observed range.
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// p50/p90/p99 plus the sample count, the unit every percentile panel
/// renders.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Quantiles {
    /// Number of samples behind the percentiles.
    pub count: u64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Quantiles {
    /// Extracts the panel quantiles from a histogram.
    #[must_use]
    pub fn of(hist: &Histogram) -> Quantiles {
        Quantiles {
            count: hist.count(),
            p50: hist.quantile(0.50),
            p90: hist.quantile(0.90),
            p99: hist.quantile(0.99),
        }
    }
}

/// One scope's counters and accumulators (the run scope and each GFA hold
/// one of these; histograms are run-scope only).
#[derive(Debug, Clone, PartialEq)]
struct Scope {
    counters: [u64; Counter::COUNT],
    fsums: [f64; FSum::COUNT],
}

impl Scope {
    fn new() -> Scope {
        Scope { counters: [0; Counter::COUNT], fsums: [0.0; FSum::COUNT] }
    }
}

/// The registry: a run scope, one scope per GFA, and the run-scope
/// histograms.  All writes are O(1) array operations; all reads are
/// deterministic functions of the recorded values.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    run: Scope,
    per_gfa: Vec<Scope>,
    hists: Vec<Histogram>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new(0)
    }
}

impl MetricsRegistry {
    /// A registry scoped to `n` GFAs.
    #[must_use]
    pub fn new(n: usize) -> MetricsRegistry {
        MetricsRegistry {
            run: Scope::new(),
            per_gfa: vec![Scope::new(); n],
            hists: vec![Histogram::default(); HistId::COUNT],
        }
    }

    /// Bumps `counter` by one in GFA `gfa`'s scope and the run scope.
    pub fn inc(&mut self, gfa: usize, counter: Counter) {
        self.add(gfa, counter, 1);
    }

    /// Adds `by` to `counter` in GFA `gfa`'s scope and the run scope.
    pub fn add(&mut self, gfa: usize, counter: Counter, by: u64) {
        self.run.counters[counter as usize] += by;
        if let Some(scope) = self.per_gfa.get_mut(gfa) {
            scope.counters[counter as usize] += by;
        }
    }

    /// Adds `by` to float accumulator `fsum` in both scopes.
    pub fn add_f(&mut self, gfa: usize, fsum: FSum, by: f64) {
        self.run.fsums[fsum as usize] += by;
        if let Some(scope) = self.per_gfa.get_mut(gfa) {
            scope.fsums[fsum as usize] += by;
        }
    }

    /// Records one histogram sample (run scope).
    pub fn observe(&mut self, hist: HistId, v: f64) {
        self.hists[hist as usize].observe(v);
    }

    /// Run-scope value of `counter`.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.run.counters[counter as usize]
    }

    /// Run-scope value of `fsum`.
    #[must_use]
    pub fn fsum(&self, fsum: FSum) -> f64 {
        self.run.fsums[fsum as usize]
    }

    /// Run-scope histogram for `hist`.
    #[must_use]
    pub fn hist(&self, hist: HistId) -> &Histogram {
        &self.hists[hist as usize]
    }

    /// Panel quantiles of one histogram.
    #[must_use]
    pub fn quantiles(&self, hist: HistId) -> Quantiles {
        Quantiles::of(self.hist(hist))
    }

    /// Serialises the registry as the metrics JSON artifact:
    /// run-scope counters/accumulators, per-histogram percentile blocks,
    /// and the per-GFA counter table.  Key order is the declaration order
    /// of the id enums, so the artifact is byte-deterministic.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n  \"counters\": {\n");
        for (i, c) in Counter::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{}\": {}{}",
                c.id(),
                self.counter(*c),
                if i + 1 < Counter::ALL.len() { "," } else { "" }
            );
        }
        out.push_str("  },\n  \"sums\": {\n");
        for (i, f) in FSum::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{}\": {:.6}{}",
                f.id(),
                self.fsum(*f),
                if i + 1 < FSum::ALL.len() { "," } else { "" }
            );
        }
        out.push_str("  },\n  \"histograms\": {\n");
        for (i, h) in HistId::ALL.iter().enumerate() {
            let hist = self.hist(*h);
            let q = Quantiles::of(hist);
            let _ = writeln!(
                out,
                "    \"{}\": {{ \"count\": {}, \"sum\": {:.6}, \"min\": {:.6}, \"max\": {:.6}, \"p50\": {:.6}, \"p90\": {:.6}, \"p99\": {:.6} }}{}",
                h.id(),
                q.count,
                hist.sum(),
                hist.min(),
                hist.max(),
                q.p50,
                q.p90,
                q.p99,
                if i + 1 < HistId::ALL.len() { "," } else { "" }
            );
        }
        out.push_str("  },\n  \"per_gfa\": [\n");
        for (g, scope) in self.per_gfa.iter().enumerate() {
            out.push_str("    { ");
            let _ = write!(out, "\"gfa\": {g}");
            for c in Counter::ALL {
                let v = scope.counters[c as usize];
                if v != 0 {
                    let _ = write!(out, ", \"{}\": {v}", c.id());
                }
            }
            for f in FSum::ALL {
                let v = scope.fsums[f as usize];
                if v != 0.0 {
                    let _ = write!(out, ", \"{}\": {v:.6}", f.id());
                }
            }
            out.push_str(if g + 1 < self.per_gfa.len() { " },\n" } else { " }\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_midpoints_stay_within_relative_error() {
        for i in 0..4000 {
            let v = 1e-6 * 1.01f64.powi(i); // 1e-6 up past 1e11
            let mid = bucket_value(bucket_index(v));
            let err = (mid - v).abs() / v;
            assert!(err < 0.07, "value {v} mapped to {mid} (err {err})");
        }
    }

    #[test]
    fn quantiles_are_ordered_and_clamped() {
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.observe(f64::from(i));
        }
        let (p50, p90, p99) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
        assert!(p50 <= p90 && p90 <= p99);
        assert!((p50 - 500.0).abs() / 500.0 < 0.07, "p50 {p50}");
        assert!((p90 - 900.0).abs() / 900.0 < 0.07, "p90 {p90}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.07, "p99 {p99}");
        assert!(p99 <= h.max());
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn zero_and_extreme_samples_land_somewhere() {
        let mut h = Histogram::default();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(1e-30);
        h.observe(1e30);
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(0.25), 0.0);
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(Quantiles::of(&h), Quantiles::default());
    }

    #[test]
    fn per_gfa_counters_sum_to_the_run_scope() {
        let mut reg = MetricsRegistry::new(3);
        reg.inc(0, Counter::CacheHits);
        reg.add(1, Counter::CacheHits, 4);
        reg.add(2, Counter::CacheHits, 2);
        reg.add_f(1, FSum::JitterSeconds, 0.5);
        reg.add_f(2, FSum::JitterSeconds, 0.25);
        let per_gfa: u64 = reg.per_gfa.iter().map(|s| s.counters[Counter::CacheHits as usize]).sum();
        assert_eq!(per_gfa, reg.counter(Counter::CacheHits));
        assert_eq!(reg.counter(Counter::CacheHits), 7);
        assert!((reg.fsum(FSum::JitterSeconds) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn json_artifact_has_every_id() {
        let mut reg = MetricsRegistry::new(2);
        reg.inc(0, Counter::JobsCompleted);
        reg.observe(HistId::JobWait, 12.5);
        let json = reg.to_json();
        for c in Counter::ALL {
            assert!(json.contains(c.id()), "missing {}", c.id());
        }
        for h in HistId::ALL {
            assert!(json.contains(h.id()), "missing {}", h.id());
        }
        for f in FSum::ALL {
            assert!(json.contains(f.id()), "missing {}", f.id());
        }
        assert!(crate::json::parse(&json).is_ok(), "artifact must be valid JSON");
    }
}
