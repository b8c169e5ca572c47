//! Turning one workload's measurements into the named metrics of
//! `BENCHMARK.json`: the end-to-end set of an untraced measurement and the
//! per-layer split of a traced one.

use std::collections::BTreeMap;

use grid_federation_core::{Counter, FederationReport, HistId, ProfileTable};

use crate::layers::{AccountingCosts, DirectoryCosts, NetCosts};
use crate::output::Metric;

/// What an untraced measurement observed.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Host-normalised seconds of one untraced run: the median of each
    /// federation's runs, averaged over the workload's federations.
    pub run_s: f64,
    /// Median host-normalised seconds of generating the run's inputs.
    pub setup_s: f64,
    /// Jobs one run submits (mean over the workload's federations).
    pub jobs: f64,
    /// DES events one run delivers (mean over the workload's federations).
    pub events: f64,
    /// Peak resident memory of the process, MB.
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
#[must_use]
pub fn end_to_end(e: &EndToEnd) -> Vec<Metric> {
    vec![
        Metric {
            name: "run_s",
            value: e.run_s,
            unit: "s",
        },
        Metric {
            name: "jobs_per_s",
            value: e.jobs / e.run_s,
            unit: "1/s",
        },
        Metric {
            name: "events_per_s",
            value: e.events / e.run_s,
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: e.setup_s,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: e.peak_rss_mb,
            unit: "MB",
        },
    ]
}

/// Call counts of one traced run, read from its report and profile.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Jobs submitted.
    pub jobs: f64,
    /// Jobs accepted somewhere in the federation.
    pub accepted: f64,
    /// `(events, handler seconds)` per profiled event type.
    pub rows: BTreeMap<&'static str, (u64, f64)>,
    /// Ranking queries the directory served.
    pub directory_queries: f64,
    /// Quote-cache hits.
    pub cache_hits: f64,
    /// Quote-cache misses (routed opens or resumed cursors).
    pub cache_misses: f64,
    /// Query-side directory messages.
    pub directory_messages: f64,
    /// Publish-side directory messages.
    pub publish_messages: f64,
    /// Lookups that hit a departed node.
    pub lookup_faults: f64,
    /// Backoff retries after a faulted lookup.
    pub fault_retries: f64,
    /// Jobs that fell back to local execution.
    pub local_fallbacks: f64,
    /// Graceful churn departures.
    pub graceful_leaves: f64,
    /// Crash churn departures.
    pub crashes: f64,
    /// Churn rejoins.
    pub rejoins: f64,
    /// Stabilization rounds.
    pub stabilization_rounds: f64,
    /// Negotiation-protocol messages in the ledger.
    pub ledger_messages: f64,
    /// Records folded into the audit chains.
    pub digest_entries: f64,
    /// Histogram observations in the metrics registry.
    pub observations: f64,
    /// Protocol messages the unreliable transport enveloped.
    pub enveloped: f64,
    /// Envelope retransmissions.
    pub retransmissions: f64,
    /// Envelopes duplicated in flight.
    pub duplicates: f64,
    /// Duplicates the receivers dropped.
    pub dedup_drops: f64,
    /// Median LRMS queue depth.
    pub queue_depth_p50: f64,
    /// 99th-percentile LRMS queue depth.
    pub queue_depth_p99: f64,
}

impl Counts {
    /// Reads the counts of a traced run.
    #[must_use]
    pub fn of(report: &FederationReport, profile: &ProfileTable) -> Counts {
        let reg = &report.metrics;
        let c = |counter| reg.counter(counter) as f64;
        let depth = reg.quantiles(HistId::QueueDepth);
        Counts {
            jobs: report.jobs.len() as f64,
            accepted: report.jobs.iter().filter(|j| j.was_accepted()).count() as f64,
            rows: profile
                .rows()
                .map(|(label, e)| (label, (e.events, e.total_secs)))
                .collect(),
            directory_queries: report.directory_queries as f64,
            cache_hits: report.directory_cache.hits as f64,
            cache_misses: report.directory_cache.misses as f64,
            directory_messages: report.messages.directory_messages() as f64,
            publish_messages: report.messages.publish_messages() as f64,
            lookup_faults: c(Counter::LookupFaults),
            fault_retries: c(Counter::FaultRetries),
            local_fallbacks: c(Counter::LocalFallbacks),
            graceful_leaves: c(Counter::GracefulLeaves),
            crashes: c(Counter::Crashes),
            rejoins: c(Counter::Rejoins),
            stabilization_rounds: c(Counter::StabilizationRounds),
            ledger_messages: report.messages.total_messages() as f64,
            digest_entries: report.digest.entries as f64,
            observations: HistId::ALL
                .iter()
                .map(|&h| reg.hist(h).count() as f64)
                .sum(),
            enveloped: c(Counter::NetEnveloped),
            retransmissions: c(Counter::NetRetransmissions),
            duplicates: c(Counter::NetDuplicates),
            dedup_drops: c(Counter::NetDedupDrops),
            queue_depth_p50: depth.p50,
            queue_depth_p99: depth.p99,
        }
    }

    fn events(&self, label: &str) -> f64 {
        self.rows.get(label).map_or(0.0, |r| r.0 as f64)
    }

    fn handler_s(&self, label: &str) -> f64 {
        self.rows.get(label).map_or(0.0, |r| r.1)
    }

    fn total_events(&self) -> f64 {
        self.rows.values().map(|r| r.0 as f64).sum()
    }

    fn total_handler_s(&self) -> f64 {
        self.rows.values().map(|r| r.1).sum()
    }
}

/// Wall times and outside-in per-call costs of a traced measurement.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Wall seconds of the fastest traced run, whose profile is split.
    pub traced_s: f64,
    /// Wall seconds of the fastest untraced run of the same inputs.
    pub untraced_s: f64,
    /// Event-queue push+pop, ns per event.
    pub queue_ns: f64,
    /// `estimate_completion` at the run's p50 queue depth, ns.
    pub quote_ns_p50: f64,
    /// `estimate_completion` at the run's p99 queue depth, ns.
    pub quote_ns_p99: f64,
    /// Directory entry points at the workload's backend and size.
    pub directory: DirectoryCosts,
    /// Accounting-store `record*` calls.
    pub accounting: AccountingCosts,
    /// Transport calls.
    pub net: NetCosts,
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layer-attributed seconds estimated from outside-in costs × call counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimates {
    /// Directory probes, writes and membership operations.
    pub directory_s: f64,
    /// LRMS admission-control quotes.
    pub cluster_s: f64,
    /// Ledger, audit and registry records.
    pub accounting_s: f64,
    /// Transport planning and dedup.
    pub net_s: f64,
}

impl Estimates {
    /// Multiplies each layer's per-call cost by the run's call counts.
    #[must_use]
    pub fn of(c: &Counts, t: &Timings) -> Estimates {
        let d = &t.directory;
        let directory_s = (c.cache_hits * d.probe_hit_ns + c.cache_misses * d.open_ns) * 1e-9
            + c.events("reprice") * d.update_price_us * 1e-6
            + (c.graceful_leaves * d.node_depart_us
                + c.crashes * d.node_crash_us
                + c.rejoins * d.node_join_us)
                * 1e-6
            + c.stabilization_rounds * d.stabilize_ms * 1e-3;
        let a = &t.accounting;
        Estimates {
            directory_s,
            cluster_s: c.events("negotiate") * t.quote_ns_p50 * 1e-9,
            accounting_s: (c.ledger_messages * a.ledger_ns
                + c.digest_entries * a.audit_ns
                + c.observations * a.observe_ns)
                * 1e-9,
            net_s: (c.enveloped * t.net.plan_ns + (c.enveloped + c.duplicates) * t.net.admit_ns)
                * 1e-9,
        }
    }

    /// Sum over the four layers.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.directory_s + self.cluster_s + self.accounting_s + self.net_s
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order.
#[must_use]
pub fn per_layer(c: &Counts, t: &Timings, failed_frac: f64) -> Vec<Metric> {
    let est = Estimates::of(c, t);
    let handler_s = c.total_handler_s();
    let events = c.total_events();
    let negotiations = c.events("negotiate");
    let d = &t.directory;
    let charges = c.ledger_messages + c.digest_entries;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("des.events", events, "count"),
        m("des.self_s", t.traced_s - handler_s, "s"),
        m("des.queue_ns_per_event", t.queue_ns, "ns"),
        m("gfa.negotiate_s", c.handler_s("negotiate"), "s"),
        m("gfa.negotiate_reply_s", c.handler_s("negotiate_reply"), "s"),
        m("gfa.job_arrival_s", c.handler_s("job_arrival"), "s"),
        m(
            "gfa.local_job_finished_s",
            c.handler_s("local_job_finished"),
            "s",
        ),
        m("gfa.job_completion_s", c.handler_s("job_completion"), "s"),
        m("gfa.job_dispatch_s", c.handler_s("job_dispatch"), "s"),
        m("gfa.reprice_s", c.handler_s("reprice"), "s"),
        m(
            "gfa.churn_s",
            c.handler_s("churn_depart") + c.handler_s("churn_join"),
            "s",
        ),
        m("gfa.stabilize_s", c.handler_s("stabilize"), "s"),
        m("gfa.directory_retry_s", c.handler_s("directory_retry"), "s"),
        m("gfa.self_s", handler_s - est.total(), "s"),
        m(
            "gfa.negotiations_per_job",
            ratio(negotiations, c.jobs),
            "ratio",
        ),
        m("gfa.accept_ratio", ratio(c.accepted, negotiations), "ratio"),
        m("cluster.quotes", negotiations, "count"),
        m("cluster.quote_ns_p50", t.quote_ns_p50, "ns"),
        m("cluster.quote_ns_p99", t.quote_ns_p99, "ns"),
        m("cluster.queue_depth_p99", c.queue_depth_p99, "count"),
        m("cluster.est_s", est.cluster_s, "s"),
        m("directory.queries", c.directory_queries, "count"),
        m(
            "directory.cache_hit_ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
            "ratio",
        ),
        m(
            "directory.messages_per_job",
            ratio(c.directory_messages, c.jobs),
            "ratio",
        ),
        m("directory.publish_messages", c.publish_messages, "count"),
        m("directory.open_ns", d.open_ns, "ns"),
        m("directory.advance_ns", d.advance_ns, "ns"),
        m("directory.probe_hit_ns", d.probe_hit_ns, "ns"),
        m("directory.update_price_us", d.update_price_us, "us"),
        m("directory.node_depart_us", d.node_depart_us, "us"),
        m("directory.node_join_us", d.node_join_us, "us"),
        m("directory.stabilize_ms", d.stabilize_ms, "ms"),
        m("directory.lookup_faults", c.lookup_faults, "count"),
        m("directory.fault_retries", c.fault_retries, "count"),
        m("directory.local_fallbacks", c.local_fallbacks, "count"),
        m("directory.est_s", est.directory_s, "s"),
        m("accounting.charges", charges, "count"),
        m(
            "accounting.record_ns",
            ratio(
                c.ledger_messages * t.accounting.ledger_ns
                    + c.digest_entries * t.accounting.audit_ns,
                charges,
            ),
            "ns",
        ),
        m("accounting.est_s", est.accounting_s, "s"),
        m("net.enveloped", c.enveloped, "count"),
        m("net.retransmissions", c.retransmissions, "count"),
        m("net.dedup_drops", c.dedup_drops, "count"),
        m(
            "net.retransmit_ratio",
            ratio(c.retransmissions, c.enveloped),
            "ratio",
        ),
        m("net.plan_ns", t.net.plan_ns, "ns"),
        m("net.admit_ns", t.net.admit_ns, "ns"),
        m("net.est_s", est.net_s, "s"),
        m(
            "obs.overhead_frac",
            ratio(t.traced_s, t.untraced_s) - 1.0,
            "ratio",
        ),
        m("trace.handler_s", handler_s, "s"),
        m(
            "trace.layer_est_frac",
            ratio(est.total(), handler_s),
            "ratio",
        ),
        m(
            "trace.unattributed_frac",
            1.0 - ratio(events * t.queue_ns * 1e-9 + handler_s, t.traced_s),
            "ratio",
        ),
        m("failed_frac", failed_frac, "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_obs::json::{parse, Json};

    /// Metric names listed under `key` in the repository's `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits next to the benchmark");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("named metric")
                    .to_string()
            })
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.to_string()).collect()
    }

    #[test]
    fn emitted_metrics_are_exactly_the_declared_ones() {
        let e2e = end_to_end(&EndToEnd {
            run_s: 1.0,
            setup_s: 0.1,
            jobs: 10.0,
            events: 100.0,
            peak_rss_mb: 5.0,
        });
        assert_eq!(names(&e2e), declared("end_to_end"));
        let layers = per_layer(&Counts::default(), &Timings::default(), 0.0);
        assert_eq!(names(&layers), declared("per_layer"));
        for m in e2e.iter().chain(&layers) {
            assert!(crate::output::valid_name(m.name), "{}", m.name);
        }
    }

    #[test]
    fn unattributed_share_closes_the_split() {
        let mut c = Counts::default();
        c.rows.insert("negotiate", (1_000, 0.6));
        c.rows.insert("job_arrival", (1_000, 0.2));
        let t = Timings {
            traced_s: 1.0,
            queue_ns: 100.0,
            ..Timings::default()
        };
        let metrics = per_layer(&c, &t, 0.0);
        let get = |name: &str| metrics.iter().find(|m| m.name == name).expect(name).value;
        assert!((get("des.self_s") - 0.2).abs() < 1e-12);
        // 2 000 events × 100 ns = 0.2 ms of queue work; the rest is residue.
        assert!((get("trace.unattributed_frac") - (1.0 - 0.8002)).abs() < 1e-12);
        assert!(
            (get("gfa.negotiations_per_job")).abs() < 1e-12,
            "no jobs, no ratio"
        );
    }
}
