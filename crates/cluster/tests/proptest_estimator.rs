//! Differential property tests for the incremental admission-control
//! estimator: random submit/finish/estimate sequences driven through both
//! local scheduler policies must yield estimates that are **bit-identical**
//! to the retained naive replay oracle, for every probe shape and at every
//! query time (including quotes issued between state changes, where the
//! epoch-stamped profile is answered from cache).
//!
//! Two input shapes drive them: continuous times, and a tie-heavy coarse
//! grid (multiples of 10 s, zero included) on which equal finishes, equal
//! starts and zero-length jobs are common and runs of submits see no quote
//! in between.  The case count is the shim default, so
//! `PROPTEST_CASES=4096` buys a deeper run.

use grid_cluster::{ClusterJob, EasyBackfilling, LocalScheduler, SpaceSharedFcfs, StartedJob};
use grid_workload::JobId;
use proptest::prelude::*;

/// The schedulers expose their retained replay estimator as an inherent
/// method; this local trait lets the differential driver stay generic.
trait ReplayOracle: LocalScheduler {
    fn oracle(&self, processors: u32, service_time: f64, now: f64) -> f64;
}

impl ReplayOracle for SpaceSharedFcfs {
    fn oracle(&self, processors: u32, service_time: f64, now: f64) -> f64 {
        self.estimate_completion_replay(processors, service_time, now)
    }
}

impl ReplayOracle for EasyBackfilling {
    fn oracle(&self, processors: u32, service_time: f64, now: f64) -> f64 {
        self.estimate_completion_replay(processors, service_time, now)
    }
}

#[derive(Debug, Clone)]
struct Step {
    arrival_gap: f64,
    procs_fraction: f64,
    service: f64,
    /// How far past the submission the quote burst is issued (exercises the
    /// cached profile at `now` strictly between state changes).
    quote_gap: f64,
    probe_procs_fraction: f64,
    probe_service: f64,
    /// Skips every quote of this step, so the submit (and the finishes
    /// before it) reach the scheduler with no quote since the last state
    /// change.
    quiet: bool,
}

fn step() -> impl Strategy<Value = Step> {
    (
        0.0f64..400.0,
        0.0f64..1.1, // deliberately overshoots so oversized probes occur
        0.0f64..3_000.0,
        0.0f64..50.0,
        0.0f64..1.3,
        0.0f64..2_000.0,
    )
        .prop_map(
            |(arrival_gap, procs_fraction, service, quote_gap, probe_procs_fraction, probe_service)| Step {
                arrival_gap,
                procs_fraction,
                service,
                quote_gap,
                probe_procs_fraction,
                probe_service,
                quiet: false,
            },
        )
}

/// Steps on a coarse grid: times in multiples of 10 s (zero included) and
/// sizes in eighths of the cluster, so finishes, starts and sizes tie.
fn tie_heavy_step() -> impl Strategy<Value = Step> {
    (
        0u32..6,
        0u32..10, // up to 9/8: oversized probes occur
        0u32..30,
        0u32..4,
        0u32..11,
        0u32..20,
        proptest::bool::ANY,
    )
        .prop_map(
            |(
                arrival_gap,
                procs_eighths,
                service,
                quote_gap,
                probe_procs_eighths,
                probe_service,
                quiet,
            )| Step {
                arrival_gap: f64::from(arrival_gap) * 10.0,
                procs_fraction: f64::from(procs_eighths) / 8.0,
                service: f64::from(service) * 10.0,
                quote_gap: f64::from(quote_gap) * 10.0,
                probe_procs_fraction: f64::from(probe_procs_eighths) / 8.0,
                probe_service: f64::from(probe_service) * 10.0,
                quiet,
            },
        )
}

fn procs_for(total: u32, fraction: f64) -> u32 {
    ((f64::from(total) * fraction).ceil() as u32).max(1)
}

/// Drives one scheduler through the whole random sequence, comparing the
/// incremental estimator against the replay oracle after every state change
/// and between state changes.
fn differential_drive<S: ReplayOracle>(scheduler: &mut S, total: u32, steps: &[Step]) {
    let mut running: Vec<StartedJob> = Vec::new();
    let mut scratch: Vec<StartedJob> = Vec::new();
    let mut now = 0.0f64;

    let check = |s: &S, probe_procs: u32, probe_service: f64, at: f64| {
        let incremental = s.estimate_completion(probe_procs, probe_service, at);
        let oracle = s.oracle(probe_procs, probe_service, at);
        assert_eq!(
            incremental.to_bits(),
            oracle.to_bits(),
            "estimator diverged: incremental {incremental} vs oracle {oracle} \
             (procs {probe_procs}, service {probe_service}, now {at})"
        );
    };

    for (i, input) in steps.iter().enumerate() {
        let arrival = now + input.arrival_gap;
        // Deliver completions that precede this arrival, in finish order,
        // quoting after each state change.
        while let Some(next) = running
            .iter()
            .filter(|s| s.finish <= arrival)
            .min_by(|a, b| a.finish.total_cmp(&b.finish))
            .copied()
        {
            running.retain(|s| s.id != next.id);
            scratch.clear();
            scheduler.on_finished_into(next.id, next.finish, &mut scratch);
            running.extend(scratch.iter().copied());
            if !input.quiet {
                let probe = procs_for(total, input.probe_procs_fraction);
                check(scheduler, probe, input.probe_service, next.finish);
            }
        }
        now = arrival;
        let procs = procs_for(total, input.procs_fraction).min(total);
        scratch.clear();
        scheduler.submit_into(
            ClusterJob {
                id: JobId { origin: 0, seq: i },
                processors: procs,
                service_time: input.service,
            },
            now,
            &mut scratch,
        );
        running.extend(scratch.iter().copied());
        if input.quiet {
            continue;
        }

        // Quote burst right at the state change…
        let probe = procs_for(total, input.probe_procs_fraction);
        check(scheduler, probe, input.probe_service, now);
        check(scheduler, probe.min(total).max(1), 0.0, now);
        // …and again strictly between state changes (the cached-profile
        // path; the estimator must fall back to a rebuild whenever the
        // cached window cannot answer this `now` exactly).
        let later = now + input.quote_gap;
        check(scheduler, probe, input.probe_service, later);
        check(scheduler, 1, input.probe_service, later);
        check(scheduler, total, input.probe_service, later);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// FCFS: incremental estimates are bit-identical to the replay oracle
    /// across random workloads and probe shapes.
    #[test]
    fn fcfs_incremental_estimator_matches_replay_oracle(
        steps in proptest::collection::vec(step(), 1..50),
        procs_pow in 3u32..9,
    ) {
        let total = 1u32 << procs_pow;
        let mut scheduler = SpaceSharedFcfs::new(total);
        differential_drive(&mut scheduler, total, &steps);
    }

    /// EASY backfilling: the conservative FCFS-bound estimator stays
    /// bit-identical to its replay oracle even though the queue is reordered
    /// by backfilling between quotes.
    #[test]
    fn easy_incremental_estimator_matches_replay_oracle(
        steps in proptest::collection::vec(step(), 1..50),
        procs_pow in 3u32..9,
    ) {
        let total = 1u32 << procs_pow;
        let mut scheduler = EasyBackfilling::new(total);
        differential_drive(&mut scheduler, total, &steps);
    }

    /// FCFS on the tie-heavy grid, where the profile takes most submits in
    /// place: still bit-identical to the replay oracle.
    #[test]
    fn fcfs_estimator_matches_replay_oracle_on_a_tie_heavy_grid(
        steps in proptest::collection::vec(tie_heavy_step(), 1..50),
        procs_pow in 3u32..9,
    ) {
        let total = 1u32 << procs_pow;
        let mut scheduler = SpaceSharedFcfs::new(total);
        differential_drive(&mut scheduler, total, &steps);
    }

    /// EASY backfilling on the tie-heavy grid.
    #[test]
    fn easy_estimator_matches_replay_oracle_on_a_tie_heavy_grid(
        steps in proptest::collection::vec(tie_heavy_step(), 1..50),
        procs_pow in 3u32..9,
    ) {
        let total = 1u32 << procs_pow;
        let mut scheduler = EasyBackfilling::new(total);
        differential_drive(&mut scheduler, total, &steps);
    }
}
