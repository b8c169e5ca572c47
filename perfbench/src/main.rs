//! `perfbench` — the whole-run Grid-Federation benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the named workload's inputs from the seed, then runs the
//! federation single-threaded in this one process:
//!
//! * `--trace 0` times untraced `FederationBuilder::run` calls for
//!   `--seconds` and reports the end-to-end metrics, with times scaled to
//!   a reference host speed (see `layers::host_speed`);
//! * `--trace 1` alternates untraced and profiler-armed runs for
//!   `--seconds`, times each layer's public entry points from outside, and
//!   reports the per-layer split of the fastest traced run's handler time.
//!
//! Every run is checked: it must not panic, must drain, must record every
//! submitted job, must leave the GridBank balanced, and its `RunDigest` must
//! equal that of every other run of the same federation, traced or not.  The last stdout line is the JSON result; the process exits 1 if any
//! run failed and 2 on bad arguments.

mod layers;
mod output;
mod split;
mod workloads;

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::rc::Rc;

use grid_federation_core::{FederationBuilder, FederationReport, ProfileTable, RunDigest};

use layers::{timed, Stopwatch};
use output::{result_line, Metric};
use split::{Counts, EndToEnd, Timings};
use workloads::{federation_seeds, generate, generate_all, Inputs, Workload};

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 25;
/// Fewest timed runs a measurement takes, however short `--seconds` is.
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median host-normalised seconds of generating the inputs of all the
/// workload's federations, over `reps` generations.
fn setup_secs(workload: Workload, seed: u64, reps: usize) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let speed = layers::host_speed();
            let (s, inputs) = timed(|| generate_all(workload, seed));
            drop(inputs);
            s * speed
        })
        .collect();
    median(&secs)
}

/// The runs attempted so far and, per federation, the digest every run of
/// it must reproduce.
struct Checker {
    attempted: u64,
    failed: u64,
    references: Vec<Option<RunDigest>>,
}

impl Checker {
    fn new(federations: usize) -> Checker {
        Checker {
            attempted: 0,
            failed: 0,
            references: vec![None; federations],
        }
    }

    /// Runs federation `fed` once, profiler-armed when `table` is given,
    /// and checks the outcome.  Returns the wall seconds and report of a
    /// run that passed.
    fn run(
        &mut self,
        workload: Workload,
        (fed, inputs): (usize, &Inputs),
        table: Option<Rc<RefCell<ProfileTable>>>,
    ) -> Option<(f64, FederationReport)> {
        self.attempted += 1;
        let builder = FederationBuilder::new(inputs.resources.clone())
            .workloads(inputs.workloads.clone())
            .config(inputs.config.clone());
        let builder = match table {
            Some(table) => builder.profiler(table),
            None => builder,
        };
        let (secs, outcome) = timed(|| catch_unwind(AssertUnwindSafe(|| builder.run())));
        let checked = outcome
            .map_err(|panic| {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                format!("run panicked: {msg}")
            })
            .and_then(|report| self.check(fed, inputs.jobs(), report));
        match checked {
            Ok(report) => Some((secs, report)),
            Err(why) => {
                self.failed += 1;
                eprintln!(
                    "perfbench: {} run {} FAILED: {why}",
                    workload.name(),
                    self.attempted
                );
                None
            }
        }
    }

    fn check(
        &mut self,
        fed: usize,
        submitted: usize,
        report: FederationReport,
    ) -> Result<FederationReport, String> {
        if report.jobs.len() != submitted {
            return Err(format!(
                "{} job records for {submitted} submitted jobs",
                report.jobs.len()
            ));
        }
        if !report.bank.is_balanced() {
            return Err("the GridBank is not balanced".into());
        }
        match self.references[fed] {
            Some(reference) if reference != report.digest => Err(format!(
                "digest {} differs from the first run's {reference}",
                report.digest
            )),
            Some(_) => Ok(report),
            None => {
                self.references[fed] = Some(report.digest);
                Ok(report)
            }
        }
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `--trace 0`: set-up median, one profiler-armed run per federation for
/// the event count, then rounds of untraced runs (one per federation, each
/// paired with a host-speed probe) for `seconds`.  `run_s` is each
/// federation's median host-normalised run, averaged over the federations.
fn measure_end_to_end(args: &Args, checker: &mut Checker) -> Result<Vec<Metric>, String> {
    let setup_s = setup_secs(args.workload, args.seed, SETUP_REPS);
    // Inputs are regenerated, untimed, before each run, so the process
    // holds one federation's inputs at a time whatever the workload.
    let seeds = federation_seeds(args.workload, args.seed);
    let (mut events, mut jobs) = (Vec::new(), Vec::new());
    for (fed, &seed) in seeds.iter().enumerate() {
        let inputs = generate(args.workload, seed);
        let table = Rc::new(RefCell::new(ProfileTable::new()));
        drop(checker.run(args.workload, (fed, &inputs), Some(Rc::clone(&table))));
        events.push(table.borrow().total_events() as f64);
        jobs.push(inputs.jobs() as f64);
    }
    let mut wall = Vec::new();
    let mut normalised = vec![Vec::new(); seeds.len()];
    let mut peak_rss = None;
    let clock = Stopwatch::start();
    while clock.secs() < args.seconds
        || (normalised.iter().any(|n| n.len() < MIN_RUNS) && checker.failed == 0)
    {
        for (fed, &seed) in seeds.iter().enumerate() {
            let inputs = generate(args.workload, seed);
            let speed = layers::host_speed();
            if let Some((s, report)) = checker.run(args.workload, (fed, &inputs), None) {
                wall.push(s);
                normalised[fed].push(s * speed);
                drop(report);
                // Later runs only repeat the first; reading the high-water
                // mark here keeps it independent of how many runs fit in
                // the window.
                if peak_rss.is_none() {
                    peak_rss = Some(peak_rss_mb()?);
                }
            }
        }
    }
    if normalised.iter().any(Vec::is_empty) {
        return Err("a federation had no untraced run pass its checks".into());
    }
    log_spread("run wall s", &wall);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    for (i, n) in normalised.iter().enumerate() {
        log_spread(&format!("run_s (host-normalised), federation {i}"), n);
    }
    let medians: Vec<f64> = normalised.iter().map(|n| median(n)).collect();
    Ok(split::end_to_end(&EndToEnd {
        run_s: mean(&medians),
        setup_s,
        jobs: mean(&jobs),
        events: mean(&events),
        peak_rss_mb: peak_rss.ok_or("no untraced run passed its checks")?,
    }))
}

/// `--trace 1`: untraced/traced pairs for `seconds`, then the outside-in
/// layer probes at the workload's sizes.
fn measure_layers(args: &Args, checker: &mut Checker) -> Result<Vec<Metric>, String> {
    // The split describes the first of the workload's federations.
    let inputs = &generate(args.workload, args.seed);
    let mut untraced = Vec::new();
    let mut traced: Vec<(f64, ProfileTable)> = Vec::new();
    let mut counts_of: Option<FederationReport> = None;
    let clock = Stopwatch::start();
    while clock.secs() < args.seconds || (traced.len() < MIN_RUNS && checker.failed == 0) {
        if let Some((s, _)) = checker.run(args.workload, (0, inputs), None) {
            untraced.push(s);
        }
        let table = Rc::new(RefCell::new(ProfileTable::new()));
        if let Some((s, report)) = checker.run(args.workload, (0, inputs), Some(Rc::clone(&table)))
        {
            traced.push((s, table.borrow().clone()));
            counts_of.get_or_insert(report);
        }
    }
    let report = counts_of.ok_or("no traced run passed its checks")?;
    if untraced.is_empty() {
        return Err("no untraced run passed its checks".into());
    }
    let traced_secs: Vec<f64> = traced.iter().map(|t| t.0).collect();
    log_spread("traced run_s", &traced_secs);
    log_spread("untraced run_s", &untraced);
    // The fastest traced run is the least disturbed by the host, as for
    // `run_s`; its handler table is the one split across the layers.
    let (traced_s, profile) = traced
        .iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("a traced run passed");
    let counts = Counts::of(&report, profile);
    drop(report);

    let w = args.workload;
    let k = inputs.config.churn.as_ref().map_or(1, |c| c.replication);
    let busiest = inputs
        .resources
        .iter()
        .max_by_key(|spec| spec.processors)
        .expect("a federation has resources");
    let depth = |d: f64| d.round().max(0.0) as usize;
    let timings = Timings {
        traced_s: *traced_s,
        untraced_s: untraced.iter().copied().fold(f64::INFINITY, f64::min),
        // Arrivals are scheduled up front and spread over the trace, so on
        // average half of them are pending.
        queue_ns: layers::queue_ns_per_event(inputs.jobs() / 2, profile.total_events()),
        quote_ns_p50: layers::quote_ns(busiest, depth(counts.queue_depth_p50)),
        quote_ns_p99: layers::quote_ns(busiest, depth(counts.queue_depth_p99)),
        directory: layers::directory_costs(w.backend(), &inputs.resources, args.seed, k),
        accounting: layers::accounting_costs(inputs.resources.len()),
        net: layers::net_costs(args.seed),
    };
    let est = split::Estimates::of(&counts, &timings).total();
    let handler_s: f64 = profile.rows().map(|(_, e)| e.total_secs).sum();
    if est > handler_s {
        // A measurement disagreement, not a wrong run: reported as
        // `trace.layer_est_frac` > 1 rather than failed.
        eprintln!(
            "perfbench: WARNING: outside-in layer estimates ({est:.3} s) exceed the handler time they split ({handler_s:.3} s)"
        );
    }
    Ok(split::per_layer(&counts, &timings, checker.failed_frac()))
}

fn log_spread(label: &str, secs: &[f64]) {
    let mut sorted = secs.to_vec();
    sorted.sort_by(f64::total_cmp);
    if let (Some(lo), Some(hi)) = (sorted.first(), sorted.last()) {
        eprintln!(
            "perfbench: {label}: median {:.4} over {} runs (min {lo:.4}, max {hi:.4})",
            median(&sorted),
            sorted.len()
        );
    }
}

/// Host context printed before the result: core count, compiler, commit.
fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let probe = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let rustc = probe("rustc", &["--version"]);
    let commit = probe("git", &["rev-parse", "--short", "HEAD"]);
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"rustc\": \"{rustc}\", \"commit\": \"{commit}\"}}}}"
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut checker = Checker::new(args.workload.federations());
    let measured = if args.trace {
        measure_layers(&args, &mut checker)
    } else {
        measure_end_to_end(&args, &mut checker)
    };
    let metrics = match measured {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for m in &metrics {
        eprintln!("perfbench: {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", host_line());
    let correct = checker.failed == 0;
    println!(
        "{}",
        result_line(correct, checker.attempted, checker.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a = args(&[
            "--workload",
            "fanout_n200",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::FanoutN200);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "fanout_n200", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "fanout_n200", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "fanout_n200", "--bogus", "1"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }

    #[test]
    fn medians_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
