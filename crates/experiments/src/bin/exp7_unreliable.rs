//! Experiment 7 binary: the DBC negotiation protocol over an unreliable
//! network — fault-level sweep (loss × jitter × duplication) on every
//! directory backend, plus the reactive-vs-periodic ring-repair comparison
//! on the MAAN overlay (run whenever MAAN is among the swept backends).
//!
//! Usage: `exp7_unreliable [--quick] [--smoke] [--backend ideal|maan|all]
//!         [--seed N] [--out DIR] [--jobs N]`
//!
//! `--smoke` is the CI configuration: quick workloads with the moderate
//! fault level only, both backends, plus the repair comparison —
//! small enough for every push, and it still pins the acceptance criteria
//! (outcome digest bit-identical to lossless, 100% eventual negotiation
//! completion, reactive repair beating the periodic mean faulted-lookup
//! wait).  The acceptance assertions run in *every* mode, so a full run is
//! a stronger gate, never a weaker one.

use std::path::PathBuf;

use grid_experiments::exp7::{self, UnreliableSweep};
use grid_experiments::obs::percentile_panel;
use grid_experiments::workloads::WorkloadOptions;
use grid_federation_core::DirectoryBackend;

struct Args {
    options: WorkloadOptions,
    out: PathBuf,
    backends: Vec<DirectoryBackend>,
    smoke: bool,
    jobs: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        options: WorkloadOptions::default(),
        out: PathBuf::from("results"),
        backends: DirectoryBackend::ALL.to_vec(),
        smoke: false,
        jobs: grid_experiments::parallel::default_jobs(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" | "--smoke" => {
                args.options = WorkloadOptions {
                    seed: args.options.seed,
                    ..WorkloadOptions::quick()
                };
                args.smoke |= arg == "--smoke";
            }
            "--out" => args.out = PathBuf::from(argv.next().expect("--out needs a directory")),
            "--seed" => {
                args.options.seed = argv
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed must be an integer");
            }
            "--backend" => {
                let which = argv.next().expect("--backend needs ideal|maan|all");
                args.backends = match which.as_str() {
                    "all" => DirectoryBackend::ALL.to_vec(),
                    one => vec![one.parse().unwrap_or_else(|e: String| panic!("{e}"))],
                };
            }
            "--jobs" => {
                args.jobs = argv
                    .next()
                    .expect("--jobs needs a worker count")
                    .parse()
                    .expect("worker count must be an integer");
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let backend_labels: Vec<&str> = args.backends.iter().map(|b| b.label()).collect();
    eprintln!(
        "running experiment 7 (unreliable network) against backend(s): {}…",
        backend_labels.join(", ")
    );

    let levels: Vec<exp7::FaultLevel> = if args.smoke {
        // Moderate faults only — the level the acceptance criterion names.
        vec![exp7::DEFAULT_FAULTS[1]]
    } else {
        exp7::DEFAULT_FAULTS.to_vec()
    };
    let sweeps: Vec<UnreliableSweep> = args
        .backends
        .iter()
        .map(|&backend| exp7::run_sweep(&args.options, &levels, backend, args.jobs))
        .collect();
    for sweep in &sweeps {
        exp7::assert_acceptance(sweep);
    }

    // The repair comparison only makes sense where there is a ring to
    // repair.
    let comparison = args
        .backends
        .contains(&DirectoryBackend::Maan)
        .then(|| exp7::run_repair_comparison(&args.options, args.jobs));
    if let Some(comparison) = &comparison {
        exp7::assert_repair_acceptance(comparison);
    }

    std::fs::create_dir_all(&args.out).expect("failed to create output directory");
    for sweep in &sweeps {
        let table = exp7::figure_fault_traffic(sweep);
        println!("{}", table.to_ascii());
        let path = args
            .out
            .join(format!("network_fault_traffic_{}.csv", sweep.backend.label()));
        table.write_csv(&path).expect("failed to write CSV");
        eprintln!("wrote {}", path.display());
    }
    if let Some(comparison) = &comparison {
        let table = exp7::figure_repair_tradeoff(comparison);
        println!("{}", table.to_ascii());
        let path = args.out.join("network_repair_tradeoff.csv");
        table.write_csv(&path).expect("failed to write CSV");
        eprintln!("wrote {}", path.display());
    }
    // Headline percentile panel: the worst fault level of the first backend
    // (the run where retransmission backoff actually moves the tails).
    if let Some(sweep) = sweeps.first() {
        if let Some(report) = sweep.reports.last() {
            let label = format!("exp7 {} backend, heaviest fault level", sweep.backend.label());
            println!("{}", percentile_panel(&label, report).to_ascii());
        }
    }
    eprintln!(
        "acceptance criteria upheld: outcomes bit-identical to lossless on every \
         backend and fault level, all negotiations completed, reactive repair \
         beat the periodic mean faulted-lookup wait"
    );
}
