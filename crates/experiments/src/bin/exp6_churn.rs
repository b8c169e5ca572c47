//! Experiment 6 binary: churn tolerance of the self-healing overlay —
//! lookup availability, retry/fallback traffic, stabilization cost and
//! latency degradation swept over churn level × replication factor
//! k ∈ {1, 2, 3} on the overlay backends.
//!
//! Usage: `exp6_churn [--quick] [--smoke] [--knee] [--backend chord|maan|all]
//!         [--seed N] [--out DIR] [--jobs N]`
//!
//! `--knee` runs the availability-knee ramp instead of the grid sweep:
//! churn intensity doubles from the moderate level (k pinned at 3) until
//! the ≥ 99 % lookup-success gate breaks, and the table reports the knee.
//!
//! `--smoke` is the CI configuration: quick workloads with the moderate
//! churn level only, all three replication factors, both overlay backends —
//! small enough for every push, and it still pins the acceptance criterion
//! (k = 3 keeps moderate churn at ≥ 99 % lookup success).  The acceptance
//! assertions run in *every* mode, so a full run is a stronger gate, never
//! a weaker one.

use std::path::PathBuf;

use grid_experiments::exp6::{self, ChurnSweep};
use grid_experiments::obs::percentile_panel;
use grid_experiments::workloads::WorkloadOptions;
use grid_federation_core::DirectoryBackend;

/// The backends churn is interesting on: the central ideal store has no
/// ring to degrade, so the sweep covers the two overlay backends.
const OVERLAY_BACKENDS: [DirectoryBackend; 2] =
    [DirectoryBackend::Chord, DirectoryBackend::Maan];

struct Args {
    options: WorkloadOptions,
    out: PathBuf,
    backends: Vec<DirectoryBackend>,
    smoke: bool,
    knee: bool,
    jobs: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        options: WorkloadOptions::default(),
        out: PathBuf::from("results"),
        backends: OVERLAY_BACKENDS.to_vec(),
        smoke: false,
        knee: false,
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
            "--knee" => args.knee = true,
            "--out" => args.out = PathBuf::from(argv.next().expect("--out needs a directory")),
            "--seed" => {
                args.options.seed = argv
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed must be an integer");
            }
            "--backend" => {
                let which = argv.next().expect("--backend needs chord|maan|all");
                args.backends = match which.as_str() {
                    "all" => OVERLAY_BACKENDS.to_vec(),
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

/// Doublings of the moderate churn rate the `--knee` ramp tries before
/// giving up on breaking the lookup-success gate.
const KNEE_MAX_STEPS: usize = 8;

fn run_knee(args: &Args) {
    std::fs::create_dir_all(&args.out).expect("failed to create output directory");
    for &backend in &args.backends {
        let sweep = exp6::run_knee_with_backend(&args.options, backend, KNEE_MAX_STEPS);
        let table = exp6::figure_knee(&sweep);
        println!("{}", table.to_ascii());
        match sweep.knee {
            Some(knee) => eprintln!(
                "{}: k={} lookup-success gate breaks at {knee}x moderate churn",
                backend.label(),
                exp6::KNEE_REPLICATION
            ),
            None => eprintln!(
                "{}: gate survived {KNEE_MAX_STEPS} doublings of moderate churn",
                backend.label()
            ),
        }
        let path = args.out.join(format!("churn_knee_{}.csv", backend.label()));
        table.write_csv(&path).expect("failed to write CSV");
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    let args = parse_args();
    let backend_labels: Vec<&str> = args.backends.iter().map(|b| b.label()).collect();
    if args.knee {
        eprintln!(
            "running experiment 6 knee ramp (churn intensity until the k=3 gate breaks) against backend(s): {}…",
            backend_labels.join(", ")
        );
        run_knee(&args);
        return;
    }
    eprintln!(
        "running experiment 6 (churn tolerance sweep) against backend(s): {}…",
        backend_labels.join(", ")
    );

    let levels: Vec<exp6::ChurnLevel> = if args.smoke {
        // Moderate churn only — the level the acceptance criterion names.
        vec![exp6::DEFAULT_LEVELS[1]]
    } else {
        exp6::DEFAULT_LEVELS.to_vec()
    };
    let sweeps: Vec<ChurnSweep> = args
        .backends
        .iter()
        .map(|&backend| {
            exp6::run_sweep(&args.options, &levels, &exp6::DEFAULT_KS, backend, args.jobs)
        })
        .collect();

    for sweep in &sweeps {
        exp6::assert_acceptance(sweep);
    }

    std::fs::create_dir_all(&args.out).expect("failed to create output directory");
    for sweep in &sweeps {
        for (name, table) in [
            ("churn_availability", exp6::figure_availability(sweep)),
            ("churn_retries", exp6::figure_retries(sweep)),
            ("churn_stabilization", exp6::figure_stabilization(sweep)),
            ("churn_latency", exp6::figure_latency(sweep)),
        ] {
            println!("{}", table.to_ascii());
            let path = args.out.join(format!("{name}_{}.csv", sweep.backend.label()));
            table.write_csv(&path).expect("failed to write CSV");
            eprintln!("wrote {}", path.display());
        }
    }
    // Headline percentile panel: the first backend's baseline run.
    if let Some(sweep) = sweeps.first() {
        let label = format!("exp6 {} backend, zero-churn baseline", sweep.backend.label());
        println!("{}", percentile_panel(&label, &sweep.baseline).to_ascii());
    }
    eprintln!("acceptance criteria upheld: zero-churn baseline clean, moderate churn with k=3 ≥ 99% lookup success");
}
