//! Experiment 6 binary: churn tolerance of the self-healing MAAN overlay —
//! lookup availability, retry/fallback traffic, stabilization cost and
//! latency degradation swept over churn level × replication factor
//! k ∈ {1, 2, 3}.
//!
//! Usage: `exp6_churn [--quick] [--smoke] [--knee] [--seed N] [--out DIR]
//!         [--jobs N]`
//!
//! `--knee` runs the availability-knee ramp instead of the grid sweep:
//! churn intensity doubles from the moderate level (k pinned at 3) until
//! the ≥ 99 % lookup-success gate breaks, and the table reports the knee.
//!
//! `--smoke` is the CI configuration: quick workloads with the moderate
//! churn level only and all three replication factors — small enough for
//! every push, and it still pins the acceptance criterion (k = 3 keeps
//! moderate churn at ≥ 99 % lookup success).  The acceptance assertions run
//! in *every* mode, so a full run is a stronger gate, never a weaker one.

use std::path::PathBuf;

use grid_experiments::exp6;
use grid_experiments::obs::percentile_panel;
use grid_experiments::workloads::WorkloadOptions;

struct Args {
    options: WorkloadOptions,
    out: PathBuf,
    smoke: bool,
    knee: bool,
    jobs: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        options: WorkloadOptions::default(),
        out: PathBuf::from("results"),
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
    let sweep = exp6::run_knee(&args.options, KNEE_MAX_STEPS);
    let table = exp6::figure_knee(&sweep);
    println!("{}", table.to_ascii());
    match sweep.knee {
        Some(knee) => eprintln!(
            "maan: k={} lookup-success gate breaks at {knee}x moderate churn",
            exp6::KNEE_REPLICATION
        ),
        None => eprintln!("maan: gate survived {KNEE_MAX_STEPS} doublings of moderate churn"),
    }
    let path = args.out.join("churn_knee_maan.csv");
    table.write_csv(&path).expect("failed to write CSV");
    eprintln!("wrote {}", path.display());
}

fn main() {
    let args = parse_args();
    if args.knee {
        eprintln!(
            "running experiment 6 knee ramp (churn intensity until the k=3 gate breaks) against backend(s): maan…"
        );
        run_knee(&args);
        return;
    }
    eprintln!("running experiment 6 (churn tolerance sweep) against backend(s): maan…");

    let levels: Vec<exp6::ChurnLevel> = if args.smoke {
        // Moderate churn only — the level the acceptance criterion names.
        vec![exp6::DEFAULT_LEVELS[1]]
    } else {
        exp6::DEFAULT_LEVELS.to_vec()
    };
    let sweep = exp6::run_sweep(&args.options, &levels, &exp6::DEFAULT_KS, args.jobs);
    exp6::assert_acceptance(&sweep);

    std::fs::create_dir_all(&args.out).expect("failed to create output directory");
    for (name, table) in exp6::tables(&sweep) {
        println!("{}", table.to_ascii());
        let path = args.out.join(format!("{name}.csv"));
        table.write_csv(&path).expect("failed to write CSV");
        eprintln!("wrote {}", path.display());
    }
    // Headline percentile panel: the zero-churn baseline run.
    let label = "exp6 maan backend, zero-churn baseline";
    println!("{}", percentile_panel(label, &sweep.baseline).to_ascii());
    eprintln!("acceptance criteria upheld: zero-churn baseline clean, moderate churn with k=3 ≥ 99% lookup success");
}
