//! Experiment 5 binary: message complexity as the federation scales from 10
//! to 50 clusters (regenerates Figures 10 and 11), run against one or both
//! directory backends, plus the per-job directory-message panels and the
//! backend comparison table that validate the paper's `O(log n)` query-cost
//! assumption with the MAAN backend's measured finger hops and genuinely
//! distributed range walks (publish traffic included).
//!
//! Usage: `exp5_scalability [--quick] [--smoke]
//!         [--backend ideal|maan|all] [--seed N] [--out DIR]
//!         [--jobs N] [--stream-smoke] [--stream-jobs N]`
//!
//! `--jobs N` caps the sweep's worker pool (default: all cores).  Sweep
//! output is bitwise-identical for every `--jobs` value.
//!
//! `--smoke` is the CI configuration: quick workloads on sizes 8 and 16 with
//! a single 50 % OFT profile — small enough to run on every push, complete
//! enough to exercise the whole sweep path.
//!
//! `--stream-smoke` runs the million-job streaming check instead of the
//! sweep: it drains a `--stream-jobs N` (default 1 000 000) job synthetic
//! stream through a digest-folding consumer without ever materialising a
//! `Vec<Job>`, then prints throughput and the peak-memory proxy (bytes the
//! stream holds vs. what the eager path would allocate).

use std::path::PathBuf;
use std::time::Instant;

use grid_experiments::exp5::{self, ScalabilitySweep, Stat};
use grid_experiments::obs::percentile_panel;
use grid_experiments::workloads::{scaled_stream_config, WorkloadOptions};
use grid_federation_core::DirectoryBackend;
use grid_workload::{Job, PopulationProfile};

struct Args {
    options: WorkloadOptions,
    out: PathBuf,
    backends: Vec<DirectoryBackend>,
    smoke: bool,
    jobs: usize,
    stream_smoke: bool,
    stream_jobs: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        options: WorkloadOptions::default(),
        out: PathBuf::from("results"),
        backends: DirectoryBackend::ALL.to_vec(),
        smoke: false,
        jobs: grid_experiments::parallel::default_jobs(),
        stream_smoke: false,
        stream_jobs: 1_000_000,
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
            "--stream-smoke" => args.stream_smoke = true,
            "--stream-jobs" => {
                args.stream_jobs = argv
                    .next()
                    .expect("--stream-jobs needs a job count")
                    .parse()
                    .expect("job count must be an integer");
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    args
}

/// SplitMix64 finalizer — the same mixer the audit ledger uses, so the smoke
/// digest has full avalanche and any generation drift flips it.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drains a `total_jobs`-job synthetic stream through a digest-folding
/// consumer.  Nothing is materialised: peak memory is the three scalar
/// arrays the stream's calibration phases hold (20 B/job), not the
/// `size_of::<Job>()`-per-job an eager `Vec<Job>` would pin, so the run
/// completes in constant working memory per drained job.
fn stream_smoke(total_jobs: usize, options: &WorkloadOptions) {
    let cfg = scaled_stream_config(0, total_jobs, options);
    // fedlint: allow(wall-clock) — wall-clock throughput *is* the smoke's
    // measurement; nothing simulated depends on it.
    let start = Instant::now();
    let stream = cfg.stream();
    let mut digest = 0u64;
    let mut jobs = 0usize;
    for job in stream {
        digest = mix(digest ^ job.id.seq as u64);
        digest = mix(digest ^ job.submit.to_bits());
        digest = mix(digest ^ u64::from(job.processors));
        digest = mix(digest ^ job.length_mi.to_bits());
        jobs += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(jobs, total_jobs, "the stream must yield exactly the requested job count");
    // The stream's resident state: submits (f64) + processors (u32) +
    // runtimes (f64) per job, vs. the eager path's full Job per job.
    let streamed_bytes = total_jobs * (8 + 4 + 8);
    let eager_bytes = total_jobs * std::mem::size_of::<Job>();
    println!("stream-smoke jobs={jobs} digest={digest:016x}");
    println!(
        "stream-smoke seconds={elapsed:.3} jobs_per_sec={:.0}",
        jobs as f64 / elapsed.max(1e-9)
    );
    println!(
        "stream-smoke peak_bytes_streamed={streamed_bytes} peak_bytes_eager={eager_bytes} ratio={:.2}",
        eager_bytes as f64 / streamed_bytes as f64
    );
}

fn main() {
    let args = parse_args();
    if args.stream_smoke {
        eprintln!(
            "running the streaming workload smoke: {} jobs, no materialisation…",
            args.stream_jobs
        );
        stream_smoke(args.stream_jobs, &args.options);
        return;
    }
    let backend_labels: Vec<&str> = args.backends.iter().map(|b| b.label()).collect();
    eprintln!(
        "running experiment 5 (system size sweep) against backend(s): {}…",
        backend_labels.join(", ")
    );

    let (sizes, profiles): (Vec<usize>, Vec<PopulationProfile>) = if args.smoke {
        (vec![8, 16], vec![PopulationProfile::new(50)])
    } else {
        (exp5::DEFAULT_SIZES.to_vec(), exp5::default_profiles())
    };
    let sweeps: Vec<ScalabilitySweep> = args
        .backends
        .iter()
        .map(|&backend| exp5::run_sweep(&args.options, &sizes, &profiles, backend, args.jobs))
        .collect();

    let mut outputs = Vec::new();
    for sweep in &sweeps {
        // The paper's panels keep their historical file names for the default
        // (ideal) backend; other backends get a suffix.
        let suffix = match sweep.backend {
            DirectoryBackend::Ideal => String::new(),
            other => format!("_{}", other.label()),
        };
        for stat in Stat::ALL {
            outputs.push((
                format!("fig10_{}_msgs_per_job{suffix}.csv", stat.label()),
                exp5::figure10(sweep, stat),
            ));
            outputs.push((
                format!("fig11_{}_msgs_per_gfa{suffix}.csv", stat.label()),
                exp5::figure11(sweep, stat),
            ));
            outputs.push((
                format!(
                    "directory_{}_msgs_per_job_{}.csv",
                    stat.label(),
                    sweep.backend.label()
                ),
                exp5::figure_directory(sweep, stat),
            ));
        }
    }
    if sweeps.len() > 1 {
        outputs.push((
            "directory_backend_comparison.csv".to_string(),
            exp5::backend_directory_comparison(&sweeps),
        ));
    }

    for (name, table) in &outputs {
        println!("{}", table.to_ascii());
        let path = args.out.join(name);
        table.write_csv(&path).expect("failed to write CSV");
        eprintln!("wrote {}", path.display());
    }
    // The largest federation of the first backend is the sweep's headline run.
    if let Some((sweep, size)) = sweeps.first().zip(sizes.last()) {
        if let Some(report) = sweep.reports.last().and_then(|row| row.last()) {
            let label = format!("exp5 {} backend, {size} clusters", sweep.backend.label());
            println!("{}", percentile_panel(&label, report).to_ascii());
        }
    }
}
