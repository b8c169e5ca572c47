//! Experiment 3 binary: federation with economy under eleven population
//! profiles (regenerates Figures 3–8).
//!
//! Usage: `exp3_economy [--quick] [--out DIR]`

use std::path::PathBuf;

use grid_experiments::exp3;
use grid_experiments::obs::percentile_panel;
use grid_experiments::workloads::WorkloadOptions;

fn parse_args() -> (WorkloadOptions, PathBuf) {
    let mut options = WorkloadOptions::default();
    let mut out = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                options = WorkloadOptions {
                    seed: options.seed,
                    ..WorkloadOptions::quick()
                }
            }
            "--out" => out = PathBuf::from(args.next().expect("--out needs a directory")),
            "--seed" => {
                options.seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed must be an integer");
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    (options, out)
}

fn main() {
    let (options, out) = parse_args();
    eprintln!("running experiment 3 (economy, 11 population profiles)…");
    let sweep = exp3::run(&options);

    let figures = [
        ("fig3a_incentive.csv", exp3::figure3a(&sweep)),
        ("fig3b_remote_jobs.csv", exp3::figure3b(&sweep)),
        ("fig4_utilization.csv", exp3::figure4(&sweep)),
        ("fig5_job_processing.csv", exp3::figure5(&sweep)),
        ("fig6_rejected.csv", exp3::figure6(&sweep)),
        ("fig7a_response_excl.csv", exp3::figure7a(&sweep)),
        ("fig7b_budget_excl.csv", exp3::figure7b(&sweep)),
        ("fig8a_response_incl.csv", exp3::figure8a(&sweep)),
        ("fig8b_budget_incl.csv", exp3::figure8b(&sweep)),
    ];
    for (name, table) in &figures {
        println!("{}", table.to_ascii());
        let path = out.join(name);
        table.write_csv(&path).expect("failed to write CSV");
        eprintln!("wrote {}", path.display());
    }
    if let Some(report) = sweep.report_for(100) {
        println!("{}", percentile_panel("exp3 economy, 100 % OFT", report).to_ascii());
    }
}
