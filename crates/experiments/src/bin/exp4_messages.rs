//! Experiment 4 binary: local/remote message complexity per GFA
//! (regenerates Figure 9).
//!
//! Usage: `exp4_messages [--quick] [--out DIR]`

use std::path::PathBuf;

use grid_experiments::obs::percentile_panel;
use grid_experiments::workloads::WorkloadOptions;
use grid_experiments::{exp3, exp4};

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
    eprintln!("running experiment 4 (message complexity per GFA)…");
    let sweep = exp3::run(&options);

    let figures = [
        ("fig9a_remote_messages.csv", exp4::figure9a(&sweep)),
        ("fig9b_local_messages.csv", exp4::figure9b(&sweep)),
        ("fig9c_total_messages.csv", exp4::figure9c(&sweep)),
    ];
    for (name, table) in &figures {
        println!("{}", table.to_ascii());
        let path = out.join(name);
        table.write_csv(&path).expect("failed to write CSV");
        eprintln!("wrote {}", path.display());
    }
    if let Some(report) = sweep.report_for(100) {
        println!(
            "{}",
            percentile_panel("exp4 message complexity, 100 % OFT", report).to_ascii()
        );
    }
}
