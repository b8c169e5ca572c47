//! Experiment 1 binary: independent resources (regenerates Table 2).
//!
//! Usage: `exp1_independent [--quick] [--out DIR] [--metrics-out FILE]
//! [--trace-out FILE]`

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use grid_experiments::obs::{percentile_panel, ObsArgs};
use grid_experiments::workloads::WorkloadOptions;
use grid_experiments::exp1;
use grid_federation_core::SpanCollector;

fn parse_args() -> (WorkloadOptions, PathBuf, ObsArgs) {
    let mut options = WorkloadOptions::default();
    let mut out = PathBuf::from("results");
    let mut obs = ObsArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if obs.try_parse(&arg, &mut args) {
            continue;
        }
        match arg.as_str() {
            "--quick" => {
                options = WorkloadOptions {
                    seed: options.seed,
                    ..WorkloadOptions::quick()
                }
            }
            "--out" => {
                out = PathBuf::from(args.next().expect("--out needs a directory"));
            }
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
    (options, out, obs)
}

fn main() {
    let (options, out, obs) = parse_args();
    eprintln!("running experiment 1 (independent resources)…");
    let tracer = obs
        .wants_trace()
        .then(|| Rc::new(RefCell::new(SpanCollector::new())));
    let result = if tracer.is_some() {
        exp1::run_with_observers(&options, tracer.clone(), None)
    } else {
        exp1::run(&options)
    };
    let table = exp1::table2(&result);
    println!("{}", table.to_ascii());
    println!("{}", percentile_panel("exp1 independent", &result.report).to_ascii());
    println!(
        "mean acceptance rate: {:.2} %   mean utilization: {:.2} %",
        result.report.mean_acceptance_rate(),
        result.report.mean_utilization_percent()
    );
    let path = out.join("table2_independent.csv");
    table.write_csv(&path).expect("failed to write CSV");
    eprintln!("wrote {}", path.display());
    let collector = tracer.as_ref().map(|t| t.borrow());
    let written = obs
        .write(&result.report, collector.as_deref())
        .expect("failed to write observability artifacts");
    for path in written {
        eprintln!("wrote {}", path.display());
    }
}
