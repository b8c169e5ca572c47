//! Experiment 2 binary: federation without economy (regenerates Table 3 and
//! Figure 2).
//!
//! Usage: `exp2_federation [--quick] [--out DIR] [--metrics-out FILE]
//! [--trace-out FILE]`

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use grid_experiments::obs::{percentile_panel, ObsArgs};
use grid_experiments::workloads::WorkloadOptions;
use grid_experiments::exp2;
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
    (options, out, obs)
}

fn main() {
    let (options, out, obs) = parse_args();
    eprintln!("running experiment 2 (federation without economy)…");
    let tracer = obs
        .wants_trace()
        .then(|| Rc::new(RefCell::new(SpanCollector::new())));
    let result = if tracer.is_some() {
        exp2::run_with_observers(&options, tracer.clone(), None)
    } else {
        exp2::run(&options)
    };

    let table3 = exp2::table3(&result);
    let fig2a = exp2::figure2a(&result);
    let fig2b = exp2::figure2b(&result);
    println!("{}", table3.to_ascii());
    println!("{}", fig2a.to_ascii());
    println!("{}", fig2b.to_ascii());
    println!("{}", percentile_panel("exp2 federated", &result.federated).to_ascii());
    println!(
        "mean acceptance: {:.2} % (independent) -> {:.2} % (federation)",
        result.independent.mean_acceptance_rate(),
        result.federated.mean_acceptance_rate()
    );

    for (name, table) in [
        ("table3_federation.csv", &table3),
        ("fig2a_utilization.csv", &fig2a),
        ("fig2b_job_migration.csv", &fig2b),
    ] {
        let path = out.join(name);
        table.write_csv(&path).expect("failed to write CSV");
        eprintln!("wrote {}", path.display());
    }
    let collector = tracer.as_ref().map(|t| t.borrow());
    let written = obs
        .write(&result.federated, collector.as_deref())
        .expect("failed to write observability artifacts");
    for path in written {
        eprintln!("wrote {}", path.display());
    }
}
