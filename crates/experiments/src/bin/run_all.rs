//! Regenerates every table and figure of the paper in one run and writes the
//! CSVs plus a markdown summary (paper vs. measured) under `results/`.
//!
//! Usage: `run_all [--quick] [--out DIR] [--seed N] [--jobs N]`
//!
//! `--quick` uses 1/8 of the paper's job counts and a reduced Experiment 5
//! grid.  `--jobs N` caps the worker pool every experiment's runs share
//! (default: all cores); every output file is bitwise-identical for every
//! `--jobs` value.
//!
//! Besides the CSVs, the run writes Experiment 1's metrics registry
//! (`exp1_metrics.json`) and span trace in Chrome Trace Format
//! (`exp1_trace.json`), and the digest manifest `MANIFEST_digests.txt`.
//! Every acceptance gate of Experiments 6 and 7 is asserted on the way.

use std::cell::RefCell;
use std::fs;
use std::path::PathBuf;
use std::rc::Rc;

use grid_experiments::exp5::Stat;
use grid_experiments::obs::percentile_summary;
use grid_experiments::scenario::digest_manifest;
use grid_experiments::summary::HeadlineClaims;
use grid_experiments::workloads::WorkloadOptions;
use grid_experiments::{exp1, exp2, exp3, exp4, exp5, exp6, exp7, tables};
use grid_federation_core::SpanCollector;
use grid_workload::PopulationProfile;

fn parse_args() -> (WorkloadOptions, PathBuf, bool, usize) {
    let mut options = WorkloadOptions::default();
    let mut out = PathBuf::from("results");
    let mut quick = false;
    let mut jobs = grid_experiments::parallel::default_jobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                options = WorkloadOptions {
                    seed: options.seed,
                    ..WorkloadOptions::quick()
                };
                quick = true;
            }
            "--out" => out = PathBuf::from(args.next().expect("--out needs a directory")),
            "--seed" => {
                options.seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed must be an integer");
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .expect("--jobs needs a worker count")
                    .parse()
                    .expect("worker count must be an integer");
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    (options, out, quick, jobs)
}

fn main() {
    let (options, out, quick, jobs) = parse_args();
    fs::create_dir_all(&out).expect("failed to create output directory");

    eprintln!("[0/7] static tables 1 and 4");
    tables::table1()
        .write_csv(&out.join("table1_resources.csv"))
        .expect("write table1");
    tables::table4()
        .write_csv(&out.join("table4_superschedulers.csv"))
        .expect("write table4");

    eprintln!("[1/7] experiment 1: independent resources");
    // The span collector is armed on this run only; digests are identical
    // with it armed or absent.
    let tracer = Rc::new(RefCell::new(SpanCollector::new()));
    let e1 = exp1::run_traced(&options, Rc::clone(&tracer));
    exp1::table2(&e1)
        .write_csv(&out.join("table2_independent.csv"))
        .expect("write table2");
    fs::write(out.join("exp1_metrics.json"), e1.report.metrics.to_json())
        .expect("write exp1 metrics");
    fs::write(out.join("exp1_trace.json"), tracer.borrow().to_chrome_trace())
        .expect("write exp1 trace");

    eprintln!("[2/7] experiment 2: federation without economy");
    let e2 = exp2::run(&options, jobs);
    exp2::table3(&e2)
        .write_csv(&out.join("table3_federation.csv"))
        .expect("write table3");
    exp2::figure2a(&e2)
        .write_csv(&out.join("fig2a_utilization.csv"))
        .expect("write fig2a");
    exp2::figure2b(&e2)
        .write_csv(&out.join("fig2b_job_migration.csv"))
        .expect("write fig2b");

    eprintln!("[3/7] experiment 3: economy, 11 population profiles");
    let sweep = exp3::run_sweep(&options, &PopulationProfile::paper_sweep(), jobs);
    for (name, table) in exp3::tables(&sweep) {
        table.write_csv(&out.join(name)).expect("write exp3 figure");
    }

    eprintln!("[4/7] experiment 4: message complexity per GFA");
    for (name, table) in [
        ("fig9a_remote_messages.csv", exp4::figure9a(&sweep)),
        ("fig9b_local_messages.csv", exp4::figure9b(&sweep)),
        ("fig9c_total_messages.csv", exp4::figure9c(&sweep)),
    ] {
        table.write_csv(&out.join(name)).expect("write exp4 figure");
    }

    eprintln!("[5/7] experiment 5: system size 10–50, both directory backends");
    let (sizes, exp5_profiles): (Vec<usize>, Vec<PopulationProfile>) = if quick {
        (
            vec![10, 20, 30],
            vec![PopulationProfile::new(0), PopulationProfile::new(100)],
        )
    } else {
        (exp5::DEFAULT_SIZES.to_vec(), exp5::default_profiles())
    };
    let backend_sweeps: Vec<_> = grid_federation_core::DirectoryBackend::ALL
        .iter()
        .map(|&b| exp5::run_sweep(&options, &sizes, &exp5_profiles, b, jobs))
        .collect();
    // The paper's own panels come from the ideal sweep, selected by backend
    // rather than position so reordering DirectoryBackend::ALL cannot
    // silently swap the canonical CSVs.
    let scal = backend_sweeps
        .iter()
        .find(|s| s.backend == grid_federation_core::DirectoryBackend::Ideal)
        .expect("the backend sweep must include the ideal directory");
    for stat in Stat::ALL {
        exp5::figure10(scal, stat)
            .write_csv(&out.join(format!("fig10_{}_msgs_per_job.csv", stat.label())))
            .expect("write fig10");
        exp5::figure11(scal, stat)
            .write_csv(&out.join(format!("fig11_{}_msgs_per_gfa.csv", stat.label())))
            .expect("write fig11");
        for sweep in &backend_sweeps {
            exp5::figure_directory(sweep, stat)
                .write_csv(&out.join(format!(
                    "directory_{}_msgs_per_job_{}.csv",
                    stat.label(),
                    sweep.backend.label()
                )))
                .expect("write directory panel");
        }
    }
    exp5::backend_directory_comparison(&backend_sweeps)
        .write_csv(&out.join("directory_backend_comparison.csv"))
        .expect("write backend comparison");

    eprintln!("[6/7] experiment 6: churn tolerance, MAAN overlay");
    let churn_sweep = exp6::run_sweep(&options, &exp6::DEFAULT_LEVELS, &exp6::DEFAULT_KS, jobs);
    exp6::assert_acceptance(&churn_sweep);
    for (name, table) in exp6::tables(&churn_sweep) {
        table.write_csv(&out.join(format!("{name}.csv"))).expect("write exp6 table");
    }
    let knee = exp6::run_knee(&options);
    match knee.knee {
        Some(at) => eprintln!("      availability knee: k=3 gate breaks at {at}x moderate churn"),
        None => eprintln!(
            "      availability knee: gate survived {} doublings of moderate churn",
            exp6::KNEE_MAX_STEPS
        ),
    }
    exp6::figure_knee(&knee)
        .write_csv(&out.join("churn_knee_maan.csv"))
        .expect("write churn knee");

    eprintln!("[7/7] experiment 7: unreliable network, both backends");
    let fault_sweeps: Vec<exp7::UnreliableSweep> = grid_federation_core::DirectoryBackend::ALL
        .iter()
        .map(|&b| exp7::run_sweep(&options, &exp7::DEFAULT_FAULTS, b, jobs))
        .collect();
    for sweep in &fault_sweeps {
        exp7::assert_acceptance(sweep);
    }
    let repair = exp7::run_repair_comparison(&options, jobs);
    exp7::assert_repair_acceptance(&repair);
    for (name, csv) in exp7::render_all_csvs(&fault_sweeps, &repair) {
        fs::write(out.join(format!("{name}.csv")), csv).expect("write exp7 table");
    }

    // The audit-ledger digest manifest: one line per federation run, each a
    // hash-chained commitment to that run's full job/bank/message history.
    // Re-running with the same options must reproduce this file byte for
    // byte (CI asserts exactly that against the committed copy), which
    // replaces diffing the 30+ CSVs above as the determinism check.
    let headline = || std::iter::once(&e1).chain([&e2.independent, &e2.federated]).chain(&sweep.runs);
    let manifest = digest_manifest(
        headline()
            .chain(backend_sweeps.iter().flat_map(|s| &s.runs))
            .chain(&churn_sweep.runs)
            .chain(knee.points.iter().map(|(_, run)| run))
            .chain(fault_sweeps.iter().flat_map(|s| &s.runs))
            .chain([&repair.periodic, &repair.reactive]),
    );
    fs::write(out.join("MANIFEST_digests.txt"), &manifest).expect("write digest manifest");

    // The cross-experiment percentile summary: p50/p90/p99 of every
    // run-scope distribution for each headline report.  Read-only over the
    // registries the runs above already produced — it adds a CSV without
    // perturbing any digest in the manifest.
    percentile_summary(headline())
        .write_csv(&out.join("percentile_summary.csv"))
        .expect("write percentile summary");

    let claims = HeadlineClaims::extract(&e2, &sweep);
    let claims_table = claims.to_table();
    println!("{}", claims_table.to_ascii());
    claims_table
        .write_csv(&out.join("headline_claims.csv"))
        .expect("write headline claims");
    let mut md = String::from("# Measured headline results\n\n```\n");
    md.push_str(&claims_table.to_ascii());
    md.push_str("```\n");
    md.push_str(&format!(
        "\nDirectional claims hold: {}\n",
        claims.directional_claims_hold()
    ));
    fs::write(out.join("summary.md"), md).expect("write summary.md");
    eprintln!("done: results written to {}", out.display());
}
