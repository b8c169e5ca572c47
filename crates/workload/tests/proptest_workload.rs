//! Property-based tests for the workload substrate: the synthetic generator
//! and the SWF parser must produce well-formed, reproducible workloads for
//! any valid configuration, and the streaming sources must be
//! bitwise-indistinguishable from their materialising counterparts.

use grid_workload::{Job, JobSource, SwfJobStream, SwfTrace, SyntheticWorkloadConfig};
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = SyntheticWorkloadConfig> {
    (
        1usize..400,            // total_jobs
        3u32..12,               // processors as a power of two
        400.0f64..1_200.0,      // mips
        0.1f64..1.6,            // offered load
        0.0f64..0.6,            // serial fraction
        0.5f64..1.5,            // runtime sigma
        1.0f64..5.0,            // day/night ratio
        1usize..40,             // user count
        any::<u64>(),           // seed
        21_600.0f64..259_200.0, // duration: 6 hours to 3 days
    )
        .prop_map(
            |(jobs, procs_pow, mips, load, serial, sigma, day_night, users, seed, duration)| {
                let mut cfg = SyntheticWorkloadConfig::new(0, "prop");
                cfg.total_jobs = jobs;
                cfg.max_processors = 1 << procs_pow;
                cfg.origin_mips = mips;
                cfg.offered_load = load;
                cfg.serial_fraction = serial;
                cfg.runtime_sigma = sigma;
                cfg.day_night_ratio = day_night;
                cfg.user_count = users;
                cfg.seed = seed;
                cfg.duration = duration;
                cfg.max_runtime = 0.3 * duration;
                cfg
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated workloads are well-formed: correct job count, sorted submit
    /// times inside the window, processor counts within the machine, positive
    /// lengths, users within the declared population, and the configured
    /// communication share.
    #[test]
    fn synthetic_workloads_are_well_formed(cfg in config_strategy()) {
        let workload = cfg.generate();
        prop_assert_eq!(workload.len(), cfg.total_jobs);
        let jobs = workload.jobs();
        prop_assert!(jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
        for job in jobs {
            prop_assert!(job.submit >= 0.0 && job.submit < cfg.duration);
            prop_assert!(job.processors >= 1 && job.processors <= cfg.max_processors);
            prop_assert!(job.length_mi > 0.0);
            prop_assert!(job.comm_overhead >= 0.0);
            prop_assert!(job.user.local < cfg.user_count);
            prop_assert_eq!(job.id.origin, cfg.origin);
            let total = job.compute_time(cfg.origin_mips) + job.comm_overhead;
            let frac = job.comm_overhead / total;
            prop_assert!((frac - cfg.comm_fraction).abs() < 1e-6);
            prop_assert!(total <= cfg.max_runtime + 1e-6);
        }
        // Determinism.
        let again = cfg.generate();
        prop_assert_eq!(workload.jobs(), again.jobs());
    }

    /// The achieved offered load lands near the target whenever the target is
    /// achievable within the runtime caps.
    #[test]
    fn offered_load_calibration_is_reasonable(cfg in config_strategy()) {
        let workload = cfg.generate();
        let achieved = workload.achieved_load();
        prop_assert!(achieved > 0.0);
        // The calibration can fall short when the per-job caps bind (few jobs
        // on a big machine), but it must never overshoot by more than the
        // clamping slack.
        prop_assert!(achieved <= cfg.offered_load * 1.25 + 0.05,
            "achieved {} overshoots target {}", achieved, cfg.offered_load);
    }

    /// The streaming path is the eager path: for any valid configuration,
    /// draining [`SyntheticWorkloadConfig::stream`] yields exactly the job
    /// sequence `generate()` materialises, bit for bit — the identity the
    /// million-job streaming mode rests on.
    #[test]
    fn streamed_and_materialised_sequences_are_identical(cfg in config_strategy()) {
        let eager = cfg.generate().into_jobs();
        let streamed = cfg.stream().collect_jobs();
        prop_assert_eq!(&streamed, &eager);
        // The stream also reports its exact length up front.
        prop_assert_eq!(cfg.stream().len(), cfg.total_jobs);
        prop_assert_eq!(cfg.stream().size_hint(), (cfg.total_jobs, Some(cfg.total_jobs)));
    }

    /// The same identity for the SWF side: streaming a serialised trace
    /// line by line produces the jobs `parse` + `to_jobs` would, including
    /// the sequence numbers of records skipped for missing runtimes.
    #[test]
    fn swf_streaming_matches_materialised_to_jobs(cfg in config_strategy()) {
        let workload = cfg.generate();
        let records: Vec<grid_workload::SwfRecord> = workload
            .jobs()
            .iter()
            .enumerate()
            .map(|(i, j)| grid_workload::SwfRecord {
                job_number: i as i64,
                submit_time: j.submit,
                wait_time: -1.0,
                // Drop every seventh job's runtime so skipped records (and
                // their sequence numbers) are exercised too.
                run_time: if i % 7 == 3 {
                    -1.0
                } else {
                    j.compute_time(cfg.origin_mips) + j.comm_overhead
                },
                allocated_processors: i64::from(j.processors),
                requested_processors: i64::from(j.processors),
                requested_time: -1.0,
                status: 1,
                user_id: j.user.local as i64,
                group_id: -1,
                queue: 0,
            })
            .collect();
        let text = SwfTrace { comments: vec!["prop".into()], records }.to_swf_string();
        let eager = SwfTrace::parse(&text)
            .expect("roundtrip parse")
            .to_jobs(0, cfg.origin_mips, cfg.max_processors, cfg.comm_fraction);
        let streamed: Vec<Job> =
            SwfJobStream::from_text(&text, 0, cfg.origin_mips, cfg.max_processors, cfg.comm_fraction)
                .collect::<Result<_, _>>()
                .expect("streamed parse");
        prop_assert_eq!(streamed, eager);
    }

    /// SWF serialisation of a synthetic workload round-trips: parsing the
    /// written text yields the same number of jobs with the same submit
    /// times, sizes and runtimes.
    #[test]
    fn swf_roundtrip_preserves_jobs(cfg in config_strategy()) {
        let workload = cfg.generate();
        let records: Vec<grid_workload::SwfRecord> = workload
            .jobs()
            .iter()
            .enumerate()
            .map(|(i, j)| grid_workload::SwfRecord {
                job_number: i as i64,
                submit_time: j.submit,
                wait_time: -1.0,
                run_time: j.compute_time(cfg.origin_mips) + j.comm_overhead,
                allocated_processors: i64::from(j.processors),
                requested_processors: i64::from(j.processors),
                requested_time: -1.0,
                status: 1,
                user_id: j.user.local as i64,
                group_id: -1,
                queue: 0,
            })
            .collect();
        let trace = SwfTrace { comments: vec!["prop".into()], records };
        let parsed = SwfTrace::parse(&trace.to_swf_string()).expect("roundtrip parse");
        prop_assert_eq!(parsed.records.len(), workload.len());
        let jobs = parsed.to_jobs(0, cfg.origin_mips, cfg.max_processors, cfg.comm_fraction);
        prop_assert_eq!(jobs.len(), workload.len());
        for (a, b) in jobs.iter().zip(workload.jobs()) {
            prop_assert_eq!(a.processors, b.processors);
            prop_assert!((a.submit - b.submit).abs() < 1e-6);
            // Runtime is preserved through the MI conversion.
            let ra = a.compute_time(cfg.origin_mips) + a.comm_overhead;
            let rb = b.compute_time(cfg.origin_mips) + b.comm_overhead;
            prop_assert!((ra - rb).abs() < 1e-6 * rb.max(1.0));
        }
    }
}
