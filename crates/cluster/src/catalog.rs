//! The resource and workload catalogue of the paper (Table 1 / Table 2).
//!
//! Each entry couples the advertised resource description with the
//! calibration targets the synthetic workload generator uses to stand in for
//! the original Parallel Workloads Archive traces: the number of jobs
//! submitted during the simulated two days ("Total Job" column of Table 2)
//! and the *offered load* implied by the reported utilization / rejection
//! figures.  The `grid-workload` crate docs give the substitution argument.

use crate::resource::ResourceSpec;

/// One row of Table 1 plus the calibration targets derived from Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperResource {
    /// Resource description (name, processors, MIPS, bandwidth, quote).
    pub spec: ResourceSpec,
    /// Name of the archive trace the paper used for this resource.
    pub trace_name: &'static str,
    /// Number of jobs submitted over the simulated two days (Table 2).
    pub jobs_two_days: usize,
    /// Offered load target used to calibrate the synthetic trace.
    ///
    /// For under-subscribed resources this is close to the independent-case
    /// utilization of Table 2; for the two over-subscribed SDSC machines it
    /// exceeds 1.0, which is what produces their high rejection rates.
    pub offered_load: f64,
    /// Approximate number of distinct local users generating the jobs.
    pub user_count: usize,
}

/// The eight resources of Table 1, in the paper's index order (1-based in the
/// paper, 0-based here).
#[must_use]
pub fn paper_resources() -> Vec<PaperResource> {
    vec![
        PaperResource {
            spec: ResourceSpec::new("CTC SP2", 512, 850.0, 2.0, 4.84),
            trace_name: "CTC-SP2-1996-2.1-cln",
            jobs_two_days: 417,
            offered_load: 0.56,
            user_count: 48,
        },
        PaperResource {
            spec: ResourceSpec::new("KTH SP2", 100, 900.0, 1.6, 5.12),
            trace_name: "KTH-SP2-1996-2",
            jobs_two_days: 163,
            offered_load: 0.54,
            user_count: 24,
        },
        PaperResource {
            spec: ResourceSpec::new("LANL CM5", 1024, 700.0, 1.0, 3.98),
            trace_name: "LANL-CM5-1994-3.1-cln",
            jobs_two_days: 215,
            offered_load: 0.52,
            user_count: 32,
        },
        PaperResource {
            spec: ResourceSpec::new("LANL Origin", 2048, 630.0, 1.6, 3.59),
            trace_name: "LANL-O2K-1999-1",
            jobs_two_days: 817,
            offered_load: 0.48,
            user_count: 64,
        },
        PaperResource {
            spec: ResourceSpec::new("NASA iPSC", 128, 930.0, 4.0, 5.3),
            trace_name: "NASA-iPSC-1993-3.1-cln",
            jobs_two_days: 535,
            offered_load: 0.64,
            user_count: 40,
        },
        PaperResource {
            spec: ResourceSpec::new("SDSC Par96", 416, 710.0, 1.0, 4.04),
            trace_name: "SDSC-Par-1996-3.1-cln",
            jobs_two_days: 189,
            offered_load: 0.51,
            user_count: 28,
        },
        PaperResource {
            spec: ResourceSpec::new("SDSC Blue", 1152, 730.0, 2.0, 4.16),
            trace_name: "SDSC-BLUE-2000-4.2-cln",
            jobs_two_days: 215,
            offered_load: 1.35,
            user_count: 36,
        },
        PaperResource {
            spec: ResourceSpec::new("SDSC SP2", 128, 920.0, 4.0, 5.24),
            trace_name: "SDSC-SP2-1998-4.2-cln",
            jobs_two_days: 111,
            offered_load: 1.40,
            user_count: 20,
        },
    ]
}

/// Replicates the Table 1 resources to build a federation of `n` clusters,
/// exactly as Experiment 5 does ("to accomplish larger system size, we
/// replicated our existing resources accordingly").
#[must_use]
pub fn replicated_resources(n: usize) -> Vec<PaperResource> {
    let base = paper_resources();
    (0..n)
        .map(|i| {
            let source = &base[i % base.len()];
            let copy = i / base.len();
            PaperResource {
                spec: source.spec.replicated(copy),
                ..source.clone()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_eight_rows_with_paper_values() {
        let rs = paper_resources();
        assert_eq!(rs.len(), 8);
        let total_procs: u32 = rs.iter().map(|r| r.spec.processors).sum();
        assert_eq!(total_procs, 512 + 100 + 1024 + 2048 + 128 + 416 + 1152 + 128);
        // Quote column of Table 1.
        let quotes: Vec<f64> = rs.iter().map(|r| r.spec.price).collect();
        assert_eq!(quotes, vec![4.84, 5.12, 3.98, 3.59, 5.3, 4.04, 4.16, 5.24]);
        // NASA iPSC is the fastest, LANL Origin the cheapest — the two poles
        // the OFT/OFC strategies gravitate towards.
        let fastest = rs.iter().max_by(|a, b| a.spec.mips.total_cmp(&b.spec.mips)).unwrap();
        assert_eq!(fastest.spec.name, "NASA iPSC");
        let cheapest = rs.iter().min_by(|a, b| a.spec.price.total_cmp(&b.spec.price)).unwrap();
        assert_eq!(cheapest.spec.name, "LANL Origin");
    }

    #[test]
    fn price_is_proportional_to_speed() {
        // Eq. 6: c_i = (c / µ_max) · µ_i with c = 5.3 at µ_max = 930.
        for r in paper_resources() {
            let predicted = 5.3 / 930.0 * r.spec.mips;
            assert!(
                (predicted - r.spec.price).abs() < 0.02,
                "{}: predicted {predicted}, table says {}",
                r.spec.name,
                r.spec.price
            );
        }
    }

    #[test]
    fn two_day_job_counts_match_table2() {
        let counts: Vec<usize> = paper_resources().iter().map(|r| r.jobs_two_days).collect();
        assert_eq!(counts, vec![417, 163, 215, 817, 535, 189, 215, 111]);
        assert_eq!(counts.iter().sum::<usize>(), 2_662);
    }

    #[test]
    fn only_the_sdsc_machines_are_oversubscribed() {
        for r in paper_resources() {
            if r.spec.name.starts_with("SDSC Blue") || r.spec.name.starts_with("SDSC SP2") {
                assert!(r.offered_load > 1.0, "{} should be oversubscribed", r.spec.name);
            } else {
                assert!(r.offered_load < 0.7, "{} should be undersubscribed", r.spec.name);
            }
        }
    }

    #[test]
    fn replication_cycles_through_the_catalogue() {
        let reps = replicated_resources(20);
        assert_eq!(reps.len(), 20);
        assert_eq!(reps[0].spec.name, "CTC SP2");
        assert_eq!(reps[8].spec.name, "CTC SP2 #2");
        assert_eq!(reps[9].spec.name, "KTH SP2 #2");
        assert_eq!(reps[16].spec.name, "CTC SP2 #3");
        // Replicas keep the original capacity and calibration targets.
        assert_eq!(reps[8].spec.processors, 512);
        assert_eq!(reps[8].jobs_two_days, 417);
    }
}
