//! Synthetic parallel workload generation.
//!
//! The generator follows the spirit of the Lublin–Feitelson workload model:
//!
//! * arrivals follow a daily cycle (day-time hours are busier than night),
//! * most jobs request a power-of-two number of processors, with a
//!   configurable fraction of serial jobs,
//! * runtimes are heavy-tailed (log-normal),
//! * every job is attributed to one of a fixed set of local users.
//!
//! Crucially for the reproduction, each resource's generator is **calibrated**
//! by two scalar targets taken from the paper: the number of jobs submitted
//! over the simulated two days (Table 2/3, "Total Job") and the *offered
//! load* — the fraction of the resource's capacity the local workload would
//! occupy if it ran with no queueing losses.  The offered load determines how
//! the independent-resource experiment saturates (SDSC Blue and SDSC SP2 are
//! oversubscribed in the paper; CTC, KTH and the LANL machines are not),
//! which is the property all downstream results depend on.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::dist::LogNormal;
use crate::job::{Job, JobId, UserId};
use crate::source::JobSource;

/// Configuration of the synthetic workload of a single resource.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticWorkloadConfig {
    /// Index of the originating resource.
    pub origin: usize,
    /// Human-readable resource name (used in reports only).
    pub name: String,
    /// Length of the generated trace in seconds (the paper uses 2 days).
    pub duration: f64,
    /// Number of jobs to generate.
    pub total_jobs: usize,
    /// Processors of the originating resource (jobs never exceed this).
    pub max_processors: u32,
    /// Per-processor speed of the originating resource, in MIPS.
    pub origin_mips: f64,
    /// Target offered load: Σ(runtime·processors) / (capacity·duration).
    pub offered_load: f64,
    /// Fraction of jobs requesting exactly one processor.
    pub serial_fraction: f64,
    /// Among parallel jobs, fraction requesting a power-of-two size.
    pub power_of_two_fraction: f64,
    /// Log-space standard deviation of the runtime distribution.
    pub runtime_sigma: f64,
    /// Minimum job runtime in seconds (after calibration).
    pub min_runtime: f64,
    /// Maximum job runtime in seconds (after calibration).  Keeps the
    /// synthetic tail compatible with a short trace window: a two-day trace
    /// should not be dominated by week-long jobs.
    pub max_runtime: f64,
    /// Probability that a parallel job requests the whole machine.
    pub full_machine_fraction: f64,
    /// Upper bound on the share of the trace's total work a single job may
    /// carry.  Keeps the calibrated load spread over the bulk of the jobs
    /// instead of a handful of giant jobs, mirroring real archive traces.
    pub max_job_work_fraction: f64,
    /// Ratio of day-time to night-time arrival intensity (>= 1).
    pub day_night_ratio: f64,
    /// Number of distinct local users submitting the jobs.
    pub user_count: usize,
    /// Fraction of each job's execution time that is communication
    /// (0.10 in the paper).
    pub comm_fraction: f64,
    /// Seed for this resource's generator stream.
    pub seed: u64,
}

impl SyntheticWorkloadConfig {
    /// A reasonable starting configuration for a resource; callers normally
    /// override `total_jobs`, `offered_load`, `max_processors` and
    /// `origin_mips` from the paper's Table 1/2.
    #[must_use]
    pub fn new(origin: usize, name: &str) -> Self {
        SyntheticWorkloadConfig {
            origin,
            name: name.to_string(),
            duration: 2.0 * 86_400.0,
            total_jobs: 200,
            max_processors: 128,
            origin_mips: 800.0,
            offered_load: 0.6,
            serial_fraction: 0.25,
            power_of_two_fraction: 0.75,
            runtime_sigma: 0.9,
            min_runtime: 30.0,
            max_runtime: 0.25 * 2.0 * 86_400.0,
            full_machine_fraction: 0.04,
            max_job_work_fraction: 0.02,
            day_night_ratio: 3.0,
            user_count: 16,
            comm_fraction: 0.10,
            seed: 0,
        }
    }

    /// Validates the configuration, returning a description of the first
    /// problem found.
    ///
    /// # Errors
    /// Returns `Err` with a human-readable message when a field is out of
    /// range.
    pub fn validate(&self) -> Result<(), String> {
        if self.duration <= 0.0 {
            return Err(format!("duration must be positive, got {}", self.duration));
        }
        if self.total_jobs == 0 {
            return Err("total_jobs must be at least 1".into());
        }
        if self.max_processors == 0 {
            return Err("max_processors must be at least 1".into());
        }
        if self.origin_mips <= 0.0 {
            return Err(format!(
                "origin_mips must be positive, got {}",
                self.origin_mips
            ));
        }
        if self.offered_load <= 0.0 {
            return Err(format!(
                "offered_load must be positive, got {}",
                self.offered_load
            ));
        }
        if !(0.0..=1.0).contains(&self.serial_fraction) {
            return Err(format!(
                "serial_fraction must be in [0,1], got {}",
                self.serial_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.power_of_two_fraction) {
            return Err(format!(
                "power_of_two_fraction must be in [0,1], got {}",
                self.power_of_two_fraction
            ));
        }
        if !(0.0..1.0).contains(&self.comm_fraction) {
            return Err(format!(
                "comm_fraction must be in [0,1), got {}",
                self.comm_fraction
            ));
        }
        if self.day_night_ratio < 1.0 {
            return Err(format!(
                "day_night_ratio must be >= 1, got {}",
                self.day_night_ratio
            ));
        }
        if self.user_count == 0 {
            return Err("user_count must be at least 1".into());
        }
        if !(0.0..).contains(&self.runtime_sigma) {
            return Err(format!(
                "runtime_sigma must be non-negative, got {}",
                self.runtime_sigma
            ));
        }
        if self.max_runtime < self.min_runtime {
            return Err(format!(
                "max_runtime ({}) must be at least min_runtime ({})",
                self.max_runtime, self.min_runtime
            ));
        }
        if !(0.0..=1.0).contains(&self.full_machine_fraction) {
            return Err(format!(
                "full_machine_fraction must be in [0,1], got {}",
                self.full_machine_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.max_job_work_fraction) || self.max_job_work_fraction == 0.0 {
            return Err(format!(
                "max_job_work_fraction must be in (0,1], got {}",
                self.max_job_work_fraction
            ));
        }
        Ok(())
    }

    /// Generates the workload described by this configuration, eagerly.
    ///
    /// Implemented on top of [`Self::stream`] so the eager and streaming
    /// paths cannot drift: `generate().into_jobs()` and `stream()` yield
    /// bitwise-identical job sequences by construction.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`Self::validate`]).
    #[must_use]
    pub fn generate(&self) -> SyntheticWorkload {
        SyntheticWorkload {
            config: self.clone(),
            jobs: self.stream().collect_jobs(),
        }
    }

    /// Returns a lazy, constant-per-job job stream for this configuration.
    ///
    /// Arrival times, processor requests and calibrated runtimes are
    /// computed up front — the global submit-time sort and the iterative
    /// load calibration are whole-trace passes, so they cannot be streamed
    /// without changing the generated bits — but they live in three plain
    /// scalar arrays.  Full [`Job`] values (identity, QoS estimates,
    /// communication split) are only assembled as the stream is consumed,
    /// which is what keeps million-job runs out of `Vec<Job>` territory.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`Self::validate`]).
    #[must_use]
    pub fn stream(&self) -> SyntheticJobStream {
        if let Err(e) = self.validate() {
            panic!("invalid synthetic workload configuration: {e}");
        }
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (self.origin as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );

        // --- 1. arrival times with a diurnal cycle ---------------------------
        let mut submits: Vec<f64> = (0..self.total_jobs)
            .map(|_| self.sample_arrival(&mut rng))
            .collect();
        submits.sort_by(f64::total_cmp);

        // --- 2. processor requests ------------------------------------------
        let processors: Vec<u32> = (0..self.total_jobs)
            .map(|_| self.sample_processors(&mut rng))
            .collect();

        // --- 3. runtimes, calibrated to the offered load --------------------
        let runtime_dist = LogNormal::from_median(1_000.0, self.runtime_sigma);
        let mut runtimes: Vec<f64> = (0..self.total_jobs)
            .map(|_| runtime_dist.sample(&mut rng).max(1.0))
            .collect();
        let capacity = f64::from(self.max_processors) * self.duration;
        let target_work = self.offered_load * capacity;
        // Iterative calibration: scale runtimes towards the target offered
        // load, then clamp each runtime into [min_runtime, max_runtime] and
        // each job's work below `max_job_work_fraction` of the target.  The
        // later passes correct for the work removed (or added) by clamping.
        let max_job_work = self.max_job_work_fraction * target_work;
        for _ in 0..3 {
            let raw_work: f64 = runtimes
                .iter()
                .zip(&processors)
                .map(|(r, p)| r * f64::from(*p))
                .sum();
            if raw_work <= 0.0 {
                break;
            }
            let scale = target_work / raw_work;
            for (r, p) in runtimes.iter_mut().zip(&processors) {
                let work_cap = max_job_work / f64::from(*p);
                *r = (*r * scale)
                    .clamp(self.min_runtime, self.max_runtime)
                    .min(work_cap.max(self.min_runtime));
            }
        }

        // --- 4. users and job assembly, deferred to the iterator -------------
        SyntheticJobStream {
            origin: self.origin,
            origin_mips: self.origin_mips,
            comm_fraction: self.comm_fraction,
            user_count: self.user_count,
            submits,
            processors,
            runtimes,
            rng,
            next_seq: 0,
        }
    }

    /// Samples one arrival time in `[0, duration)` following the configured
    /// day/night intensity profile.  "Day" is 08:00–20:00 of each simulated
    /// day; segments extending past the trace duration are clipped so short
    /// traces (e.g. half a day) still get valid arrival times.
    fn sample_arrival(&self, rng: &mut StdRng) -> f64 {
        let days = (self.duration / 86_400.0).ceil() as usize;
        // Intensity (arrivals per second, relative) of day vs. night hours.
        let day_intensity = self.day_night_ratio;
        let night_intensity = 1.0;
        // Build the clipped segment list: (start, end, intensity).
        let mut segments: Vec<(f64, f64, f64)> = Vec::with_capacity(days * 3);
        for day in 0..days {
            let day_start = day as f64 * 86_400.0;
            for (s, e, intensity) in [
                (day_start, day_start + 8.0 * 3_600.0, night_intensity),
                (
                    day_start + 8.0 * 3_600.0,
                    day_start + 20.0 * 3_600.0,
                    day_intensity,
                ),
                (
                    day_start + 20.0 * 3_600.0,
                    day_start + 24.0 * 3_600.0,
                    night_intensity,
                ),
            ] {
                let end = e.min(self.duration);
                if end > s {
                    segments.push((s, end, intensity));
                }
            }
        }
        let total_w: f64 = segments.iter().map(|(s, e, i)| (e - s) * i).sum();
        let mut pick = rng.gen::<f64>() * total_w;
        for (start, end, intensity) in &segments {
            let weight = (end - start) * intensity;
            if pick < weight {
                let t = start + (pick / weight) * (end - start);
                return t.clamp(0.0, self.duration * (1.0 - 1e-12));
            }
            pick -= weight;
        }
        // Numerical fall-through: uniform over the whole window.
        rng.gen::<f64>() * self.duration * (1.0 - 1e-12)
    }

    /// Samples a processor request following the serial / power-of-two model.
    fn sample_processors(&self, rng: &mut StdRng) -> u32 {
        if self.max_processors == 1 || rng.gen::<f64>() < self.serial_fraction {
            return 1;
        }
        if rng.gen::<f64>() < self.full_machine_fraction {
            return self.max_processors;
        }
        // Ordinary parallel jobs span up to a quarter of the machine (the
        // bulk of archive jobs is much smaller than the machine they run on);
        // full-machine requests are covered by the dedicated fraction above.
        let max_log2 = (f64::from(self.max_processors)).log2();
        let upper = (max_log2 - 2.0).max(0.52);
        let exponent = rng.gen_range(0.5..upper);
        let size = if rng.gen::<f64>() < self.power_of_two_fraction {
            2f64.powi(exponent.round() as i32)
        } else {
            2f64.powf(exponent)
        };
        (size.round() as u32).clamp(1, self.max_processors)
    }
}

/// Lazy job stream produced by [`SyntheticWorkloadConfig::stream`].
///
/// Holds the calibrated per-job scalars (submit, processors, runtime) and
/// the positioned RNG for user attribution; each [`Job`] is assembled on
/// demand.  The sequence is bitwise-identical to the one
/// [`SyntheticWorkloadConfig::generate`] materialises.
#[derive(Debug, Clone)]
pub struct SyntheticJobStream {
    origin: usize,
    origin_mips: f64,
    comm_fraction: f64,
    user_count: usize,
    submits: Vec<f64>,
    processors: Vec<u32>,
    runtimes: Vec<f64>,
    rng: StdRng,
    next_seq: usize,
}

impl Iterator for SyntheticJobStream {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        if self.next_seq >= self.submits.len() {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let user_local = self.rng.gen_range(0..self.user_count);
        Some(Job::from_runtime(
            JobId {
                origin: self.origin,
                seq,
            },
            UserId {
                origin: self.origin,
                local: user_local,
            },
            self.submits[seq],
            self.processors[seq],
            self.runtimes[seq],
            self.origin_mips,
            self.comm_fraction,
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.submits.len() - self.next_seq;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for SyntheticJobStream {}

/// A generated workload: the configuration it came from plus the jobs.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    /// The generating configuration (kept for provenance).
    pub config: SyntheticWorkloadConfig,
    /// Generated jobs, sorted by submit time.
    pub jobs: Vec<Job>,
}

impl SyntheticWorkload {
    /// The generated jobs.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Consumes the workload and returns the jobs.
    #[must_use]
    pub fn into_jobs(self) -> Vec<Job> {
        self.jobs
    }

    /// Number of generated jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the workload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The offered load actually achieved after calibration and clamping:
    /// Σ(total runtime on origin · processors) / (capacity · duration).
    #[must_use]
    pub fn achieved_load(&self) -> f64 {
        let capacity = f64::from(self.config.max_processors) * self.config.duration;
        let work: f64 = self
            .jobs
            .iter()
            .map(|j| {
                let runtime = j.compute_time(self.config.origin_mips) + j.comm_overhead;
                runtime * f64::from(j.processors)
            })
            .sum();
        work / capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SyntheticWorkloadConfig {
        let mut c = SyntheticWorkloadConfig::new(2, "TEST SP2");
        c.total_jobs = 400;
        c.max_processors = 128;
        c.origin_mips = 900.0;
        c.offered_load = 0.65;
        c.seed = 1234;
        c
    }

    #[test]
    fn generates_requested_number_of_jobs_sorted_by_submit() {
        let w = config().generate();
        assert_eq!(w.len(), 400);
        assert!(!w.is_empty());
        assert!(w
            .jobs()
            .windows(2)
            .all(|pair| pair[0].submit <= pair[1].submit));
        assert!(w
            .jobs()
            .iter()
            .all(|j| j.submit >= 0.0 && j.submit < w.config.duration));
    }

    #[test]
    fn processors_respect_bounds() {
        let w = config().generate();
        assert!(w
            .jobs()
            .iter()
            .all(|j| j.processors >= 1 && j.processors <= 128));
        // With a 25 % serial fraction we expect a healthy number of 1-proc jobs.
        let serial = w.jobs().iter().filter(|j| j.processors == 1).count();
        assert!(serial > 40, "expected some serial jobs, got {serial}");
    }

    #[test]
    fn offered_load_is_calibrated() {
        let w = config().generate();
        let load = w.achieved_load();
        assert!(
            (load - 0.65).abs() < 0.08,
            "achieved load {load} should be close to the 0.65 target"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = config().generate();
        let b = config().generate();
        assert_eq!(a.jobs(), b.jobs());
        let mut other = config();
        other.seed = 99;
        let c = other.generate();
        assert_ne!(a.jobs(), c.jobs());
    }

    #[test]
    fn jobs_belong_to_declared_users_and_origin() {
        let w = config().generate();
        assert!(w
            .jobs()
            .iter()
            .all(|j| j.user.origin == 2 && j.user.local < w.config.user_count));
        assert!(w.jobs().iter().all(|j| j.id.origin == 2));
        // Sequence numbers are dense.
        let mut seqs: Vec<usize> = w.jobs().iter().map(|j| j.id.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..400).collect::<Vec<_>>());
    }

    #[test]
    fn comm_overhead_is_ten_percent_of_origin_runtime() {
        let w = config().generate();
        for j in w.jobs().iter().take(50) {
            let total = j.compute_time(900.0) + j.comm_overhead;
            let frac = j.comm_overhead / total;
            assert!((frac - 0.10).abs() < 1e-9, "comm fraction {frac}");
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = config();
        c.total_jobs = 0;
        assert!(c.validate().is_err());
        let mut c = config();
        c.offered_load = 0.0;
        assert!(c.validate().is_err());
        let mut c = config();
        c.comm_fraction = 1.0;
        assert!(c.validate().is_err());
        let mut c = config();
        c.day_night_ratio = 0.5;
        assert!(c.validate().is_err());
        for sigma in [-0.5, f64::NAN] {
            let mut c = config();
            c.runtime_sigma = sigma;
            assert!(c.validate().is_err(), "sigma {sigma}");
        }
        assert!(config().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid synthetic workload configuration")]
    fn generate_panics_on_invalid_config() {
        let mut c = config();
        c.user_count = 0;
        let _ = c.generate();
    }

    #[test]
    fn stream_and_generate_are_bitwise_identical() {
        let cfg = config();
        let streamed: Vec<Job> = cfg.stream().collect();
        assert_eq!(streamed, cfg.generate().into_jobs());
    }

    #[test]
    fn stream_reports_exact_remaining_size() {
        let cfg = config();
        let mut stream = cfg.stream();
        assert_eq!(stream.len(), 400);
        assert_eq!(stream.size_hint(), (400, Some(400)));
        let _ = stream.next();
        assert_eq!(stream.len(), 399);
        assert!(stream.by_ref().count() == 399 && stream.next().is_none());
    }

    #[test]
    fn day_hours_are_busier_than_night_hours() {
        let mut c = config();
        c.total_jobs = 5_000;
        c.day_night_ratio = 4.0;
        let w = c.generate();
        let day_jobs = w
            .jobs()
            .iter()
            .filter(|j| {
                let hour = (j.submit % 86_400.0) / 3_600.0;
                (8.0..20.0).contains(&hour)
            })
            .count();
        let night_jobs = w.len() - day_jobs;
        assert!(
            day_jobs > 2 * night_jobs,
            "day {day_jobs} vs night {night_jobs}"
        );
    }
}
