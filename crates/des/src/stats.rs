//! Engine-level statistics.
//!
//! These counters describe the *simulation engine* (events, wall-clock cost),
//! not the simulated system.  Model-level metrics (utilization, incentive,
//! message classes, …) live in `grid-federation-core::metrics`.

use crate::time::SimTime;

/// Counters accumulated by [`crate::Simulation`] while running.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Events delivered to entities via `on_event`.
    pub events_delivered: u64,
    /// Events pushed into the future-event list (including those still
    /// pending or discarded at the horizon).  A timer an entity reserved a
    /// sequence number for ([`crate::Context::reserve_seqs`]) counts once
    /// it is scheduled, not when its number is reserved.
    pub events_scheduled: u64,
    /// Messages between two *different* entities (a subset of
    /// `events_delivered`).
    pub messages_delivered: u64,
    /// Events the future-event list appended to its FIFO lane of in-order
    /// messages instead of sifting them through its heap (see
    /// [`crate::EventQueue`]).
    pub lane_pushes: u64,
    /// Self-timers delivered.
    pub timers_delivered: u64,
    /// Events that were still pending when the simulation stopped (horizon
    /// reached or explicit stop).  Timers an entity had reserved sequence
    /// numbers for but not yet scheduled are not pending events and are not
    /// counted.
    pub events_dropped_at_stop: u64,
    /// Most events the future-event list's heap held at once: timers,
    /// reserved pushes and out-of-order messages pending together (lane
    /// events never count).  A model that scheduled its whole script up
    /// front would show it here.
    pub heap_high_water: u64,
    /// Final simulation clock value.
    pub end_time: SimTime,
}


/// Streaming summary statistics (count / mean / min / max / variance) used by
/// several crates to summarise per-job and per-GFA observations without
/// storing every sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation (Welford update).
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Minimum observation, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sample variance (n-1 denominator), or 0 with fewer than two samples.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut r = RunningStats::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), 0.0);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.push(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 9.0);
        assert!((r.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert!((r.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 10.0 + 20.0).collect();
        let mut all = RunningStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &data[..400] {
            left.push(x);
        }
        for &x in &data[400..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-6);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        b.push(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 3.0);
        let empty = RunningStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }
}
