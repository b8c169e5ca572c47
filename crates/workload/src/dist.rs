//! The log-normal runtime distribution of the synthetic workload generator.
//!
//! Sampled by the Box–Muller transform, implemented from first principles so
//! that the workspace does not need `rand_distr`.  [`LogNormal`] is a small
//! value type sampled with any [`rand::Rng`] — in practice the deterministic
//! `grid_des::SimRng` stream of the experiment.

use rand::Rng;

fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller transform; rejects u1 == 0 to avoid ln(0).
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::EPSILON {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// Log-normal distribution parameterised by the underlying normal's `mu` and
/// `sigma` (i.e. `exp(N(mu, sigma²))`).
///
/// Runtimes of parallel jobs are famously close to log-normal / log-uniform,
/// which is why the synthetic generator uses this family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates the distribution whose *median* is `median` and whose log-space
    /// standard deviation is `sigma`.  The median form is more intuitive when
    /// calibrating job runtimes ("a typical job runs ~900 s").
    ///
    /// # Panics
    /// Panics unless `median > 0` and `sigma >= 0`.
    #[must_use]
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive, got {median}");
        assert!(sigma >= 0.0, "sigma must be non-negative, got {sigma}");
        LogNormal {
            mu: median.ln(),
            sigma,
        }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lognormal_mean_and_positivity() {
        let d = LogNormal::from_median(900.0, 1.0);
        let mut r = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) > 0.0);
        }
        let n = 200_000;
        let mut r = StdRng::seed_from_u64(0xC0FFEE);
        let m = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        // E[exp(N(mu, sigma²))] = exp(mu + sigma² / 2).
        let expected = (900.0_f64.ln() + 0.5).exp();
        assert!(
            (m - expected).abs() / expected < 0.05,
            "mean {m} vs {expected}"
        );
    }
}
