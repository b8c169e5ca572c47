//! Seeded violation for the `wall-clock` rule inside the obs crate.  Never
//! compiled.

/// Stamps a metric with the host clock.
pub fn stamp(samples: &mut Vec<std::time::Instant>) {
    samples.push(std::time::Instant::now());
}
