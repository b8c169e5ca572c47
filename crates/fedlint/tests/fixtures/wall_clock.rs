//! Seeded violations for the `wall-clock` rule.  Never compiled.

use std::time::Instant;

/// Reads the host clock and forks an OS thread mid-simulation.
pub fn stamp() -> u128 {
    let t0 = Instant::now();
    let wall = std::time::SystemTime::now();
    let _ = wall;
    std::thread::spawn(|| ());
    std::thread::scope(|_| ());
    // fedlint: allow(wall-clock) — wall-clock timing is the probe itself
    let _t1 = Instant::now();
    t0.elapsed().as_nanos()
}
