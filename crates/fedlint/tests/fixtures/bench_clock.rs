//! Seeded violation for the `wall-clock` rule inside the bench crate.
//! Never compiled.

/// Times a gate decision with the host clock.
pub fn timed_gate() -> std::time::Duration {
    let start = std::time::Instant::now();
    start.elapsed()
}
