//! Seeded violation for the `wall-clock` rule: an ad-hoc worker pool.
//! Never compiled.

/// Runs one task per input on its own OS thread, ignoring any worker cap.
pub fn run_all(inputs: &[u64]) -> Vec<u64> {
    use std::thread;
    thread::scope(|scope| {
        let handles: Vec<_> = inputs.iter().map(|&i| scope.spawn(move || i * 2)).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}
