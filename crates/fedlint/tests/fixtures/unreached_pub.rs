//! `unreached-pub` fixture: scanned as a library source file, next to the
//! two caller fixtures scanned as a test target and an example.

/// Called only from this file's tests.
pub fn only_tested() -> u32 {
    7
}

/// Named only by its own impl blocks.
pub struct OnlySelf;

impl Clone for OnlySelf {
    fn clone(&self) -> OnlySelf {
        OnlySelf
    }
}

/// Elsewhere only a local variable carries this name.
pub fn total() -> u32 {
    3
}

/// Reached only through the re-export below.
pub fn reexported() -> u32 {
    4
}

pub use crate::fixture::reexported;

/// Called from an integration test.
pub fn called_from_tests() -> u32 {
    5
}

/// Called from an example.
pub fn called_from_example() -> u32 {
    6
}

// Public for callers outside this workspace.  fedlint: allow(unreached-pub)
/// Escaped with its reason.
pub const ESCAPED: u32 = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_tested_is_seven() {
        assert_eq!(only_tested(), 7);
    }
}
