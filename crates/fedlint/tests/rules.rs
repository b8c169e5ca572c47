//! Fixture tests: every rule must fire on its seeded violations, respect
//! its `fedlint: allow(...)` escapes, and stay silent outside its scope —
//! and the real workspace must scan clean.

use std::path::Path;

use fedlint::{scan_source, scan_sources, scan_workspace, Finding, Rule};

/// Lines at which `rule` fired when scanning `content` as `path`.
fn lines(path: &str, content: &str, rule: Rule) -> Vec<usize> {
    scan_source(path, content)
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

/// Findings of rules *other* than `rule` (fixtures must not trip rules they
/// don't exercise).
fn other_rules(path: &str, content: &str, rule: Rule) -> Vec<Finding> {
    scan_source(path, content)
        .into_iter()
        .filter(|f| f.rule != rule)
        .collect()
}

#[test]
fn hash_iteration_fires_on_fixture() {
    let src = include_str!("fixtures/hash_iteration.rs");
    let path = "crates/core/src/fixture.rs";
    // `for` over a local map, `.iter()` on a set, `.keys()` on a map, and
    // `for` over a hash field through `self.`; the `.values()` call is
    // allowlisted.
    assert_eq!(lines(path, src, Rule::HashIteration), vec![11, 16, 17, 31]);
    assert_eq!(other_rules(path, src, Rule::HashIteration), vec![]);
}

#[test]
fn hash_iteration_is_scoped_to_sim_crates() {
    let src = include_str!("fixtures/hash_iteration.rs");
    assert_eq!(
        lines(
            "crates/experiments/src/fixture.rs",
            src,
            Rule::HashIteration
        ),
        vec![]
    );
}

#[test]
fn wall_clock_fires_on_fixture() {
    let src = include_str!("fixtures/wall_clock.rs");
    let path = "crates/experiments/src/fixture.rs";
    // `Instant::now`, `SystemTime`, `thread::spawn`, `thread::scope`; the
    // second `Instant::now` is allowlisted, and the plain `Instant` import
    // is not a clock read.
    assert_eq!(lines(path, src, Rule::WallClock), vec![7, 8, 10, 11]);
    assert_eq!(other_rules(path, src, Rule::WallClock), vec![]);
}

#[test]
fn wall_clock_catches_an_ad_hoc_scoped_pool() {
    let src = include_str!("fixtures/scoped_pool.rs");
    // An experiment fanning runs over its own `thread::scope` pool instead
    // of the one in `parallel.rs`, where the same code is allowed.
    assert_eq!(
        lines("crates/experiments/src/exp3.rs", src, Rule::WallClock),
        vec![7]
    );
    assert_eq!(
        lines("crates/experiments/src/parallel.rs", src, Rule::WallClock),
        vec![]
    );
}

#[test]
fn wall_clock_exempts_only_the_obs_profiler() {
    let src = include_str!("fixtures/obs_clock.rs");
    // The self-profiler may read the host clock; the rest of the obs crate
    // (the registry, the tracer) may not.
    assert_eq!(
        lines("crates/obs/src/profile.rs", src, Rule::WallClock),
        vec![]
    );
    assert_eq!(
        lines("crates/obs/src/metrics.rs", src, Rule::WallClock),
        vec![6]
    );
}

#[test]
fn wall_clock_exempts_parallel_driver_and_benches() {
    let src = include_str!("fixtures/wall_clock.rs");
    assert_eq!(
        lines("crates/experiments/src/parallel.rs", src, Rule::WallClock),
        vec![]
    );
    assert_eq!(
        lines("crates/bench/src/bin/bench_perf.rs", src, Rule::WallClock),
        vec![]
    );
}

#[test]
fn wall_clock_exempts_only_bench_perf_in_the_bench_crate() {
    let src = include_str!("fixtures/bench_clock.rs");
    // `bench_perf` times kernels; the gate and the shared helpers only read
    // and compare its output, so a clock read there is a finding.
    assert_eq!(
        lines("crates/bench/src/bin/bench_perf.rs", src, Rule::WallClock),
        vec![]
    );
    assert_eq!(
        lines("crates/bench/src/bin/perf_gate.rs", src, Rule::WallClock),
        vec![6]
    );
    assert_eq!(
        lines("crates/bench/src/lib.rs", src, Rule::WallClock),
        vec![6]
    );
}

#[test]
fn float_sort_fires_on_fixture() {
    let src = include_str!("fixtures/float_sort.rs");
    let path = "crates/cluster/src/fixture.rs";
    // `sort_by`, `max_by`, and a multi-line `sort_unstable_by` comparator;
    // the `total_cmp` sort passes and the last sort is allowlisted.
    assert_eq!(lines(path, src, Rule::FloatSort), vec![5, 7, 9]);
    assert_eq!(other_rules(path, src, Rule::FloatSort), vec![]);
}

#[test]
fn charge_drop_fires_on_fixture() {
    let src = include_str!("fixtures/charge_drop.rs");
    let path = "crates/experiments/src/fixture.rs";
    // A bare statement call, a multi-line struct-literal call, and a call
    // through a field chain; `let _ =`, `+=`, `let`, and `if` consumers
    // pass, and one drop is allowlisted.
    assert_eq!(lines(path, src, Rule::ChargeDrop), vec![5, 10, 19]);
    assert_eq!(other_rules(path, src, Rule::ChargeDrop), vec![]);
}

#[test]
fn charge_drop_applies_in_sim_crates_too() {
    let src = include_str!("fixtures/charge_drop.rs");
    assert_eq!(
        lines("crates/directory/src/fixture.rs", src, Rule::ChargeDrop),
        vec![5, 10, 19]
    );
}

#[test]
fn undocumented_pub_fires_on_fixture() {
    let src = include_str!("fixtures/undocumented_pub.rs");
    let path = "crates/des/src/fixture.rs";
    // An undocumented `pub fn` and an undocumented `pub struct` behind a
    // derive; documented items, `pub(crate)`, `pub mod file;` declarations
    // and `#[cfg(test)]` helpers all pass.
    assert_eq!(lines(path, src, Rule::UndocumentedPub), vec![6, 9]);
    assert_eq!(other_rules(path, src, Rule::UndocumentedPub), vec![]);
}

#[test]
fn undocumented_pub_is_scoped_to_sim_crate_sources() {
    let src = include_str!("fixtures/undocumented_pub.rs");
    assert_eq!(
        lines(
            "crates/experiments/src/fixture.rs",
            src,
            Rule::UndocumentedPub
        ),
        vec![]
    );
    assert_eq!(
        lines("crates/des/tests/fixture.rs", src, Rule::UndocumentedPub),
        vec![]
    );
}

#[test]
fn hot_path_unwrap_fires_on_fixture() {
    let src = include_str!("fixtures/hot_path_unwrap.rs");
    let path = "crates/des/src/queue.rs";
    // `.unwrap()` and `.expect(` on the per-event path; the justified
    // expect is allowlisted and test-module unwraps are exempt.
    assert_eq!(lines(path, src, Rule::HotPathUnwrap), vec![5, 9]);
    assert_eq!(other_rules(path, src, Rule::HotPathUnwrap), vec![]);
}

#[test]
fn hot_path_unwrap_only_applies_to_listed_files() {
    let src = include_str!("fixtures/hot_path_unwrap.rs");
    assert_eq!(
        lines("crates/des/src/rng.rs", src, Rule::HotPathUnwrap),
        vec![]
    );
}

#[test]
fn eager_materialise_fires_on_fixture() {
    let src = include_str!("fixtures/eager_materialise.rs");
    // An annotated `.collect()`, a turbofish, and a path-qualified
    // turbofish; `collect_jobs()` (the sanctioned adapter), a
    // `Vec<JobRecord>` collect, the allowlisted collect and the
    // `#[cfg(test)]` oracle all pass.
    for path in [
        "crates/experiments/src/fixture.rs",
        "crates/core/src/fixture.rs",
    ] {
        assert_eq!(
            lines(path, src, Rule::EagerMaterialise),
            vec![5, 6, 7],
            "{path}"
        );
    }
    assert_eq!(
        other_rules(
            "crates/experiments/src/fixture.rs",
            src,
            Rule::EagerMaterialise
        ),
        vec![]
    );
}

#[test]
fn eager_materialise_exempts_the_adapter_tests_and_other_crates() {
    let src = include_str!("fixtures/eager_materialise.rs");
    // The streaming adapter is the one sanctioned materialisation point…
    assert_eq!(
        lines("crates/workload/src/source.rs", src, Rule::EagerMaterialise),
        vec![]
    );
    // …test targets build reference vectors freely…
    assert_eq!(
        lines(
            "crates/workload/tests/fixture.rs",
            src,
            Rule::EagerMaterialise
        ),
        vec![]
    );
    // …and crates outside the sim/workload/experiments scope are untouched.
    assert_eq!(
        lines("crates/bench/src/fixture.rs", src, Rule::EagerMaterialise),
        vec![]
    );
    // Elsewhere in the workload crate the rule is live.
    assert_eq!(
        lines(
            "crates/workload/src/synthetic.rs",
            src,
            Rule::EagerMaterialise
        ),
        vec![5, 6, 7]
    );
}

#[test]
fn unbounded_retry_fires_on_fixture() {
    let src = include_str!("fixtures/unbounded_retry.rs");
    let path = "crates/core/src/fixture.rs";
    // Two naked loop increments; the `max_retries`/`max_retransmits`-gated
    // loops, the justified escape, the non-unit accumulations and the
    // test-module counter all pass.
    assert_eq!(lines(path, src, Rule::UnboundedRetry), vec![11, 17]);
    assert_eq!(other_rules(path, src, Rule::UnboundedRetry), vec![]);
}

#[test]
fn unbounded_retry_is_scoped_to_sim_crates() {
    let src = include_str!("fixtures/unbounded_retry.rs");
    assert_eq!(
        lines(
            "crates/experiments/src/fixture.rs",
            src,
            Rule::UnboundedRetry
        ),
        vec![]
    );
    assert_eq!(
        lines("crates/core/tests/fixture.rs", src, Rule::UnboundedRetry),
        vec![]
    );
}

#[test]
fn adhoc_print_fires_on_fixture() {
    let src = include_str!("fixtures/adhoc_print.rs");
    let path = "crates/core/src/fixture.rs";
    // `println!`, `eprintln!` and `dbg!` on the sim path; the justified
    // escape, the look-alike identifiers and the test-module print pass.
    assert_eq!(lines(path, src, Rule::AdhocPrint), vec![5, 6, 7]);
    assert_eq!(other_rules(path, src, Rule::AdhocPrint), vec![]);
}

#[test]
fn adhoc_print_is_scoped_to_sim_crate_sources() {
    let src = include_str!("fixtures/adhoc_print.rs");
    // The experiment drivers render tables on stdout by design…
    assert_eq!(
        lines("crates/experiments/src/fixture.rs", src, Rule::AdhocPrint),
        vec![]
    );
    // …and sim-crate test targets may print diagnostics freely.
    assert_eq!(
        lines("crates/core/tests/fixture.rs", src, Rule::AdhocPrint),
        vec![]
    );
}

#[test]
fn shims_and_fixtures_are_out_of_scope() {
    let src = include_str!("fixtures/wall_clock.rs");
    assert_eq!(scan_source("crates/shims/rand/src/lib.rs", src), vec![]);
    assert_eq!(
        scan_source("crates/fedlint/tests/fixtures/wall_clock.rs", src),
        vec![]
    );
}

#[test]
fn allow_escape_parses_multiple_rules() {
    let src = "\
fn f(v: &mut Vec<f64>) {
    // NaN-free inputs, and the comparator can never panic.
    // fedlint: allow(float-sort, hot-path-unwrap)
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
";
    assert_eq!(scan_source("crates/cluster/src/estimate.rs", src), vec![]);
}

#[test]
fn bare_allow_fires_on_fixture() {
    let src = include_str!("fixtures/bare_allow.rs");
    let path = "crates/cluster/src/fixture.rs";
    // A justified escape passes; an escape with no comment around it and
    // one whose comment never names the waived invariant are findings.
    // The waived rules themselves stay suppressed.
    assert_eq!(lines(path, src, Rule::BareAllow), vec![11, 16]);
    assert_eq!(other_rules(path, src, Rule::BareAllow), vec![]);
}

#[test]
fn bare_allow_is_exempt_in_tests_and_cannot_be_waived() {
    let src = include_str!("fixtures/bare_allow.rs");
    // Test targets embed escape-shaped strings freely.
    assert_eq!(
        lines("crates/cluster/tests/fixture.rs", src, Rule::BareAllow),
        vec![]
    );
    // `allow(bare-allow)` parses to nothing: the waiver cannot be waived.
    assert_eq!(Rule::from_id("bare-allow"), None);
    let src = "\
fn f(o: Option<u32>) -> u32 {
    // fedlint: allow(hot-path-unwrap, bare-allow)
    o.expect(\"still bare\")
}
";
    assert_eq!(
        lines("crates/des/src/queue.rs", src, Rule::BareAllow),
        vec![2]
    );
}

/// The linter's own acceptance gate: the real workspace must be clean.
/// This is the same scan CI runs via `cargo run -p fedlint -- check`, so a
/// violation anywhere in the tree fails `cargo test` too.
#[test]
fn workspace_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = scan_workspace(&root).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "fedlint found violations:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn single_charge_path_fires_on_fixture() {
    let src = include_str!("fixtures/single_charge_path.rs");
    let path = "crates/core/src/fixture.rs";
    assert_eq!(lines(path, src, Rule::SingleChargePath), vec![3, 4, 5, 6]);
    assert_eq!(other_rules(path, src, Rule::SingleChargePath), vec![]);
    // The fold itself and non-sim crates may write the stores.
    assert_eq!(
        lines("crates/core/src/accounting.rs", src, Rule::SingleChargePath),
        vec![]
    );
    assert_eq!(
        lines(
            "crates/experiments/src/fixture.rs",
            src,
            Rule::SingleChargePath
        ),
        vec![]
    );
}

/// The `unreached-pub` fixture library at `lib_path`, scanned with its two
/// caller fixtures as one workspace.
fn unreached_pub_findings(lib_path: &str) -> Vec<Finding> {
    scan_sources(&[
        (lib_path, include_str!("fixtures/unreached_pub.rs")),
        (
            "crates/des/tests/callers.rs",
            include_str!("fixtures/unreached_pub_test.rs"),
        ),
        (
            "examples/caller.rs",
            include_str!("fixtures/unreached_pub_example.rs"),
        ),
    ])
}

#[test]
fn unreached_pub_fires_on_fixture() {
    // A fn called only from its own file's tests, a type named only by its
    // own impl, a fn whose name is elsewhere only a local variable and a fn
    // reached only through a `pub use`; the fns called from a test target
    // and an example, and the escaped const, pass.
    let findings: Vec<String> = unreached_pub_findings("crates/des/src/fixture.rs")
        .iter()
        .map(ToString::to_string)
        .collect();
    let tail = "is reached only from its own definition, its file's tests or `pub use` lines — delete it, or move it into the tests";
    assert_eq!(
        findings,
        [
            (5, "fn only_tested"),
            (10, "struct OnlySelf"),
            (19, "fn total"),
            (24, "fn reexported"),
        ]
        .map(|(line, item)| format!(
            "crates/des/src/fixture.rs:{line}: [unreached-pub] `pub {item}` {tail}"
        ))
    );
}

#[test]
fn unreached_pub_is_scoped_to_library_sources() {
    // Binaries and crates outside the library list are not checked.
    for path in [
        "crates/experiments/src/bin/fixture.rs",
        "crates/bench/src/fixture.rs",
        "src/fixture.rs",
    ] {
        assert_eq!(unreached_pub_findings(path), vec![], "{path}");
    }
    assert_eq!(
        unreached_pub_findings("crates/experiments/src/fixture.rs").len(),
        4
    );
}

#[test]
fn unreached_pub_escapes_need_a_reason() {
    let src = "\
// fedlint: allow(unreached-pub)
/// Escaped without a reason.
pub const BARE: u32 = 1;
";
    assert_eq!(
        lines("crates/des/src/fixture.rs", src, Rule::BareAllow),
        vec![1]
    );
    assert_eq!(scan_sources(&[("crates/des/src/fixture.rs", src)]).len(), 1);
}
