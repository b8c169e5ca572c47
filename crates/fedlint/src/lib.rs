//! fedlint — workspace-native static analysis for the grid-federation repo.
//!
//! A deliberately dependency-free, line/token-level scanner over the
//! workspace's `.rs` sources.  It does not parse Rust properly (no `syn`, no
//! registry access — the build environment is offline); instead it strips
//! comments and string literals per line and applies a small set of
//! repo-specific rules whose patterns are chosen so that rustfmt-formatted
//! code is matched reliably:
//!
//! | rule | scope | what it catches |
//! |------|-------|-----------------|
//! | `hash-iteration` | sim crates | iterating `HashMap`/`HashSet` (nondeterministic order) |
//! | `wall-clock` | all but `bench_perf`/shims/`parallel.rs`/the obs profiler | `Instant::now`, `SystemTime`, `thread::spawn`, `thread::scope` |
//! | `float-sort` | sim crates | sort/min/max comparators using `partial_cmp` without `total_cmp` |
//! | `charge-drop` | whole workspace | dropping the `u64` message cost of `subscribe`/`unsubscribe`/`update_price` |
//! | `undocumented-pub` | sim crates | `pub` items without a doc comment |
//! | `hot-path-unwrap` | PR 3 hot-path files | `.unwrap()` / `.expect(` on the per-event path |
//! | `eager-materialise` | sim + workload/experiments crates | collecting a full `Vec<Job>` outside the streaming adapter |
//! | `unbounded-retry` | sim crates | a retry/retransmit counter incremented with no bounded policy in sight |
//! | `adhoc-print` | sim crates | `println!`/`eprintln!`/`dbg!` outside the obs layer and test code |
//! | `bare-allow` | whole workspace | an allow escape whose comment does not name the invariant it waives |
//! | `single-charge-path` | sim crates but `accounting.rs` | writing the message ledger, audit chains, bank or job records outside the accounting fold |
//!
//! The *sim crates* — `grid-des`, `grid-cluster`, `grid-federation-core`,
//! `grid-directory` — are the ones whose behaviour feeds the rendered paper
//! tables, so everything that could make a run irreproducible is banned
//! there outright.
//!
//! Any finding can be suppressed with an allow comment:
//!
//! ```text
//! // The queue never holds more than u32::MAX events, so the cast
//! // cannot panic.  fedlint: allow(hot-path-unwrap)
//! let slot = u32::try_from(self.slots.len())
//!     .expect("more than u32::MAX pending events");
//! ```
//!
//! The escape covers its own line and the remainder of the statement it
//! opens (through the next line ending in `;`, `{` or `}`), so it reads as a
//! justification attached to exactly one construct, not a file-wide off
//! switch.  The justification is mandatory: the `bare-allow` rule requires
//! the comment block around every escape to *name the invariant it waives*
//! (checked against a per-rule keyword list — e.g. a `hot-path-unwrap`
//! escape must say why the panic can *never* fire), and `bare-allow` itself
//! cannot be allow-listed away.  Code under `#[cfg(test)]` modules and
//! `tests/`/`benches/` targets is exempt from the API-hygiene rules but
//! still checked for determinism: a flaky test is as expensive as a flaky
//! run.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// The rule a [`Finding`] was produced by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Iteration over `HashMap`/`HashSet` in a sim crate.
    HashIteration,
    /// Wall-clock or OS-thread primitives outside the sanctioned scopes.
    WallClock,
    /// A float comparator built on `partial_cmp` instead of `total_cmp`.
    FloatSort,
    /// A charge-returning directory mutator whose `u64` cost is dropped.
    ChargeDrop,
    /// A `pub` item in a sim crate without a doc comment.
    UndocumentedPub,
    /// `.unwrap()` / `.expect(` on a PR 3 hot-path file.
    HotPathUnwrap,
    /// A full workload collected into a `Vec<Job>` outside the streaming
    /// adapter and test code.
    EagerMaterialise,
    /// A retry/retransmit counter incremented in a sim crate with no
    /// bounded policy (`max_retries`, `max_retransmits`, `RetryPolicy`, …)
    /// referenced nearby.
    UnboundedRetry,
    /// `println!`/`eprintln!`/`dbg!` in a sim crate outside test code: all
    /// run telemetry must flow through the observability layer so reports
    /// stay machine-readable and the hot path stays I/O-free.
    AdhocPrint,
    /// A `fedlint: allow(...)` escape whose surrounding comment never names
    /// the invariant it waives.  Cannot itself be allow-listed.
    BareAllow,
    /// A sim-crate write to an accounting store outside the accounting fold.
    SingleChargePath,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 11] = [
        Rule::HashIteration,
        Rule::WallClock,
        Rule::FloatSort,
        Rule::ChargeDrop,
        Rule::UndocumentedPub,
        Rule::HotPathUnwrap,
        Rule::EagerMaterialise,
        Rule::UnboundedRetry,
        Rule::AdhocPrint,
        Rule::BareAllow,
        Rule::SingleChargePath,
    ];

    /// The kebab-case id used in reports and `fedlint: allow(...)` escapes.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashIteration => "hash-iteration",
            Rule::WallClock => "wall-clock",
            Rule::FloatSort => "float-sort",
            Rule::ChargeDrop => "charge-drop",
            Rule::UndocumentedPub => "undocumented-pub",
            Rule::HotPathUnwrap => "hot-path-unwrap",
            Rule::EagerMaterialise => "eager-materialise",
            Rule::UnboundedRetry => "unbounded-retry",
            Rule::AdhocPrint => "adhoc-print",
            Rule::BareAllow => "bare-allow",
            Rule::SingleChargePath => "single-charge-path",
        }
    }

    /// Parses a rule id as written in an allow escape.  `bare-allow` polices
    /// the escapes themselves and so is never parseable here: writing
    /// `fedlint: allow(bare-allow)` waives nothing.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL
            .iter()
            .copied()
            .filter(|&r| r != Rule::BareAllow)
            .find(|r| r.id() == id)
    }

    /// One-line rationale, shown by `fedlint rules`.
    #[must_use]
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::HashIteration => {
                "hash iteration order is nondeterministic; sim state must use BTreeMap/BTreeSet or sort"
            }
            Rule::WallClock => {
                "wall-clock time and ad-hoc threads make runs irreproducible; only the parallel sweep driver, the obs profiler and bench_perf may use them"
            }
            Rule::FloatSort => {
                "partial_cmp comparators panic or misorder on NaN; float orderings must go through total_cmp"
            }
            Rule::ChargeDrop => {
                "directory mutators return a publish-side message cost that must be charged into a ledger or dropped explicitly with `let _ =`"
            }
            Rule::UndocumentedPub => "public sim-crate API needs a doc comment",
            Rule::HotPathUnwrap => {
                "panicking branches on the per-event hot path cost codegen and hide invariants; restructure or justify with an allow escape"
            }
            Rule::EagerMaterialise => {
                "collecting a full Vec<Job> pins the whole workload in memory; stream through JobSource and call collect_jobs() only at the engine boundary"
            }
            Rule::UnboundedRetry => {
                "a retry/retransmit loop with no bounded policy can spin forever on a faulted link; gate the counter on max_retries/max_retransmits or a RetryPolicy"
            }
            Rule::AdhocPrint => {
                "ad-hoc printing from a sim crate bypasses the metrics registry and trace sinks; record through grid-obs so every run artifact stays machine-readable"
            }
            Rule::BareAllow => {
                "an allow escape is a waived invariant; its comment block must say why the invariant holds here, and the waiver itself cannot be waived"
            }
            Rule::SingleChargePath => "the ledger, audit chains, bank and job records are views of one charge stream; record a Charge through SharedState::record so they cannot drift apart",
        }
    }

    /// Keywords, any one of which counts as naming the waived invariant in
    /// the comment block around a `fedlint: allow(...)` escape.  Matched
    /// case-insensitively as substrings, so e.g. `determin` covers both
    /// "deterministic" and "determinism".
    #[must_use]
    pub fn invariant_keywords(self) -> &'static [&'static str] {
        match self {
            Rule::HashIteration => &["order", "determin", "sort"],
            Rule::WallClock => &["clock", "wall", "reproduc", "determin"],
            Rule::FloatSort => &["nan", "total_cmp", "order"],
            Rule::ChargeDrop => &["charge", "cost", "ledger", "free", "message"],
            Rule::UndocumentedPub => &["doc"],
            Rule::HotPathUnwrap => &["always", "never", "panic", "infallib", "invariant"],
            Rule::EagerMaterialise => &["memory", "stream", "engine", "bound"],
            Rule::UnboundedRetry => &["bound", "cap", "budget", "finite", "max"],
            Rule::AdhocPrint => &["diagnostic", "metric", "registry", "obs", "report"],
            Rule::BareAllow => &[],
            Rule::SingleChargePath => &["charge", "fold", "accounting", "drift"],
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable detail naming the offending construct.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Which rule sets apply to one source file, derived from its
/// workspace-relative path.
#[derive(Debug, Clone, Copy)]
struct FileClass {
    /// Determinism + hygiene rules apply (grid-des / grid-cluster /
    /// grid-federation-core / grid-directory).
    sim: bool,
    /// Exempt from `wall-clock` (`bench_perf`, the obs profiler, the sweep
    /// driver).
    wall_clock_exempt: bool,
    /// On the PR 3 hot-path list (`hot-path-unwrap` applies).
    hot_path: bool,
    /// The whole file is test code (`tests/` or `benches/` target).
    test_file: bool,
    /// `eager-materialise` applies: sim crates plus the workload and
    /// experiments crates, minus the streaming adapter itself.
    workload_scope: bool,
}

/// Crates whose behaviour feeds the rendered paper tables.
const SIM_CRATE_PREFIXES: [&str; 4] = [
    "crates/des/",
    "crates/cluster/",
    "crates/core/",
    "crates/directory/",
];

/// The per-event hot-path files identified by the PR 3 profiling pass.
const HOT_PATH_FILES: [&str; 4] = [
    "crates/des/src/queue.rs",
    "crates/cluster/src/estimate.rs",
    "crates/core/src/gfa.rs",
    "crates/directory/src/cursor.rs",
];

fn classify(rel: &str) -> Option<FileClass> {
    // Vendored shims are third-party idiom, and the fixtures are violations
    // on purpose; both are out of scope entirely.
    if rel.starts_with("crates/shims/")
        || rel.contains("fedlint/tests/fixtures")
        || rel.starts_with("target/")
        || rel.contains("/target/")
    {
        return None;
    }
    let sim = SIM_CRATE_PREFIXES.iter().any(|p| rel.starts_with(p));
    Some(FileClass {
        sim,
        // The obs self-profiler and the micro-benchmark are the sanctioned
        // `Instant::now` sites: wall-clock readings there live strictly
        // outside simulation state, so they cannot perturb a run.
        wall_clock_exempt: rel == "crates/bench/src/bin/bench_perf.rs"
            || rel == "crates/obs/src/profile.rs"
            || rel == "crates/experiments/src/parallel.rs",
        hot_path: HOT_PATH_FILES.contains(&rel),
        test_file: rel.contains("/tests/") || rel.contains("/benches/"),
        // The adapter is where `collect_jobs()` legitimately materialises —
        // it is the single sanctioned sink, so the rule skips it.
        workload_scope: (sim
            || rel.starts_with("crates/workload/")
            || rel.starts_with("crates/experiments/"))
            && rel != "crates/workload/src/source.rs",
    })
}

/// Per-line comment/string stripper.  Carries block-comment state across
/// lines; string literals are assumed not to span lines (true of this
/// workspace, and a miss only ever produces a false *negative* for one
/// line).
#[derive(Default)]
struct Stripper {
    in_block_comment: bool,
}

impl Stripper {
    /// Splits one source line into (code with strings blanked, comment
    /// text).
    fn strip(&mut self, line: &str) -> (String, String) {
        let mut code = String::with_capacity(line.len());
        let mut comment = String::new();
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if self.in_block_comment {
                match line[i..].find("*/") {
                    Some(off) => {
                        comment.push_str(&line[i..i + off]);
                        self.in_block_comment = false;
                        i += off + 2;
                    }
                    None => {
                        comment.push_str(&line[i..]);
                        return (code, comment);
                    }
                }
                continue;
            }
            let c = bytes[i] as char;
            match c {
                '/' if bytes.get(i + 1) == Some(&b'/') => {
                    comment.push_str(&line[i + 2..]);
                    return (code, comment);
                }
                '/' if bytes.get(i + 1) == Some(&b'*') => {
                    self.in_block_comment = true;
                    i += 2;
                }
                '"' => {
                    // Blank the literal body, keep the quotes as a token.
                    code.push('"');
                    i += 1;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'\\' => i += 2,
                            b'"' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    code.push('"');
                }
                '\'' => {
                    // Distinguish a char literal from a lifetime: a literal
                    // closes with another quote within a few bytes.
                    let rest = &bytes[i + 1..];
                    let lit_len = match rest {
                        [b'\\', ..] => rest.iter().skip(1).position(|&b| b == b'\'').map(|p| p + 2),
                        [_, b'\'', ..] => Some(2),
                        _ => None,
                    };
                    match lit_len {
                        Some(l) => {
                            code.push_str("' '");
                            i += 1 + l + 1;
                        }
                        None => {
                            code.push('\'');
                            i += 1;
                        }
                    }
                }
                _ => {
                    code.push(c);
                    i += 1;
                }
            }
        }
        (code, comment)
    }
}

/// True when `code[idx..]` starts `token` at identifier boundaries.
fn token_at(code: &str, idx: usize, token: &str) -> bool {
    if !code[idx..].starts_with(token) {
        return false;
    }
    let before_ok = idx == 0
        || !code[..idx]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    let after = idx + token.len();
    let after_ok = !code[after..]
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    before_ok && after_ok
}

/// Byte offsets at which `token` occurs in `code` at identifier boundaries.
fn token_positions(code: &str, token: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = code[from..].find(token) {
        let idx = from + off;
        if token_at(code, idx, token) {
            out.push(idx);
        }
        from = idx + token.len();
    }
    out
}

/// True when the token occurs anywhere in the line at identifier boundaries.
fn has_token(code: &str, token: &str) -> bool {
    !token_positions(code, token).is_empty()
}

/// Removes the `fedlint: allow(...)` markers themselves from a comment so a
/// rule id (`wall-clock` contains "wall") cannot satisfy its own
/// keyword check.
fn strip_escapes(comment: &str) -> String {
    let mut out = String::with_capacity(comment.len());
    let mut rest = comment;
    while let Some(off) = rest.find("fedlint: allow(") {
        out.push_str(&rest[..off]);
        let tail = &rest[off + "fedlint: allow(".len()..];
        match tail.find(')') {
            Some(close) => rest = &tail[close + 1..],
            None => return out,
        }
    }
    out.push_str(rest);
    out
}

/// The lower-cased, escape-free text of the contiguous comment block around
/// line `idx`: every adjacent line carrying comment text, joined.  This is
/// the window inside which a justification for an allow escape must appear.
fn comment_block_text(stripped: &[(String, String)], idx: usize) -> String {
    let has = |i: usize| !stripped[i].1.trim().is_empty();
    let mut start = idx;
    while start > 0 && has(start - 1) {
        start -= 1;
    }
    let mut end = idx;
    while end + 1 < stripped.len() && has(end + 1) {
        end += 1;
    }
    let mut text = String::new();
    for (_, comment) in &stripped[start..=end] {
        text.push_str(&strip_escapes(comment));
        text.push('\n');
    }
    text.to_lowercase()
}

/// Extracts `fedlint: allow(a, b)` rule ids from a comment.
fn parse_allows(comment: &str, out: &mut Vec<Rule>) {
    let mut rest = comment;
    while let Some(off) = rest.find("fedlint: allow(") {
        let args = &rest[off + "fedlint: allow(".len()..];
        let Some(close) = args.find(')') else { return };
        for id in args[..close].split(',') {
            if let Some(rule) = Rule::from_id(id.trim()) {
                if !out.contains(&rule) {
                    out.push(rule);
                }
            }
        }
        rest = &args[close + 1..];
    }
}

/// The charge-returning directory mutators whose `u64` result must not be
/// silently dropped.
const CHARGE_METHODS: [&str; 3] = ["subscribe", "unsubscribe", "update_price"];

/// If the trimmed line *begins* with a receiver chain that calls a charge
/// method — i.e. the call is in statement position, not on the right of a
/// binding — returns `(method, byte offset of its open paren)`.
fn charge_call_at_statement_start(trimmed: &str) -> Option<(&'static str, usize)> {
    let bytes = trimmed.as_bytes();
    let mut i = 0;
    // Leading receiver identifier.
    if !bytes
        .first()
        .is_some_and(|&b| (b as char).is_ascii_alphabetic() || b == b'_')
    {
        return None;
    }
    while i < bytes.len() && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_') {
        i += 1;
    }
    // Walk `.segment`s (allowing balanced call/index suffixes in between).
    loop {
        // Skip balanced (...) or [...] suffixes of the previous segment.
        while i < bytes.len() && (bytes[i] == b'(' || bytes[i] == b'[') {
            let (open, close) = if bytes[i] == b'(' { (b'(', b')') } else { (b'[', b']') };
            let mut depth = 0usize;
            while i < bytes.len() {
                if bytes[i] == open {
                    depth += 1;
                } else if bytes[i] == close {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
        }
        if i >= bytes.len() || bytes[i] != b'.' {
            return None;
        }
        i += 1;
        let seg_start = i;
        while i < bytes.len() && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        let seg = &trimmed[seg_start..i];
        if i < bytes.len() && bytes[i] == b'(' {
            if let Some(&m) = CHARGE_METHODS.iter().find(|&&m| m == seg) {
                return Some((m, i));
            }
        }
    }
}

/// Scans a statement starting at `(line_idx, col)` across stripped lines:
/// returns the first non-whitespace char after the statement's balanced
/// brackets close, if found within a bounded window.
fn char_after_balanced(stripped: &[(String, String)], line_idx: usize, col: usize) -> Option<char> {
    let mut depth = 0usize;
    let mut started = false;
    for (n, (code, _)) in stripped.iter().enumerate().skip(line_idx).take(40) {
        let text = if n == line_idx { &code[col..] } else { code.as_str() };
        for (ci, c) in text.char_indices() {
            match c {
                '(' | '[' | '{' => {
                    depth += 1;
                    started = true;
                }
                ')' | ']' | '}' => {
                    depth = depth.saturating_sub(1);
                    if started && depth == 0 {
                        // First non-space char after the close, looking
                        // ahead across lines.
                        let tail = text[ci + c.len_utf8()..].trim_start();
                        if let Some(ch) = tail.chars().next() {
                            return Some(ch);
                        }
                        for (next, _) in stripped.iter().skip(n + 1).take(5) {
                            if let Some(ch) = next.trim_start().chars().next() {
                                return Some(ch);
                            }
                        }
                        return None;
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Accumulates the text of a bracketed call starting at `(line_idx, col)`
/// until its brackets balance (bounded window), for comparator inspection.
fn balanced_text(stripped: &[(String, String)], line_idx: usize, col: usize) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    let mut started = false;
    for (n, (code, _)) in stripped.iter().enumerate().skip(line_idx).take(15) {
        let text = if n == line_idx { &code[col..] } else { code.as_str() };
        for c in text.chars() {
            out.push(c);
            match c {
                '(' | '[' | '{' => {
                    depth += 1;
                    started = true;
                }
                ')' | ']' | '}' => {
                    depth = depth.saturating_sub(1);
                    if started && depth == 0 {
                        return out;
                    }
                }
                _ => {}
            }
        }
        out.push('\n');
    }
    out
}

/// Iteration methods whose order depends on the hasher.
const HASH_ITER_METHODS: [&str; 7] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
];

/// Sort-like openers whose comparator must use `total_cmp`.
const FLOAT_SORT_OPENERS: [&str; 6] = [
    ".sort_by(",
    ".sort_unstable_by(",
    ".max_by(",
    ".min_by(",
    ".binary_search_by(",
    ".select_nth_unstable_by(",
];

/// Wall-clock / OS-thread tokens banned outside the sanctioned scopes: the
/// experiments' one worker pool lives in `parallel.rs`.
const WALL_CLOCK_TOKENS: [&str; 4] = ["Instant::now", "SystemTime", "thread::spawn", "thread::scope"];

/// Print-style macros banned in sim crates outside test code: run telemetry
/// belongs in the grid-obs metrics registry and trace sinks, not on stdio.
/// Matched at token boundaries, so `eprintln!` can never double-report as
/// `println!`.
const ADHOC_PRINT_MACROS: [&str; 3] = ["println!", "eprintln!", "dbg!"];

/// Writes to the ledger, audit chains, bank and job records, which only
/// `crates/core/src/accounting.rs` may make.
const ACCOUNTING_WRITES: [&str; 4] = [".ledger.record", ".audit.record", ".bank.pay(", ".jobs.push("];

/// Item keywords that `undocumented-pub` recognises after `pub `.
const PUB_ITEM_KEYWORDS: [&str; 11] = [
    "fn", "struct", "enum", "trait", "mod", "const", "static", "type", "union", "async", "unsafe",
];

/// Scans one source file's content under its workspace-relative path.
///
/// The path determines which rules apply (see the module docs); content is
/// scanned line by line with comments and string literals stripped.  This is
/// the unit the fixture tests drive directly: fixtures live under
/// `tests/fixtures/` but are scanned *as if* they sat at sim-crate paths.
#[must_use]
pub fn scan_source(rel_path: &str, content: &str) -> Vec<Finding> {
    let Some(class) = classify(rel_path) else {
        return Vec::new();
    };
    let originals: Vec<&str> = content.lines().collect();
    let mut stripper = Stripper::default();
    let stripped: Vec<(String, String)> = originals.iter().map(|l| stripper.strip(l)).collect();

    let mut findings = Vec::new();
    let mut window_allows: Vec<Rule> = Vec::new();
    let mut hash_idents: Vec<String> = Vec::new();
    let mut brace_depth: i64 = 0;
    let mut pending_cfg_test = false;
    let mut test_mod_depth: Option<i64> = None;

    for (idx, (code, comment)) in stripped.iter().enumerate() {
        let line_no = idx + 1;
        let trimmed = code.trim();

        // --- allow escapes -------------------------------------------------
        let mut active = window_allows.clone();
        parse_allows(comment, &mut active);
        let suppressed = |rule: Rule| active.contains(&rule);

        // --- test-module tracking -----------------------------------------
        if trimmed.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        } else if pending_cfg_test && !trimmed.is_empty() {
            if token_positions(trimmed, "mod").first() == Some(&0) && trimmed.contains('{') {
                test_mod_depth = Some(brace_depth);
            }
            if !trimmed.starts_with("#[") {
                pending_cfg_test = false;
            }
        }
        let in_test = class.test_file || test_mod_depth.is_some();

        // --- determinism: hash-iteration ----------------------------------
        if class.sim {
            if has_token(code, "HashMap") || has_token(code, "HashSet") {
                track_hash_binding(trimmed, &mut hash_idents);
            }
            if !suppressed(Rule::HashIteration) {
                for ident in &hash_idents {
                    if let Some(m) = hash_iteration_on(code, ident) {
                        findings.push(Finding {
                            file: rel_path.to_string(),
                            line: line_no,
                            rule: Rule::HashIteration,
                            message: format!(
                                "`{ident}` is a hash collection; `{m}` observes nondeterministic order — use BTreeMap/BTreeSet or collect-and-sort"
                            ),
                        });
                        break;
                    }
                }
            }
        }

        // --- determinism: wall-clock --------------------------------------
        if !class.wall_clock_exempt && !suppressed(Rule::WallClock) {
            for tok in WALL_CLOCK_TOKENS {
                if code.contains(tok) {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: line_no,
                        rule: Rule::WallClock,
                        message: format!(
                            "`{tok}` outside `grid_experiments::parallel`/`bench_perf` breaks reproducibility — use the simulation clock, or the `parallel` pool for threads"
                        ),
                    });
                    break;
                }
            }
        }

        // --- determinism: float-sort --------------------------------------
        if class.sim && !suppressed(Rule::FloatSort) {
            for opener in FLOAT_SORT_OPENERS {
                if let Some(col) = code.find(opener) {
                    let stmt = balanced_text(&stripped, idx, col + opener.len() - 1);
                    if stmt.contains("partial_cmp") && !stmt.contains("total_cmp") {
                        findings.push(Finding {
                            file: rel_path.to_string(),
                            line: line_no,
                            rule: Rule::FloatSort,
                            message: format!(
                                "`{}` comparator uses `partial_cmp` — float orderings must use `total_cmp`",
                                opener.trim_start_matches('.').trim_end_matches('(')
                            ),
                        });
                        break;
                    }
                }
            }
        }

        // --- charge accounting: charge-drop -------------------------------
        if !suppressed(Rule::ChargeDrop) {
            let lead = code.len() - code.trim_start().len();
            if let Some((method, paren)) = charge_call_at_statement_start(trimmed) {
                if char_after_balanced(&stripped, idx, lead + paren) == Some(';') {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: line_no,
                        rule: Rule::ChargeDrop,
                        message: format!(
                            "`{method}` returns a publish-side message cost; charge it into a ledger or drop it explicitly with `let _ =`"
                        ),
                    });
                }
            }
        }

        // --- hygiene: undocumented-pub ------------------------------------
        if class.sim && !in_test && !suppressed(Rule::UndocumentedPub) {
            if let Some(item) = pub_item(trimmed) {
                if !has_doc_above(&originals, idx) {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: line_no,
                        rule: Rule::UndocumentedPub,
                        message: format!("public {item} has no doc comment"),
                    });
                }
            }
        }

        // --- scale: eager-materialise -------------------------------------
        if class.workload_scope && !in_test && !suppressed(Rule::EagerMaterialise) {
            if let Some(form) = eager_materialise_on(code) {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::EagerMaterialise,
                    message: format!(
                        "{form} pins the whole workload in memory — stream through `JobSource` and call `collect_jobs()` only at the engine boundary"
                    ),
                });
            }
        }

        // --- hygiene: hot-path-unwrap -------------------------------------
        if class.hot_path && !in_test && !suppressed(Rule::HotPathUnwrap) {
            let hit = if code.contains(".unwrap()") {
                Some(".unwrap()")
            } else if code.contains(".expect(") {
                Some(".expect(…)")
            } else {
                None
            };
            if let Some(call) = hit {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::HotPathUnwrap,
                    message: format!(
                        "`{call}` on a PR 3 hot-path file — restructure the panic off the per-event path or justify with `fedlint: allow(hot-path-unwrap)`"
                    ),
                });
            }
        }

        // --- robustness: unbounded-retry -----------------------------------
        if class.sim && !in_test && !suppressed(Rule::UnboundedRetry) {
            if let Some(ident) = retry_increment_on(code) {
                let start = idx.saturating_sub(RETRY_BOUND_WINDOW);
                let end = (idx + 3).min(stripped.len());
                let bounded = stripped[start..end]
                    .iter()
                    .any(|(c, _)| RETRY_BOUND_TOKENS.iter().any(|t| c.contains(t)));
                if !bounded {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: line_no,
                        rule: Rule::UnboundedRetry,
                        message: format!(
                            "`{ident} += 1` with no bounded policy in sight — gate the counter on a budget ({}) so a faulted link cannot retry forever",
                            RETRY_BOUND_TOKENS.join(", "),
                        ),
                    });
                }
            }
        }

        // --- hygiene: adhoc-print ------------------------------------------
        if class.sim && !in_test && !suppressed(Rule::AdhocPrint) {
            if let Some(mac) = ADHOC_PRINT_MACROS.iter().find(|m| {
                let bare = &m[..m.len() - 1];
                token_positions(code, bare)
                    .iter()
                    .any(|&p| code[p + bare.len()..].starts_with('!'))
            }) {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::AdhocPrint,
                    message: format!(
                        "`{mac}` in a sim crate — route run telemetry through the grid-obs metrics registry or trace sinks instead of ad-hoc output"
                    ),
                });
            }
        }

        // --- hygiene: single-charge-path -----------------------------------
        let fold = rel_path == "crates/core/src/accounting.rs";
        if class.sim && !in_test && !fold && !suppressed(Rule::SingleChargePath) {
            if let Some(write) = ACCOUNTING_WRITES.iter().find(|w| code.contains(*w)) {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::SingleChargePath,
                    message: format!("`{write}` bypasses the fold — record a `Charge` through `SharedState::record`"),
                });
            }
        }

        // --- hygiene: bare-allow -------------------------------------------
        // Tests are exempt (same policy as the other hygiene rules): an
        // escape there waives nothing paper-facing, and test sources often
        // embed escape-shaped strings as scanner inputs.
        if !in_test {
            let mut escaped_here: Vec<Rule> = Vec::new();
            parse_allows(comment, &mut escaped_here);
            if !escaped_here.is_empty() {
                let block = comment_block_text(&stripped, idx);
                for rule in escaped_here {
                    let named = rule
                        .invariant_keywords()
                        .iter()
                        .any(|kw| block.contains(kw));
                    if !named {
                        findings.push(Finding {
                            file: rel_path.to_string(),
                            line: line_no,
                            rule: Rule::BareAllow,
                            message: format!(
                                "`fedlint: allow({id})` without a justification — the surrounding comment must name the invariant it waives (mention one of: {kws})",
                                id = rule.id(),
                                kws = rule.invariant_keywords().join(", "),
                            ),
                        });
                    }
                }
            }
        }

        // --- bookkeeping ---------------------------------------------------
        for c in code.chars() {
            match c {
                '{' => brace_depth += 1,
                '}' => {
                    brace_depth -= 1;
                    if test_mod_depth.is_some_and(|d| brace_depth <= d) {
                        test_mod_depth = None;
                    }
                }
                _ => {}
            }
        }
        parse_allows(comment, &mut window_allows);
        if trimmed.ends_with(';') || trimmed.ends_with('{') || trimmed.ends_with('}') {
            window_allows.clear();
        }
    }
    findings
}

/// Records identifiers bound to hash collections on this line: `let` (and
/// `let mut`) bindings plus struct-field declarations.
fn track_hash_binding(trimmed: &str, idents: &mut Vec<String>) {
    let name = if let Some(rest) = trimmed.strip_prefix("let ") {
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        Some(leading_ident(rest))
    } else if let Some(colon) = trimmed.find(": ") {
        // Field declaration: the identifier directly before the colon, with
        // the hash type on the right (`use` paths have no `: ` separator).
        let (lhs, rhs) = trimmed.split_at(colon);
        if has_token(rhs, "HashMap") || has_token(rhs, "HashSet") {
            lhs.split_whitespace().next_back().map(str::to_string)
        } else {
            None
        }
    } else {
        None
    };
    if let Some(name) = name {
        if !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && !idents.contains(&name)
        {
            idents.push(name);
        }
    }
}

fn leading_ident(s: &str) -> String {
    s.chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect()
}

/// If `code` iterates hash collection `ident`, returns the offending form.
fn hash_iteration_on(code: &str, ident: &str) -> Option<String> {
    for pos in token_positions(code, ident) {
        let after = &code[pos + ident.len()..];
        for m in HASH_ITER_METHODS {
            if after.starts_with(m) {
                return Some(format!("{ident}{m}"));
            }
        }
    }
    // `for x in map` / `for x in &map` / `for x in self.map`.
    if let Some(for_pos) = token_positions(code, "for").first() {
        if let Some(in_off) = code[*for_pos..].find(" in ") {
            let expr = code[*for_pos + in_off + 4..].trim_start();
            let expr = expr.strip_prefix("&mut ").unwrap_or(expr);
            let expr = expr.strip_prefix('&').unwrap_or(expr);
            let expr = expr.strip_prefix("self.").unwrap_or(expr);
            if leading_ident(expr) == ident {
                return Some(format!("for … in {ident}"));
            }
        }
    }
    None
}

/// If `code` collects an iterator into a full `Vec<Job>`, returns the
/// offending form: a `.collect::<Vec<Job>>()` turbofish (any path prefix on
/// `Job`), or a plain `.collect()` on a line whose binding is annotated
/// `Vec<Job>`.  `collect_jobs()` — the sanctioned adapter — never matches,
/// and `Job`-compounds like `JobRecord` are excluded by token boundaries.
fn eager_materialise_on(code: &str) -> Option<&'static str> {
    let mut from = 0;
    while let Some(off) = code[from..].find(".collect") {
        let idx = from + off;
        let after = &code[idx + ".collect".len()..];
        if let Some(generics) = after.strip_prefix("::<") {
            let ty = &generics[..generics.find('(').unwrap_or(generics.len())];
            if ty.contains("Vec<") && has_token(ty, "Job") {
                return Some("`.collect::<Vec<Job>>()`");
            }
        } else if after.starts_with('(') && code.contains("Vec<") && has_token(code, "Job") {
            return Some("`.collect()` into a `Vec<Job>` binding");
        }
        from = idx + ".collect".len();
    }
    None
}

/// Bounded-policy tokens: any one of these inside the
/// [`RETRY_BOUND_WINDOW`] around a retry increment counts as evidence the
/// counter is capped.
const RETRY_BOUND_TOKENS: [&str; 6] = [
    "max_retries",
    "max_retransmits",
    "max_attempts",
    "MAX_BACKOFF",
    "RetryPolicy",
    "backoff_delay",
];

/// Code lines above a retry increment inside which a bound token must
/// appear (the increment's own line and two below are also searched).
const RETRY_BOUND_WINDOW: usize = 8;

/// If `code` increments a retry/retransmit/attempt-style counter by exactly
/// one, returns the counter's identifier.
fn retry_increment_on(code: &str) -> Option<String> {
    let idx = code.find("+= 1")?;
    // `+= 10`, `+= 1_000` etc. are accumulations, not loop steps.
    if code[idx + "+= 1".len()..]
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
    {
        return None;
    }
    let lhs = code[..idx].trim_end();
    let ident: String = lhs
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    let lower = ident.to_lowercase();
    if lower.contains("retr") || lower.contains("attempt") {
        Some(ident)
    } else {
        None
    }
}

/// If the line declares a `pub` item (not `pub use` / `pub(crate)`),
/// returns its keyword.
fn pub_item(trimmed: &str) -> Option<&'static str> {
    let rest = trimmed.strip_prefix("pub ")?;
    let kw = rest.split_whitespace().next()?;
    // `pub mod foo;` is a file module whose docs are its `//!` header;
    // only an *inline* `pub mod foo {` needs a doc comment here.
    if kw == "mod" && trimmed.ends_with(';') {
        return None;
    }
    // `pub const fn` / `pub async fn` / `pub unsafe fn` all start with a
    // recognised keyword; `pub use` deliberately excluded (re-exports take
    // their docs from the source item).
    PUB_ITEM_KEYWORDS.iter().copied().find(|&k| k == kw)
}

/// True when the item at `originals[idx]` carries a doc comment above it
/// (skipping attribute lines in between).
fn has_doc_above(originals: &[&str], idx: usize) -> bool {
    for prev in originals[..idx].iter().rev() {
        let t = prev.trim();
        if t.starts_with("#[") || t.ends_with("]") && t.starts_with('#') {
            continue;
        }
        return t.starts_with("///") || t.starts_with("#[doc");
    }
    false
}

/// Recursively scans every `.rs` file under `root`, returning findings
/// sorted by path and line.  Paths under `target/`, `.git`, vendored shims
/// and the fedlint fixtures are skipped.
///
/// # Errors
/// Propagates I/O errors from directory walks and file reads.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for rel in files {
        let content = fs::read_to_string(root.join(&rel))?;
        findings.extend(scan_source(&rel, &content));
    }
    Ok(findings)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == ".github" || name == "fixtures" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if classify(&rel).is_some() {
                out.push(rel);
            }
        }
    }
    Ok(())
}
