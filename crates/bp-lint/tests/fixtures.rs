//! Fixture tests: each rule gets a positive case (the violation fires), a
//! negative case (compliant code stays silent), a waived case, and the
//! malformed-waiver case; plus the self-check that the real workspace is
//! clean and that JSON output is byte-deterministic.

use bp_lint::report::{Report, Status};
use bp_lint::scope::{FileClass, FileKind};
use bp_lint::{scan_file, Config};
use std::collections::BTreeSet;

/// Lints `src` as if it were the named workspace-relative library file,
/// under a config that puts the fixture crate in every rule's scope:
/// `cipher_core.rs` plays the audited cipher internal, `codec_core.rs`
/// the secret-indexing codec, and `shard.rs` the serve hot path.
fn lint_src(rel: &str, src: &str) -> Report {
    let mut cfg = Config::workspace_default("/nonexistent");
    cfg.determinism_crates.insert("fix".to_string());
    cfg.secret_scope_crates.insert("fix".to_string());
    cfg.serve_crates.insert("fix".to_string());
    cfg.cipher_internal_suffixes
        .push("fix/src/cipher_core.rs".to_string());
    cfg.index_exempt_suffixes
        .push("fix/src/codec_core.rs".to_string());
    cfg.serve_hot_path_suffixes
        .push("fix/src/shard.rs".to_string());
    let class = FileClass {
        crate_name: "fix".to_string(),
        kind: if rel.ends_with("main.rs") {
            FileKind::Bin
        } else {
            FileKind::Lib
        },
    };
    let mut report = Report::default();
    scan_file(&cfg, rel, &class, src, &mut report);
    report.normalize();
    report
}

fn rules_fired(report: &Report, status: Status) -> BTreeSet<&'static str> {
    report
        .findings
        .iter()
        .filter(|f| f.status == status)
        .map(|f| f.rule)
        .collect()
}

fn active(report: &Report) -> BTreeSet<&'static str> {
    rules_fired(report, Status::Active)
}

// ---------------------------------------------------------------- determinism

#[test]
fn determinism_positive_each_category_fires() {
    let src = r#"
use std::collections::HashMap;
use std::time::Instant;

pub fn bad() -> u64 {
    let m: HashMap<u32, u32> = HashMap::new();
    let t = Instant::now();
    let id = std::thread::current().id();
    let v = std::env::var("SOME_KNOB");
    let _ = (m, t, id, v);
    0
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    let fired = active(&report);
    assert!(fired.contains("determinism-collections"), "{fired:?}");
    assert!(fired.contains("determinism-time"), "{fired:?}");
    assert!(fired.contains("determinism-thread-id"), "{fired:?}");
    assert!(fired.contains("determinism-env"), "{fired:?}");
}

#[test]
fn determinism_negative_btreemap_and_tests_are_silent() {
    let src = r#"
use std::collections::BTreeMap;

pub fn good() -> usize {
    let m: BTreeMap<u32, u32> = BTreeMap::new();
    m.len()
}

#[cfg(test)]
mod tests {
    // Test code may use wall clocks and hash maps freely.
    use std::collections::HashMap;
    use std::time::Instant;

    #[test]
    fn t() {
        let _ = (HashMap::<u8, u8>::new(), Instant::now());
    }
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    assert!(active(&report).is_empty(), "{:?}", report.findings);
}

#[test]
fn determinism_out_of_scope_crate_is_silent() {
    let src = "pub fn f() { let _ = std::time::Instant::now(); }\n";
    let mut cfg = Config::workspace_default("/nonexistent");
    cfg.secret_scope_crates.clear();
    let class = FileClass {
        crate_name: "not-in-scope".to_string(),
        kind: FileKind::Lib,
    };
    let mut report = Report::default();
    scan_file(
        &cfg,
        "crates/not-in-scope/src/lib.rs",
        &class,
        src,
        &mut report,
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn determinism_waived_line_is_recorded_not_active() {
    let src = r#"
pub fn knob() -> Option<String> {
    // bp-lint: allow(determinism-env) reason="operator knob, never results"
    std::env::var("FIX_KNOB").ok()
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    assert!(active(&report).is_empty(), "{:?}", report.findings);
    assert!(rules_fired(&report, Status::Waived).contains("determinism-env"));
}

#[test]
fn determinism_file_level_waiver_covers_whole_file() {
    let src = r#"
// bp-lint: allow-file(determinism-time) reason="wall-clock diagnostics only"
use std::time::Instant;

pub fn a() -> Instant {
    Instant::now()
}

pub fn b() -> Instant {
    Instant::now()
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    assert!(active(&report).is_empty(), "{:?}", report.findings);
    let waived = report
        .findings
        .iter()
        .filter(|f| f.status == Status::Waived && f.rule == "determinism-time")
        .count();
    assert!(waived >= 2, "{:?}", report.findings);
}

// ------------------------------------------------------------- waiver targets

#[test]
fn waiver_must_target_the_finding_line() {
    let src = r#"
pub fn f() -> usize {
    // bp-lint: allow(determinism-collections) reason="fixture: never iterated"
    std::collections::HashSet::<u32>::new().len()
}

pub fn g() -> usize {
    std::collections::HashSet::<u32>::new().len()
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    let active: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.status == Status::Active)
        .collect();
    assert_eq!(active.len(), 1, "{:?}", report.findings);
    assert_eq!(active[0].rule, "determinism-collections");
    assert_eq!(active[0].line, 8);
}

// ------------------------------------------------------------- secret-hygiene

#[test]
fn secret_debug_positive_derive_and_impl() {
    let src = r#"
#[derive(Debug, Clone)]
pub struct KeyManager {
    keys: Vec<u64>,
}

pub struct Other {
    pub round_keys: [u64; 4],
}

impl std::fmt::Display for Other {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "other")
    }
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    let n = report
        .findings
        .iter()
        .filter(|f| f.rule == "secret-debug" && f.status == Status::Active)
        .count();
    assert_eq!(n, 2, "{:?}", report.findings);
}

#[test]
fn taint_format_positive_key_in_format_args() {
    let src = r#"
pub fn leak(keys: &[u64]) -> String {
    format!("keys = {:x?}", keys)
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    assert!(
        active(&report).contains("secret-taint-format"),
        "{:?}",
        report.findings
    );
}

#[test]
fn taint_branch_positive_and_cipher_internal_exempt() {
    let src = r#"
pub fn timing_leak(keys: &[u64]) -> u32 {
    if keys[0] & 1 == 1 {
        1
    } else {
        0
    }
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    assert!(
        active(&report).contains("secret-taint-branch"),
        "{:?}",
        report.findings
    );

    // The same code inside an audited cipher internal is exempt.
    let report = lint_src("crates/fix/src/cipher_core.rs", src);
    assert!(active(&report).is_empty(), "{:?}", report.findings);
}

#[test]
fn taint_flows_through_a_let_binding_to_a_branch() {
    // The acceptance fixture for the dataflow upgrade: the v1 lexical
    // rule matched secret *names* at the sink, so laundering key bits
    // through an innocently named local was invisible. The taint pass
    // follows the assignment.
    let src = r#"
pub struct KeysTable {
    content_key: u64,
}

impl KeysTable {
    pub fn content_key(&self, _idx: usize) -> u64 {
        self.content_key
    }
}

pub fn observe(table: &KeysTable) -> u32 {
    let material = table.content_key(0);
    if material & 1 == 1 {
        1
    } else {
        0
    }
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    let branch: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "secret-taint-branch" && f.status == Status::Active)
        .collect();
    assert_eq!(branch.len(), 1, "{:?}", report.findings);
    assert!(
        branch[0].message.contains("material"),
        "finding must name the laundered local: {:?}",
        branch[0]
    );
}

#[test]
fn taint_propagates_through_reassignment() {
    let src = r#"
pub fn relabel(keys: &[u64]) -> u32 {
    let mut cursor = 0u64;
    cursor = keys[0];
    let probe = cursor;
    if probe & 1 == 1 {
        1
    } else {
        0
    }
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    assert!(
        active(&report).contains("secret-taint-branch"),
        "{:?}",
        report.findings
    );
}

#[test]
fn taint_index_positive_and_codec_allowlist_exempt() {
    let src = r#"
pub fn leak_pattern(table: &[u32; 16], keys: &[u64]) -> u32 {
    let idx = (keys[0] & 15) as usize;
    table[idx]
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    assert!(
        active(&report).contains("secret-taint-index"),
        "{:?}",
        report.findings
    );

    // The same shape inside the codec allowlist is the mechanism under
    // study, not a leak.
    let report = lint_src("crates/fix/src/codec_core.rs", src);
    assert!(active(&report).is_empty(), "{:?}", report.findings);
}

#[test]
fn taint_store_positive_into_non_secret_field() {
    let src = r#"
pub struct Slot {
    pub tag: u64,
    pub round_keys: [u64; 4],
}

pub fn stash(slot: &mut Slot, keys: &[u64]) {
    slot.tag = keys[0];
}

pub fn rotate(slot: &mut Slot, keys: &[u64]) {
    // Declared key-material fields are where secrets are allowed to rest.
    slot.round_keys = [keys[0]; 4];
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    let store: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "secret-taint-store" && f.status == Status::Active)
        .collect();
    assert_eq!(store.len(), 1, "{:?}", report.findings);
    assert!(store[0].message.contains("tag"), "{:?}", store[0]);
}

#[test]
fn taint_waived_line_is_recorded_not_active() {
    let src = r#"
pub fn decide(keys: &[u64]) -> u32 {
    // bp-lint: allow(secret-taint-branch) reason="fixture: audited public decision"
    if keys[0] & 1 == 1 {
        1
    } else {
        0
    }
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    assert!(active(&report).is_empty(), "{:?}", report.findings);
    assert!(rules_fired(&report, Status::Waived).contains("secret-taint-branch"));
}

#[test]
fn stale_v1_waiver_is_reported_and_suppresses_nothing() {
    // Waivers written against the retired lexical rule names must not
    // silently keep suppressing: `secret-branch` no longer exists, so the
    // waiver is flagged as unknown and the taint finding stays active.
    let src = r#"
pub fn decide(keys: &[u64]) -> u32 {
    // bp-lint: allow(secret-branch) reason="written against the v1 rule"
    if keys[0] & 1 == 1 {
        1
    } else {
        0
    }
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    let fired = active(&report);
    assert!(
        fired.contains("secret-taint-branch"),
        "{:?}",
        report.findings
    );
    let hygiene: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "waiver-hygiene" && f.status == Status::Active)
        .collect();
    assert_eq!(hygiene.len(), 1, "{:?}", report.findings);
    assert!(
        hygiene[0].message.contains("unknown rule `secret-branch`"),
        "{:?}",
        hygiene[0]
    );
}

#[test]
fn secret_negative_shape_reads_and_nonsecret_names() {
    let src = r#"
#[derive(Debug, Clone)]
pub struct Stats {
    pub hits: u64,
}

pub fn ok(keys: &[u64], stats: &Stats) -> String {
    // Branching on a secret container's *shape* is allowed.
    if keys.is_empty() {
        return String::new();
    }
    format!("{} hits over {} keys", stats.hits, keys.len())
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    assert!(active(&report).is_empty(), "{:?}", report.findings);
}

#[test]
fn secret_scope_is_per_crate() {
    let src = "pub fn f(keys: &[u64]) -> String { format!(\"{:?}\", keys) }\n";
    let mut cfg = Config::workspace_default("/nonexistent");
    cfg.determinism_crates.clear();
    let class = FileClass {
        crate_name: "no-secrets-here".to_string(),
        kind: FileKind::Lib,
    };
    let mut report = Report::default();
    scan_file(
        &cfg,
        "crates/no-secrets-here/src/lib.rs",
        &class,
        src,
        &mut report,
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

// ------------------------------------------------------------- waiver-hygiene

#[test]
fn waiver_without_reason_is_malformed() {
    let src = r#"
pub fn f() -> Option<String> {
    // bp-lint: allow(determinism-env)
    std::env::var("X").ok()
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    let fired = active(&report);
    // The malformed waiver suppresses nothing, so the original finding
    // stays active alongside the hygiene finding.
    assert!(fired.contains("waiver-hygiene"), "{:?}", report.findings);
    assert!(fired.contains("determinism-env"), "{:?}", report.findings);
}

#[test]
fn waiver_with_empty_reason_is_malformed() {
    let src = r#"
pub fn f() -> Option<String> {
    // bp-lint: allow(determinism-env) reason=""
    std::env::var("X").ok()
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    assert!(
        active(&report).contains("waiver-hygiene"),
        "{:?}",
        report.findings
    );
}

#[test]
fn waiver_naming_unknown_rule_is_flagged() {
    let src = r#"
pub fn f() -> u32 {
    // bp-lint: allow(no-such-rule) reason="typo"
    0
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    assert!(
        active(&report).contains("waiver-hygiene"),
        "{:?}",
        report.findings
    );
}

#[test]
fn unused_waiver_is_flagged() {
    let src = r#"
pub fn f() -> u32 {
    // bp-lint: allow(determinism-collections) reason="nothing here hashes anymore"
    0
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    let hygiene: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "waiver-hygiene" && f.status == Status::Active)
        .collect();
    assert_eq!(hygiene.len(), 1, "{:?}", report.findings);
    assert!(hygiene[0].message.contains("suppresses nothing"));
}

// ------------------------------------------------------------ serve-discipline

#[test]
fn serve_hot_lock_fires_only_on_the_hot_path() {
    let src = r#"
pub fn answer(m: &std::sync::Mutex<u64>) -> u64 {
    std::thread::sleep(std::time::Duration::from_millis(1));
    let g = m.lock();
    drop(g);
    0
}
"#;
    let report = lint_src("crates/fix/src/shard.rs", src);
    let hot: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "serve-hot-lock" && f.status == Status::Active)
        .collect();
    assert_eq!(
        hot.len(),
        2,
        "sleep and lock both fire: {:?}",
        report.findings
    );

    // Off the hot path the same code is allowed (supervisors may block).
    let report = lint_src("crates/fix/src/lib.rs", src);
    assert!(active(&report).is_empty(), "{:?}", report.findings);
}

#[test]
fn lock_order_inversion_is_reported_once_with_both_sites() {
    let src = r#"
pub fn forward(locks: &Locks) {
    let a = locks.alpha.lock();
    let b = locks.beta.lock();
    drop((a, b));
}

pub fn backward(locks: &Locks) {
    let b = locks.beta.lock();
    let a = locks.alpha.lock();
    drop((a, b));
}
"#;
    let report = lint_src("crates/fix/src/serve_paths.rs", src);
    let order: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "serve-lock-order")
        .collect();
    assert_eq!(order.len(), 1, "{:?}", report.findings);
    assert!(order[0].message.contains("forward"), "{:?}", order[0]);
    assert!(order[0].message.contains("backward"), "{:?}", order[0]);
    assert!(order[0].message.contains("deadlock"), "{:?}", order[0]);
}

#[test]
fn consistent_lock_order_is_silent() {
    let src = r#"
pub fn first(locks: &Locks) {
    let a = locks.alpha.lock();
    let b = locks.beta.lock();
    drop((a, b));
}

pub fn second(locks: &Locks) {
    let a = locks.alpha.lock();
    let b = locks.beta.lock();
    drop((a, b));
}
"#;
    let report = lint_src("crates/fix/src/serve_paths.rs", src);
    assert!(active(&report).is_empty(), "{:?}", report.findings);
}

// -------------------------------------------------------- lexer-level silence

#[test]
fn strings_comments_and_docs_never_fire() {
    let src = r#"
//! This module never calls `.unwrap()` or `HashMap::new()` — honest!

/// Returns the text "panic!" without panicking. See also `Instant::now`.
pub fn text() -> &'static str {
    "call .unwrap() or .expect(\"x\") or std::env::var(\"HOME\") here"
}
"#;
    let report = lint_src("crates/fix/src/lib.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn multi_hash_raw_strings_do_not_swallow_scope_markers() {
    // A production raw string that *contains* `#[cfg(test)]` must not
    // open a test scope: the `HashSet` after it is still production code
    // and must fire. Guards with two or more `#`s and byte-raw strings
    // exercise the delimiter counting.
    let src = "pub const DOC: &str = r##\"#[cfg(test)] mod tests { fn t() {} }\"##;\n\
               pub const RAW: &[u8] = br#\"also \"quoted\" bytes\"#;\n\
               pub fn f() -> usize {\n\
                   std::collections::HashSet::<u32>::new().len()\n\
               }\n";
    let report = lint_src("crates/fix/src/lib.rs", src);
    let fired = active(&report);
    assert!(
        fired.contains("determinism-collections"),
        "{:?}",
        report.findings
    );
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.status == Status::Active)
            .count(),
        1,
        "only the HashSet fires: {:?}",
        report.findings
    );
}
