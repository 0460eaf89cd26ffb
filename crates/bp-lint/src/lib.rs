//! `bp-lint` — in-repo static analysis enforcing the reproduction's
//! invariants that no compiler checks.
//!
//! The workspace's two headline guarantees rest on properties rustc and
//! clippy cannot see: **determinism** (byte-identical CSVs and telemetry
//! JSONL at any thread count — so no wall clocks, no `RandomState`
//! iteration order, no ambient env reads in result paths) and
//! **secret-hygiene** (the QARMA code book and per-domain keys never reach
//! a log, a `Debug` impl, or a secret-dependent branch). The serve rules
//! keep the shard hot path lock-free and lock order consistent. Panic
//! freedom and the `unsafe` ban are not here: the root `Cargo.toml`'s
//! `[workspace.lints]` hands them to clippy and rustc. This crate scans
//! the workspace at the token level, with:
//!
//! * inline waivers — `// bp-lint: allow(<rule>) reason="..."` — that are
//!   themselves linted (unknown rule, empty reason, or suppressing
//!   nothing ⇒ `waiver-hygiene` finding);
//! * deterministic JSON / text reports (byte-identical across runs).
//!
//! Run it with `cargo run -p bp-lint`; see `DESIGN.md` §7 for the rule
//! catalog and policy. The crate is std-only, like the rest of the
//! workspace, and holds itself to its own rules (`tests/self_check.rs`).

pub mod ir;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
pub mod waiver;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use report::{Report, Status};
use rules::FileCtx;

/// Fatal lint-tool errors (I/O, bad usage). Rule violations are
/// *findings*, not errors.
#[derive(Debug)]
pub enum LintError {
    /// Filesystem access failed.
    Io(String),
    /// Bad command-line usage.
    Usage(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io(m) => write!(f, "io error: {m}"),
            LintError::Usage(m) => write!(f, "usage error: {m}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Scope configuration: which crates each rule family covers.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (the directory holding `Cargo.toml` and `crates/`).
    pub root: PathBuf,
    /// Crates whose library code must be deterministic (simulation and
    /// result-producing paths).
    pub determinism_crates: BTreeSet<String>,
    /// Crates where the secret-hygiene rules apply (key material lives in
    /// or flows through them).
    pub secret_scope_crates: BTreeSet<String>,
    /// Path suffixes of constant-time cipher internals, exempt from the
    /// `secret-taint-branch` rule (audited as a unit instead).
    pub cipher_internal_suffixes: Vec<String>,
    /// Path suffixes of the codec allowlist, exempt from
    /// `secret-taint-index`: files where secret-derived indexing *is* the
    /// randomization mechanism under study (cipher S-box lookups, the
    /// keyed index computation itself).
    pub index_exempt_suffixes: Vec<String>,
    /// Path suffixes of shard answer hot-path files, where
    /// `serve-hot-lock` forbids lock acquisition and blocking calls.
    pub serve_hot_path_suffixes: Vec<String>,
    /// Crates whose lock acquisition order is checked crate-wide by
    /// `serve-lock-order`.
    pub serve_crates: BTreeSet<String>,
}

impl Config {
    /// The scope this repository actually enforces.
    pub fn workspace_default(root: impl Into<PathBuf>) -> Self {
        let set =
            |names: &[&str]| -> BTreeSet<String> { names.iter().map(|s| s.to_string()).collect() };
        Config {
            root: root.into(),
            determinism_crates: set(&[
                "bench",
                "bp-attacks",
                "bp-common",
                "bp-crypto",
                "bp-faults",
                "bp-pipeline",
                "bp-predictors",
                "bp-serve",
                "bp-trace",
                "bp-workloads",
                "hybp",
            ]),
            secret_scope_crates: set(&[
                "bp-attacks",
                "bp-crypto",
                "bp-pipeline",
                "bp-predictors",
                "hybp",
            ]),
            cipher_internal_suffixes: vec![
                "bp-crypto/src/qarma.rs".to_string(),
                "bp-crypto/src/prince.rs".to_string(),
                "bp-crypto/src/llbc.rs".to_string(),
            ],
            index_exempt_suffixes: vec![
                "bp-crypto/src/qarma.rs".to_string(),
                "bp-crypto/src/prince.rs".to_string(),
                "bp-crypto/src/llbc.rs".to_string(),
                "bp-crypto/src/keys.rs".to_string(),
            ],
            serve_hot_path_suffixes: vec!["bp-serve/src/shard.rs".to_string()],
            serve_crates: set(&["bp-serve"]),
        }
    }
}

/// Runs the full lint over the workspace at `config.root`.
///
/// The returned report is normalized (deterministically sorted) and ready
/// to emit.
pub fn run_lint(config: &Config) -> Result<Report, LintError> {
    let mut report = Report::default();
    let mut sequences: Vec<rules::serve::LockSeq> = Vec::new();
    let files = workspace_files(&config.root)?;
    for rel in &files {
        let abs = config.root.join(rel);
        let Some(class) = scope::classify(rel) else {
            continue;
        };
        let src = fs::read_to_string(&abs)
            .map_err(|e| LintError::Io(format!("{}: {e}", abs.display())))?;
        report.files_scanned += 1;
        scan_file_collect(config, rel, &class, &src, &mut report, &mut sequences);
    }
    // Workspace pass. Its findings land after waiver resolution by
    // design: a lock-order inversion spans two sites, so it cannot be
    // accepted by one inline comment — fix the code.
    report
        .findings
        .append(&mut rules::serve::finalize_lock_order(&sequences));
    report.normalize();
    Ok(report)
}

/// Lints one file's source text (separated from I/O for fixture tests).
///
/// Cross-file state is finalized *locally*: lock sequences from this file
/// alone feed `serve-lock-order`. Production runs go through
/// [`run_lint`], which accumulates sequences across the workspace
/// instead.
pub fn scan_file(
    config: &Config,
    rel: &str,
    class: &scope::FileClass,
    src: &str,
    report: &mut Report,
) {
    let mut sequences = Vec::new();
    scan_file_collect(config, rel, class, src, report, &mut sequences);
    report
        .findings
        .append(&mut rules::serve::finalize_lock_order(&sequences));
}

/// [`scan_file`] variant that collects lock sequences into a caller-owned
/// accumulator instead of finalizing them per file.
pub fn scan_file_collect(
    config: &Config,
    rel: &str,
    class: &scope::FileClass,
    src: &str,
    report: &mut Report,
    sequences: &mut Vec<rules::serve::LockSeq>,
) {
    let lexed = lexer::lex(src);
    let tests = scope::test_ranges(&lexed);
    let ctx = FileCtx {
        rel,
        class,
        lexed: &lexed,
        tests: &tests,
        config,
    };
    let mut findings = Vec::new();
    rules::run_all(&ctx, &mut findings, sequences);

    // Waiver resolution.
    let total_lines = src.lines().count() as u32;
    let waivers = waiver::extract(&lexed, total_lines);
    let mut used = vec![false; waivers.len()];
    for f in findings.iter_mut() {
        if f.rule == "waiver-hygiene" {
            continue;
        }
        for (wi, w) in waivers.iter().enumerate() {
            if w.malformed.is_some() || w.rule != f.rule {
                continue;
            }
            if w.file_level || w.target_line == f.line {
                f.status = Status::Waived;
                used[wi] = true;
                break;
            }
        }
    }
    // Waiver hygiene: malformed, unknown-rule, and unused waivers are
    // findings in their own right (and cannot themselves be waived).
    for (wi, w) in waivers.iter().enumerate() {
        if let Some(why) = &w.malformed {
            findings.push(Finding {
                rule: "waiver-hygiene",
                file: rel.to_string(),
                line: w.line,
                snippet: "bp-lint: allow".to_string(),
                message: format!("malformed waiver: {why}"),
                status: Status::Active,
            });
        } else if !rules::is_known_rule(&w.rule) {
            findings.push(Finding {
                rule: "waiver-hygiene",
                file: rel.to_string(),
                line: w.line,
                snippet: w.rule.clone(),
                message: format!("waiver names unknown rule `{}`", w.rule),
                status: Status::Active,
            });
        } else if !used[wi] {
            findings.push(Finding {
                rule: "waiver-hygiene",
                file: rel.to_string(),
                line: w.line,
                snippet: w.rule.clone(),
                message: format!("waiver for `{}` suppresses nothing — remove it", w.rule),
                status: Status::Active,
            });
        }
    }
    report.findings.append(&mut findings);
}

use report::Finding;

/// Collects every `.rs` file under `crates/*/src` and the root `src/`,
/// as sorted workspace-relative paths with forward slashes.
fn workspace_files(root: &Path) -> Result<Vec<String>, LintError> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for krate in sorted_dir(&crates_dir)? {
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs(root, &src, &mut out)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(root, &root_src, &mut out)?;
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir` (sorted traversal).
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), LintError> {
    for entry in sorted_dir(dir)? {
        if entry.is_dir() {
            collect_rs(root, &entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            let rel = entry
                .strip_prefix(root)
                .map_err(|e| LintError::Io(e.to_string()))?;
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Directory entries, sorted by path for deterministic traversal.
fn sorted_dir(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let rd = fs::read_dir(dir).map_err(|e| LintError::Io(format!("{}: {e}", dir.display())))?;
    let mut entries = Vec::new();
    for e in rd {
        let e = e.map_err(|e| LintError::Io(e.to_string()))?;
        entries.push(e.path());
    }
    entries.sort();
    Ok(entries)
}
