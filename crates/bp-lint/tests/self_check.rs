//! The lint runs clean on the workspace that ships it, its machine output
//! is byte-deterministic — the two properties CI's `lint-invariants` job
//! relies on — and every package opts into the `[workspace.lints]` table
//! that owns panic-freedom and the `unsafe` ban.

use bp_lint::{run_lint, Config};
use std::path::PathBuf;

/// Walks up from this crate's manifest dir to the workspace root.
fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        assert!(dir.pop(), "no workspace root above CARGO_MANIFEST_DIR");
    }
}

#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    let config = Config::workspace_default(&root);
    let report = run_lint(&config).expect("lint runs");
    let active: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.status == bp_lint::report::Status::Active)
        .collect();
    assert!(
        active.is_empty(),
        "workspace has active lint findings:\n{}",
        report.to_text()
    );
    assert!(
        report.files_scanned > 50,
        "scanned {}",
        report.files_scanned
    );
}

#[test]
fn json_report_is_byte_deterministic() {
    let root = workspace_root();
    let config = Config::workspace_default(&root);
    let a = run_lint(&config).expect("first run").to_json();
    let b = run_lint(&config).expect("second run").to_json();
    assert_eq!(a, b, "JSON output must be byte-identical across runs");
    assert!(!a.contains("\\u0000"));
}

/// `[workspace.lints]` reaches only packages that opt in, so a package
/// without `[lints] workspace = true` would silently escape the clippy
/// panic lints and the `unsafe_code` ban.
#[test]
fn every_manifest_opts_into_workspace_lints() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("dir entry").path().join("Cargo.toml"))
        .filter(|m| m.is_file())
        .collect();
    crates.sort();
    assert!(crates.len() >= 12, "found {} crate manifests", crates.len());
    manifests.append(&mut crates);
    for manifest in &manifests {
        let text = std::fs::read_to_string(manifest).expect("read manifest");
        let opted_in = text
            .split("\n[")
            .filter_map(|section| section.strip_prefix("lints]"))
            .any(|body| body.lines().any(|l| l.replace(' ', "") == "workspace=true"));
        assert!(
            opted_in,
            "{} lacks `[lints]` with `workspace = true`",
            manifest.display()
        );
    }
}

/// Introducing a violation into a scanned fixture tree makes the lint
/// fail — the acceptance check that the tool actually bites.
#[test]
fn injected_violation_is_caught() {
    let dir = std::env::temp_dir().join("bp-lint-self-check-fixture");
    let src_dir = dir.join("crates").join("bp-common").join("src");
    std::fs::create_dir_all(&src_dir).expect("mkdir fixture tree");
    std::fs::write(
        dir.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("write manifest");
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn f() -> usize {\n    std::collections::HashSet::<u32>::new().len()\n}\n",
    )
    .expect("write fixture");

    let config = Config::workspace_default(&dir);
    let report = run_lint(&config).expect("lint runs");
    assert!(!report.is_clean(), "injected HashSet must be a finding");
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "determinism-collections" && f.file == "crates/bp-common/src/lib.rs"));

    std::fs::remove_dir_all(&dir).ok();
}
