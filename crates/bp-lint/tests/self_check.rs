//! The lint runs clean on the workspace that ships it, and its machine
//! output is byte-deterministic — the two properties CI's
//! `lint-invariants` job relies on.

use bp_lint::baseline::Baseline;
use bp_lint::{load_baseline, run_lint, Config};
use std::path::{Path, PathBuf};

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
fn workspace_is_clean_under_checked_in_baseline() {
    let root = workspace_root();
    let config = Config::workspace_default(&root);
    let baseline = load_baseline(&root.join("bp-lint.baseline.json")).expect("baseline parses");
    let report = run_lint(&config, &baseline).expect("lint runs");
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
        report.stale_baseline.is_empty(),
        "baseline must only shrink"
    );
    assert!(
        report.files_scanned > 50,
        "scanned {}",
        report.files_scanned
    );
}

#[test]
fn panic_freedom_and_secret_hygiene_carry_no_baseline_debt() {
    // The checked-in baseline must stay empty for these rules: new debt is
    // either fixed or waived with a reason, never grandfathered. The taint
    // rules replaced the v1 lexical `secret-format`/`secret-branch` pair
    // and inherit its no-debt policy; the workspace-level rule
    // (serve-lock-order) is unwaivable *and* unbaselineable.
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("bp-lint.baseline.json")).expect("read baseline");
    for rule in [
        "panic-freedom",
        "secret-debug",
        "secret-taint-branch",
        "secret-taint-format",
        "secret-taint-index",
        "secret-taint-store",
        "serve-hot-lock",
        "serve-lock-order",
    ] {
        assert!(
            !text.contains(rule),
            "baseline contains grandfathered `{rule}` debt"
        );
    }
}

#[test]
fn json_report_is_byte_deterministic() {
    let root = workspace_root();
    let config = Config::workspace_default(&root);
    let baseline = Baseline::default();
    let a = run_lint(&config, &baseline).expect("first run").to_json();
    let b = run_lint(&config, &baseline).expect("second run").to_json();
    assert_eq!(a, b, "JSON output must be byte-identical across runs");
    assert!(!a.contains("\\u0000"));
}

#[test]
fn unsafe_inventory_is_empty_or_fully_justified() {
    let root = workspace_root();
    let config = Config::workspace_default(&root);
    let report = run_lint(&config, &Baseline::default()).expect("lint runs");
    for site in &report.unsafe_inventory {
        assert!(
            site.has_safety,
            "unsafe block without SAFETY comment at {}:{}",
            site.file, site.line
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
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    )
    .expect("write fixture");

    let config = Config::workspace_default(&dir);
    let report = run_lint(&config, &Baseline::default()).expect("lint runs");
    assert!(!report.is_clean(), "injected unwrap must be a finding");
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "panic-freedom" && f.file == "crates/bp-common/src/lib.rs"));

    std::fs::remove_dir_all(&dir).ok();
    let _ = Path::new("unused");
}
