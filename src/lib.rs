//! Umbrella crate for the HyBP reproduction workspace.
//!
//! Re-exports every workspace crate under one roof so that the runnable
//! examples in `examples/` and the integration tests in `tests/` can reach the
//! whole system through a single dependency.
//!
//! The actual functionality lives in the member crates:
//!
//! * [`bp_common`] — shared types, PRNGs, statistics.
//! * [`bp_crypto`] — QARMA-64 / PRINCE / LLBC ciphers and the randomized keys table.
//! * [`bp_predictors`] — 3-level BTB, TAGE-SC-L, tournament predictor.
//! * [`bp_workloads`] — synthetic SPEC CPU2017-like branch workloads and mixes.
//! * [`bp_pipeline`] — cycle-level SMT-2 out-of-order core model.
//! * [`hybp`] — the paper's contribution: the hybrid protection mechanisms.
//! * [`bp_attacks`] — PPP / GEM / blind-contention / reuse attack harnesses.
//! * [`bp_faults`] — deterministic fault plans for the robustness harness.
//! * [`bp_trace`] — corruption-tolerant binary branch-trace store and replay.

pub use bp_attacks;
pub use bp_common;
pub use bp_crypto;
pub use bp_faults;
pub use bp_pipeline;
pub use bp_predictors;
pub use bp_trace;
pub use bp_workloads;
pub use hybp;

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    /// The root package's manifest directory is the workspace root.
    const ROOT: &str = env!("CARGO_MANIFEST_DIR");

    /// `[workspace.lints]` reaches only packages that opt in, so a package
    /// without `[lints] workspace = true` would silently escape the clippy
    /// panic lints and the `unsafe_code` ban.
    #[test]
    fn every_manifest_opts_into_workspace_lints() {
        let root = Path::new(ROOT);
        let mut manifests = vec![root.join("Cargo.toml")];
        let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
            .expect("read crates/")
            .map(|e| e.expect("dir entry").path().join("Cargo.toml"))
            .filter(|m| m.is_file())
            .collect();
        crates.sort();
        assert!(crates.len() >= 11, "found {} crate manifests", crates.len());
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

    /// Deleting a ban from `clippy.toml` makes clippy go quiet, not fail,
    /// so the determinism bans are pinned here, each with a reason.
    #[test]
    fn clippy_toml_lists_every_determinism_ban() {
        let text =
            std::fs::read_to_string(Path::new(ROOT).join("clippy.toml")).expect("read clippy.toml");
        for (list, path) in [
            ("disallowed-types", "std::time::Instant"),
            ("disallowed-types", "std::time::SystemTime"),
            ("disallowed-types", "std::collections::HashMap"),
            ("disallowed-types", "std::collections::HashSet"),
            ("disallowed-types", "std::hash::RandomState"),
            ("disallowed-methods", "std::env::var"),
            ("disallowed-methods", "std::env::var_os"),
            ("disallowed-methods", "std::env::vars"),
            ("disallowed-methods", "std::env::vars_os"),
            ("disallowed-methods", "std::env::set_var"),
            ("disallowed-methods", "std::env::remove_var"),
            ("disallowed-methods", "std::thread::current"),
        ] {
            let body = text
                .split_once(&format!("\n{list} = ["))
                .and_then(|(_, rest)| rest.split_once("\n]"))
                .map_or("", |(body, _)| body);
            let entry = format!("{{ path = \"{path}\", reason = \"");
            assert!(
                body.lines().any(|l| l.trim_start().starts_with(&entry)),
                "clippy.toml's `{list}` does not ban `{path}` with a reason"
            );
        }
    }
}
