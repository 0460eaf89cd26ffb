//! The rule registry and the per-file rule-execution context.
//!
//! Each rule is a pure function from a lexed, classified file to a list of
//! findings; no rule does I/O. Scope decisions (which crates a rule covers)
//! live in [`crate::Config`] so fixture tests can build small fake
//! workspaces that exercise every rule without touching the real tree.

pub mod determinism;
pub mod secret;
pub mod serve;
pub mod taint;

use crate::lexer::{Lexed, Tok, Token};
use crate::report::{Finding, Status};
use crate::scope::{FileClass, TestRanges};
use crate::Config;

/// Identifiers of every rule, sorted; the single source of truth that the
/// waiver-hygiene check validates rule names against.
pub const ALL_RULES: &[&str] = &[
    "determinism-collections",
    "determinism-env",
    "determinism-thread-id",
    "determinism-time",
    "secret-debug",
    "secret-taint-branch",
    "secret-taint-format",
    "secret-taint-index",
    "secret-taint-store",
    "serve-hot-lock",
    "serve-lock-order",
    "waiver-hygiene",
];

/// Returns true if `rule` is a known rule id.
pub fn is_known_rule(rule: &str) -> bool {
    ALL_RULES.contains(&rule)
}

/// Everything a rule needs to scan one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path, forward slashes.
    pub rel: &'a str,
    /// Crate/kind classification.
    pub class: &'a FileClass,
    /// Token stream and comments.
    pub lexed: &'a Lexed,
    /// `#[cfg(test)]` line ranges.
    pub tests: &'a TestRanges,
    /// Scope configuration.
    pub config: &'a Config,
}

impl FileCtx<'_> {
    /// Is the token at this line production (non-test) code?
    pub fn is_production(&self, line: u32) -> bool {
        !self.tests.contains(line)
    }

    /// Constructs an active finding at a token.
    pub fn finding(
        &self,
        rule: &'static str,
        line: u32,
        snippet: impl Into<String>,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            rule,
            file: self.rel.to_string(),
            line,
            snippet: snippet.into(),
            message: message.into(),
            status: Status::Active,
        }
    }
}

/// Runs every per-file rule, appending findings and collecting lock
/// sequences for the cross-file `serve-lock-order` finalize.
///
/// The workspace-level pass, [`serve::finalize_lock_order`], runs from
/// [`crate::run_lint`], not here.
pub fn run_all(
    ctx: &FileCtx<'_>,
    findings: &mut Vec<Finding>,
    sequences: &mut Vec<serve::LockSeq>,
) {
    determinism::run(ctx, findings);
    secret::run(ctx, findings);
    taint::run(ctx, findings);
    serve::run_collect(ctx, findings, sequences);
}

/// True when `toks[i..]` starts with the given identifier.
pub(crate) fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// True when `toks[i..]` starts with the given punctuation char.
pub(crate) fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// True when `toks[i]` and `toks[i+1]` form `::`.
pub(crate) fn path_sep_at(toks: &[Token], i: usize) -> bool {
    punct_at(toks, i, ':') && punct_at(toks, i + 1, ':')
}
