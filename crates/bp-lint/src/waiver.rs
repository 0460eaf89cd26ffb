//! Waiver comments: the escape hatch, and the lint on the escape hatch.
//!
//! A rule violation that is *intentional* — the bench timing layer reading
//! the wall clock, an operator knob read from the environment — is
//! silenced with an inline waiver comment:
//!
//! ```text
//! // bp-lint: allow(determinism-time) reason="bench wall-clock table is a diagnostic, not a result"
//! let started = Instant::now();
//! ```
//!
//! A waiver on its own line applies to the next line that contains code; a
//! trailing waiver applies to its own line; `allow-file(...)` at any point
//! waives the rule for the whole file. Waivers are themselves linted: a
//! waiver with an unknown rule name, a missing or empty reason, or one
//! that suppresses nothing (stale after a fix) is a `waiver-hygiene`
//! finding. This keeps the waiver set honest — every waiver in the tree
//! names a real finding and a real reason.

use crate::lexer::{Lexed, LineComment};

/// A parsed (or rejected) waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Line the comment sits on.
    pub line: u32,
    /// The line this waiver suppresses findings on (same line if the
    /// comment trails code, otherwise the next line with code).
    /// Meaningless for file-level waivers.
    pub target_line: u32,
    /// The rule being waived.
    pub rule: String,
    /// True for `allow-file(...)`: applies to the whole file.
    pub file_level: bool,
    /// The stated reason (non-empty if well-formed).
    pub reason: String,
    /// Set if the comment looked like a waiver but failed to parse;
    /// carries the parse failure.
    pub malformed: Option<String>,
}

/// Extracts every waiver comment from a lexed file.
pub fn extract(lexed: &Lexed, total_lines: u32) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        if let Some(w) = parse_comment(c) {
            let mut w = w;
            if !w.file_level {
                w.target_line = resolve_target(lexed, c.line, total_lines);
            }
            out.push(w);
        }
    }
    out
}

/// A waiver on a comment-only line covers the next line with code; a
/// trailing waiver covers its own line.
fn resolve_target(lexed: &Lexed, comment_line: u32, total_lines: u32) -> u32 {
    if lexed.line_has_code(comment_line) {
        return comment_line;
    }
    let mut l = comment_line + 1;
    while l <= total_lines {
        if lexed.line_has_code(l) {
            return l;
        }
        l += 1;
    }
    comment_line
}

/// Parses one comment; returns `None` if it is not waiver-shaped at all.
fn parse_comment(c: &LineComment) -> Option<Waiver> {
    let text = c.text.trim();
    let rest = text.strip_prefix("bp-lint:")?.trim();
    let mut w = Waiver {
        line: c.line,
        target_line: c.line,
        rule: String::new(),
        file_level: false,
        reason: String::new(),
        malformed: None,
    };
    let after_allow = if let Some(r) = rest.strip_prefix("allow-file") {
        w.file_level = true;
        r
    } else if let Some(r) = rest.strip_prefix("allow") {
        r
    } else {
        w.malformed = Some(format!(
            "expected `allow(<rule>)` or `allow-file(<rule>)`, found `{rest}`"
        ));
        return Some(w);
    };
    let after_allow = after_allow.trim_start();
    let Some(open) = after_allow.strip_prefix('(') else {
        w.malformed = Some("missing `(` after allow".to_string());
        return Some(w);
    };
    let Some(close) = open.find(')') else {
        w.malformed = Some("missing `)` after rule name".to_string());
        return Some(w);
    };
    w.rule = open[..close].trim().to_string();
    if w.rule.is_empty() {
        w.malformed = Some("empty rule name".to_string());
        return Some(w);
    }
    let tail = open[close + 1..].trim();
    let Some(reason_val) = tail.strip_prefix("reason=") else {
        w.malformed = Some("missing `reason=\"...\"`".to_string());
        return Some(w);
    };
    let reason_val = reason_val.trim();
    let Some(inner) = reason_val
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
    else {
        w.malformed = Some("reason must be a double-quoted string".to_string());
        return Some(w);
    };
    if inner.trim().is_empty() {
        w.malformed = Some("reason must be non-empty".to_string());
        return Some(w);
    }
    w.reason = inner.to_string();
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn well_formed_waiver_parses() {
        let src = "// bp-lint: allow(determinism-time) reason=\"bench diagnostics\"\nlet t = Instant::now();\n";
        let ws = extract(&lex(src), 2);
        assert_eq!(ws.len(), 1);
        assert!(ws[0].malformed.is_none());
        assert_eq!(ws[0].rule, "determinism-time");
        assert_eq!(ws[0].target_line, 2);
    }

    #[test]
    fn trailing_waiver_targets_own_line() {
        let src = "let t = now(); // bp-lint: allow(determinism-time) reason=\"ok\"\n";
        let ws = extract(&lex(src), 1);
        assert_eq!(ws[0].target_line, 1);
    }

    #[test]
    fn stacked_waivers_share_a_target() {
        let src = "// bp-lint: allow(a) reason=\"x\"\n// bp-lint: allow(b) reason=\"y\"\ncode();\n";
        let ws = extract(&lex(src), 3);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].target_line, 3);
        assert_eq!(ws[1].target_line, 3);
    }

    #[test]
    fn empty_reason_is_malformed() {
        let src = "// bp-lint: allow(determinism-time) reason=\"  \"\nlet t = Instant::now();\n";
        let ws = extract(&lex(src), 2);
        assert!(ws[0].malformed.is_some());
    }

    #[test]
    fn missing_reason_is_malformed() {
        let src = "// bp-lint: allow(determinism-time)\nlet t = Instant::now();\n";
        let ws = extract(&lex(src), 2);
        assert!(ws[0].malformed.is_some());
    }

    #[test]
    fn unrelated_comments_are_ignored() {
        let src = "// just a comment about bp-lint the tool\ncode();\n";
        assert!(extract(&lex(src), 2).is_empty());
    }

    #[test]
    fn file_level_waiver() {
        let src = "// bp-lint: allow-file(determinism-env) reason=\"operator knobs\"\n";
        let ws = extract(&lex(src), 1);
        assert!(ws[0].file_level);
        assert!(ws[0].malformed.is_none());
    }
}
