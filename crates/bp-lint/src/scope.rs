//! File classification and `#[cfg(test)]` region tracking.
//!
//! Every invariant `bp-lint` enforces has a *scope*: the determinism
//! rules apply to library code of simulation/result-producing crates, but
//! not to binaries, test modules or the lint tool itself. This module
//! derives that scope from two things only — the file's path inside the
//! workspace, and the `#[cfg(test)]` / `#[test]` attribute structure inside
//! the file — so the classification is fully deterministic and needs no
//! build-system integration.

use crate::lexer::{Lexed, Tok};

/// What kind of compilation target a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Part of a crate's library (`src/**` minus binary entry points).
    Lib,
    /// A binary entry point (`src/main.rs` or `src/bin/**`).
    Bin,
}

/// Where a file sits in the workspace.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// The owning crate's directory name (`bp-crypto`, `bench`, ...), or
    /// `"hybp-repro"` for the workspace-root crate.
    pub crate_name: String,
    /// Library or binary target.
    pub kind: FileKind,
}

/// Classifies a workspace-relative path (forward slashes).
///
/// Returns `None` for paths `bp-lint` does not scan at all: integration
/// tests, examples, and benches are test harness code where the library
/// invariants (determinism of result paths, secret hygiene) intentionally
/// do not apply.
pub fn classify(rel: &str) -> Option<FileClass> {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, rest): (&str, &[&str]) = if parts.first() == Some(&"crates") {
        if parts.len() < 3 {
            return None;
        }
        (parts[1], &parts[2..])
    } else if parts.first() == Some(&"src") {
        ("hybp-repro", &parts[..])
    } else {
        return None;
    };
    if rest.first() != Some(&"src") {
        return None; // tests/, examples/, benches/ are out of scope
    }
    let kind = if rest.contains(&"bin") || rest.last() == Some(&"main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    Some(FileClass {
        crate_name: crate_name.to_string(),
        kind,
    })
}

/// Inclusive 1-based line ranges covered by test-only code.
#[derive(Debug, Default)]
pub struct TestRanges {
    ranges: Vec<(u32, u32)>,
}

impl TestRanges {
    /// Is `line` inside any `#[cfg(test)]` module or `#[test]` function?
    pub fn contains(&self, line: u32) -> bool {
        self.ranges.iter().any(|&(a, b)| a <= line && line <= b)
    }
}

/// Computes the test-only line ranges of a lexed file.
///
/// The tracker walks the token stream looking for attributes. An attribute
/// marks the *next item* as test-only when its content mentions `test`
/// without `not` — this covers `#[cfg(test)]`, `#[test]`, and
/// `#[cfg(all(test, ...))]`, while leaving `#[cfg(not(test))]` as
/// production code. The marked item extends to its matching closing brace
/// (or terminating semicolon), so a whole `mod tests { ... }` is skipped
/// in one range.
pub fn test_ranges(lexed: &Lexed) -> TestRanges {
    let toks = &lexed.tokens;
    let n = toks.len();
    let mut out = TestRanges::default();
    let mut i = 0usize;
    while i < n {
        if !matches!(toks[i].tok, Tok::Punct('#')) {
            i += 1;
            continue;
        }
        // Attribute: `#[ ... ]` (we ignore inner attributes `#![...]`).
        let mut j = i + 1;
        if j < n && matches!(toks[j].tok, Tok::Punct('!')) {
            j += 1;
        }
        if j >= n || !matches!(toks[j].tok, Tok::Punct('[')) {
            i += 1;
            continue;
        }
        let attr_start_line = toks[i].line;
        let (content_test, end) = scan_attr(toks, j);
        if !content_test {
            i = end;
            continue;
        }
        // Skip any further attributes (`#[cfg(test)] #[derive(..)] mod t`).
        let mut k = end;
        while k < n && matches!(toks[k].tok, Tok::Punct('#')) {
            let m = k + 1;
            if m < n && matches!(toks[m].tok, Tok::Punct('[')) {
                let (_, e) = scan_attr(toks, m);
                k = e;
            } else {
                break;
            }
        }
        // Consume the item: until `;` at depth 0, or the matching `}` of
        // the first `{` we open.
        let mut depth = 0i32;
        let mut opened = false;
        let mut end_line = attr_start_line;
        while k < n {
            match toks[k].tok {
                Tok::Punct('{') => {
                    depth += 1;
                    opened = true;
                }
                Tok::Punct('}') => {
                    depth -= 1;
                    if opened && depth == 0 {
                        end_line = toks[k].line;
                        k += 1;
                        break;
                    }
                }
                Tok::Punct(';') if depth == 0 => {
                    end_line = toks[k].line;
                    k += 1;
                    break;
                }
                _ => {}
            }
            end_line = toks[k].line;
            k += 1;
        }
        out.ranges.push((attr_start_line, end_line));
        i = k;
    }
    out
}

/// Scans an attribute whose `[` is at index `open`. Returns (whether the
/// attribute marks test-only code, index just past the closing `]`).
fn scan_attr(toks: &[crate::lexer::Token], open: usize) -> (bool, usize) {
    let n = toks.len();
    let mut depth = 0i32;
    let mut has_test = false;
    let mut has_not = false;
    let mut k = open;
    while k < n {
        match &toks[k].tok {
            Tok::Punct('[') | Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => depth -= 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    k += 1;
                    break;
                }
            }
            Tok::Ident(s) if s == "test" || s == "tests" => has_test = true,
            Tok::Ident(s) if s == "not" => has_not = true,
            _ => {}
        }
        k += 1;
    }
    (has_test && !has_not, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn classify_paths() {
        let c = classify("crates/bp-crypto/src/keys.rs");
        assert_eq!(c.map(|c| c.crate_name), Some("bp-crypto".to_string()));
        let b = classify("crates/bench/src/bin/bench_all.rs");
        assert!(matches!(b.map(|c| c.kind), Some(FileKind::Bin)));
        assert!(classify("crates/bench/tests/determinism.rs").is_none());
        assert!(classify("crates/bp-workloads/examples/calibrate.rs").is_none());
        let root = classify("src/lib.rs");
        assert_eq!(root.map(|c| c.crate_name), Some("hybp-repro".to_string()));
    }

    #[test]
    fn cfg_test_module_is_ranged() {
        let src =
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n  fn a() { x.unwrap(); }\n}\nfn after() {}\n";
        let lexed = lex(src);
        let r = test_ranges(&lexed);
        assert!(!r.contains(1));
        assert!(r.contains(4));
        assert!(!r.contains(6));
    }

    #[test]
    fn cfg_not_test_is_production() {
        let src = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }\n";
        let lexed = lex(src);
        let r = test_ranges(&lexed);
        assert!(!r.contains(2));
    }

    #[test]
    fn test_fn_attribute_is_ranged() {
        let src = "#[test]\nfn check() { x.unwrap(); }\nfn prod() {}\n";
        let lexed = lex(src);
        let r = test_ranges(&lexed);
        assert!(r.contains(2));
        assert!(!r.contains(3));
    }
}
