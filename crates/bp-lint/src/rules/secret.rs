//! Secret-hygiene: the `secret-debug` rule plus the shared key-material
//! vocabulary used by the dataflow taint pass.
//!
//! The threat model (PPP eviction sets, reuse attacks, §VI of the paper)
//! assumes the attacker never learns the randomization keys: the QARMA-64
//! code book, the per-domain content keys, the index seeds. This module
//! owns the *vocabulary* of that assumption — which type names, field
//! names, and identifiers denote key material ([`SECRET_TYPES`],
//! `SECRET_FIELDS`, `SECRET_IDENTS`) — and one rule of its own:
//!
//! * `secret-debug` — a key-material type deriving or implementing
//!   `Debug`/`Display` means one `{:?}` anywhere prints the code book.
//!   Detection is by type name *and* by shape: any struct with a field
//!   named like key material (`keys`, `content_key`, `round_keys`, ...)
//!   that derives `Debug` is flagged.
//!
//! The lexical `secret-format` / `secret-branch` rules that used to live
//! here were replaced in v2 by the strictly stronger dataflow rules in
//! [`super::taint`] (`secret-taint-branch`, `secret-taint-format`,
//! `secret-taint-index`, `secret-taint-store`), which follow key material
//! through `let` bindings and method returns instead of matching names at
//! the sink only. The `secret-debug` rule remains token-level and is the
//! load-bearing backstop — with no `Debug` impl on the key types, the
//! compiler itself rejects most leak paths.

use super::{ident_at, punct_at, FileCtx};
use crate::lexer::Tok;
use crate::report::Finding;

/// Type names that hold key material.
pub const SECRET_TYPES: &[&str] = &[
    "DomainKeys",
    "IndexSeed",
    "KeyManager",
    "KeysTable",
    "Llbc",
    "Prince",
    "Qarma64",
    "RefreshState",
    "XorCipher",
];

/// Field names that mark a struct as key-material-bearing.
pub(crate) const SECRET_FIELDS: &[&str] = &[
    "content_key",
    "k0",
    "k1",
    "key_halves",
    "keys",
    "old_keys",
    "refresh",
    "round_keys",
    "w0",
    "w1",
];

/// Variable/field identifiers treated as key material wherever they
/// appear; the taint pass seeds its environment from this list.
pub(crate) const SECRET_IDENTS: &[&str] = &[
    "code_book",
    "content_key",
    "index_seed",
    "key_manager",
    "keys",
    "keys_table",
    "old_keys",
    "round_keys",
];

/// Format-like macros whose arguments reach logs, panics, or strings.
pub(crate) const FORMAT_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "eprint",
    "eprintln",
    "error",
    "format",
    "format_args",
    "info",
    "panic",
    "print",
    "println",
    "todo",
    "trace",
    "unimplemented",
    "unreachable",
    "warn",
    "write",
    "writeln",
];

/// Runs the `secret-debug` rule over one file. The dataflow secret rules
/// run from [`super::taint`].
pub fn run(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if !ctx
        .config
        .secret_scope_crates
        .contains(&ctx.class.crate_name)
    {
        return;
    }
    debug_impls(ctx, findings);
}

/// `secret-debug`: derives and manual impls of Debug/Display on key types.
fn debug_impls(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    let toks = &ctx.lexed.tokens;
    let n = toks.len();
    // First pass: struct names defined *in this file* whose bodies carry a
    // key-material field, so `impl Debug for LocalKeyHolder` is caught by
    // shape, not only by the global name list.
    let mut local_secret_types: Vec<String> = Vec::new();
    let mut s = 0usize;
    while s < n {
        if matches!(ident_at(toks, s), Some("struct") | Some("union")) {
            if let Some((name, _, Some(body))) = next_type_item(toks, s) {
                if body_has_secret_field(toks, body) {
                    local_secret_types.push(name);
                }
            }
        }
        s += 1;
    }
    let is_secret_type =
        |name: &str| SECRET_TYPES.contains(&name) || local_secret_types.iter().any(|t| t == name);
    let mut i = 0usize;
    while i < n {
        // `#[derive(..., Debug, ...)]` followed by a struct/enum item.
        if punct_at(toks, i, '#')
            && punct_at(toks, i + 1, '[')
            && ident_at(toks, i + 2) == Some("derive")
        {
            let mut j = i + 3;
            let mut has_debug = false;
            let mut depth = 0i32;
            while j < n {
                match &toks[j].tok {
                    Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                    Tok::Punct(')') => depth -= 1,
                    Tok::Punct(']') => {
                        if depth <= 0 {
                            j += 1;
                            break;
                        }
                        depth -= 1;
                    }
                    Tok::Ident(s) if s == "Debug" => has_debug = true,
                    _ => {}
                }
                j += 1;
            }
            if has_debug {
                if let Some((name, name_line, body_start)) = next_type_item(toks, j) {
                    let secret_name = SECRET_TYPES.contains(&name.as_str());
                    let secret_shape = body_start.is_some_and(|b| body_has_secret_field(toks, b));
                    if secret_name || secret_shape {
                        findings.push(ctx.finding(
                            "secret-debug",
                            name_line,
                            format!("derive(Debug) on {name}"),
                            format!(
                                "key-material type `{name}` derives Debug; one `{{:?}}` prints the code book"
                            ),
                        ));
                    }
                }
            }
            i = j;
            continue;
        }
        // `impl [path::]Debug|Display for Type`.
        if ident_at(toks, i) == Some("impl") {
            let mut j = i + 1;
            let mut trait_name: Option<&str> = None;
            let mut type_name: Option<(String, u32)> = None;
            let mut seen_for = false;
            while j < n && !punct_at(toks, j, '{') && !punct_at(toks, j, ';') {
                match &toks[j].tok {
                    Tok::Ident(s) if s == "for" => seen_for = true,
                    Tok::Ident(s) if !seen_for && (s == "Debug" || s == "Display") => {
                        trait_name = Some(if s == "Debug" { "Debug" } else { "Display" });
                    }
                    Tok::Ident(s) if seen_for && type_name.is_none() && s != "crate" => {
                        type_name = Some((s.clone(), toks[j].line));
                    }
                    // A path like `keys::KeysTable` keeps updating to the
                    // last segment before `<` or `{`.
                    Tok::Ident(s) if seen_for && s != "crate" => {
                        if let Some(t) = &mut type_name {
                            if punct_at(toks, j.wrapping_sub(1), ':') {
                                *t = (s.clone(), toks[j].line);
                            }
                        }
                    }
                    Tok::Punct('<') => break,
                    _ => {}
                }
                j += 1;
            }
            if let (Some(tr), Some((ty, line))) = (trait_name, &type_name) {
                if is_secret_type(ty.as_str()) {
                    findings.push(ctx.finding(
                        "secret-debug",
                        *line,
                        format!("impl {tr} for {ty}"),
                        format!("key-material type `{ty}` implements {tr}; formatting it leaks key material"),
                    ));
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

/// After a derive attribute, finds the next `struct`/`enum` item: returns
/// (name, line, index of the opening `{` of its body if any).
fn next_type_item(
    toks: &[crate::lexer::Token],
    from: usize,
) -> Option<(String, u32, Option<usize>)> {
    let n = toks.len();
    let mut j = from;
    // Skip further attributes and visibility/qualifier idents.
    while j < n {
        if punct_at(toks, j, '#') && punct_at(toks, j + 1, '[') {
            let mut depth = 0i32;
            j += 1;
            while j < n {
                match &toks[j].tok {
                    Tok::Punct('[') | Tok::Punct('(') => depth += 1,
                    Tok::Punct(')') => depth -= 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            continue;
        }
        match ident_at(toks, j) {
            Some("struct") | Some("enum") | Some("union") => {
                let name = ident_at(toks, j + 1)?.to_string();
                let line = toks.get(j + 1)?.line;
                // Find the body brace (skipping generics).
                let mut k = j + 2;
                let mut angle = 0i32;
                while k < n {
                    match &toks[k].tok {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle -= 1,
                        Tok::Punct('{') if angle <= 0 => return Some((name, line, Some(k))),
                        Tok::Punct(';') if angle <= 0 => return Some((name, line, None)),
                        Tok::Punct('(') if angle <= 0 => return Some((name, line, None)),
                        _ => {}
                    }
                    k += 1;
                }
                return Some((name, line, None));
            }
            Some("pub") | Some("crate") | Some("in") | Some("super") | Some("self") => j += 1,
            Some(_) | None => {
                if punct_at(toks, j, '(') || punct_at(toks, j, ')') {
                    j += 1;
                } else {
                    return None;
                }
            }
        }
    }
    None
}

/// Does a struct body (starting at its `{`) declare a secret-named field?
fn body_has_secret_field(toks: &[crate::lexer::Token], open: usize) -> bool {
    let n = toks.len();
    let mut depth = 0i32;
    let mut j = open;
    while j < n {
        match &toks[j].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            Tok::Ident(s)
                if depth == 1
                    && SECRET_FIELDS.contains(&s.as_str())
                    && punct_at(toks, j + 1, ':') =>
            {
                return true;
            }
            _ => {}
        }
        j += 1;
    }
    false
}

/// Is the token sequence at `i` a shape read (`.len()`, `.is_empty()`,
/// `.capacity()`) rather than a value read? Shape is geometry, not secret.
pub(crate) fn is_shape_read(toks: &[crate::lexer::Token], i: usize) -> bool {
    punct_at(toks, i, '.')
        && matches!(
            ident_at(toks, i + 1),
            Some("len") | Some("is_empty") | Some("capacity")
        )
        && punct_at(toks, i + 2, '(')
}

/// Extracts `{name}` / `{name:spec}` inline captures from a format string.
pub(crate) fn inline_captures(s: &str) -> Vec<String> {
    let chars: Vec<char> = s.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] == '{' {
            if i + 1 < chars.len() && chars[i + 1] == '{' {
                i += 2; // escaped brace
                continue;
            }
            let mut j = i + 1;
            let mut name = String::new();
            while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                name.push(chars[j]);
                j += 1;
            }
            if !name.is_empty()
                && j < chars.len()
                && (chars[j] == '}' || chars[j] == ':')
                && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
            {
                out.push(name);
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}
