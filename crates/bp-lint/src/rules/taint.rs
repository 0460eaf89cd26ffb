//! Intra-procedural secret-taint tracking.
//!
//! The lexical `secret-*` rules from v1 matched key-material *names* at
//! the sink: `if keys & 1 == 1` was caught, `let material = keys; if
//! material & 1 == 1` was not. This pass closes that hole. Per function
//! (boundaries from [`crate::ir`]) it computes a taint environment:
//!
//! * parameters whose type mentions a key-material type
//!   ([`super::secret::SECRET_TYPES`]) are tainted;
//! * the canonical key-material identifiers
//!   (`secret::SECRET_IDENTS`) are always tainted;
//! * a `let` binding whose initializer span is tainted — contains a
//!   tainted name, a key-material type, or a call to a key-returning
//!   method on the [`TAINT_METHODS`] allowlist — taints every name it
//!   binds, and plain `name = expr;` reassignments propagate the same
//!   way (taint is monotone: once secret, always secret);
//! * shape reads (`.len()`, `.is_empty()`, `.capacity()`) sanitize —
//!   geometry is public.
//!
//! Findings fire when a tainted value reaches a sink, on production lines
//! only:
//!
//! * `secret-taint-branch` — an `if`/`while`/`match` head (cipher
//!   internals exempt via `cipher_internal_suffixes`: they are
//!   table-driven constant-time and audited as a unit);
//! * `secret-taint-index` — an index expression `base[...]`, outside the
//!   codec allowlist (`index_exempt_suffixes`) where secret-derived
//!   indexing *is* the mechanism under study;
//! * `secret-taint-format` — a format/IO macro argument list, including
//!   inline `{name}` captures of tainted locals;
//! * `secret-taint-store` — assignment into a struct field not named
//!   like key material (`secret::SECRET_FIELDS`): secrets must
//!   only rest in fields declared for them.
//!
//! The analysis is flow-insensitive within a body (the final environment
//! judges every sink) and has no inter-procedural propagation beyond the
//! method allowlist — deliberate over-approximations that keep it a
//! reviewable few hundred lines while still being strictly stronger than
//! the v1 rules it replaces.

use std::collections::BTreeSet;

use super::secret::{
    inline_captures, is_shape_read, FORMAT_MACROS, SECRET_FIELDS, SECRET_IDENTS, SECRET_TYPES,
};
use super::{ident_at, punct_at, FileCtx};
use crate::ir;
use crate::lexer::{Tok, Token};
use crate::report::Finding;

/// Methods whose return value is key material regardless of receiver.
pub const TAINT_METHODS: &[&str] = &[
    "code_book",
    "content_key",
    "index_key",
    "key_at",
    "key_halves",
    "old_keys",
    "round_keys",
    "schedule",
];

/// Runs the four taint rules over one file.
pub fn run(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if !ctx
        .config
        .secret_scope_crates
        .contains(&ctx.class.crate_name)
    {
        return;
    }
    let ends_with = |suffixes: &[String]| suffixes.iter().any(|s| ctx.rel.ends_with(s.as_str()));
    let branch_exempt = ends_with(&ctx.config.cipher_internal_suffixes);
    let index_exempt = ends_with(&ctx.config.index_exempt_suffixes);
    let toks = &ctx.lexed.tokens;
    for f in ir::functions(toks) {
        let tainted = taint_env(toks, &f);
        let nested = ir::nested_fn_spans(toks, f.body);
        let mut sinks = SinkScan {
            ctx,
            toks,
            tainted: &tainted,
            findings,
            branch_exempt,
            index_exempt,
        };
        sinks.scan(f.body, &nested);
    }
}

/// Computes the final taint environment for one function: a forward pass
/// over its `let` bindings and reassignments.
fn taint_env(toks: &[Token], f: &ir::Function) -> BTreeSet<String> {
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    for p in &f.params {
        if p.type_idents
            .iter()
            .any(|t| SECRET_TYPES.contains(&t.as_str()))
        {
            tainted.insert(p.name.clone());
        }
    }
    // Interleave lets and assigns in source order so `x = keys; let y = x;`
    // propagates. Both vectors are already source-ordered.
    let mut li = 0usize;
    let mut ai = 0usize;
    loop {
        let take_let = match (f.lets.get(li), f.assigns.get(ai)) {
            (Some(l), Some(a)) => l.init.0 <= a.rhs.0,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_let {
            let l = &f.lets[li];
            let ty_secret = l
                .type_idents
                .iter()
                .any(|t| SECRET_TYPES.contains(&t.as_str()));
            if ty_secret || span_tainted(toks, l.init, &tainted) {
                for name in &l.names {
                    tainted.insert(name.clone());
                }
            }
            li += 1;
        } else {
            let a = &f.assigns[ai];
            if span_tainted(toks, a.rhs, &tainted) {
                tainted.insert(a.name.clone());
            }
            ai += 1;
        }
    }
    tainted
}

/// Is any value in the token span `[from, to)` key material under the
/// current environment?
fn span_tainted(toks: &[Token], span: (usize, usize), tainted: &BTreeSet<String>) -> bool {
    let (from, to) = span;
    let mut j = from;
    while j < to {
        if let Some(s) = ident_at(toks, j) {
            let secret_name =
                SECRET_IDENTS.contains(&s) || SECRET_TYPES.contains(&s) || tainted.contains(s);
            if secret_name && !is_shape_read(toks, j + 1) {
                return true;
            }
            // Key-returning method call: `.key_at(...)` on any receiver.
            if TAINT_METHODS.contains(&s)
                && punct_at(toks, j.wrapping_sub(1), '.')
                && punct_at(toks, j + 1, '(')
            {
                return true;
            }
        }
        j += 1;
    }
    false
}

/// Sink scanning state for one function body.
struct SinkScan<'a, 'f> {
    ctx: &'a FileCtx<'a>,
    toks: &'a [Token],
    tainted: &'a BTreeSet<String>,
    findings: &'f mut Vec<Finding>,
    branch_exempt: bool,
    index_exempt: bool,
}

impl SinkScan<'_, '_> {
    /// Walks a body span, skipping nested-fn regions (they get their own
    /// environment and their own scan).
    fn scan(&mut self, body: (usize, usize), nested: &[(usize, usize)]) {
        let (from, to) = body;
        let mut i = from;
        'outer: while i < to {
            for &(ns, ne) in nested {
                if i >= ns && i < ne {
                    i = ne;
                    continue 'outer;
                }
            }
            i = self.scan_at(i, to);
        }
    }

    /// Examines one position; returns the next position to look at.
    fn scan_at(&mut self, i: usize, to: usize) -> usize {
        let toks = self.toks;
        if let Some(kw) = ident_at(toks, i) {
            // Branch sink: the head of `if`/`while`/`match`.
            if matches!(kw, "if" | "while" | "match")
                && !self.branch_exempt
                && self.ctx.is_production(toks[i].line)
            {
                let head_end = branch_head_end(toks, i + 1, to);
                self.report_span((i + 1, head_end), "secret-taint-branch", |s| {
                    format!(
                        "key material `{s}` reaches a `{kw}` head: \
                             secret-dependent control flow outside cipher internals"
                    )
                });
                return i + 1;
            }
            // Format sink: macro argument lists.
            if FORMAT_MACROS.contains(&kw)
                && punct_at(toks, i + 1, '!')
                && (punct_at(toks, i + 2, '(')
                    || punct_at(toks, i + 2, '[')
                    || punct_at(toks, i + 2, '{'))
                && self.ctx.is_production(toks[i].line)
            {
                let end = span_close(toks, i + 2, to);
                self.report_span((i + 2, end), "secret-taint-format", |s| {
                    format!("key material `{s}` reaches `{kw}!` arguments")
                });
                self.report_captures((i + 2, end), kw);
                return end.max(i + 1);
            }
        }
        // Index sink: `base[...]` where the bracket contents are tainted.
        if punct_at(toks, i, '[')
            && !self.index_exempt
            && matches!(
                toks.get(i.wrapping_sub(1)).map(|t| &t.tok),
                Some(Tok::Ident(_)) | Some(Tok::Punct(')')) | Some(Tok::Punct(']'))
            )
            && self.ctx.is_production(toks[i].line)
        {
            let end = span_close(toks, i, to);
            self.report_span((i + 1, end), "secret-taint-index", |s| {
                format!(
                    "key material `{s}` used as a table index outside the codec allowlist: \
                     the access pattern reveals the key"
                )
            });
            return i + 1;
        }
        // Store sink: `.field = expr;` into a non-secret field.
        if punct_at(toks, i, '.') {
            if let Some(field) = ident_at(toks, i + 1) {
                if punct_at(toks, i + 2, '=')
                    && !punct_at(toks, i + 3, '=')
                    && !SECRET_FIELDS.contains(&field)
                    && self.ctx.is_production(toks[i].line)
                {
                    let rhs = (i + 3, stmt_close(toks, i + 3, to));
                    if let Some(s) = first_tainted(self.toks, rhs, self.tainted) {
                        let field = field.to_string();
                        self.findings.push(self.ctx.finding(
                            "secret-taint-store",
                            toks[i + 1].line,
                            field.clone(),
                            format!(
                                "key material `{s}` stored into non-secret field `{field}`; \
                                 secrets may only rest in declared key-material fields"
                            ),
                        ));
                    }
                    return i + 3;
                }
            }
        }
        i + 1
    }

    /// Reports the first tainted value inside a span under `rule`.
    fn report_span(
        &mut self,
        span: (usize, usize),
        rule: &'static str,
        message: impl Fn(&str) -> String,
    ) {
        if let Some(s) = first_tainted(self.toks, span, self.tainted) {
            let line = self.toks[span.0.min(self.toks.len() - 1)].line;
            // Anchor the finding at the tainted token's own line.
            let at = (span.0..span.1)
                .find(|&j| ident_at(self.toks, j) == Some(s.as_str()))
                .map(|j| self.toks[j].line)
                .unwrap_or(line);
            self.findings
                .push(self.ctx.finding(rule, at, s.clone(), message(&s)));
        }
    }

    /// Reports tainted inline `{name}` captures in format strings.
    fn report_captures(&mut self, span: (usize, usize), macro_name: &str) {
        let (from, to) = span;
        for j in from..to.min(self.toks.len()) {
            if let Tok::Str(content) = &self.toks[j].tok {
                if !self.ctx.is_production(self.toks[j].line) {
                    continue;
                }
                for cap in inline_captures(content) {
                    if SECRET_IDENTS.contains(&cap.as_str()) || self.tainted.contains(&cap) {
                        self.findings.push(self.ctx.finding(
                            "secret-taint-format",
                            self.toks[j].line,
                            format!("{{{cap}}}"),
                            format!(
                                "key material `{cap}` captured inline in a `{macro_name}!` \
                                 format string"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// The first tainted identifier in a span, if any.
fn first_tainted(
    toks: &[Token],
    span: (usize, usize),
    tainted: &BTreeSet<String>,
) -> Option<String> {
    let (from, to) = span;
    let mut j = from;
    while j < to.min(toks.len()) {
        if let Some(s) = ident_at(toks, j) {
            let secret_name =
                SECRET_IDENTS.contains(&s) || SECRET_TYPES.contains(&s) || tainted.contains(s);
            if secret_name && !is_shape_read(toks, j + 1) {
                return Some(s.to_string());
            }
            if TAINT_METHODS.contains(&s)
                && punct_at(toks, j.wrapping_sub(1), '.')
                && punct_at(toks, j + 1, '(')
            {
                return Some(s.to_string());
            }
        }
        j += 1;
    }
    None
}

/// End of a branch head: the body `{` (or a stray `;`) at depth 0.
fn branch_head_end(toks: &[Token], from: usize, to: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < to {
        match &toks[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('{') | Tok::Punct(';') if depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    to
}

/// Index just past the matching closer for the opener at `open`.
fn span_close(toks: &[Token], open: usize, to: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < to {
        match &toks[j].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                depth -= 1;
                if depth <= 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    to
}

/// Index of the statement-terminating `;` at depth 0 (or `to`).
fn stmt_close(toks: &[Token], from: usize, to: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < to {
        match &toks[j].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
            Tok::Punct(';') if depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    to
}
