//! Findings and deterministic report emission.
//!
//! The JSON report is a CI artifact and a diffable record: two runs over
//! the same tree must produce byte-identical output. That rules out
//! timestamps, absolute paths, hash-map iteration order, and float
//! formatting — everything here is integer counts, workspace-relative
//! paths with forward slashes, and explicitly sorted vectors, serialized
//! by a hand-rolled writer with a fixed key order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How a finding was disposed of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Status {
    /// Live violation: fails the run.
    Active,
    /// Suppressed by an inline `// bp-lint: allow(...)` waiver.
    Waived,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Active => "active",
            Status::Waived => "waived",
        }
    }
}

/// One rule violation at one source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (e.g. `determinism-time`).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The offending token(s), normalized (e.g. `HashMap`, `.unwrap()`).
    pub snippet: String,
    /// Human-readable explanation.
    pub message: String,
    /// Disposition after waiver resolution.
    pub status: Status,
}

/// The complete result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule, snippet).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Sorts the findings into their canonical emission order.
    pub fn normalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.snippet).cmp(&(&b.file, b.line, b.rule, &b.snippet))
        });
    }

    /// Count of findings with the given status.
    pub fn count(&self, status: Status) -> usize {
        self.findings.iter().filter(|f| f.status == status).count()
    }

    /// True when the run should exit 0: nothing active.
    pub fn is_clean(&self) -> bool {
        self.count(Status::Active) == 0
    }

    /// Active-finding count per rule, sorted by rule id.
    fn per_rule(&self, status: Status) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for f in self.findings.iter().filter(|f| f.status == status) {
            *m.entry(f.rule).or_insert(0) += 1;
        }
        m
    }

    /// Renders the deterministic JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"version\": 1,\n  \"files_scanned\": ");
        let _ = write!(s, "{}", self.files_scanned);
        s.push_str(",\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"snippet\": {}, \"status\": {}, \"message\": {}}}",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.snippet),
                json_str(f.status.as_str()),
                json_str(&f.message),
            );
        }
        if !self.findings.is_empty() {
            s.push('\n');
        }
        s.push_str("  ],\n  \"summary\": {");
        let _ = write!(
            s,
            "\n    \"active\": {}, \"waived\": {},",
            self.count(Status::Active),
            self.count(Status::Waived),
        );
        s.push_str("\n    \"active_per_rule\": {");
        let per = self.per_rule(Status::Active);
        for (i, (rule, n)) in per.iter().enumerate() {
            s.push_str(if i == 0 { "" } else { "," });
            let _ = write!(s, "\n      {}: {}", json_str(rule), n);
        }
        if !per.is_empty() {
            s.push_str("\n    ");
        }
        s.push_str("}\n  }\n}\n");
        s
    }

    /// Renders the human-readable text report.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            if f.status != Status::Active {
                continue;
            }
            let _ = writeln!(
                s,
                "{}:{}: [{}] {} ({})",
                f.file, f.line, f.rule, f.message, f.snippet
            );
        }
        let _ = writeln!(
            s,
            "bp-lint: {} file(s), {} active, {} waived",
            self.files_scanned,
            self.count(Status::Active),
            self.count(Status::Waived),
        );
        s
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_under_normalize() {
        let mut r = Report {
            findings: vec![
                Finding {
                    rule: "b-rule",
                    file: "z.rs".into(),
                    line: 2,
                    snippet: "y".into(),
                    message: "m".into(),
                    status: Status::Active,
                },
                Finding {
                    rule: "a-rule",
                    file: "a.rs".into(),
                    line: 9,
                    snippet: "x".into(),
                    message: "m".into(),
                    status: Status::Waived,
                },
            ],
            ..Default::default()
        };
        r.normalize();
        let j1 = r.to_json();
        r.normalize();
        let j2 = r.to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"active\": 1"));
        let a = j1.find("a.rs");
        let z = j1.find("z.rs");
        assert!(a < z, "findings must be file-sorted");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
