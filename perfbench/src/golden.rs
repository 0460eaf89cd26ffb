//! The correctness gate: every operation's simulated statistics, pinned for
//! the default seed in `golden.txt`, plus the invariants each workload
//! checks at any seed.
//!
//! A golden line is `<workload> <operation> <key>=<value> ...`. Re-pin with
//! `--pin` (see README.md) when a change legitimately moves the model.

use std::collections::BTreeMap;

/// The seed the goldens are pinned for.
pub const DEFAULT_SEED: u64 = 1;

/// The pinned statistics, compiled into the benchmark.
pub const GOLDEN: &str = include_str!("../golden.txt");

/// One attempted operation and what it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub workload: &'static str,
    pub name: String,
    /// Simulated statistics as `key=value` pairs, compared verbatim.
    pub stats: String,
    /// Why the operation counts as failed, if it does.
    pub problem: Option<String>,
}

impl Op {
    pub fn new(workload: &'static str, name: String, stats: String) -> Op {
        Op {
            workload,
            name,
            stats,
            problem: None,
        }
    }

    /// Marks the operation failed unless `ok` holds.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.problem.is_none() {
            self.problem = Some(what());
        }
    }

    pub fn golden_line(&self) -> String {
        format!("{} {} {}", self.workload, self.name, self.stats)
    }
}

/// Parses golden text into `(workload, operation) -> stats`.
pub fn parse(text: &str) -> BTreeMap<(String, String), String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.splitn(3, ' ');
            Some((
                (parts.next()?.to_string(), parts.next()?.to_string()),
                parts.next().unwrap_or("").to_string(),
            ))
        })
        .collect()
}

/// The pinned value of `key` for one operation, if any.
pub fn pinned_value(golden: &str, workload: &str, op: &str, key: &str) -> Option<String> {
    let map = parse(golden);
    let stats = map.get(&(workload.to_string(), op.to_string()))?;
    stats
        .split(' ')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .map(str::to_string)
}

/// Compares every operation with its pinned line (default seed only).
pub fn check(ops: &mut [Op], seed: u64, golden: &str) {
    if seed != DEFAULT_SEED {
        return;
    }
    let map = parse(golden);
    for op in ops.iter_mut() {
        let name = op.name.clone();
        match map.get(&(op.workload.to_string(), name.clone())) {
            None => op.require(false, || format!("{name}: not pinned in golden.txt")),
            Some(want) => {
                let got = op.stats.clone();
                op.require(&got == want, || {
                    format!("{name}: got `{got}`, pinned `{want}`")
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_lines_match_and_a_perturbed_line_fails() {
        let golden = "# comment\nw op1 a=1 b=2\nw op2 c=3.5\n";
        let mut ops = vec![
            Op::new("w", "op1".into(), "a=1 b=2".into()),
            Op::new("w", "op2".into(), "c=3.5".into()),
        ];
        check(&mut ops, DEFAULT_SEED, golden);
        assert!(ops.iter().all(|o| o.problem.is_none()));
        let perturbed = golden.replace("b=2", "b=3");
        check(&mut ops, DEFAULT_SEED, &perturbed);
        assert!(ops[0].problem.is_some() && ops[1].problem.is_none());
        assert_eq!(
            pinned_value(golden, "w", "op2", "c").as_deref(),
            Some("3.5")
        );
    }

    #[test]
    fn other_seeds_skip_the_pins() {
        let mut ops = vec![Op::new("w", "op1".into(), "a=9".into())];
        check(&mut ops, DEFAULT_SEED + 1, "w op1 a=1\n");
        assert!(ops[0].problem.is_none());
    }
}
