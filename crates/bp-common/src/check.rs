//! A tiny deterministic property-check harness.
//!
//! The workspace must build and test with zero network access, so it cannot
//! depend on an external property-testing crate. This module provides the
//! small subset the test suites need: run a closure over many
//! pseudo-randomly generated cases, deterministically from a fixed seed, and
//! report the failing case's seed on panic so it can be replayed in
//! isolation.
//!
//! Unlike a full property-testing framework there is no shrinking; cases are
//! small by construction instead.
//!
//! # Examples
//!
//! ```
//! use bp_common::check::Checker;
//!
//! Checker::new("addition commutes").run(|g| {
//!     let (a, b) = (g.u64(), g.u64());
//!     assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//! });
//! ```
//!
//! To replay a single failing case, set `BP_CHECK_SEED` to the seed printed
//! in the failure message; the harness then runs only that case.

use crate::rng::SplitMix64;

/// Default number of cases per property.
pub const DEFAULT_CASES: u64 = 64;

/// Runs a property over many deterministic pseudo-random cases.
#[derive(Debug)]
pub struct Checker {
    name: &'static str,
    cases: u64,
    seed: u64,
}

/// Per-case value generator handed to the property closure.
#[derive(Debug)]
pub struct Gen {
    rng: SplitMix64,
}

impl Gen {
    /// A generator seeded for one case.
    pub fn from_seed(seed: u64) -> Self {
        Gen {
            rng: SplitMix64::new(seed),
        }
    }

    /// A uniform 64-bit value.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A uniform value in `[lo, hi)`. Empty ranges yield `lo`.
    pub fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.rng.next_below(hi - lo)
    }

    /// A uniform `usize` in `[lo, hi)`. Empty ranges yield `lo`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.in_range(lo as u64, hi as u64) as usize
    }

    /// A uniform `u32` in `[lo, hi)`. Empty ranges yield `lo`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.in_range(u64::from(lo), u64::from(hi)) as u32
    }

    /// A fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.next_f64() * (hi - lo)
    }

    /// A vector of `len` values drawn by `f`.
    pub fn vec<T>(&mut self, len: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..len).map(|_| f(self)).collect()
    }

    /// One element of a non-empty slice, by copy.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        assert!(!options.is_empty(), "pick needs at least one option");
        options[self.usize_in(0, options.len())]
    }
}

/// Prints replay instructions if the case panics (i.e. if the guard is
/// dropped while still armed).
struct FailureReport {
    name: &'static str,
    case: u64,
    seed: u64,
    armed: bool,
}

impl Drop for FailureReport {
    fn drop(&mut self) {
        if self.armed {
            eprintln!(
                "property '{}' failed at case {} (seed {:#x}); \
                 replay with BP_CHECK_SEED={:#x}",
                self.name, self.case, self.seed, self.seed
            );
        }
    }
}

impl Checker {
    /// A checker with [`DEFAULT_CASES`] cases and a seed derived from the
    /// property name (so distinct properties explore distinct cases).
    pub fn new(name: &'static str) -> Self {
        let seed = name.bytes().fold(0xBADC_0FFE_E0DD_F00Du64, |acc, b| {
            acc.rotate_left(8) ^ u64::from(b) ^ acc.wrapping_mul(31)
        });
        Checker {
            name,
            cases: DEFAULT_CASES,
            seed,
        }
    }

    /// Overrides the number of cases.
    pub fn cases(mut self, cases: u64) -> Self {
        self.cases = cases.max(1);
        self
    }

    /// Runs the property over all cases. If `BP_CHECK_SEED` is set, runs only
    /// that one case (replay mode).
    ///
    /// # Panics
    ///
    /// Propagates the property's panic, after printing the failing case's
    /// seed to stderr.
    pub fn run(self, mut property: impl FnMut(&mut Gen)) {
        if let Some(seed) = replay_seed() {
            let mut report = FailureReport {
                name: self.name,
                case: 0,
                seed,
                armed: true,
            };
            property(&mut Gen::from_seed(seed));
            report.armed = false;
            return;
        }
        let mut seeder = SplitMix64::new(self.seed);
        for case in 0..self.cases {
            let case_seed = seeder.next_u64();
            let mut report = FailureReport {
                name: self.name,
                case,
                seed: case_seed,
                armed: true,
            };
            property(&mut Gen::from_seed(case_seed));
            report.armed = false;
        }
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "BP_CHECK_SEED is an explicit operator replay knob; unset in normal runs, and the chosen seed is echoed into the failure report"
)]
fn replay_seed() -> Option<u64> {
    let raw = std::env::var("BP_CHECK_SEED").ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    parsed.ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut first = Vec::new();
        Checker::new("det").cases(5).run(|g| first.push(g.u64()));
        let mut second = Vec::new();
        Checker::new("det").cases(5).run(|g| second.push(g.u64()));
        assert_eq!(first, second);
        assert_eq!(first.len(), 5);
    }

    #[test]
    fn distinct_names_give_distinct_streams() {
        let mut a = Vec::new();
        Checker::new("stream-a").cases(3).run(|g| a.push(g.u64()));
        let mut b = Vec::new();
        Checker::new("stream-b").cases(3).run(|g| b.push(g.u64()));
        assert_ne!(a, b);
    }

    #[test]
    fn ranges_are_respected() {
        Checker::new("ranges").cases(200).run(|g| {
            let v = g.in_range(10, 20);
            assert!((10..20).contains(&v));
            let u = g.usize_in(3, 4);
            assert_eq!(u, 3);
            assert_eq!(g.in_range(7, 7), 7, "empty range yields lo");
            let f = g.f64_in(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
            let p = g.pick(&[1, 2, 3]);
            assert!((1..=3).contains(&p));
        });
    }

    #[test]
    fn vec_has_requested_length() {
        Checker::new("vec-len").cases(10).run(|g| {
            let len = g.usize_in(0, 17);
            let v = g.vec(len, Gen::bool);
            assert_eq!(v.len(), len);
        });
    }
}
