//! Per-process memo for simulation-derived model points.
//!
//! Table I, Figs. 5–8 and Table VI all normalise against the same
//! baseline and per-benchmark overhead points, so one `bench_all` process
//! would otherwise simulate many points more than once. This memo stores
//! each derived point under its full key description — the mechanism
//! (including its embedded configuration), the benchmark, the scale and
//! the exact [`SimConfig`]-level parameters — so a point computed once
//! (by any experiment, on any thread) is reused by every later lookup in
//! the same process.
//!
//! # Correctness contract
//!
//! * Nothing outlives the process, so an entry can never be stale against
//!   the code that computed it.
//! * Values are the computed `f64`s themselves, so a hit reproduces the
//!   computing run *bit-exactly*.
//! * The first writer of a key wins, and every caller gets the stored
//!   value. Values are deterministic, so two workers racing on one key
//!   cost a duplicate computation, never a different number.
//! * A lookup never waits on an in-flight computation: the lock is held
//!   only to read or insert, so a point wedged under a deadline cannot
//!   hang later lookups.
//!
//! [`SimConfig`]: bp_pipeline::SimConfig

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use bp_common::telemetry::{Observable, TelemetrySnapshot};

/// A fully-described memo key. Construct with [`CacheKey::new`], folding
/// in every input that can influence the memoised value via
/// [`CacheKey::with`].
#[derive(Debug, Clone)]
pub struct CacheKey {
    descr: String,
}

impl CacheKey {
    /// Starts a key of the given `kind` (e.g. `"model"`, `"smt_point"`).
    pub fn new(kind: &'static str) -> CacheKey {
        CacheKey {
            descr: kind.to_owned(),
        }
    }

    /// Folds one named component into the key. Use `Debug`-stable
    /// renderings for structured inputs (`format_args!("{v:?}")`): every
    /// configuration field must end up in the string, or two distinct
    /// experiment points could alias.
    pub fn with(mut self, name: &str, value: std::fmt::Arguments<'_>) -> CacheKey {
        let _ = write!(self.descr, "|{name}={value}");
        self
    }

    /// The full human-readable key string the memo is keyed by.
    pub fn descr(&self) -> &str {
        &self.descr
    }
}

/// Hit/miss counters of one memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that computed (absent key, or memo off).
    pub misses: u64,
}

impl CacheStats {
    /// Hits over total lookups, zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The in-process model-point memo, shared by reference across worker
/// threads. [`crate::Ctx`] owns one; telemetry capture
/// ([`crate::Ctx::with_telemetry_dir`]) is the only thing that turns it
/// off.
#[derive(Debug)]
pub struct ModelCache {
    /// Memoised values by [`CacheKey::descr`]; `None` when the memo is off.
    entries: Option<Mutex<BTreeMap<String, Vec<f64>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ModelCache {
    /// An empty memo; with `enabled = false` it stores nothing and every
    /// lookup computes.
    pub(crate) fn new(enabled: bool) -> ModelCache {
        ModelCache {
            entries: enabled.then(Mutex::default),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether lookups may be served from the memo.
    pub fn is_enabled(&self) -> bool {
        self.entries.is_some()
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Returns the memoised values for `key`, or computes them with
    /// `compute` and memoises them. `compute` must be a pure function of
    /// the key's components — that is the caller's half of the
    /// determinism contract. The lock is never held while computing.
    pub fn get_or_compute<F>(&self, key: &CacheKey, compute: F) -> Vec<f64>
    where
        F: FnOnce() -> Vec<f64>,
    {
        let Some(entries) = &self.entries else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return compute();
        };
        if let Some(vals) = lock(entries).get(key.descr()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return vals.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let vals = compute();
        lock(entries)
            .entry(key.descr().to_owned())
            .or_insert(vals)
            .clone()
    }

    /// Single-value convenience over [`ModelCache::get_or_compute`].
    pub fn get_or_compute_one<F>(&self, key: &CacheKey, compute: F) -> f64
    where
        F: FnOnce() -> f64,
    {
        self.get_or_compute(key, || vec![compute()])[0]
    }
}

/// Locks the memo. No code panics while holding the lock (computation
/// runs outside it), so a poisoned lock still guards a consistent map.
fn lock(entries: &Mutex<BTreeMap<String, Vec<f64>>>) -> MutexGuard<'_, BTreeMap<String, Vec<f64>>> {
    entries.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Observable for ModelCache {
    /// Counters under scope `"cache"`.
    fn snapshot(&self) -> TelemetrySnapshot {
        let s = self.stats();
        TelemetrySnapshot::new("cache")
            .with("enabled", u64::from(self.is_enabled()))
            .with("hits", s.hits)
            .with("misses", s.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_count(cache: &ModelCache) -> usize {
        cache.entries.as_ref().map_or(0, |e| lock(e).len())
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let cache = ModelCache::new(true);
        let key = CacheKey::new("test").with("x", format_args!("1"));
        let vals = vec![0.1 + 0.2, f64::MIN_POSITIVE, -0.0, 1.0e300];
        let first = cache.get_or_compute(&key, || vals.clone());
        let second = cache.get_or_compute(&key, || panic!("must hit"));
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn concurrent_same_key_stores_leave_one_valid_entry() {
        // The barrier holds every computation until all 8 threads have
        // looked the key up and missed, so all 8 compute (a lookup that
        // waited on an in-flight key would deadlock here). Each computes
        // a different value, so "same bits everywhere" shows that the
        // first writer's entry is the one every caller gets.
        const THREADS: usize = 8;
        let cache = ModelCache::new(true);
        let key = CacheKey::new("test").with("x", format_args!("c"));
        let barrier = std::sync::Barrier::new(THREADS);
        let seen: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|i| {
                    let (cache, key, barrier) = (&cache, &key, &barrier);
                    scope.spawn(move || {
                        cache.get_or_compute_one(key, || {
                            barrier.wait();
                            i as f64
                        })
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap().to_bits())
                .collect()
        });
        assert!(seen.iter().all(|&v| v == seen[0]), "{seen:?}");
        assert_eq!(entry_count(&cache), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 8 });
        let stored = cache.get_or_compute_one(&key, || panic!("must hit"));
        assert_eq!(stored.to_bits(), seen[0]);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let a = CacheKey::new("model").with("mech", format_args!("Baseline"));
        let b = CacheKey::new("model").with("mech", format_args!("Flush"));
        assert_ne!(a.descr(), b.descr());
        let cache = ModelCache::new(true);
        assert_eq!(cache.get_or_compute_one(&a, || 1.0), 1.0);
        assert_eq!(cache.get_or_compute_one(&b, || 2.0), 2.0);
        assert_eq!(entry_count(&cache), 2);
    }

    #[test]
    fn disabled_cache_never_hits_or_writes() {
        let cache = ModelCache::new(false);
        let key = CacheKey::new("test").with("x", format_args!("3"));
        assert_eq!(cache.get_or_compute_one(&key, || 5.0), 5.0);
        assert_eq!(cache.get_or_compute_one(&key, || 6.0), 6.0);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        assert_eq!(entry_count(&cache), 0);
    }

    #[test]
    fn hit_rate_bounds() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats { hits: 3, misses: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn snapshot_mirrors_stats() {
        let cache = ModelCache::new(false);
        let key = CacheKey::new("test").with("x", format_args!("9"));
        let _ = cache.get_or_compute_one(&key, || 1.0);
        let snap = cache.snapshot();
        assert_eq!(snap.scope, "cache");
        assert_eq!(snap.get("enabled"), 0);
        assert_eq!(snap.get("misses"), 1);
        assert_eq!(snap.get("hits"), 0);
    }
}
