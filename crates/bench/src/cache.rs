//! Per-process memo of simulated points.
//!
//! Table I, Figs. 5–8 and Table VI all normalise against the same
//! baseline and no-switch runs, so one `bench_all` process would otherwise
//! simulate many points more than once. This memo holds each simulated
//! run's whole [`RunMetrics`] under its point's description — the
//! `Debug` text of a [`crate::Point`], which spells out the mechanism
//! (including its embedded configuration), the workload and the exact
//! [`SimConfig`](bp_pipeline::SimConfig) — so a run made once (by any
//! experiment, on any thread) serves every later lookup of that point in
//! the same process. [`crate::Ctx::point`] is its one caller.
//!
//! # Correctness contract
//!
//! * Nothing outlives the process, so an entry can never be stale against
//!   the code that computed it.
//! * Entries are the runs themselves, shared behind an [`Arc`], so a hit
//!   reproduces the computing run *bit-exactly*.
//! * The first writer of a key wins, and every caller gets the stored
//!   run. Runs are deterministic, so two workers racing on one key cost a
//!   duplicate simulation, never a different number; `misses − points`
//!   counts those duplicates.
//! * A lookup never waits on an in-flight computation: the lock is held
//!   only to read or insert, so a point wedged under a deadline cannot
//!   hang later lookups.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bp_pipeline::RunMetrics;

/// Lookup counters of one memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that simulated (absent key, or memo off).
    pub misses: u64,
    /// Distinct points held (0 when the memo is off).
    pub points: u64,
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

type Entries = BTreeMap<String, Arc<RunMetrics>>;

/// The in-process point memo, shared by reference across worker threads.
/// [`crate::Ctx`] owns one; telemetry capture
/// ([`crate::Ctx::with_telemetry_dir`]) is the only thing that turns it
/// off.
#[derive(Debug)]
pub struct ModelCache {
    /// Runs by point description; `None` when the memo is off.
    entries: Option<Mutex<Entries>>,
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
            points: self.entries.as_ref().map_or(0, |e| lock(e).len() as u64),
        }
    }

    /// Returns the run memoised under `key`, or runs `compute` and
    /// memoises its result. `compute` must be a pure function of the
    /// point `key` describes — that is the caller's half of the
    /// determinism contract. The lock is never held while computing.
    pub fn get_or_compute<F>(&self, key: &str, compute: F) -> Arc<RunMetrics>
    where
        F: FnOnce() -> RunMetrics,
    {
        let Some(entries) = &self.entries else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(compute());
        };
        if let Some(run) = lock(entries).get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(run);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let run = Arc::new(compute());
        Arc::clone(lock(entries).entry(key.to_owned()).or_insert(run))
    }
}

/// Locks the memo. No code panics while holding the lock (computation
/// runs outside it), so a poisoned lock still guards a consistent map.
fn lock(entries: &Mutex<Entries>) -> MutexGuard<'_, Entries> {
    entries.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_pipeline::StageCycles;
    use hybp::BpuStats;

    /// A hand-built run told apart by its cycle count alone.
    fn run(cycles: u64) -> RunMetrics {
        RunMetrics {
            threads: Vec::new(),
            cycles,
            bpu: BpuStats::default(),
            stages: StageCycles::default(),
            stream_digests: Vec::new(),
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let cache = ModelCache::new(true);
        let first = cache.get_or_compute("x=1", || run(7));
        let second = cache.get_or_compute("x=1", || panic!("must hit"));
        assert!(Arc::ptr_eq(&first, &second), "a hit is the stored run");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.points), (1, 1, 1));
    }

    #[test]
    fn concurrent_same_key_stores_leave_one_valid_entry() {
        // The barrier holds every computation until all 8 threads have
        // looked the key up and missed, so all 8 compute (a lookup that
        // waited on an in-flight key would deadlock here). Each computes
        // a different run, so "same run everywhere" shows that the first
        // writer's entry is the one every caller gets.
        const THREADS: usize = 8;
        let cache = ModelCache::new(true);
        let barrier = std::sync::Barrier::new(THREADS);
        let seen: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|i| {
                    let (cache, barrier) = (&cache, &barrier);
                    scope.spawn(move || {
                        cache.get_or_compute("x=c", || {
                            barrier.wait();
                            run(i as u64)
                        })
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap().cycles)
                .collect()
        });
        assert!(seen.iter().all(|&v| v == seen[0]), "{seen:?}");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.points), (0, 8, 1), "8 runs, 1 point");
        let stored = cache.get_or_compute("x=c", || panic!("must hit"));
        assert_eq!(stored.cycles, seen[0]);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = ModelCache::new(true);
        assert_eq!(cache.get_or_compute("Baseline", || run(1)).cycles, 1);
        assert_eq!(cache.get_or_compute("Flush", || run(2)).cycles, 2);
        assert_eq!(cache.stats().points, 2);
    }

    #[test]
    fn disabled_cache_never_hits_or_writes() {
        let cache = ModelCache::new(false);
        assert_eq!(cache.get_or_compute("x=3", || run(5)).cycles, 5);
        assert_eq!(cache.get_or_compute("x=3", || run(6)).cycles, 6);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.points), (0, 2, 0));
    }

    #[test]
    fn hit_rate_bounds() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats {
            hits: 3,
            misses: 1,
            points: 1,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
