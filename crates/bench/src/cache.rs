//! Per-process memo of simulated points.
//!
//! Table I, Figs. 5–8 and Table VI all normalise against the same
//! baseline and no-switch runs, so one `bench_all` process would otherwise
//! simulate many points more than once. This memo holds each simulated
//! run's whole [`RunMetrics`], with the telemetry events its sink captured,
//! under its point's description — the
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
//!   reproduces the computing run *bit-exactly*, and its events: the
//!   caller hands a hit's events to the telemetry hub as a miss's, so an
//!   export does not depend on which lookup simulated.
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

use bp_common::TelemetryEvent;
use bp_pipeline::RunMetrics;

/// Lookup counters of one memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that simulated (the key was absent).
    pub misses: u64,
    /// Distinct points held.
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

/// One memo entry: a simulated run and what its telemetry sink captured.
#[derive(Debug, Clone)]
pub struct Recorded {
    /// The run.
    pub run: Arc<RunMetrics>,
    /// The events the run emitted, drained from its sink (none when
    /// telemetry capture is off).
    pub events: Arc<[TelemetryEvent]>,
    /// Events the run's sink lost to ring overflow.
    pub dropped: u64,
}

type Entries = BTreeMap<String, Recorded>;

/// The in-process point memo, shared by reference across worker threads.
/// [`crate::Ctx`] owns one.
#[derive(Debug, Default)]
pub struct ModelCache {
    /// Recorded runs by point description.
    entries: Mutex<Entries>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ModelCache {
    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            points: lock(&self.entries).len() as u64,
        }
    }

    /// Returns the run memoised under `key`, or runs `compute` and
    /// memoises its result. `compute` must be a pure function of the
    /// point `key` describes — that is the caller's half of the
    /// determinism contract. The lock is never held while computing.
    pub fn get_or_compute<F>(&self, key: &str, compute: F) -> Recorded
    where
        F: FnOnce() -> Recorded,
    {
        if let Some(recorded) = lock(&self.entries).get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return recorded.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let recorded = compute();
        lock(&self.entries)
            .entry(key.to_owned())
            .or_insert(recorded)
            .clone()
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
    fn run(cycles: u64) -> Recorded {
        Recorded {
            run: Arc::new(RunMetrics {
                threads: Vec::new(),
                cycles,
                bpu: BpuStats::default(),
                stages: StageCycles::default(),
                stream_digests: Vec::new(),
            }),
            events: Arc::new([]),
            dropped: 0,
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let cache = ModelCache::default();
        let first = cache.get_or_compute("x=1", || run(7));
        let second = cache.get_or_compute("x=1", || panic!("must hit"));
        assert!(
            Arc::ptr_eq(&first.run, &second.run) && Arc::ptr_eq(&first.events, &second.events),
            "a hit is the stored run"
        );
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
        let cache = ModelCache::default();
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
                .map(|w| w.join().unwrap().run.cycles)
                .collect()
        });
        assert!(seen.iter().all(|&v| v == seen[0]), "{seen:?}");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.points), (0, 8, 1), "8 runs, 1 point");
        let stored = cache.get_or_compute("x=c", || panic!("must hit"));
        assert_eq!(stored.run.cycles, seen[0]);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = ModelCache::default();
        assert_eq!(cache.get_or_compute("Baseline", || run(1)).run.cycles, 1);
        assert_eq!(cache.get_or_compute("Flush", || run(2)).run.cycles, 2);
        assert_eq!(cache.stats().points, 2);
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
