//! A scoped worker pool with a deterministic, order-preserving `par_map`,
//! plus a supervised variant that survives panicking items.
//!
//! The experiment grid (mechanism × benchmark × scale) is embarrassingly
//! parallel, but every aggregation step in the bench layer must stay
//! bit-identical to a serial run so that reproduction verdicts do not
//! depend on the machine's core count. [`Pool::par_map`] therefore
//! guarantees that the output vector is in *input order* regardless of
//! which worker computed which element or in what order workers finished;
//! the only thing parallelism may change is wall-clock time.
//!
//! [`Pool::try_par_map`] adds *fail-soft* semantics on top: each item runs
//! under [`std::panic::catch_unwind`], failures are returned as typed
//! [`TaskFailure`] values in their input slots instead of unwinding the
//! whole sweep, transient failures are retried on a deterministic
//! [`RetryPolicy`] schedule, and every item is drained no matter how many
//! fail. `par_map` keeps a poison flag instead: a panic inside it stops the
//! remaining workers from *starting* items that are doomed to be discarded.
//!
//! The pool is std-only ([`std::thread::scope`] plus an atomic work
//! index) — the workspace builds fully offline and takes no external
//! dependencies for this.
//!
//! # Examples
//!
//! ```
//! use bp_common::pool::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.par_map(&[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```
//!
//! Fail-soft supervision:
//!
//! ```
//! use bp_common::pool::{Pool, RetryPolicy, TaskError};
//!
//! let pool = Pool::new(2);
//! let out = pool.try_par_map(
//!     &[1u64, 2, 3],
//!     &RetryPolicy::none(),
//!     |_i, &x, _attempt| {
//!         if x == 2 {
//!             Err(TaskError::fatal("unlucky item"))
//!         } else {
//!             Ok(x * 10)
//!         }
//!     },
//! );
//! assert_eq!(out[0].as_ref().ok(), Some(&10));
//! assert!(out[1].is_err());
//! assert_eq!(out[2].as_ref().ok(), Some(&30));
//! ```

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::rng::SplitMix64;
use crate::telemetry::{Observable, TelemetrySnapshot};

/// A typed, retry-aware task error for [`Pool::try_par_map`].
///
/// `transient` failures (I/O hiccups, injected disturbances that are
/// expected to clear) are retry-eligible under the sweep's [`RetryPolicy`];
/// fatal ones are recorded immediately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Human-readable description of what failed.
    pub message: String,
    /// Whether the failure is worth retrying.
    pub transient: bool,
}

impl TaskError {
    /// A retry-eligible failure.
    pub fn transient(message: impl Into<String>) -> TaskError {
        TaskError {
            message: message.into(),
            transient: true,
        }
    }

    /// A failure that no retry will fix.
    pub fn fatal(message: impl Into<String>) -> TaskError {
        TaskError {
            message: message.into(),
            transient: false,
        }
    }
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({})",
            self.message,
            if self.transient { "transient" } else { "fatal" }
        )
    }
}

/// Why one sweep item produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The task panicked; the payload is rendered to a string.
    Panic(String),
    /// The task returned a typed error.
    Error(TaskError),
    /// The item produced no result: the worker that claimed it was lost
    /// before it could store one.
    Skipped,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic(msg) => write!(f, "panicked: {msg}"),
            FailureKind::Error(e) => write!(f, "error: {e}"),
            FailureKind::Skipped => {
                write!(f, "skipped: its worker was lost before storing a result")
            }
        }
    }
}

/// A failed sweep item: which one, how hard we tried, and why it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Input-order index of the failed item.
    pub index: usize,
    /// Attempts made (0 when the item was never attempted).
    pub attempts: u32,
    /// The terminal failure.
    pub kind: FailureKind,
}

impl fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "item {} failed after {} attempt(s): {}",
            self.index, self.attempts, self.kind
        )
    }
}

/// Deterministic retry schedule for transient task failures.
///
/// Backoff delays are derived from [`SplitMix64`] seeded by `(seed, item
/// index, attempt)` — no wall-clock randomness anywhere — so two runs of
/// the same sweep retry at bit-identical delays and the retried
/// computations themselves stay reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries per item (≥ 1; 1 means "no retries").
    pub max_attempts: u32,
    /// Upper bound of the first retry's backoff, in milliseconds; later
    /// retries double the bound. Zero disables sleeping entirely.
    pub base_backoff_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Whether panics (not just transient typed errors) are retried.
    /// Useful when the panic source is an injected disturbance that is
    /// expected to clear; pointless for deterministic logic errors.
    pub retry_panics: bool,
}

impl RetryPolicy {
    /// No retries: every failure is terminal on the first attempt.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            seed: 0,
            retry_panics: false,
        }
    }

    /// The standard experiment-harness policy: up to three tries with a
    /// small deterministic backoff, panics retried.
    pub fn standard(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 2,
            seed,
            retry_panics: true,
        }
    }

    /// Backoff before retry number `attempt` (the attempt *about* to run,
    /// 2-based) of item `index`, in milliseconds. Deterministic in
    /// `(seed, index, attempt)`.
    pub fn backoff_ms(&self, index: usize, attempt: u32) -> u64 {
        if self.base_backoff_ms == 0 {
            return 0;
        }
        let exp = attempt.saturating_sub(2).min(6);
        let cap = self.base_backoff_ms << exp;
        let mut rng = SplitMix64::new(
            self.seed
                ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        // Uniform in [cap/2, cap]: bounded above, never zero-collapsed.
        cap / 2 + rng.next_below(cap / 2 + 1)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Lifetime counters a pool accumulates across every map it runs. They
/// appear in the pool's [`TelemetrySnapshot`], never in the deterministic
/// event stream.
#[derive(Debug, Default)]
struct PoolCounters {
    /// Task executions (each retry attempt counts as one execution).
    tasks: AtomicU64,
    /// Executions beyond an item's first attempt.
    retries: AtomicU64,
    /// Executions that ended in a caught panic.
    panics: AtomicU64,
}

impl PoolCounters {
    fn record(&self, attempt: u32, panicked: bool) {
        self.tasks.fetch_add(1, Ordering::Relaxed);
        if attempt > 1 {
            self.retries.fetch_add(1, Ordering::Relaxed);
        }
        if panicked {
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Outcome of supervising one item to completion (successes carry their
/// result; failures are terminal after the policy's retries).
fn supervise_item<T, R, F>(
    index: usize,
    item: &T,
    retry: &RetryPolicy,
    counters: &PoolCounters,
    f: &F,
) -> Result<R, TaskFailure>
where
    F: Fn(usize, &T, u32) -> Result<R, TaskError>,
{
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| f(index, item, attempt)));
        counters.record(attempt, outcome.is_err());
        match outcome {
            Ok(Ok(r)) => return Ok(r),
            Ok(Err(e)) => {
                if e.transient && attempt < retry.max_attempts {
                    backoff_sleep(retry, index, attempt + 1);
                    continue;
                }
                return Err(TaskFailure {
                    index,
                    attempts: attempt,
                    kind: FailureKind::Error(e),
                });
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                if retry.retry_panics && attempt < retry.max_attempts {
                    backoff_sleep(retry, index, attempt + 1);
                    continue;
                }
                return Err(TaskFailure {
                    index,
                    attempts: attempt,
                    kind: FailureKind::Panic(msg),
                });
            }
        }
    }
}

// Retry backoff is the one place the workspace intentionally blocks a
// worker thread: it runs only after a task already failed, far from any
// answer hot path.
fn backoff_sleep(retry: &RetryPolicy, index: usize, attempt: u32) {
    let ms = retry.backoff_ms(index, attempt);
    if ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A fixed-width worker pool. Cheap to construct: threads are scoped per
/// [`Pool::par_map`] call, not kept alive between calls, so a `Pool` is
/// really a validated thread count, the mapping machinery, and a shared
/// set of lifetime counters (clones share the counters, like the rest of
/// the telemetry layer's handles).
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
    counters: Arc<PoolCounters>,
}

impl Pool {
    /// A pool running `threads` workers. Zero is clamped to one: a pool
    /// that cannot make progress is never what the caller meant.
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
            counters: Arc::new(PoolCounters::default()),
        }
    }

    /// A serial pool (one worker, runs inline on the calling thread).
    pub fn serial() -> Pool {
        Pool::new(1)
    }

    /// A pool sized to the machine: [`std::thread::available_parallelism`],
    /// falling back to one worker when the capacity cannot be queried.
    pub fn machine_sized() -> Pool {
        Pool::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` on the pool's workers and returns the results
    /// **in input order**.
    ///
    /// Work is distributed dynamically (each worker grabs the next
    /// unclaimed index), so uneven item costs cannot stall the pool, and
    /// the result vector is assembled by index, so the output is
    /// bit-identical to `items.iter().map(f).collect()` for any worker
    /// count. With one worker (or fewer than two items) the map runs
    /// inline on the calling thread — no threads are spawned.
    ///
    /// # Panics
    ///
    /// Panics if `f` panics on any item (the panic is propagated to the
    /// caller once all workers have been joined). The first panic poisons
    /// the pool: other workers finish the item they are on but claim no
    /// further items, so a doomed sweep stops burning cores on results
    /// that are about to be discarded.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.threads == 1 || items.len() < 2 {
            return items
                .iter()
                .map(|item| {
                    let r = f(item);
                    self.counters.record(1, false);
                    r
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(items.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| loop {
                        if poisoned.load(Ordering::Acquire) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        // Set the poison flag at panic time (not join time)
                        // so sibling workers stop claiming immediately, then
                        // re-raise with the original payload for the join
                        // below to propagate.
                        let outcome = catch_unwind(AssertUnwindSafe(|| f(&items[i])));
                        self.counters.record(1, outcome.is_err());
                        let r = match outcome {
                            Ok(r) => r,
                            Err(payload) => {
                                poisoned.store(true, Ordering::Release);
                                std::panic::resume_unwind(payload);
                            }
                        };
                        // Worker panics resume before results are read, so
                        // even a poisoned slot's data is sound to overwrite.
                        *slots[i]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(r);
                    })
                })
                .collect();
            // Join explicitly so a worker panic surfaces with its original
            // payload (the scope's implicit join would replace it with the
            // generic "a scoped thread panicked").
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                #[expect(
                    clippy::expect_used,
                    reason = "Some by construction: the explicit joins above resume any worker panic before results are read, so every claimed slot was filled"
                )]
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("worker filled every claimed slot")
            })
            .collect()
    }

    /// Supervised, fail-soft variant of [`Pool::par_map`].
    ///
    /// Every item runs under [`std::panic::catch_unwind`]; `f` receives
    /// `(input index, item, attempt)` with `attempt` starting at 1, and
    /// returns `Ok(R)` or a typed [`TaskError`]. Transient errors (and,
    /// when the policy says so, panics) are retried up to
    /// `retry.max_attempts` times with the policy's deterministic backoff.
    /// The output vector is order-preserving and always `items.len()`
    /// long: slot `i` holds either item `i`'s result or its
    /// [`TaskFailure`].
    ///
    /// Every item is drained no matter how many fail; each failure is
    /// confined to its own slot.
    ///
    /// Never panics (short of a poisoned internal mutex, which a panic
    /// inside `f` cannot cause — `f` runs outside the slot locks).
    pub fn try_par_map<T, R, F>(
        &self,
        items: &[T],
        retry: &RetryPolicy,
        f: F,
    ) -> Vec<Result<R, TaskFailure>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, u32) -> Result<R, TaskError> + Sync,
    {
        if self.threads == 1 || items.len() < 2 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| supervise_item(i, item, retry, &self.counters, &f))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<R, TaskFailure>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(items.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = supervise_item(i, &items[i], retry, &self.counters, &f);
                    if let Ok(mut slot) = slots[i].lock() {
                        *slot = Some(r);
                    }
                });
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot.into_inner() {
                Ok(Some(r)) => r,
                // A worker died between claim and store: the item never
                // completed.
                _ => Err(TaskFailure {
                    index: i,
                    attempts: 0,
                    kind: FailureKind::Skipped,
                }),
            })
            .collect()
    }

    /// Like [`Pool::par_map`] but over an index range; convenient when the
    /// "items" are cheap to describe by position.
    pub fn par_map_indices<R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let indices: Vec<usize> = (0..count).collect();
        self.par_map(&indices, |&i| f(i))
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::machine_sized()
    }
}

impl Observable for Pool {
    /// Lifetime work counters across every map this pool (and its clones)
    /// has run.
    fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::new("pool")
            .with("threads", self.threads as u64)
            .with("tasks", self.counters.tasks.load(Ordering::Relaxed))
            .with("retries", self.counters.retries.load(Ordering::Relaxed))
            .with("panics", self.counters.panics.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::serial().threads(), 1);
    }

    #[test]
    fn machine_sized_is_positive() {
        assert!(Pool::machine_sized().threads() >= 1);
    }

    #[test]
    fn par_map_preserves_order_for_any_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9E37)).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = Pool::new(threads).par_map(&items, |x| x.wrapping_mul(0x9E37));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single_inputs() {
        let pool = Pool::new(8);
        assert_eq!(pool.par_map(&[] as &[u8], |&b| b), Vec::<u8>::new());
        assert_eq!(pool.par_map(&[7u8], |&b| b + 1), vec![8]);
    }

    #[test]
    fn par_map_indices_matches_serial() {
        let pool = Pool::new(4);
        let got = pool.par_map_indices(10, |i| i * i);
        assert_eq!(got, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        // Early items sleep longest, so a naive push-as-you-finish scheme
        // would reverse them.
        let pool = Pool::new(4);
        let got = pool.par_map_indices(8, |i| {
            std::thread::sleep(std::time::Duration::from_millis((8 - i) as u64));
            i
        });
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        Pool::new(2).par_map_indices(4, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn par_map_poison_stops_new_claims_after_panic() {
        // Regression: before the poison flag, workers kept claiming (and
        // computing) items long after a sibling had already panicked. With
        // 2 workers over 64 items where item 0 panics immediately and all
        // others sleep, only the items claimed before the poison landed can
        // ever start — nowhere near all 64.
        let started = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            Pool::new(2).par_map_indices(64, |i| {
                started.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    panic!("fatal item");
                }
                std::thread::sleep(std::time::Duration::from_millis(30));
                i
            })
        }));
        assert!(result.is_err(), "the panic must still propagate");
        let started = started.load(Ordering::SeqCst);
        assert!(
            started <= 4,
            "{started} items started after a fatal failure; poison flag not honored"
        );
    }

    #[test]
    fn try_par_map_fail_soft_drains_everything() {
        for threads in [1, 4] {
            let out = Pool::new(threads).try_par_map(
                &(0..20u64).collect::<Vec<_>>(),
                &RetryPolicy::none(),
                |_i, &x, _attempt| {
                    if x % 5 == 3 {
                        Err(TaskError::fatal(format!("bad point {x}")))
                    } else {
                        Ok(x * 2)
                    }
                },
            );
            assert_eq!(out.len(), 20);
            for (i, r) in out.iter().enumerate() {
                if i % 5 == 3 {
                    let f = r.as_ref().unwrap_err();
                    assert_eq!(f.index, i);
                    assert_eq!(f.attempts, 1);
                    assert!(matches!(&f.kind, FailureKind::Error(e) if !e.transient));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u64 * 2, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn try_par_map_catches_panics_in_their_slot() {
        let out = Pool::new(3).try_par_map(
            &(0..8u64).collect::<Vec<_>>(),
            &RetryPolicy::none(),
            |_i, &x, _attempt| {
                if x == 5 {
                    panic!("point {x} exploded");
                }
                Ok::<u64, TaskError>(x)
            },
        );
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 1);
        let f = out[5].as_ref().unwrap_err();
        assert_eq!(f.index, 5);
        assert!(matches!(&f.kind, FailureKind::Panic(m) if m.contains("point 5 exploded")));
    }

    #[test]
    fn transient_errors_are_retried_to_success() {
        let calls = AtomicUsize::new(0);
        let out = Pool::serial().try_par_map(
            &[7u64],
            &RetryPolicy {
                max_attempts: 3,
                base_backoff_ms: 0,
                seed: 1,
                retry_panics: false,
            },
            |_i, &x, attempt| {
                calls.fetch_add(1, Ordering::SeqCst);
                if attempt < 3 {
                    Err(TaskError::transient("not yet"))
                } else {
                    Ok(x)
                }
            },
        );
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(*out[0].as_ref().unwrap(), 7);
    }

    #[test]
    fn exhausted_retries_report_attempt_count() {
        let out = Pool::serial().try_par_map(
            &[1u64],
            &RetryPolicy {
                max_attempts: 3,
                base_backoff_ms: 0,
                seed: 1,
                retry_panics: true,
            },
            |_i, _x, _attempt| Err::<u64, _>(TaskError::transient("always down")),
        );
        let f = out[0].as_ref().unwrap_err();
        assert_eq!(f.attempts, 3);
        assert!(matches!(&f.kind, FailureKind::Error(e) if e.transient));
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let calls = AtomicUsize::new(0);
        let _ =
            Pool::serial().try_par_map(&[1u64], &RetryPolicy::standard(9), |_i, _x, _attempt| {
                calls.fetch_add(1, Ordering::SeqCst);
                Err::<u64, _>(TaskError::fatal("no point retrying"))
            });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let p = RetryPolicy::standard(42);
        let q = RetryPolicy::standard(42);
        for index in [0usize, 3, 17] {
            for attempt in 2..6u32 {
                let a = p.backoff_ms(index, attempt);
                let b = q.backoff_ms(index, attempt);
                assert_eq!(a, b, "schedule must replay bit-identically");
                let cap = p.base_backoff_ms << attempt.saturating_sub(2).min(6);
                assert!(
                    a >= cap / 2 && a <= cap,
                    "backoff {a} outside [{}, {cap}]",
                    cap / 2
                );
            }
        }
        assert_eq!(RetryPolicy::none().backoff_ms(5, 2), 0);
    }

    #[test]
    fn try_par_map_matches_par_map_on_clean_sweeps() {
        let items: Vec<u64> = (0..33).collect();
        let plain = Pool::new(4).par_map(&items, |&x| x.wrapping_mul(0x51_7C));
        let supervised =
            Pool::new(4).try_par_map(&items, &RetryPolicy::none(), |_i, &x, _attempt| {
                Ok::<u64, TaskError>(x.wrapping_mul(0x51_7C))
            });
        let supervised: Vec<u64> = supervised.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(plain, supervised);
    }

    #[test]
    fn snapshot_counts_tasks_retries_and_panics() {
        let pool = Pool::new(2);
        let _ = pool.par_map_indices(5, |i| i);
        let _ = pool.try_par_map(
            &[1u64, 2],
            &RetryPolicy {
                max_attempts: 2,
                base_backoff_ms: 0,
                seed: 0,
                retry_panics: true,
            },
            |_i, &x, attempt| {
                if x == 2 && attempt == 1 {
                    panic!("first attempt dies");
                }
                Ok::<u64, TaskError>(x)
            },
        );
        let snap = pool.snapshot();
        assert_eq!(snap.scope, "pool");
        assert_eq!(snap.get("threads"), 2);
        // 5 plain items + item 1 (one attempt) + item 2 (two attempts).
        assert_eq!(snap.get("tasks"), 8);
        assert_eq!(snap.get("retries"), 1);
        assert_eq!(snap.get("panics"), 1);
        // Clones share counters.
        assert_eq!(pool.clone().snapshot().get("tasks"), 8);
    }

    #[test]
    fn worker_panic_during_pool_shutdown_joins_cleanly() {
        // Shutdown ordering: a worker panicking while the map (and with it
        // the pool's thread scope) is tearing down must never deadlock the
        // explicit joins or abort the process. The panic payload must come
        // back verbatim, the poison flag must have cut further claims, and
        // the pool must remain fully usable afterwards — the scoped
        // workers are provably gone, so dropping the pool is a no-op.
        let pool = Pool::new(4);
        let started = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |&i| {
                started.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    panic!("teardown panic");
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
                i
            })
        }));
        let payload = result.expect_err("the worker panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert_eq!(
            msg, "teardown panic",
            "original payload must survive the explicit joins"
        );
        let started = started.load(Ordering::SeqCst);
        assert!(
            started < items.len(),
            "{started}/{} items started: poison flag did not stop claims during shutdown",
            items.len()
        );
        assert_eq!(pool.snapshot().get("panics"), 1);
        // Clean join: every scoped worker is gone, so the same pool value
        // runs a fresh map correctly and then drops without hanging.
        let again = pool.par_map(&items, |&i| i * 2);
        assert_eq!(again, items.iter().map(|&i| i * 2).collect::<Vec<_>>());
        drop(pool);
    }
}
