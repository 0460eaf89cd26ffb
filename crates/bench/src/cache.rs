//! Content-addressed on-disk cache for simulation-derived model points.
//!
//! Every experiment re-derives the same `(mechanism, benchmark, scale)`
//! overhead models and throughput points from scratch; a full
//! suite run repeats the expensive baseline simulations up to fifteen
//! times. This cache stores each derived point under a stable hash of
//! everything that determines it — the mechanism (including its full
//! embedded configuration), the benchmark, the scale, the exact
//! [`SimConfig`]-level parameters, and a code-version salt — so a point
//! computed once (by any experiment, on any thread) is reused everywhere.
//!
//! # Correctness contract
//!
//! * Values are stored as IEEE-754 bit patterns (hex `u64`), so a cache
//!   hit reproduces the cold-run value *bit-exactly*: warm and cold runs
//!   emit byte-identical CSVs.
//! * Every entry embeds its full (pre-hash) key string; a load whose
//!   embedded key differs from the requested key (hash collision, stale
//!   layout) is treated as a miss.
//! * Any unreadable, truncated, corrupt or wrong-version entry is a
//!   miss — a bad cache file means *recompute*, never a wrong number.
//! * Bumping [`CODE_SALT`] invalidates every existing entry; do so
//!   whenever a change to the simulator or workloads can alter results.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bp_common::telemetry::{Observable, TelemetrySnapshot};

/// Format marker on the first line of every cache file.
const MAGIC: &str = "hybp-model-cache v1";

/// Code-version salt folded into every key. Bump when simulator,
/// workload-generation or mechanism semantics change in a way that can
/// alter any cached number.
pub const CODE_SALT: &str = "hybp-sim-2026-08-pr2";

/// Default on-disk location, relative to the workspace root (`bench_all`
/// runs from there, like the `results/*.csv` writers).
pub const DEFAULT_DIR: &str = "results/cache";

/// FNV-1a 64-bit over `bytes`; stable across platforms and runs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fully-described cache key. Construct with [`CacheKey::new`], folding
/// in every input that can influence the cached value via
/// [`CacheKey::with`].
#[derive(Debug, Clone)]
pub struct CacheKey {
    kind: &'static str,
    descr: String,
}

impl CacheKey {
    /// Starts a key of the given `kind` (e.g. `"model"`, `"smt_thr"`).
    /// The code-version salt is always included.
    pub fn new(kind: &'static str) -> CacheKey {
        CacheKey {
            kind,
            descr: format!("{kind}|salt={CODE_SALT}"),
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

    /// The full human-readable key string (embedded in the entry file and
    /// verified on load).
    pub fn descr(&self) -> &str {
        &self.descr
    }

    /// Content-addressed file name for this key.
    fn file_name(&self) -> String {
        format!("{}-{:016x}.txt", self.kind, fnv1a(self.descr.as_bytes()))
    }
}

/// Hit/miss and failure counters of one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Entries computed (absent, corrupt, or caching disabled).
    pub misses: u64,
    /// Entry writes that failed (directory creation, tmp write, or
    /// rename). The computed value is still returned — a store failure
    /// costs reuse, never correctness — but it is counted here so the
    /// suite report can surface a cache that has stopped persisting.
    pub store_failures: u64,
    /// Corrupt or stale entries moved to the `quarantine/` subdirectory
    /// instead of being silently overwritten.
    pub quarantined: u64,
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

/// Subdirectory (inside the cache directory) holding quarantined
/// entries.
pub const QUARANTINE_SUBDIR: &str = "quarantine";

/// Process-wide sequence number folded into tmp-file and quarantine
/// names. The pid alone is not enough: two threads of the same process
/// storing the same key would race on one tmp path, and a rename could
/// publish a half-written file.
static NAME_SEQ: AtomicU64 = AtomicU64::new(0);

/// How one cache lookup resolved.
enum LoadOutcome {
    /// Valid entry on disk.
    Hit(Vec<f64>),
    /// No entry (or caching disabled) — a plain miss.
    Absent,
    /// An entry existed but was corrupt, truncated, wrong-version or
    /// stale-keyed; it has been moved to quarantine.
    Invalid,
}

/// The on-disk model cache. Cheap to share by reference across worker
/// threads: lookups hold no lock (writes go through a temp-file rename,
/// so concurrent writers of the same key are both valid).
#[derive(Debug)]
pub struct ModelCache {
    dir: PathBuf,
    enabled: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    store_failures: AtomicU64,
    quarantined: AtomicU64,
}

impl ModelCache {
    /// A cache rooted at `dir`. With `enabled = false` every lookup is a
    /// miss and nothing is written (the `--no-cache` path).
    pub fn at_dir(dir: impl Into<PathBuf>, enabled: bool) -> ModelCache {
        ModelCache {
            dir: dir.into(),
            enabled,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The standard cache under [`DEFAULT_DIR`].
    pub fn standard(enabled: bool) -> ModelCache {
        ModelCache::at_dir(DEFAULT_DIR, enabled)
    }

    /// Whether lookups may be served from disk.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            store_failures: self.store_failures.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// The quarantine directory for this cache.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE_SUBDIR)
    }

    /// [`Observable`] counters (scope `"cache"`).
    fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let s = self.stats();
        TelemetrySnapshot::new("cache")
            .with("enabled", u64::from(self.is_enabled()))
            .with("hits", s.hits)
            .with("misses", s.misses)
            .with("store_failures", s.store_failures)
            .with("quarantined", s.quarantined)
    }

    /// Returns the cached values for `key`, or computes them with
    /// `compute`, stores them, and returns them. `compute` must be a pure
    /// function of the key's components — that is the caller's half of
    /// the determinism contract.
    pub fn get_or_compute<F>(&self, key: &CacheKey, compute: F) -> Vec<f64>
    where
        F: FnOnce() -> Vec<f64>,
    {
        match self.load(key) {
            LoadOutcome::Hit(vals) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return vals;
            }
            LoadOutcome::Absent | LoadOutcome::Invalid => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let vals = compute();
        self.store(key, &vals);
        vals
    }

    /// Single-value convenience over [`ModelCache::get_or_compute`].
    pub fn get_or_compute_one<F>(&self, key: &CacheKey, compute: F) -> f64
    where
        F: FnOnce() -> f64,
    {
        self.get_or_compute(key, || vec![compute()])[0]
    }

    /// Loads and validates an entry. A missing file is a plain miss; a
    /// present-but-invalid file (corrupt, truncated, wrong version, stale
    /// key) is quarantined and counted, then treated as a miss — a bad
    /// cache file means *recompute*, never a wrong number, and the
    /// evidence is preserved instead of silently overwritten.
    fn load(&self, key: &CacheKey) -> LoadOutcome {
        if !self.enabled {
            return LoadOutcome::Absent;
        }
        let path = self.dir.join(key.file_name());
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Absent,
            // Present but unreadable as text (e.g. binary garbage).
            Err(_) => {
                self.quarantine(&path);
                return LoadOutcome::Invalid;
            }
        };
        match parse_entry(&text, key) {
            Some(vals) => LoadOutcome::Hit(vals),
            None => {
                self.quarantine(&path);
                LoadOutcome::Invalid
            }
        }
    }

    /// Moves a bad entry into the quarantine subdirectory under a unique
    /// name. Best-effort: if the move itself fails the entry is left in
    /// place (the next store will replace it) and nothing is counted.
    fn quarantine(&self, path: &Path) {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            return;
        };
        let qdir = self.quarantine_dir();
        if std::fs::create_dir_all(&qdir).is_err() {
            return;
        }
        let dest = qdir.join(format!(
            "{name}.{}-{}",
            std::process::id(),
            NAME_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::rename(path, &dest).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Writes an entry via temp-file + rename so readers never observe a
    /// partial file. The tmp name carries both the pid and a process-wide
    /// counter: same-process threads storing one key concurrently get
    /// distinct tmp files, so a rename can only ever publish a complete
    /// entry. Failures cost reuse, not correctness, but are counted in
    /// [`CacheStats::store_failures`] for the suite report.
    fn store(&self, key: &CacheKey, vals: &[f64]) {
        if !self.enabled {
            return;
        }
        if std::fs::create_dir_all(&self.dir).is_err() {
            self.store_failures.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut body = format!("{MAGIC}\nkey {}\nvals", key.descr());
        for v in vals {
            let _ = write!(body, " {:016x}", v.to_bits());
        }
        body.push_str("\nend\n");
        let target = self.dir.join(key.file_name());
        let tmp = self.dir.join(format!(
            "{}.tmp{}.{}",
            key.file_name(),
            std::process::id(),
            NAME_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, body).is_err() {
            self.store_failures.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if std::fs::rename(&tmp, &target).is_err() {
            self.store_failures.fetch_add(1, Ordering::Relaxed);
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

impl Observable for ModelCache {
    fn snapshot(&self) -> TelemetrySnapshot {
        self.telemetry_snapshot()
    }
}

/// Parses one entry body against its expected key; `None` on any
/// irregularity.
fn parse_entry(text: &str, key: &CacheKey) -> Option<Vec<f64>> {
    let mut lines = text.lines();
    if lines.next()? != MAGIC {
        return None;
    }
    let key_line = lines.next()?;
    if key_line.strip_prefix("key ")? != key.descr() {
        return None;
    }
    let vals_line = lines.next()?.strip_prefix("vals")?;
    let mut vals = Vec::new();
    for tok in vals_line.split_whitespace() {
        vals.push(f64::from_bits(u64::from_str_radix(tok, 16).ok()?));
    }
    if lines.next() != Some("end") {
        return None; // truncated mid-write
    }
    Some(vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cache(tag: &str) -> ModelCache {
        let dir =
            std::env::temp_dir().join(format!("hybp-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ModelCache::at_dir(dir, true)
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let cache = tmp_cache("roundtrip");
        let key = CacheKey::new("test").with("x", format_args!("1"));
        let vals = vec![0.1 + 0.2, f64::MIN_POSITIVE, -0.0, 1.0e300];
        let first = cache.get_or_compute(&key, || vals.clone());
        let second = cache.get_or_compute(&key, || panic!("must hit"));
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entry_means_recompute() {
        let cache = tmp_cache("corrupt");
        let key = CacheKey::new("test").with("x", format_args!("2"));
        cache.get_or_compute(&key, || vec![42.0]);
        // Truncate / garble every file in the dir.
        for entry in std::fs::read_dir(cache.dir()).unwrap() {
            std::fs::write(entry.unwrap().path(), "hybp-model-cache v1\nkey zzz").unwrap();
        }
        let again = cache.get_or_compute(&key, || vec![42.0]);
        assert_eq!(again, vec![42.0]);
        assert_eq!(cache.stats().misses, 2);
        // The corrupt file was preserved for inspection, not destroyed.
        assert_eq!(cache.stats().quarantined, 1);
        assert_eq!(
            std::fs::read_dir(cache.quarantine_dir()).unwrap().count(),
            1
        );
        // The recomputed entry is valid again.
        assert_eq!(cache.get_or_compute(&key, || vec![0.0]), vec![42.0]);
        assert_eq!(cache.stats().hits, 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn quarantine_names_never_collide() {
        let cache = tmp_cache("quarantine-seq");
        let key = CacheKey::new("test").with("x", format_args!("q"));
        for round in 0..3 {
            cache.get_or_compute(&key, || vec![round as f64]);
            let entry = cache.dir().join(key.file_name());
            std::fs::write(&entry, "not a cache file").unwrap();
            cache.get_or_compute(&key, || vec![round as f64]);
        }
        assert_eq!(cache.stats().quarantined, 3);
        assert_eq!(
            std::fs::read_dir(cache.quarantine_dir()).unwrap().count(),
            3
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn unwritable_dir_counts_store_failures_and_still_computes() {
        // A cache rooted *under a regular file* can never create its
        // directory: every store must fail, every lookup must miss, and
        // every value must still come out right.
        let blocker = std::env::temp_dir().join(format!("hybp-cache-block-{}", std::process::id()));
        std::fs::write(&blocker, "not a directory").unwrap();
        let cache = ModelCache::at_dir(blocker.join("cache"), true);
        let key = CacheKey::new("test").with("x", format_args!("w"));
        assert_eq!(cache.get_or_compute_one(&key, || 7.0), 7.0);
        assert_eq!(cache.get_or_compute_one(&key, || 8.0), 8.0);
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.store_failures, 2);
        std::fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn concurrent_same_key_stores_leave_one_valid_entry() {
        // Regression for the same-pid tmp-file collision: many threads of
        // one process storing the same key concurrently must each write a
        // distinct tmp file, so the published entry is always complete.
        let cache = tmp_cache("concurrent");
        let key = CacheKey::new("test").with("x", format_args!("c"));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let v = cache.get_or_compute(&key, || vec![1.25, -2.5]);
                        assert_eq!(v, vec![1.25, -2.5]);
                    }
                });
            }
        });
        // No tmp litter, no quarantines, and the surviving entry is valid.
        let names: Vec<String> = std::fs::read_dir(cache.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| !n.contains(".tmp")),
            "tmp litter: {names:?}"
        );
        assert_eq!(cache.stats().quarantined, 0);
        assert_eq!(cache.stats().store_failures, 0);
        let fresh = ModelCache::at_dir(cache.dir(), true);
        assert_eq!(
            fresh.get_or_compute(&key, || panic!("must hit")),
            vec![1.25, -2.5]
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let a = CacheKey::new("model").with("mech", format_args!("Baseline"));
        let b = CacheKey::new("model").with("mech", format_args!("Flush"));
        assert_ne!(a.file_name(), b.file_name());
        assert_ne!(a.descr(), b.descr());
    }

    #[test]
    fn disabled_cache_never_hits_or_writes() {
        let dir = std::env::temp_dir().join(format!("hybp-cache-off-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ModelCache::at_dir(&dir, false);
        let key = CacheKey::new("test").with("x", format_args!("3"));
        assert_eq!(cache.get_or_compute_one(&key, || 5.0), 5.0);
        assert_eq!(cache.get_or_compute_one(&key, || 6.0), 6.0);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 2,
                ..Default::default()
            }
        );
        assert!(!dir.exists());
    }

    #[test]
    fn hit_rate_bounds() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn snapshot_mirrors_stats() {
        let dir = std::env::temp_dir().join(format!("hybp-cache-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ModelCache::at_dir(&dir, false);
        let key = CacheKey::new("test").with("x", format_args!("9"));
        let _ = cache.get_or_compute_one(&key, || 1.0);
        let snap = cache.snapshot();
        assert_eq!(snap.scope, "cache");
        assert_eq!(snap.get("enabled"), 0);
        assert_eq!(snap.get("misses"), 1);
        assert_eq!(snap.get("hits"), 0);
    }
}
