//! On-disk trace store: named streams served to the simulator.
//!
//! A replay run touches many streams (one per hardware-thread ×
//! software-slot combination, plus the kernel stream), all recorded under
//! one directory. [`TraceStore`] maps `(stream, seed)` to a decoded record
//! vector, caching decodes (SMT pairs share streams), applying optional
//! deterministic ingest faults (the adversarial harness), and aggregating
//! a [`TraceHealth`] ledger across every file the run touched so the bench
//! layer can report degradation per run, not per file read.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use bp_common::telemetry::{Observable, TelemetrySnapshot};
use bp_common::BranchRecord;
use bp_faults::bytes::ByteFaultPlan;

use crate::reader::{DecodeState, ReadMode, Step, TraceReader};
use crate::writer::TraceWriter;
use crate::{TraceError, TraceHealth, FILE_EXTENSION};

/// One verified trace file, shared between the threads that replay it.
///
/// Holds the *raw* file bytes, not decoded records: replay decodes
/// chunk-by-chunk through [`LoadedTrace::records`] cursors, so peak
/// decoded-record residency stays O(chunk) regardless of stream length.
/// The load itself runs one streaming verification pass, so decode errors
/// (strict) and the damage ledger (lenient) still surface at build time,
/// before any simulation starts.
#[derive(Debug)]
pub struct LoadedTrace {
    bytes: Arc<Vec<u8>>,
    mode: ReadMode,
    record_count: u64,
    instructions: u64,
    health: TraceHealth,
}

impl LoadedTrace {
    /// Records a replay cursor will deliver (verified at load time).
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Whether the stream delivers no records at all.
    pub fn is_empty(&self) -> bool {
        self.record_count == 0
    }

    /// Instructions the stream covers (each record is one branch plus its
    /// `gap` non-branch instructions) — the build-time length floor checks
    /// against this.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The verification pass's damage ledger (all-zero under strict mode).
    pub fn health(&self) -> TraceHealth {
        self.health
    }

    /// A fresh streaming cursor over the stream's records, positioned at
    /// the start. Each replaying thread owns its own cursor; they share
    /// the underlying bytes.
    pub fn records(&self) -> RecordCursor {
        RecordCursor::new(Arc::clone(&self.bytes), self.mode)
    }

    /// Raw verified file bytes, shared with every cursor — the sampling
    /// pass runs its own streaming decode over them.
    pub(crate) fn raw_bytes(&self) -> &Arc<Vec<u8>> {
        &self.bytes
    }

    /// The mode the bytes were verified under (cursors decode in the same
    /// mode, so sampling must too for the window boundaries to line up).
    pub(crate) fn read_mode(&self) -> ReadMode {
        self.mode
    }
}

/// An owning, resettable streaming iterator over a loaded stream's
/// records. Decodes one chunk at a time; [`RecordCursor::peak_buffered`]
/// reports the largest decoded-record residency ever reached, which tests
/// pin to the chunk size.
///
/// The underlying bytes were already verified by [`TraceStore::load`], so
/// iteration is infallible: any residual damage in lenient mode was
/// accounted in the load-time ledger and is simply skipped again here.
#[derive(Debug)]
pub struct RecordCursor {
    bytes: Arc<Vec<u8>>,
    mode: ReadMode,
    state: Option<DecodeState>,
    current: std::vec::IntoIter<BranchRecord>,
    peak_buffered: usize,
}

impl RecordCursor {
    fn new(bytes: Arc<Vec<u8>>, mode: ReadMode) -> RecordCursor {
        // The header was validated at load; a `None` state (unreachable)
        // degrades to an empty cursor rather than panicking.
        let state = DecodeState::new(&bytes, mode).ok();
        RecordCursor {
            bytes,
            mode,
            state,
            current: Vec::new().into_iter(),
            peak_buffered: 0,
        }
    }

    /// Rewinds the cursor to the first record (`peak_buffered` persists
    /// across resets — it measures the cursor's lifetime residency).
    pub fn reset(&mut self) {
        self.state = DecodeState::new(&self.bytes, self.mode).ok();
        self.current = Vec::new().into_iter();
    }

    /// The largest number of decoded records ever resident at once.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Repositions the cursor at the chunk starting at absolute byte
    /// `offset`, then discards `skip` records, so the next call to
    /// [`Iterator::next`] yields the record `skip` positions into that
    /// chunk. Chunks encode independently (the writer resets its delta
    /// base at every flush), which is what makes a mid-file resume exact.
    ///
    /// Returns `false` — leaving the cursor fused — when `offset` does not
    /// head a valid chunk of these bytes or the stream ends before `skip`
    /// records: a stale or mismatched sampling plan must fail loudly at
    /// the call site, never replay the wrong window.
    pub fn seek(&mut self, offset: u64, skip: u64) -> bool {
        let pos = usize::try_from(offset).unwrap_or(usize::MAX);
        if !crate::reader::chunk_starts_at(&self.bytes, pos) {
            self.state = None;
            self.current = Vec::new().into_iter();
            return false;
        }
        self.state = Some(DecodeState::at_offset(pos));
        self.current = Vec::new().into_iter();
        for _ in 0..skip {
            if self.next().is_none() {
                return false;
            }
        }
        true
    }
}

impl Iterator for RecordCursor {
    type Item = BranchRecord;

    fn next(&mut self) -> Option<BranchRecord> {
        loop {
            if let Some(r) = self.current.next() {
                return Some(r);
            }
            let state = self.state.as_mut()?;
            match state.step(&self.bytes) {
                Ok(Step::Records { recs, .. }) => {
                    self.peak_buffered = self.peak_buffered.max(recs.len());
                    self.current = recs.into_iter();
                }
                Ok(Step::Meta) => {}
                // End, or damage already accounted at load time: fuse.
                Ok(Step::End) | Err(_) => {
                    self.state = None;
                    return None;
                }
            }
        }
    }
}

/// Directory of `.bpt` streams plus the policy for reading them.
///
/// All methods take `&self`; the store is shared across simulation threads
/// behind an [`Arc`].
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    mode: ReadMode,
    ingest_faults: ByteFaultPlan,
    cache: Mutex<BTreeMap<String, Arc<LoadedTrace>>>,
    wraps: AtomicU64,
}

impl TraceStore {
    /// The one real constructor; every store is built through
    /// [`crate::session::TraceSession`]'s builder, which forwards here.
    pub(crate) fn with_parts(
        dir: PathBuf,
        mode: ReadMode,
        ingest_faults: ByteFaultPlan,
    ) -> TraceStore {
        TraceStore {
            dir,
            mode,
            ingest_faults,
            cache: Mutex::new(BTreeMap::new()),
            wraps: AtomicU64::new(0),
        }
    }

    /// The directory this store reads.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The decode mode for every load.
    pub fn mode(&self) -> ReadMode {
        self.mode
    }

    /// Canonical file name of a stream: `{stream}-{seed:016x}.bpt`. The
    /// seed is part of the name so a directory recorded at one master seed
    /// cannot silently replay under another.
    pub fn file_name(stream: &str, seed: u64) -> String {
        format!("{stream}-{seed:016x}.{FILE_EXTENSION}")
    }

    /// Absolute path of a stream's file in this store.
    pub fn path_for(&self, stream: &str, seed: u64) -> PathBuf {
        self.dir.join(TraceStore::file_name(stream, seed))
    }

    /// Records `records` as a stream file (capture-side convenience; the
    /// replay side only reads).
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] for filesystem failures, and the writer's record
    /// validation mapped the same way.
    pub fn save(
        &self,
        stream: &str,
        seed: u64,
        records: &[BranchRecord],
        records_per_chunk: usize,
    ) -> Result<crate::WriteSummary, TraceError> {
        let path = self.path_for(stream, seed);
        let io_err = |e: std::io::Error| TraceError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        };
        std::fs::create_dir_all(&self.dir).map_err(io_err)?;
        let file = std::fs::File::create(&path).map_err(io_err)?;
        let mut w =
            TraceWriter::new(std::io::BufWriter::new(file), records_per_chunk).map_err(io_err)?;
        for r in records {
            w.push(r).map_err(io_err)?;
        }
        w.finish().map_err(io_err)
    }

    /// Loads (or returns the cached decode of) one stream.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the file cannot be read; any decode error
    /// under strict mode; header-level damage under lenient mode. Lenient
    /// chunk damage is *not* an error — it lands in the returned
    /// [`LoadedTrace::health`].
    pub fn load(&self, stream: &str, seed: u64) -> Result<Arc<LoadedTrace>, TraceError> {
        let name = TraceStore::file_name(stream, seed);
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = cache.get(&name) {
            return Ok(Arc::clone(hit));
        }
        let path = self.dir.join(&name);
        let mut bytes = std::fs::read(&path).map_err(|e| TraceError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        self.ingest_faults.apply(&mut bytes);
        // Streaming verification pass: decodes chunk-by-chunk (O(chunk)
        // decoded-record residency) while surfacing exactly the errors an
        // eager decode would, so damage still fails the build, not the run.
        let mut reader = TraceReader::new(&bytes, self.mode)?;
        let mut record_count = 0u64;
        let mut instructions = 0u64;
        for item in &mut reader {
            let r = item?;
            record_count += 1;
            instructions += u64::from(r.gap) + 1;
        }
        let health = reader.health();
        let loaded = Arc::new(LoadedTrace {
            bytes: Arc::new(bytes),
            mode: self.mode,
            record_count,
            instructions,
            health,
        });
        cache.insert(name, Arc::clone(&loaded));
        Ok(loaded)
    }

    /// Health ledger summed over every file loaded so far, in file-name
    /// order (deterministic).
    pub fn health(&self) -> TraceHealth {
        let cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let mut total = TraceHealth::default();
        for loaded in cache.values() {
            total.merge(&loaded.health);
        }
        total
    }

    /// Per-file ledgers for files that lost anything, sorted by file name.
    /// The sort is explicit (not an artifact of the cache's iteration
    /// order) so degradation reports stay byte-identical run to run even
    /// if the cache's container ever changes.
    pub fn damaged_files(&self) -> Vec<(String, TraceHealth)> {
        let cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<(String, TraceHealth)> = cache
            .iter()
            .filter(|(_, l)| !l.health.is_clean())
            .map(|(name, l)| (name.clone(), l.health))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Number of files loaded so far.
    pub fn files_loaded(&self) -> u64 {
        let cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        cache.len() as u64
    }

    /// Called by the replay feed each time a stream is exhausted and
    /// restarts from its beginning. A wrapped replay is not the recorded
    /// run, so wraps count as degradation.
    pub fn note_wrap(&self) {
        self.wraps.fetch_add(1, Ordering::Relaxed);
    }

    /// Stream wrap-arounds observed so far.
    pub fn wraps(&self) -> u64 {
        self.wraps.load(Ordering::Relaxed)
    }

    /// Whether any load lost data or any stream wrapped — the signal the
    /// bench layer turns into partial-tolerant reporting.
    pub fn is_degraded(&self) -> bool {
        self.wraps() > 0 || !self.health().is_clean()
    }
}

impl Observable for TraceStore {
    /// Scope `"trace_store"`: the aggregate ledger plus files loaded and
    /// wrap-arounds.
    fn snapshot(&self) -> TelemetrySnapshot {
        let h = self.health();
        TelemetrySnapshot::new("trace_store")
            .with("files", self.files_loaded())
            .with("chunks_ok", h.chunks_ok)
            .with("chunks_skipped", h.chunks_skipped)
            .with("records_ok", h.records_ok)
            .with("records_lost", h.records_lost)
            .with("torn_tail", u64::from(h.torn_tail))
            .with("wraps", self.wraps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::TraceSession;
    use bp_common::Addr;
    use bp_faults::bytes::ByteFault;

    fn temp_store(tag: &str, mode: ReadMode) -> Arc<TraceStore> {
        let dir = std::env::temp_dir().join(format!("bp-trace-store-{tag}-{}", std::process::id()));
        Arc::clone(TraceSession::open(dir).mode(mode).build().unwrap().store())
    }

    fn sample(n: u64) -> Vec<BranchRecord> {
        (0..n)
            .map(|i| {
                BranchRecord::conditional(
                    Addr::new(0x1000 + 8 * i),
                    Addr::new(0x2000 + i),
                    i % 2 == 0,
                    (i % 11) as u32,
                )
            })
            .collect()
    }

    #[test]
    fn save_load_roundtrip_and_cache() {
        let store = temp_store("roundtrip", ReadMode::Strict);
        let recs = sample(500);
        store.save("t0s0", 0x5EED, &recs, 128).unwrap();
        let a = store.load("t0s0", 0x5EED).unwrap();
        assert_eq!(a.records().collect::<Vec<_>>(), recs);
        assert_eq!(a.record_count(), 500);
        assert!(!a.is_empty());
        assert_eq!(
            a.instructions(),
            recs.iter().map(|r| u64::from(r.gap) + 1).sum::<u64>()
        );
        let b = store.load("t0s0", 0x5EED).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second load must hit the cache");
        assert_eq!(store.files_loaded(), 1);
        assert!(!store.is_degraded());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn replay_cursor_is_o_chunk_and_resettable() {
        let store = temp_store("streaming", ReadMode::Strict);
        let recs = sample(5000);
        store.save("big", 9, &recs, 64).unwrap();
        let loaded = store.load("big", 9).unwrap();
        let mut cursor = loaded.records();
        let first: Vec<_> = (&mut cursor).collect();
        assert_eq!(first, recs);
        assert!(
            cursor.peak_buffered() <= 64,
            "replay must never hold more than one chunk's records, saw {}",
            cursor.peak_buffered()
        );
        // A reset replays the identical stream (wrap-around support).
        cursor.reset();
        assert_eq!(cursor.next(), Some(recs[0]));
        let rest: Vec<_> = cursor.collect();
        assert_eq!(rest, &recs[1..]);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let store = temp_store("missing", ReadMode::Strict);
        match store.load("nope", 7).unwrap_err() {
            TraceError::Io { path, .. } => {
                assert!(path.contains("nope-0000000000000007.bpt"), "{path}")
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn ingest_faults_surface_per_mode() {
        let recs = sample(600);
        let plan = ByteFaultPlan::new(vec![ByteFault::BitFlip {
            offset: 200,
            bit: 3,
        }]);
        let strict = temp_store("ingest-strict", ReadMode::Strict);
        strict.save("s", 1, &recs, 100).unwrap();
        let err = {
            let faulted = TraceSession::open(strict.dir())
                .ingest_faults(plan.clone())
                .build()
                .unwrap();
            faulted.store().load("s", 1).unwrap_err()
        };
        assert!(matches!(
            err,
            TraceError::ChunkCrc { .. } | TraceError::BadRecord { .. }
        ));

        let lenient_session = TraceSession::open(strict.dir())
            .mode(ReadMode::Lenient)
            .ingest_faults(plan)
            .build()
            .unwrap();
        let lenient = lenient_session.store();
        let loaded = lenient.load("s", 1).unwrap();
        assert_eq!(loaded.health().chunks_skipped, 1);
        assert_eq!(loaded.health().records_lost, 100);
        assert_eq!(loaded.record_count(), 500, "intact chunks still replay");
        assert!(lenient.is_degraded());
        assert_eq!(
            lenient.damaged_files(),
            vec![(TraceStore::file_name("s", 1), loaded.health())]
        );
        let _ = std::fs::remove_dir_all(strict.dir());
    }

    #[test]
    fn wraps_count_as_degradation() {
        let store = temp_store("wraps", ReadMode::Strict);
        assert!(!store.is_degraded());
        store.note_wrap();
        store.note_wrap();
        assert_eq!(store.wraps(), 2);
        assert!(store.is_degraded());
        assert_eq!(store.snapshot().get("wraps"), 2);
    }

    #[test]
    fn health_aggregates_across_files() {
        let store = temp_store("aggregate", ReadMode::Strict);
        store.save("a", 1, &sample(100), 64).unwrap();
        store.save("b", 2, &sample(50), 64).unwrap();
        store.load("a", 1).unwrap();
        store.load("b", 2).unwrap();
        let h = store.health();
        assert_eq!(h.records_ok, 150);
        assert!(h.is_clean());
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
