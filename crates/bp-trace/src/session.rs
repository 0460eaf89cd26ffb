//! `TraceSession`: the one front door to trace reading.
//!
//! The trace layer grew three entry points — `TraceStore::new` for
//! directories, `with_ingest_faults` bolted on for the adversarial
//! harness, and the free function `read_all` for in-memory bytes — which
//! meant every new reading policy would have fanned out across all of
//! them. [`TraceSession`] collapses the lot into one builder, deliberately
//! shaped like the simulator's `SimulationBuilder`:
//!
//! ```text
//! TraceSession::open(dir)
//!     .mode(ReadMode::Lenient)
//!     .ingest_faults(plan)
//!     .build()?
//! ```
//!
//! This is the *only* way to build a store: the pre-session entry points
//! (`TraceStore::new`, `with_ingest_faults`, the free `read_all`) served
//! their one-release deprecation window and are gone; the positive
//! contract lives in `tests/trace_session_contract.rs`.

use std::path::PathBuf;
use std::sync::Arc;

use bp_common::BranchRecord;
use bp_faults::bytes::ByteFaultPlan;

use crate::reader::{decode, ReadMode};
use crate::store::TraceStore;
use crate::{TraceError, TraceHealth};

/// Configures a [`TraceSession`] before it opens. Obtained from
/// [`TraceSession::open`]; every knob has the same default the old
/// constructors had, so `open(dir).build()` is `TraceStore::new(dir,
/// ReadMode::Strict)` exactly.
#[derive(Debug)]
pub struct TraceSessionBuilder {
    dir: PathBuf,
    mode: ReadMode,
    ingest_faults: ByteFaultPlan,
}

impl TraceSessionBuilder {
    /// Decode policy for every load (default [`ReadMode::Strict`]).
    pub fn mode(mut self, mode: ReadMode) -> TraceSessionBuilder {
        self.mode = mode;
        self
    }

    /// Applies `plan` to every file's bytes after reading and before
    /// decoding — deterministic fault injection for the adversarial
    /// harness and the CI integrity job.
    pub fn ingest_faults(mut self, plan: ByteFaultPlan) -> TraceSessionBuilder {
        self.ingest_faults = plan;
        self
    }

    /// Opens the session.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the path exists but is not a directory —
    /// catching a file/directory mixup at build time, not at first load. A
    /// nonexistent directory is fine (the capture side creates it on
    /// save).
    pub fn build(self) -> Result<TraceSession, TraceError> {
        if self.dir.exists() && !self.dir.is_dir() {
            return Err(TraceError::Io {
                path: self.dir.display().to_string(),
                reason: "not a directory".to_string(),
            });
        }
        Ok(TraceSession {
            store: Arc::new(TraceStore::with_parts(
                self.dir,
                self.mode,
                self.ingest_faults,
            )),
        })
    }
}

/// An open trace directory plus its reading policy: the store that serves
/// streams to the simulator. Cheap to share — the store is already behind
/// an [`Arc`].
#[derive(Debug)]
pub struct TraceSession {
    store: Arc<TraceStore>,
}

impl TraceSession {
    /// Starts building a session over `dir`. Defaults: strict mode, no
    /// ingest faults.
    pub fn open(dir: impl Into<PathBuf>) -> TraceSessionBuilder {
        TraceSessionBuilder {
            dir: dir.into(),
            mode: ReadMode::default(),
            ingest_faults: ByteFaultPlan::empty(),
        }
    }

    /// Decodes a whole in-memory trace (no directory needed, so no
    /// builder either).
    ///
    /// # Errors
    ///
    /// Strict mode: any damage, as a typed [`TraceError`]. Lenient mode:
    /// only file-header damage — everything else is absorbed into the
    /// returned [`TraceHealth`].
    pub fn decode(
        bytes: &[u8],
        mode: ReadMode,
    ) -> Result<(Vec<BranchRecord>, TraceHealth), TraceError> {
        decode(bytes, mode).map(|d| (d.records, d.health))
    }

    /// The shared store serving this session's streams.
    pub fn store(&self) -> &Arc<TraceStore> {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_common::Addr;
    use bp_faults::bytes::ByteFault;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bp-session-{tag}-{}", std::process::id()))
    }

    fn sample_records(n: u64) -> Vec<BranchRecord> {
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
    fn builder_defaults_are_strict() {
        let dir = temp_dir("defaults");
        let session = TraceSession::open(&dir).build().unwrap();
        assert_eq!(session.store().mode(), ReadMode::Strict);
        assert_eq!(session.store().dir(), dir.as_path());
    }

    #[test]
    fn builder_carries_mode_and_faults() {
        let dir = temp_dir("knobs");
        let recs = sample_records(600);
        let clean = TraceSession::open(&dir).build().unwrap();
        clean.store().save("s", 1, &recs, 100).unwrap();

        let plan = ByteFaultPlan::new(vec![ByteFault::BitFlip {
            offset: 200,
            bit: 3,
        }]);
        let session = TraceSession::open(&dir)
            .mode(ReadMode::Lenient)
            .ingest_faults(plan)
            .build()
            .unwrap();
        assert_eq!(session.store().mode(), ReadMode::Lenient);
        let loaded = session.store().load("s", 1).unwrap();
        assert_eq!(loaded.health().chunks_skipped, 1, "faults must apply");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_file_path_is_a_build_error() {
        let dir = temp_dir("filepath");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("not-a-dir");
        std::fs::write(&file, b"x").unwrap();
        match TraceSession::open(&file).build().unwrap_err() {
            TraceError::Io { path, reason } => {
                assert!(path.contains("not-a-dir"), "{path}");
                assert_eq!(reason, "not a directory");
            }
            other => panic!("expected Io, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_round_trips_a_written_trace() {
        let recs = sample_records(300);
        let bytes = crate::write_trace(&recs, 64).unwrap();
        let (a, ha) = TraceSession::decode(&bytes, ReadMode::Strict).unwrap();
        assert_eq!(a, recs);
        assert!(ha.is_clean());
    }
}
