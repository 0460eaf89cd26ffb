//! Versioned, chunked, checksummed binary branch traces.
//!
//! ROADMAP item #1 needs experiments driven by *captured* branch streams
//! rather than synthetic generators (STBPU and CIBPU are both evaluated on
//! traces). A trace that powers every future experiment must be robust
//! before it is fast: a multi-gigabyte file with one flipped bit must never
//! panic the harness, never silently corrupt a CSV, and never force a full
//! re-capture. This crate is that hardened layer:
//!
//! * [`TraceWriter`] streams [`BranchRecord`](bp_common::BranchRecord)s
//!   into the `.bpt` wire format: a 16-byte file header, then fixed-layout
//!   chunks of varint delta-encoded records, each chunk carrying a magic,
//!   sequence number, record count and CRC32, closed by a trailer chunk
//!   with whole-file totals (see `DESIGN.md` §"Trace format" for the byte
//!   layout).
//! * [`TraceReader`] decodes in one of two [`ReadMode`]s. **Strict** stops
//!   at the first damage with a typed [`TraceError`] naming the exact chunk
//!   and byte offset. **Lenient** resynchronizes to the next intact chunk
//!   and keeps a [`TraceHealth`] ledger of what was lost — a degraded trace
//!   yields a degraded (never wrong, never crashing) replay.
//! * [`TraceSession`] is the one front door to reading: a builder
//!   (mirroring the simulator's `SimulationBuilder`) that opens a stream
//!   directory with a decode mode, optional deterministic ingest faults,
//!   and an optional [`SamplingSpec`]. Its [`TraceStore`] serves decoded
//!   streams to the simulator by `(stream name, seed)`, caching decodes
//!   and aggregating health across every file a run touched.
//! * [`sampling`] turns long traces into [`PhasePlan`]s: a streaming BBV
//!   pass plus deterministic k-means pick a few representative windows
//!   whose weighted replay estimates whole-trace MPKI/IPC at a fraction
//!   of the cost (see `DESIGN.md` §6h).
//!
//! Chunks encode their records independently (deltas reset at each chunk
//! boundary), which is what makes lenient resync sound — any intact chunk
//! decodes without context from its damaged neighbours — and what makes
//! sampled replay's mid-file seeks exact.
//!
//! The corruption tolerance is machine-checked against the deterministic
//! byte faults of [`bp_faults::bytes`] — see `tests/adversarial.rs`.
//!
//! # Examples
//!
//! ```
//! use bp_common::{Addr, BranchRecord};
//! use bp_trace::{ReadMode, TraceSession, TraceWriter};
//!
//! let mut out = Vec::new();
//! let mut w = TraceWriter::new(&mut out, 64).expect("header write");
//! for i in 0..1000u64 {
//!     let r = BranchRecord::conditional(Addr::new(0x4000 + 4 * i), Addr::new(0x5000), i % 3 == 0, 7);
//!     w.push(&r).expect("record write");
//! }
//! w.finish().expect("trailer write");
//! let (records, health) = TraceSession::decode(&out, ReadMode::Strict).expect("intact trace");
//! assert_eq!(records.len(), 1000);
//! assert!(health.is_clean());
//! ```

#![deny(missing_docs)]

use std::fmt;

use bp_common::telemetry::{Observable, TelemetrySnapshot};

pub mod crc32;
pub mod reader;
pub mod sampling;
pub mod session;
pub mod store;
pub mod varint;
pub mod writer;

pub use reader::{ReadMode, TraceReader};
pub use sampling::{
    sample_bytes, sample_trace, PhasePlan, SampleStats, SamplingError, SamplingSpec, Selection,
};
pub use session::{TraceSession, TraceSessionBuilder};
pub use store::{LoadedTrace, RecordCursor, TraceStore};
pub use writer::{write_trace, TraceWriter, WriteSummary};

/// File magic: the first seven bytes of every `.bpt` trace.
pub const FILE_MAGIC: [u8; 7] = *b"HYBPTRC";

/// Format version this crate writes and the only one it reads. Files with
/// a higher version are from the future and are rejected, not guessed at.
pub const FORMAT_VERSION: u8 = 1;

/// Chunk magic: the resync anchor lenient mode scans for.
pub const CHUNK_MAGIC: [u8; 4] = *b"CHNK";

/// File header size: magic (7) + version (1) + flags (4) + CRC32 (4).
pub const FILE_HEADER_LEN: usize = 16;

/// Chunk header size: magic (4) + seq (4) + record count (4) +
/// payload length (4) + CRC32 (4).
pub const CHUNK_HEADER_LEN: usize = 20;

/// Default records per chunk: small enough that one damaged chunk loses a
/// negligible slice of a run, large enough that header overhead is noise.
pub const DEFAULT_CHUNK_RECORDS: usize = 4096;

/// Conventional file extension for binary traces.
pub const FILE_EXTENSION: &str = "bpt";

/// Typed decode failure, naming where the damage is.
///
/// `chunk` fields count data/trailer chunks by *file position* (0-based
/// ordinal), not by the stored sequence number — a corrupted sequence field
/// must not be able to misname the damage. `offset` fields are absolute
/// byte offsets into the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with [`FILE_MAGIC`] — not a trace at all.
    BadFileMagic,
    /// The file is from a newer (or unknown) format version.
    UnsupportedVersion {
        /// Version byte found in the header.
        found: u8,
    },
    /// The file header's CRC32 does not match its contents.
    HeaderCrc {
        /// CRC stored in the header.
        stored: u32,
        /// CRC computed over the header bytes.
        computed: u32,
    },
    /// The file ends where `what` was expected (clean truncation).
    Truncated {
        /// Absolute byte offset of the end of usable data.
        offset: u64,
        /// What should have been there.
        what: &'static str,
    },
    /// A chunk boundary does not carry [`CHUNK_MAGIC`].
    BadChunkMagic {
        /// Ordinal of the chunk (by file position).
        chunk: u32,
        /// Absolute byte offset of the expected chunk start.
        offset: u64,
    },
    /// A chunk's CRC32 does not match its header fields + payload.
    ChunkCrc {
        /// Ordinal of the chunk (by file position).
        chunk: u32,
        /// Absolute byte offset of the chunk start.
        offset: u64,
        /// CRC stored in the chunk header.
        stored: u32,
        /// CRC computed over the chunk.
        computed: u32,
    },
    /// A chunk carries an unexpected sequence number (strict mode only:
    /// lenient mode accounts duplicates and gaps in [`TraceHealth`]).
    BadSequence {
        /// Ordinal of the chunk (by file position).
        chunk: u32,
        /// Absolute byte offset of the chunk start.
        offset: u64,
        /// Sequence number required here.
        expected: u32,
        /// Sequence number found.
        found: u32,
    },
    /// A CRC-valid chunk payload failed record decoding — writer-side
    /// damage the checksum cannot catch.
    BadRecord {
        /// Ordinal of the chunk (by file position).
        chunk: u32,
        /// Absolute byte offset where decoding failed.
        offset: u64,
        /// What was malformed.
        reason: &'static str,
    },
    /// The trailer's whole-file totals disagree with what was decoded.
    TrailerMismatch {
        /// Records the trailer claims the file holds.
        expected_records: u64,
        /// Records actually decoded.
        found_records: u64,
        /// Data chunks the trailer claims the file holds.
        expected_chunks: u64,
        /// Data chunks actually decoded.
        found_chunks: u64,
    },
    /// Bytes follow the trailer chunk (strict mode only).
    TrailingData {
        /// Absolute byte offset of the stray data.
        offset: u64,
    },
    /// The file could not be read at all (store level).
    Io {
        /// Path of the unreadable file.
        path: String,
        /// Operating-system error text.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadFileMagic => write!(f, "not a branch trace (bad file magic)"),
            TraceError::UnsupportedVersion { found } => write!(
                f,
                "unsupported trace format version {found} (this build reads version {FORMAT_VERSION})"
            ),
            TraceError::HeaderCrc { stored, computed } => write!(
                f,
                "file header CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            TraceError::Truncated { offset, what } => {
                write!(f, "truncated at offset {offset}: expected {what}")
            }
            TraceError::BadChunkMagic { chunk, offset } => {
                write!(f, "bad magic for chunk {chunk} at offset {offset}")
            }
            TraceError::ChunkCrc {
                chunk,
                offset,
                stored,
                computed,
            } => write!(
                f,
                "CRC mismatch in chunk {chunk} at offset {offset} \
                 (stored {stored:#010x}, computed {computed:#010x})"
            ),
            TraceError::BadSequence {
                chunk,
                offset,
                expected,
                found,
            } => write!(
                f,
                "bad sequence number in chunk {chunk} at offset {offset} \
                 (expected {expected}, found {found})"
            ),
            TraceError::BadRecord {
                chunk,
                offset,
                reason,
            } => write!(
                f,
                "malformed record in chunk {chunk} at offset {offset}: {reason}"
            ),
            TraceError::TrailerMismatch {
                expected_records,
                found_records,
                expected_chunks,
                found_chunks,
            } => write!(
                f,
                "trailer totals mismatch: trailer claims {expected_records} records in \
                 {expected_chunks} chunks, decoded {found_records} records in {found_chunks} chunks"
            ),
            TraceError::TrailingData { offset } => {
                write!(f, "trailing data after trailer chunk at offset {offset}")
            }
            TraceError::Io { path, reason } => write!(f, "cannot read trace {path}: {reason}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Damage ledger of one lenient decode (all-zero for an intact trace).
///
/// `records_lost` is exact when the trailer chunk survived (whole-file
/// totals minus what decoded); when the trailer itself was lost the loss is
/// unknowable and stays 0, flagged by `torn_tail` instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceHealth {
    /// Data chunks that decoded intact.
    pub chunks_ok: u64,
    /// Damaged regions skipped by resync, plus duplicate or stray chunks
    /// dropped by sequence-number accounting.
    pub chunks_skipped: u64,
    /// Records recovered.
    pub records_ok: u64,
    /// Records lost to skipped chunks (exact iff the trailer survived).
    pub records_lost: u64,
    /// The file did not end with a valid trailer chunk — an interrupted
    /// write or damaged tail; losses past the last intact chunk are
    /// unknowable.
    pub torn_tail: bool,
}

impl TraceHealth {
    /// Whether the decode recovered everything: no skips, no losses, a
    /// clean trailer.
    pub fn is_clean(&self) -> bool {
        self.chunks_skipped == 0 && self.records_lost == 0 && !self.torn_tail
    }

    /// Folds another decode's ledger into this one (store-level
    /// aggregation across files).
    pub fn merge(&mut self, other: &TraceHealth) {
        self.chunks_ok += other.chunks_ok;
        self.chunks_skipped += other.chunks_skipped;
        self.records_ok += other.records_ok;
        self.records_lost += other.records_lost;
        self.torn_tail |= other.torn_tail;
    }
}

impl fmt::Display for TraceHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chunks_ok={} chunks_skipped={} records_ok={} records_lost={} torn_tail={}",
            self.chunks_ok, self.chunks_skipped, self.records_ok, self.records_lost, self.torn_tail
        )
    }
}

impl Observable for TraceHealth {
    /// Scope `"trace"`: the ledger as plain counters (`torn_tail` as 0/1).
    fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::new("trace")
            .with("chunks_ok", self.chunks_ok)
            .with("chunks_skipped", self.chunks_skipped)
            .with("records_ok", self.records_ok)
            .with("records_lost", self.records_lost)
            .with("torn_tail", u64::from(self.torn_tail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_display_and_cleanliness() {
        let mut h = TraceHealth::default();
        assert!(h.is_clean());
        h.chunks_ok = 3;
        h.records_ok = 12;
        assert!(h.is_clean());
        h.chunks_skipped = 1;
        h.records_lost = 4;
        assert!(!h.is_clean());
        assert_eq!(
            h.to_string(),
            "chunks_ok=3 chunks_skipped=1 records_ok=12 records_lost=4 torn_tail=false"
        );
    }

    #[test]
    fn health_merges_counters_and_flags() {
        let mut a = TraceHealth {
            chunks_ok: 1,
            records_ok: 5,
            ..TraceHealth::default()
        };
        let b = TraceHealth {
            chunks_ok: 2,
            chunks_skipped: 1,
            records_ok: 7,
            records_lost: 3,
            torn_tail: true,
        };
        a.merge(&b);
        assert_eq!(a.chunks_ok, 3);
        assert_eq!(a.chunks_skipped, 1);
        assert_eq!(a.records_ok, 12);
        assert_eq!(a.records_lost, 3);
        assert!(a.torn_tail);
    }

    #[test]
    fn health_snapshot_is_observable() {
        let h = TraceHealth {
            chunks_ok: 2,
            chunks_skipped: 1,
            records_ok: 9,
            records_lost: 4,
            torn_tail: true,
        };
        let s = h.snapshot();
        assert_eq!(s.scope, "trace");
        assert_eq!(s.get("chunks_ok"), 2);
        assert_eq!(s.get("records_lost"), 4);
        assert_eq!(s.get("torn_tail"), 1);
    }

    #[test]
    fn errors_name_chunk_and_offset() {
        let e = TraceError::ChunkCrc {
            chunk: 3,
            offset: 1234,
            stored: 1,
            computed: 2,
        };
        let s = e.to_string();
        assert!(s.contains("chunk 3"), "{s}");
        assert!(s.contains("offset 1234"), "{s}");
        let t = TraceError::Truncated {
            offset: 99,
            what: "chunk header",
        }
        .to_string();
        assert!(t.contains("offset 99"), "{t}");
        assert!(t.contains("chunk header"), "{t}");
    }
}
