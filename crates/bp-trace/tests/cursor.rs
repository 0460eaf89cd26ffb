//! `RecordCursor` contract tests: O(chunk) buffering, reset semantics,
//! and deterministic damage reporting, at chunk sizes chosen to straddle
//! chunk boundaries.

#![allow(
    clippy::expect_used,
    reason = "test setup helpers abort the test on a broken fixture, as a failed assertion would"
)]

use std::path::PathBuf;
use std::sync::Arc;

use bp_common::{Addr, BranchKind, BranchRecord};
use bp_faults::bytes::ByteFault;
use bp_trace::{write_trace, ReadMode, TraceSession, TraceStore};

/// Chunk sizes that never divide the record count evenly (plus the
/// degenerate single-record case), so the last chunk is always partial.
const CHUNK_SIZES: [usize; 4] = [1, 7, 64, 333];

fn records(n: u64) -> Vec<BranchRecord> {
    (0..n)
        .map(|i| {
            let kind = if i % 11 == 0 {
                BranchKind::Indirect
            } else {
                BranchKind::Conditional
            };
            BranchRecord {
                pc: Addr::new(0x40_0000 + (i % 513) * 4),
                kind,
                target: Addr::new(0x48_0000 + (i % 257) * 16),
                taken: !kind.is_conditional() || i % 3 != 0,
                gap: (i % 29) as u32,
            }
        })
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hybp-cursor-{tag}-{}", std::process::id()))
}

fn open_store(dir: &PathBuf, mode: ReadMode) -> Arc<TraceStore> {
    Arc::clone(
        TraceSession::open(dir)
            .mode(mode)
            .build()
            .expect("session opens")
            .store(),
    )
}

#[test]
fn cursor_buffers_at_most_one_chunk_and_resets_exactly() {
    let recs = records(1000);
    let dir = tmp_dir("reset");
    let _ = std::fs::remove_dir_all(&dir);
    let store = open_store(&dir, ReadMode::Strict);
    for (i, &chunk) in CHUNK_SIZES.iter().enumerate() {
        let name = format!("stream-{chunk}");
        store
            .save(&name, i as u64, &recs, chunk)
            .expect("stream saved");
        let loaded = store.load(&name, i as u64).expect("stream loads");
        let mut cursor = loaded.records();

        // First pass: bit-identical, never holding more than one chunk of
        // decoded records (the streaming-replay memory invariant).
        let first: Vec<BranchRecord> = cursor.by_ref().collect();
        assert_eq!(first, recs, "chunk {chunk}: cursor must replay exactly");
        assert!(
            cursor.peak_buffered() <= chunk,
            "chunk {chunk}: peak residency {} exceeds one chunk",
            cursor.peak_buffered()
        );
        let peak_after_first = cursor.peak_buffered();

        // A fused cursor stays fused until reset.
        assert_eq!(cursor.next(), None, "chunk {chunk}: exhausted means None");

        // Reset: the replay repeats bit-identically, and peak_buffered
        // persists (lifetime residency, not per-pass).
        cursor.reset();
        let second: Vec<BranchRecord> = cursor.by_ref().collect();
        assert_eq!(second, recs, "chunk {chunk}: reset must replay exactly");
        assert_eq!(
            cursor.peak_buffered(),
            peak_after_first,
            "chunk {chunk}: same-size passes must not move the peak"
        );

        // Reset mid-stream: a partial first read must not corrupt the
        // boundary bookkeeping of the next full pass.
        cursor.reset();
        let partial: Vec<BranchRecord> = cursor.by_ref().take(chunk + chunk / 2 + 1).collect();
        assert_eq!(partial, recs[..partial.len()]);
        cursor.reset();
        let third: Vec<BranchRecord> = cursor.by_ref().collect();
        assert_eq!(
            third, recs,
            "chunk {chunk}: reset after a partial read must start over"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seek_to_non_boundary_fuses_and_reset_recovers() {
    let recs = records(700);
    let bytes = write_trace(&recs, 64).expect("write");
    let dir = tmp_dir("seekfuse");
    let _ = std::fs::remove_dir_all(&dir);
    let store = open_store(&dir, ReadMode::Strict);
    store.save("s", 1, &recs, 64).expect("stream saved");
    let loaded = store.load("s", 1).expect("stream loads");
    let mut cursor = loaded.records();
    // Mid-payload is never a chunk boundary.
    assert!(!cursor.seek(bytes.len() as u64 / 2 + 1, 0));
    assert_eq!(
        cursor.next(),
        None,
        "a failed seek must leave the cursor fused"
    );
    cursor.reset();
    let back: Vec<BranchRecord> = cursor.collect();
    assert_eq!(back, recs, "reset must recover a fused cursor");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_files_reports_sorted_by_name() {
    // Save in deliberately non-alphabetical order, damage every stream,
    // and load in reverse order: the report must still come out sorted.
    let recs = records(2000);
    let dir = tmp_dir("damaged");
    let _ = std::fs::remove_dir_all(&dir);
    let names = ["zeta", "alpha", "mid"];
    {
        let store = open_store(&dir, ReadMode::Lenient);
        for (i, name) in names.iter().enumerate() {
            store.save(name, i as u64, &recs, 64).expect("stream saved");
        }
    }
    for (i, name) in names.iter().enumerate() {
        let path = dir.join(TraceStore::file_name(name, i as u64));
        let mut bytes = std::fs::read(&path).expect("stream readable");
        assert!(
            ByteFault::parse("bitflip@4096@3")
                .expect("valid fault")
                .apply(&mut bytes),
            "fault must land inside {name}"
        );
        std::fs::write(&path, &bytes).expect("corrupted stream written");
    }
    let store = open_store(&dir, ReadMode::Lenient);
    for (i, name) in names.iter().enumerate().rev() {
        let loaded = store.load(name, i as u64).expect("lenient load completes");
        assert!(!loaded.health().is_clean(), "{name} must be damaged");
    }
    let damaged = store.damaged_files();
    assert_eq!(damaged.len(), names.len(), "every stream was damaged");
    let reported: Vec<&str> = damaged.iter().map(|(n, _)| n.as_str()).collect();
    let mut sorted = reported.clone();
    sorted.sort_unstable();
    assert_eq!(
        reported, sorted,
        "damaged_files must be deterministically sorted by name"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
