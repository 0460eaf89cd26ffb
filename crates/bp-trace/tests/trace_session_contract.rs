//! Positive contract tests for the `TraceSession` front door.
//!
//! `TraceSession` is the only way to build a trace store (the pre-session
//! constructors finished their deprecation window and are gone). These
//! tests state the contract in its own terms: what the builder defaults
//! to, which knobs it carries into the store, how decode behaves per
//! mode, and that injected ingest faults actually reach the decode path.

use std::sync::Arc;

use bp_common::{Addr, BranchKind, BranchRecord};
use bp_faults::bytes::ByteFaultPlan;
use bp_trace::{write_trace, ReadMode, TraceSession};

fn records(n: u64) -> Vec<BranchRecord> {
    (0..n)
        .map(|i| BranchRecord {
            pc: Addr::new(0x40_0000 + i * 4),
            kind: BranchKind::Conditional,
            target: Addr::new(0x41_0000 + i * 8),
            taken: i % 3 != 0,
            gap: (i % 17) as u32,
        })
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hybp-session-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn builder_defaults_to_strict_no_faults() {
    let dir = temp_dir("defaults");
    let session = TraceSession::open(&dir).build().expect("session opens");
    assert_eq!(session.store().mode(), ReadMode::Strict);
    assert_eq!(session.store().dir(), dir.as_path());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn session_store_round_trips_saved_streams() {
    let dir = temp_dir("roundtrip");
    let recs = records(500);
    let session = TraceSession::open(&dir).build().expect("session opens");
    session
        .store()
        .save("stream-a", 7, &recs, 64)
        .expect("save");

    // A second session over the same directory sees the same stream.
    let reopened = Arc::clone(
        TraceSession::open(&dir)
            .mode(ReadMode::Strict)
            .build()
            .expect("session reopens")
            .store(),
    );
    let loaded = reopened.load("stream-a", 7).expect("load");
    assert_eq!(loaded.records().collect::<Vec<_>>(), recs);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decode_round_trips_and_modes_agree_on_clean_bytes() {
    let recs = records(257);
    let bytes = write_trace(&recs, 64).expect("write");
    for mode in [ReadMode::Strict, ReadMode::Lenient] {
        let (decoded, health) = TraceSession::decode(&bytes, mode).expect("decode");
        assert_eq!(decoded, recs, "{} mode round trip", mode.name());
        assert!(health.is_clean(), "{} mode health", mode.name());
    }
}

#[test]
fn ingest_faults_reach_the_decode_path() {
    let dir = temp_dir("faults");
    let recs = records(500);
    TraceSession::open(&dir)
        .build()
        .expect("session opens")
        .store()
        .save("stream-a", 7, &recs, 64)
        .expect("save");

    let plan = ByteFaultPlan::parse("bitflip@64@1").expect("plan");
    // Strict mode must surface the damage as an error; a clean session
    // over the same bytes must still load — the fault is injected at
    // ingest, not persisted.
    let faulty = Arc::clone(
        TraceSession::open(&dir)
            .mode(ReadMode::Strict)
            .ingest_faults(plan)
            .build()
            .expect("session opens")
            .store(),
    );
    assert!(
        faulty.load("stream-a", 7).is_err(),
        "strict mode must reject the injected bit flip"
    );
    let clean = Arc::clone(
        TraceSession::open(&dir)
            .build()
            .expect("session opens")
            .store(),
    );
    let loaded = clean.load("stream-a", 7).expect("clean load");
    assert_eq!(loaded.records().collect::<Vec<_>>(), recs);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lenient_sessions_absorb_ingest_faults_into_health() {
    let dir = temp_dir("lenient");
    let recs = records(500);
    TraceSession::open(&dir)
        .build()
        .expect("session opens")
        .store()
        .save("stream-a", 7, &recs, 64)
        .expect("save");

    let plan = ByteFaultPlan::parse("bitflip@64@1").expect("plan");
    let session = TraceSession::open(&dir)
        .mode(ReadMode::Lenient)
        .ingest_faults(plan)
        .build()
        .expect("session opens");
    // Lenient mode keeps loading; the store either resyncs past the
    // damaged chunk (fewer records) or the flip landed somewhere benign.
    let loaded = session.store().load("stream-a", 7).expect("lenient load");
    assert!(loaded.records().count() <= recs.len());
    let _ = std::fs::remove_dir_all(&dir);
}
