//! Round-trip and replay-fidelity tests for the `.bpt` trace store.
//!
//! Three layers, matching the capture → replay pipeline:
//!
//! 1. encode/decode round-trips for every benchmark profile the harness
//!    can replay (all single-thread streams, the kernel stream, and every
//!    Figure-7 SMT mix) at chunk sizes chosen to straddle chunk
//!    boundaries,
//! 2. end-to-end experiment fidelity: a `--trace-dir` replay of Figure 5
//!    produces a byte-identical CSV to the generator run that recorded
//!    the traces, independent of thread count,
//! 3. degradation: a corrupted stream fails a strict replay with a typed
//!    error naming the chunk, completes a lenient replay with the loss
//!    accounted in a `# partial` CSV, and an empty stream is a
//!    build-time config error.

#![allow(
    clippy::expect_used,
    reason = "test setup helpers abort the test on a broken fixture, as a failed assertion would"
)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bench::{experiments, replay_stream_budget, Ctx, Scale};
use bp_common::pool::Pool;
use bp_faults::bytes::ByteFault;
use bp_pipeline::{kernel_stream_name, kernel_stream_seed, stream_name, stream_seed, SimConfig};
use bp_trace::{write_trace, ReadMode, TraceSession, TraceStore};
use bp_workloads::profile::SpecBenchmark;
use bp_workloads::{WorkloadGenerator, TABLE_V_MIXES};

/// Chunk sizes straddling boundaries: single-record chunks, primes that
/// never divide the record count, and the production default.
const CHUNK_SIZES: [usize; 5] = [1, 7, 64, 333, 4096];

fn tmp_base(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hybp-trace-rt-{tag}-{}", std::process::id()))
}

/// Opens a shared store over `dir` through the session front door.
fn open_store(dir: &Path, mode: ReadMode) -> Arc<TraceStore> {
    Arc::clone(
        TraceSession::open(dir)
            .mode(mode)
            .build()
            .expect("session opens")
            .store(),
    )
}

/// Generates `n` records the way the simulator's feed does.
fn gen_records(bench: SpecBenchmark, seed: u64, n: usize) -> Vec<bp_common::BranchRecord> {
    let mut g = WorkloadGenerator::new(bench.profile(), seed);
    (0..n).map(|_| g.next_branch()).collect()
}

fn assert_roundtrip(bench: SpecBenchmark, seed: u64, n: usize) {
    let records = gen_records(bench, seed, n);
    for chunk in CHUNK_SIZES {
        let bytes = write_trace(&records, chunk).expect("encodable stream");
        let (back, health) = TraceSession::decode(&bytes, ReadMode::Strict).expect("clean decode");
        assert_eq!(
            back,
            records,
            "{} seed {seed:#x} chunk {chunk}: decode must be bit-identical",
            bench.name()
        );
        assert!(
            health.is_clean(),
            "{} chunk {chunk}: {health}",
            bench.name()
        );
    }
}

#[test]
fn every_single_thread_stream_roundtrips_at_boundary_straddling_chunks() {
    let master = SimConfig::default_run().seed;
    for bench in SpecBenchmark::ALL {
        for sw in 0..2 {
            // 1000 records at chunk 333 leaves a 1-record final chunk at
            // 999·· boundaries; chunk 7 never divides it evenly.
            assert_roundtrip(bench, stream_seed(master, 0, sw), 1000);
        }
    }
    assert_roundtrip(SpecBenchmark::Kernel, kernel_stream_seed(master, 0), 1000);
}

#[test]
fn every_fig7_smt_mix_stream_roundtrips() {
    let master = SimConfig::default_run().seed;
    for mix in TABLE_V_MIXES {
        for (hw, bench) in mix.pair.into_iter().enumerate() {
            for sw in 0..2 {
                assert_roundtrip(bench, stream_seed(master, hw, sw), 700);
            }
            assert_roundtrip(SpecBenchmark::Kernel, kernel_stream_seed(master, hw), 700);
        }
    }
}

/// Records the quick-scale replay set for `benches` into `dir`, exactly
/// as `trace_tool record` does.
fn record_streams(dir: &Path, benches: &[SpecBenchmark]) {
    let master = SimConfig::default_run().seed;
    let margin = 1.25;
    let mut streams: Vec<(String, u64, SpecBenchmark)> = Vec::new();
    for &b in benches {
        for sw in 0..2 {
            streams.push((stream_name(0, sw, b), stream_seed(master, 0, sw), b));
        }
    }
    streams.push((
        kernel_stream_name(0),
        kernel_stream_seed(master, 0),
        SpecBenchmark::Kernel,
    ));
    let session = TraceSession::open(dir).build().expect("session opens");
    let store = session.store();
    for (name, seed, bench) in streams {
        let budget = (replay_stream_budget(Scale::Quick, &bench.profile()) as f64 * margin) as u64;
        let mut g = WorkloadGenerator::new(bench.profile(), seed);
        let mut records = Vec::new();
        let mut instructions = 0u64;
        while instructions < budget {
            let r = g.next_branch();
            instructions += u64::from(r.gap) + 1;
            records.push(r);
        }
        store
            .save(&name, seed, &records, bp_trace::DEFAULT_CHUNK_RECORDS)
            .expect("stream saved");
    }
}

/// One quick-scale Figure-5 run over [Mcf, Xz], returning the raw CSV and
/// the experiment result.
fn fig5_run(
    base: &Path,
    tag: &str,
    threads: usize,
    trace: Option<Arc<TraceStore>>,
) -> (Result<(), String>, String, Ctx) {
    let results = base.join(format!("results-{tag}"));
    let mut ctx = Ctx::custom(Scale::Quick, Pool::new(threads)).with_results_dir(&results);
    if let Some(store) = trace {
        ctx = ctx.with_trace_store(store);
    }
    let out = experiments::fig5::run_with_benches(&ctx, &[SpecBenchmark::Mcf, SpecBenchmark::Xz])
        .map_err(|e| e.to_string());
    let csv = std::fs::read_to_string(results.join("fig5_hybp_per_app.csv")).expect("csv written");
    (out, csv, ctx)
}

#[test]
fn fig5_replay_is_byte_identical_and_degrades_gracefully() {
    let base = tmp_base("fig5");
    let _ = std::fs::remove_dir_all(&base);
    let traces = base.join("traces");
    record_streams(&traces, &[SpecBenchmark::Mcf, SpecBenchmark::Xz]);

    // Generator run (4 worker threads) vs. intact replay (serial): the
    // CSVs must be byte-identical — replay reproduces the exact branch
    // stream, and thread count is not allowed to matter.
    let (gen_out, gen_csv, _) = fig5_run(&base, "gen", 4, None);
    gen_out.expect("generator run is clean");
    let intact = open_store(&traces, ReadMode::Strict);
    let (rep_out, rep_csv, _) = fig5_run(&base, "replay", 1, Some(intact));
    rep_out.expect("intact replay is clean");
    assert_eq!(gen_csv, rep_csv, "replayed CSV must be byte-identical");

    // Flip one payload bit mid-file in one of mcf's streams.
    let master = SimConfig::default_run().seed;
    let victim = traces.join(TraceStore::file_name(
        &stream_name(0, 0, SpecBenchmark::Mcf),
        stream_seed(master, 0, 0),
    ));
    let mut bytes = std::fs::read(&victim).expect("victim stream readable");
    assert!(
        ByteFault::parse("bitflip@4096@3")
            .expect("valid fault")
            .apply(&mut bytes),
        "fault must land inside the file"
    );
    std::fs::write(&victim, &bytes).expect("corrupted stream written");

    // Strict replay: the mcf point dies with a typed error naming the
    // damaged chunk; xz still completes, so the CSV is partial.
    let strict = open_store(&traces, ReadMode::Strict);
    let (strict_out, strict_csv, strict_ctx) = fig5_run(&base, "strict", 2, Some(strict));
    let err = strict_out.expect_err("strict replay of a corrupted stream must degrade");
    assert!(err.contains("degraded"), "{err}");
    assert!(strict_csv.starts_with("# partial:"), "{strict_csv}");
    assert!(
        strict_csv.contains("xz_r,"),
        "undamaged benchmark must survive: {strict_csv}"
    );
    assert!(!strict_csv.contains("mcf_r,"), "{strict_csv}");
    let failures = strict_ctx.supervisor.pending_failures();
    assert!(
        failures.iter().any(|(_, f)| f.message.contains("chunk")),
        "strict failure must name the damaged chunk: {failures:?}"
    );

    // Lenient replays: the run completes with every benchmark present,
    // the loss is accounted as trace degradation (partial CSV, error
    // exit), and the degraded result is deterministic across thread
    // counts.
    let lenient = open_store(&traces, ReadMode::Lenient);
    let (len_out, len_csv, len_ctx) = fig5_run(&base, "lenient", 2, Some(lenient));
    let err = len_out.expect_err("lenient replay of a corrupted stream must report degradation");
    assert!(err.contains("degraded"), "{err}");
    assert!(len_csv.starts_with("# partial:"), "{len_csv}");
    assert!(
        len_csv.contains("mcf_r,") && len_csv.contains("xz_r,"),
        "{len_csv}"
    );
    let failures = len_ctx.supervisor.pending_failures();
    assert!(
        failures
            .iter()
            .any(|(_, f)| f.message.contains("chunks_skipped=1")),
        "lenient degradation must carry the health ledger: {failures:?}"
    );
    let lenient2 = open_store(&traces, ReadMode::Lenient);
    let (_, len_csv_serial, _) = fig5_run(&base, "lenient-serial", 1, Some(lenient2));
    assert_eq!(
        len_csv, len_csv_serial,
        "degraded replay must stay deterministic across thread counts"
    );

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn empty_stream_is_a_build_error_not_a_silent_loop() {
    let base = tmp_base("empty");
    let _ = std::fs::remove_dir_all(&base);
    let store = open_store(&base, ReadMode::Strict);
    let cfg = SimConfig::default_run();
    // All three single-thread streams exist, but the first user stream
    // holds zero records: replay has nothing to feed, which must be a
    // config error at build time, not an infinite wrap at run time.
    let b = SpecBenchmark::Mcf;
    store
        .save(&stream_name(0, 0, b), stream_seed(cfg.seed, 0, 0), &[], 16)
        .expect("empty stream saved");
    store
        .save(
            &stream_name(0, 1, b),
            stream_seed(cfg.seed, 0, 1),
            &gen_records(b, 1, 10),
            16,
        )
        .expect("stream saved");
    store
        .save(
            &kernel_stream_name(0),
            kernel_stream_seed(cfg.seed, 0),
            &gen_records(SpecBenchmark::Kernel, 2, 10),
            16,
        )
        .expect("kernel stream saved");
    let err = match bp_pipeline::Simulation::builder(hybp::Mechanism::Baseline, cfg)
        .single_thread(b)
        .trace_store(Some(store))
        .build()
    {
        Ok(_) => panic!("an empty stream must not build"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("no records"),
        "error must say why: {err}"
    );
    let _ = std::fs::remove_dir_all(&base);
}
