//! Determinism of the phase-sampling pipeline, end to end:
//!
//! 1. sampling the same trace under the same spec twice yields a
//!    byte-identical `.bps` sidecar (the CI `sampling-integrity` job
//!    `cmp`s exactly this),
//! 2. a sampled Figure-5 run produces a byte-identical CSV whether the
//!    sweep runs on 1 worker thread or 4 — clustering, selection, and
//!    replay are pure functions of (bytes, spec), never of scheduling.

#![allow(
    clippy::expect_used,
    reason = "test setup helpers abort the test on a broken fixture, as a failed assertion would"
)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bench::{experiments, phased_records, Ctx, Scale};
use bp_common::pool::Pool;
use bp_pipeline::{stream_name, stream_seed, SimConfig};
use bp_trace::{sample_bytes, ReadMode, SamplingSpec, TraceSession, TraceStore};
use bp_workloads::profile::SpecBenchmark;

fn tmp_base(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hybp-sampling-det-{tag}-{}", std::process::id()))
}

/// Records a phased synthetic stream under `bench`'s canonical replay
/// name, long enough for a handful of 50K-instruction windows.
fn record_stream(dir: &Path, bench: SpecBenchmark) {
    let store = Arc::clone(
        TraceSession::open(dir)
            .build()
            .expect("session opens")
            .store(),
    );
    let seed = stream_seed(SimConfig::default_run().seed, 0, 0);
    let records = phased_records(
        seed ^ bench as u64,
        &[SpecBenchmark::Lbm, SpecBenchmark::Mcf],
        400_000,
        2_000_000,
    );
    store
        .save(&stream_name(0, 0, bench), seed, &records, 256)
        .expect("stream saved");
}

fn spec() -> SamplingSpec {
    SamplingSpec {
        k: 3,
        window: 50_000,
        warmup: 2,
        ..SamplingSpec::default()
    }
}

#[test]
fn same_trace_and_seed_give_byte_identical_sidecars() {
    let base = tmp_base("sidecar");
    let _ = std::fs::remove_dir_all(&base);
    record_stream(&base, SpecBenchmark::Mcf);
    let seed = stream_seed(SimConfig::default_run().seed, 0, 0);
    let file = base.join(TraceStore::file_name(
        &stream_name(0, 0, SpecBenchmark::Mcf),
        seed,
    ));
    let bytes = std::fs::read(&file).expect("trace readable");

    let (plan_a, _) = sample_bytes(&bytes, ReadMode::Strict, &spec()).expect("samples");
    let (plan_b, _) = sample_bytes(&bytes, ReadMode::Strict, &spec()).expect("samples");
    assert_eq!(
        plan_a.encode(),
        plan_b.encode(),
        "double-sampling the same bytes must be byte-identical"
    );

    // The sidecar round-trips exactly, so a decoded plan replays the same
    // windows the in-memory one selected.
    let decoded = bp_trace::PhasePlan::decode(&plan_a.encode()).expect("sidecar decodes");
    assert_eq!(decoded, plan_a);

    // The store path (LoadedTrace::sample) agrees with the file path.
    let store = Arc::clone(
        TraceSession::open(&base)
            .build()
            .expect("session opens")
            .store(),
    );
    let loaded = store
        .load(&stream_name(0, 0, SpecBenchmark::Mcf), seed)
        .expect("stream loads");
    let (plan_c, _) = loaded.sample(&spec()).expect("samples");
    assert_eq!(plan_c.encode(), plan_a.encode());

    let _ = std::fs::remove_dir_all(&base);
}

/// One sampled fig5 run over [Mcf, Xz] at `threads`, returning the CSV.
fn sampled_fig5(base: &Path, traces: &Path, tag: &str, threads: usize) -> String {
    let store = Arc::clone(
        TraceSession::open(traces)
            .build()
            .expect("session opens")
            .store(),
    );
    let results = base.join(format!("results-{tag}"));
    let ctx = Ctx::custom(Scale::Quick, Pool::new(threads))
        .with_results_dir(&results)
        .with_trace_store(store)
        .with_sampling(spec());
    experiments::fig5::run_with_benches(&ctx, &[SpecBenchmark::Mcf, SpecBenchmark::Xz])
        .expect("sampled fig5 completes");
    std::fs::read_to_string(results.join("fig5_hybp_per_app.csv")).expect("csv written")
}

#[test]
fn sampled_fig5_csv_is_identical_across_thread_counts() {
    let base = tmp_base("fig5");
    let _ = std::fs::remove_dir_all(&base);
    let traces = base.join("traces");
    record_stream(&traces, SpecBenchmark::Mcf);
    record_stream(&traces, SpecBenchmark::Xz);

    let serial = sampled_fig5(&base, &traces, "serial", 1);
    let parallel = sampled_fig5(&base, &traces, "parallel", 4);
    assert_eq!(
        serial, parallel,
        "sampled CSV must be byte-identical across thread counts"
    );
    assert!(
        serial.starts_with("# sampled: "),
        "sampled runs must be marked: {serial}"
    );
    let header = serial.lines().next().expect("header line");
    assert!(
        header.contains("windows (coverage") && header.contains('%'),
        "header must carry counts and coverage: {header}"
    );
    assert!(serial.contains("mcf_r,0,") && serial.contains("xz_r,0,"));
    assert!(serial.contains(",sampled"));

    let _ = std::fs::remove_dir_all(&base);
}
