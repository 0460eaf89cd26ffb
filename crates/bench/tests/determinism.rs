//! Determinism guarantees of the parallel sweep executor and the point
//! memo: worker count must never change a number — down to the bytes of
//! an experiment's CSV — and a memo hit must reproduce the computing
//! run bit-exactly.

#![allow(
    clippy::expect_used,
    reason = "test setup helpers abort the test on a broken fixture, as a failed assertion would"
)]

use bench::{no_switch_config, overhead_model, Ctx, Point, Scale};
use bp_common::pool::Pool;
use bp_common::telemetry::jsonl_line;
use bp_common::Telemetry;
use bp_pipeline::{SimConfig, Simulation};
use bp_workloads::profile::SpecBenchmark;
use hybp::Mechanism;

/// A short real simulation — heavy enough to exercise the whole stack,
/// light enough for a debug-mode test.
fn tiny_ipc(mech: Mechanism, bench: SpecBenchmark) -> f64 {
    Simulation::builder(mech, SimConfig::quick_test())
        .single_thread(bench)
        .build()
        .expect("valid config")
        .run()
        .expect("completes")
        .threads[0]
        .ipc()
}

#[test]
fn par_map_equals_serial_map_for_1_2_8_workers() {
    let benches = [
        SpecBenchmark::Deepsjeng,
        SpecBenchmark::Xz,
        SpecBenchmark::Wrf,
        SpecBenchmark::Mcf,
    ];
    let serial: Vec<f64> = benches
        .iter()
        .map(|&b| tiny_ipc(Mechanism::Baseline, b))
        .collect();
    for workers in [1usize, 2, 8] {
        let parallel = Pool::new(workers).par_map(&benches, |&b| tiny_ipc(Mechanism::Baseline, b));
        assert_eq!(
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            parallel.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "par_map with {workers} workers diverged from the serial map"
        );
    }
}

#[test]
fn par_map_output_is_input_ordered_not_completion_ordered() {
    // Items with wildly uneven costs: completion order differs from input
    // order, output must not.
    let pool = Pool::new(4);
    let got = pool.par_map_indices(16, |i| {
        if i % 4 == 0 {
            // Staged uneven timing so completion order differs from input
            // order; not a hot-path block.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        i * 3
    });
    assert_eq!(got, (0..16).map(|i| i * 3).collect::<Vec<_>>());
}

#[test]
fn cache_round_trip_reproduces_cold_run_bits() {
    let ctx = Ctx::custom(Scale::Quick, Pool::new(1));
    let mech = Mechanism::hybp_default();
    let bench = SpecBenchmark::Xalancbmk;
    let point = Point::single(mech, bench, SimConfig::quick_test());

    // Cold lookup: simulates and memoises the run, which equals an
    // unmemoised run of the same point.
    let cold = ctx.point(&point);
    assert_eq!(ctx.cache.stats().misses, 1);
    assert_eq!(
        cold.threads[0].ipc().to_bits(),
        tiny_ipc(mech, bench).to_bits()
    );

    // Warm lookup must be a hit and bit-identical.
    let warm = ctx.point(&point);
    assert_eq!(*cold, *warm);
    assert_eq!(ctx.cache.stats().hits, 1);
}

#[test]
fn cached_model_matches_uncached_model_bitwise() {
    let ctx = Ctx::custom(Scale::Quick, Pool::new(2));
    let mech = Mechanism::Baseline;
    let bench = SpecBenchmark::Exchange2;
    // The plain (unmemoised) IPC point and the memoised one must agree on
    // an empty memo, and again on a warm one.
    let direct = Simulation::builder(mech, no_switch_config(ctx.scale))
        .single_thread(bench)
        .build()
        .expect("valid config")
        .run()
        .expect("completes")
        .threads[0]
        .ipc();
    let cold = ctx.ipc(mech, bench, no_switch_config(ctx.scale));
    let warm = ctx.ipc(mech, bench, no_switch_config(ctx.scale));
    assert_eq!(direct.to_bits(), cold.to_bits());
    assert_eq!(cold.to_bits(), warm.to_bits());
    let stats = ctx.cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

#[test]
fn overhead_model_survives_cache_and_thread_count() {
    let ctx1 = Ctx::custom(Scale::Quick, Pool::new(1));
    let m_cold = overhead_model(&ctx1, Mechanism::Baseline, SpecBenchmark::Lbm);
    let m_warm = overhead_model(&ctx1, Mechanism::Baseline, SpecBenchmark::Lbm);
    assert_eq!(m_cold.ipc_fixed.to_bits(), m_warm.ipc_fixed.to_bits());
    assert_eq!(
        m_cold.per_switch_cycles.to_bits(),
        m_warm.per_switch_cycles.to_bits()
    );
    // The model's no-switch run is the same memo entry every other
    // experiment reads.
    let no_switch = ctx1.ipc(
        Mechanism::Baseline,
        SpecBenchmark::Lbm,
        no_switch_config(ctx1.scale),
    );
    assert_eq!(no_switch.to_bits(), m_cold.ipc_fixed.to_bits());
    let stats = ctx1.cache.stats();
    assert_eq!((stats.hits, stats.misses), (3, 2));

    let ctx8 = Ctx::custom(Scale::Quick, Pool::new(8));
    let m8 = overhead_model(&ctx8, Mechanism::Baseline, SpecBenchmark::Lbm);
    assert_eq!(m_cold.ipc_fixed.to_bits(), m8.ipc_fixed.to_bits());
    assert_eq!(
        m_cold.per_switch_cycles.to_bits(),
        m8.per_switch_cycles.to_bits()
    );
}

/// Golden guarantee for the telemetry export: a fixed-seed fig5 subset
/// run produces *byte-identical* JSONL at 1 and 4 worker threads. Events
/// are stamped with virtual cycles and the flush sorts by full content,
/// so worker scheduling must be invisible in the bytes.
#[test]
fn telemetry_jsonl_is_byte_identical_across_thread_counts() {
    let benches = [SpecBenchmark::Mcf, SpecBenchmark::Xz];
    let mut exports = Vec::new();
    for threads in [1usize, 4] {
        let base = std::env::temp_dir().join(format!(
            "hybp-telemetry-golden-t{threads}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        let ctx = Ctx::custom(Scale::Quick, Pool::new(threads))
            .with_results_dir(base.join("results"))
            .with_telemetry_dir(base.join("telemetry"));
        bench::experiments::fig5::run_with_benches(&ctx, &benches).expect("fig5 subset runs clean");
        let text = std::fs::read_to_string(base.join("telemetry").join("fig5_hybp_per_app.jsonl"))
            .expect("telemetry JSONL written");
        assert!(!text.is_empty(), "export must carry at least one event");
        for line in text.lines() {
            bp_common::telemetry::parse_jsonl_line(line).expect("schema-valid line");
        }
        exports.push(text);
        let _ = std::fs::remove_dir_all(&base);
    }
    assert_eq!(
        exports[0], exports[1],
        "telemetry export must not depend on the worker count"
    );
}

/// Telemetry capture keeps the memo on: a point read twice is one miss
/// and one hit, and the flushed JSONL holds its events twice, once per
/// lookup, as it would if both lookups had simulated.
#[test]
fn telemetry_capture_keeps_the_memo_and_replays_a_hit() {
    let dir = std::env::temp_dir().join(format!("hybp-determinism-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = Ctx::custom(Scale::Quick, Pool::new(2)).with_telemetry_dir(&dir);
    let mech = Mechanism::hybp_default();
    let bench = SpecBenchmark::Roms;
    let mut cfg = SimConfig::quick_test();
    cfg.ctx_switch_interval = 25_000;
    // One run's events, through a sink of its own.
    let sink = Telemetry::ring(bench::telemetry::POINT_RING_CAPACITY);
    Simulation::builder(mech, cfg)
        .single_thread(bench)
        .telemetry(sink.clone())
        .build()
        .expect("valid config")
        .run()
        .expect("completes");
    let once = sink.drain();
    assert!(!once.is_empty(), "the point must emit events");

    let point = Point::single(mech, bench, cfg);
    assert_eq!(*ctx.point(&point), *ctx.point(&point));
    let stats = ctx.cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.points), (1, 1, 1));
    let summary = ctx
        .telemetry
        .flush_jsonl(&dir, "replay")
        .expect("JSONL written");
    let text = std::fs::read_to_string(&summary.path).expect("JSONL readable");
    let _ = std::fs::remove_dir_all(&dir);
    let mut twice = [once.clone(), once].concat();
    twice.sort_unstable();
    let expected: String = twice.iter().map(|e| jsonl_line(e) + "\n").collect();
    assert_eq!(text, expected);
}

/// A fresh context writing CSVs under `base`: its memo starts empty, so
/// every distinct point simulates once and the comparison exercises the
/// monomorphized hot path.
fn csv_ctx(base: &std::path::Path, threads: usize) -> Ctx {
    Ctx::custom(Scale::Quick, Pool::new(threads)).with_results_dir(base.join("results"))
}

fn csv_bytes_for_threads(tag: &str, threads: usize, run: impl Fn(&Ctx), csv_name: &str) -> String {
    let base = std::env::temp_dir().join(format!(
        "hybp-csv-determinism-{tag}-t{threads}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&base);
    let ctx = csv_ctx(&base, threads);
    run(&ctx);
    let text = std::fs::read_to_string(base.join("results").join(csv_name)).expect("CSV written");
    let _ = std::fs::remove_dir_all(&base);
    text
}

/// Fig. 5 (per-app IPC bars, subset): byte-identical CSV at 1 and 4 worker
/// threads. Hot-path optimizations may only make a run faster, never
/// different.
#[test]
fn fig5_csv_is_byte_identical_across_thread_counts() {
    let benches = [SpecBenchmark::Mcf, SpecBenchmark::Xz];
    let texts: Vec<String> = [1usize, 4]
        .iter()
        .map(|&threads| {
            csv_bytes_for_threads(
                "fig5",
                threads,
                |ctx| {
                    bench::experiments::fig5::run_with_benches(ctx, &benches)
                        .expect("fig5 subset runs clean");
                },
                "fig5_hybp_per_app.csv",
            )
        })
        .collect();
    assert!(!texts[0].is_empty(), "CSV must carry rows");
    assert_eq!(texts[0], texts[1], "fig5 CSV depends on the worker count");
}

/// Fig. 7 (SMT mixes): the same byte-identity guarantee for the SMT path.
/// The full mix table is simulation-heavy, so debug runs skip it; the CI
/// `bench-suite` job runs it in release with `--include-ignored`.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run in release CI")]
fn fig7_csv_is_byte_identical_across_thread_counts() {
    let texts: Vec<String> = [1usize, 4]
        .iter()
        .map(|&threads| {
            csv_bytes_for_threads(
                "fig7",
                threads,
                |ctx| {
                    bench::experiments::fig7::run(ctx).expect("fig7 runs clean");
                },
                "fig7_smt_mixes.csv",
            )
        })
        .collect();
    assert!(!texts[0].is_empty(), "CSV must carry rows");
    assert_eq!(texts[0], texts[1], "fig7 CSV depends on the worker count");
}
