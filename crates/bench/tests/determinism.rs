//! Determinism guarantees of the parallel sweep executor and the model
//! memo: worker count must never change a number — down to the bytes of
//! an experiment's CSV — and a memo hit must reproduce the computing
//! run's values bit-exactly.

#![allow(
    clippy::expect_used,
    reason = "test setup helpers abort the test on a broken fixture, as a failed assertion would"
)]

use bench::cache::CacheKey;
use bench::{model_cached, no_switch_config, no_switch_ipc_cached, Ctx, Scale};
use bp_common::pool::Pool;
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
    let key = CacheKey::new("test_ipc")
        .with("mech", format_args!("{mech:?}"))
        .with("bench", format_args!("{bench:?}"));

    // Cold lookup: computes and memoises the entry.
    let cold = ctx.cache.get_or_compute_one(&key, || tiny_ipc(mech, bench));
    assert_eq!(ctx.cache.stats().misses, 1);

    // Warm lookup must be a hit and bit-identical.
    let warm = ctx
        .cache
        .get_or_compute_one(&key, || panic!("warm lookup must not recompute"));
    assert_eq!(cold.to_bits(), warm.to_bits());
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
    let cold = no_switch_ipc_cached(&ctx, mech, bench);
    let warm = no_switch_ipc_cached(&ctx, mech, bench);
    assert_eq!(direct.to_bits(), cold.to_bits());
    assert_eq!(cold.to_bits(), warm.to_bits());
    let stats = ctx.cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

#[test]
fn overhead_model_survives_cache_and_thread_count() {
    let ctx1 = Ctx::custom(Scale::Quick, Pool::new(1));
    let m_cold = model_cached(&ctx1, Mechanism::Baseline, SpecBenchmark::Lbm);
    let m_warm = model_cached(&ctx1, Mechanism::Baseline, SpecBenchmark::Lbm);
    assert_eq!(m_cold.ipc_fixed.to_bits(), m_warm.ipc_fixed.to_bits());
    assert_eq!(
        m_cold.per_switch_cycles.to_bits(),
        m_warm.per_switch_cycles.to_bits()
    );

    let ctx8 = Ctx::custom(Scale::Quick, Pool::new(8));
    let m8 = model_cached(&ctx8, Mechanism::Baseline, SpecBenchmark::Lbm);
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

/// Telemetry capture is the memo's one off switch: every lookup then
/// simulates, and still lands on the same bits.
#[test]
fn disabled_cache_still_computes_correctly() {
    let dir = std::env::temp_dir().join(format!("hybp-determinism-off-{}", std::process::id()));
    let ctx = Ctx::custom(Scale::Quick, Pool::new(2)).with_telemetry_dir(&dir);
    assert!(!ctx.cache.is_enabled());
    let a = no_switch_ipc_cached(&ctx, Mechanism::Baseline, SpecBenchmark::Roms);
    let b = no_switch_ipc_cached(&ctx, Mechanism::Baseline, SpecBenchmark::Roms);
    assert_eq!(a.to_bits(), b.to_bits());
    let stats = ctx.cache.stats();
    assert_eq!((stats.hits, stats.misses), (0, 2));
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
