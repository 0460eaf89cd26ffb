//! Quickstart: build a HyBP-protected branch prediction unit, run a
//! synthetic SPEC-like workload through the cycle-level core model, and
//! compare against the unprotected baseline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(
    clippy::expect_used,
    reason = "an example aborts on a broken preset: it shows the happy path, not error handling"
)]

use hybp_repro::bp_common::Telemetry;
use hybp_repro::bp_pipeline::{SimConfig, Simulation};
use hybp_repro::bp_workloads::SpecBenchmark;
use hybp_repro::hybp::{cost, Mechanism};

fn main() {
    // A laptop-sized run: ~1.2M instructions of a branch-heavy benchmark.
    let mut cfg = SimConfig::default_run();
    cfg.warmup_instructions = 300_000;
    cfg.measure_instructions = 900_000;
    let bench = SpecBenchmark::Deepsjeng;

    println!(
        "workload: {} ({} static branches, target accuracy {:.1}%)",
        bench.name(),
        bench.profile().static_branches,
        bench.profile().target_accuracy * 100.0
    );

    for mech in [Mechanism::Baseline, Mechanism::hybp_default()] {
        // An in-memory telemetry ring captures span events (key refreshes,
        // context-switch stalls) alongside the plain counters.
        let sink = Telemetry::ring(4096);
        let metrics = Simulation::builder(mech, cfg)
            .single_thread(bench)
            .telemetry(sink.clone())
            .build()
            .expect("valid config")
            .run()
            .expect("completes");
        let stats = metrics.bpu;
        let refreshes = sink
            .drain()
            .iter()
            .filter(|e| e.scope == "keys" && e.name == "refresh")
            .count();
        println!(
            "{:<10} IPC {:.3} | direction accuracy {:.2}% | BTB hits L0/L1/L2 {:?} | misses {} \
             | key refreshes {}",
            mech.to_string(),
            metrics.threads[0].ipc(),
            stats.direction_accuracy() * 100.0,
            stats.btb_hits,
            stats.btb_misses,
            refreshes
        );
    }

    let c = cost::mechanism_cost(&Mechanism::hybp_default(), 2);
    println!(
        "HyBP hardware overhead: {:.1} KB ({:.1}% of the baseline predictor)",
        c.overhead_bytes() as f64 / 1024.0,
        c.overhead_fraction() * 100.0
    );
    println!(
        "  replicas {:.1} KB + keys tables {:.1} KB + cipher {:.1} KB",
        c.replication_bytes as f64 / 1024.0,
        c.keys_tables_bytes as f64 / 1024.0,
        c.cipher_bytes as f64 / 1024.0
    );
}
