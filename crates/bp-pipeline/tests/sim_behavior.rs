//! Behavioural tests for the cycle-level core model.

#![allow(
    clippy::expect_used,
    reason = "test setup helpers abort the test on a broken fixture, as a failed assertion would"
)]

use bp_pipeline::{CoreConfig, RunMetrics, SimConfig, Simulation};
use bp_workloads::profile::SpecBenchmark;
use hybp::Mechanism;

fn cfg(measure: u64) -> SimConfig {
    let mut c = SimConfig::quick_test();
    c.warmup_instructions = 60_000;
    c.measure_instructions = measure;
    c
}

fn run_st(mech: Mechanism, bench: SpecBenchmark, cfg: SimConfig) -> RunMetrics {
    Simulation::builder(mech, cfg)
        .single_thread(bench)
        .build()
        .expect("valid config")
        .run()
        .expect("completes")
}

fn run_smt(mech: Mechanism, pair: [SpecBenchmark; 2], cfg: SimConfig) -> RunMetrics {
    Simulation::builder(mech, cfg)
        .smt(pair)
        .build()
        .expect("valid config")
        .run()
        .expect("completes")
}

#[test]
fn ipc_never_exceeds_structural_limits() {
    for b in [
        SpecBenchmark::Imagick,
        SpecBenchmark::Lbm,
        SpecBenchmark::Mcf,
    ] {
        let m = run_st(Mechanism::Baseline, b, cfg(300_000));
        let ipc = m.threads[0].ipc();
        let core = CoreConfig::sunny_cove();
        assert!(ipc <= f64::from(core.issue_width), "{b:?}: ipc {ipc}");
        assert!(
            ipc <= b.profile().base_ipc * 1.01,
            "{b:?}: ipc {ipc} exceeds intrinsic {}",
            b.profile().base_ipc
        );
    }
}

#[test]
fn bigger_mispredict_penalty_hurts() {
    let mut a = cfg(400_000);
    a.core.mispredict_penalty = 8;
    let mut b = cfg(400_000);
    b.core.mispredict_penalty = 32;
    let fast = run_st(Mechanism::Baseline, SpecBenchmark::Deepsjeng, a).threads[0].ipc();
    let slow = run_st(Mechanism::Baseline, SpecBenchmark::Deepsjeng, b).threads[0].ipc();
    assert!(
        slow < fast,
        "penalty 32 ({slow}) must be slower than 8 ({fast})"
    );
}

#[test]
fn kernel_episodes_charge_time() {
    // More frequent kernel episodes reduce user IPC even on the baseline
    // (the kernel's lower intrinsic ILP and predictor pollution).
    let mut rare = cfg(500_000);
    rare.kernel_timer_interval = u64::MAX / 4;
    let mut frequent = cfg(500_000);
    frequent.kernel_timer_interval = 60_000;
    let bench = SpecBenchmark::Wrf;
    let fast = run_st(Mechanism::Baseline, bench, rare).threads[0].ipc();
    let slow = run_st(Mechanism::Baseline, bench, frequent).threads[0].ipc();
    assert!(
        slow < fast,
        "frequent kernel entries ({slow}) must cost vs none ({fast})"
    );
}

#[test]
fn tiny_window_throttles_ipc() {
    let mut small = cfg(300_000);
    small.core.window_size = 8;
    let bench = SpecBenchmark::Imagick; // intrinsic IPC 4.4
    let throttled = run_st(Mechanism::Baseline, bench, small).threads[0].ipc();
    let normal = run_st(Mechanism::Baseline, bench, cfg(300_000)).threads[0].ipc();
    assert!(
        throttled < normal,
        "8-entry window ({throttled}) must throttle vs 176 ({normal})"
    );
}

#[test]
fn smt_threads_progress_together() {
    // Neither thread may be starved: both finish their measurement and the
    // slower thread's IPC is at least a third of its solo value.
    let c = cfg(250_000);
    let pair = [SpecBenchmark::Imagick, SpecBenchmark::Mcf];
    let smt = run_smt(Mechanism::Baseline, pair, c);
    for (i, t) in smt.threads.iter().enumerate() {
        assert_eq!(t.retired, c.measure_instructions, "thread {i} starved");
        let solo = run_st(Mechanism::Baseline, pair[i], c).threads[0].ipc();
        assert!(
            t.ipc() > solo / 3.0,
            "thread {i} ipc {} vs solo {solo}",
            t.ipc()
        );
    }
}

#[test]
fn metrics_are_reproducible_across_identical_runs() {
    let a = run_smt(
        Mechanism::hybp_default(),
        [SpecBenchmark::Xz, SpecBenchmark::Namd],
        cfg(200_000),
    );
    let b = run_smt(
        Mechanism::hybp_default(),
        [SpecBenchmark::Xz, SpecBenchmark::Namd],
        cfg(200_000),
    );
    assert_eq!(a, b, "identical configs must produce identical metrics");
}

#[test]
fn different_seeds_produce_different_runs() {
    let mut c2 = cfg(200_000);
    c2.seed ^= 0xFFFF;
    let a = run_st(Mechanism::Baseline, SpecBenchmark::Cam4, cfg(200_000));
    let b = run_st(Mechanism::Baseline, SpecBenchmark::Cam4, c2);
    assert_ne!(
        a.cycles, b.cycles,
        "different seeds should perturb the cycle count"
    );
}
