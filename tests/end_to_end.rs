//! End-to-end integration tests: workloads → secure BPU → pipeline →
//! metrics, across protection mechanisms.

#![allow(
    clippy::expect_used,
    reason = "test setup helpers abort the test on a broken fixture, as a failed assertion would"
)]

use hybp_repro::bp_pipeline::{RunMetrics, SimConfig, Simulation};
use hybp_repro::bp_workloads::profile::SpecBenchmark;
use hybp_repro::bp_workloads::TABLE_V_MIXES;
use hybp_repro::hybp::{cost, HybpConfig, Mechanism};

fn quick() -> SimConfig {
    let mut cfg = SimConfig::quick_test();
    cfg.warmup_instructions = 60_000;
    cfg.measure_instructions = 250_000;
    cfg
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
fn every_mechanism_completes_a_single_thread_run() {
    for mech in [
        Mechanism::Baseline,
        Mechanism::Flush,
        Mechanism::Partition,
        Mechanism::replication_default(),
        Mechanism::DisableSmt,
        Mechanism::hybp_default(),
        Mechanism::TournamentBaseline,
    ] {
        let m = run_st(mech, SpecBenchmark::Xz, quick());
        assert!(
            m.threads[0].ipc() > 0.3 && m.threads[0].ipc() < 8.0,
            "{mech}: ipc {}",
            m.threads[0].ipc()
        );
        assert!(m.bpu.branches > 10_000, "{mech}: too few branches");
    }
}

#[test]
fn every_mix_completes_an_smt_run_under_hybp() {
    for mix in &TABLE_V_MIXES[..4] {
        let m = run_smt(Mechanism::hybp_default(), mix.pair, quick());
        assert_eq!(m.threads.len(), 2, "{}", mix.label());
        for t in &m.threads {
            assert!(t.ipc() > 0.2, "{}: ipc {}", mix.label(), t.ipc());
        }
    }
}

#[test]
fn hybp_overhead_is_far_below_flush_and_partition() {
    // The paper's headline, end to end: at the default time slice HyBP's
    // cost is a small fraction of the alternatives'.
    let mut cfg = quick();
    cfg.measure_instructions = 1_200_000;
    let bench = SpecBenchmark::Deepsjeng;
    let ipc = |mech| run_st(mech, bench, cfg).threads[0].ipc();
    let base = ipc(Mechanism::Baseline);
    let hybp = ipc(Mechanism::hybp_default());
    let flush = ipc(Mechanism::Flush);
    let partition = ipc(Mechanism::Partition);
    let loss = |x: f64| (base - x) / base;
    assert!(
        loss(hybp) < loss(flush) * 0.6,
        "hybp {:.4} vs flush {:.4}",
        loss(hybp),
        loss(flush)
    );
    assert!(
        loss(hybp) < loss(partition) * 0.6,
        "hybp {:.4} vs partition {:.4}",
        loss(hybp),
        loss(partition)
    );
}

#[test]
fn smt_beats_disable_smt_in_throughput() {
    // Table I's Disable-SMT row: turning SMT off costs throughput.
    let mix = TABLE_V_MIXES[6]; // wrf + mcf
    let smt = run_smt(Mechanism::Baseline, mix.pair, quick()).throughput();
    let solo = run_st(Mechanism::Baseline, mix.pair[0], quick()).throughput();
    assert!(smt > solo, "smt {smt} vs solo {solo}");
}

#[test]
fn hardware_cost_is_consistent_with_bpu_storage() {
    // The cost model's baseline must match the assembled baseline BPU's
    // table storage within rounding.
    let bpu = hybp_repro::hybp::SecureBpu::new(Mechanism::Baseline, 1, 1).expect("valid mechanism");
    let model = cost::baseline_bpu_bytes();
    let actual = bpu.storage_bits().div_ceil(8);
    let ratio = actual as f64 / model as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "assembled {actual} B vs model {model} B"
    );
}

#[test]
fn keys_table_size_increases_hybp_cost_but_not_accuracy_much() {
    let small = Mechanism::HyBp(HybpConfig::with_keys_entries(1024));
    let large = Mechanism::HyBp(HybpConfig::with_keys_entries(32 * 1024));
    assert!(
        cost::mechanism_cost(&large, 2).overhead_bytes()
            > cost::mechanism_cost(&small, 2).overhead_bytes()
    );
    // Without context switches the table size is performance-neutral.
    let ipc_small = run_st(small, SpecBenchmark::Wrf, quick()).threads[0].ipc();
    let ipc_large = run_st(large, SpecBenchmark::Wrf, quick()).threads[0].ipc();
    let delta = (ipc_small - ipc_large).abs() / ipc_small;
    assert!(
        delta < 0.02,
        "keys-table size changed steady-state IPC by {delta}"
    );
}

#[test]
fn deterministic_given_seed() {
    let a = run_st(Mechanism::hybp_default(), SpecBenchmark::Cam4, quick());
    let b = run_st(Mechanism::hybp_default(), SpecBenchmark::Cam4, quick());
    assert_eq!(a.threads[0].retired, b.threads[0].retired);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.bpu.direction_mispredicts, b.bpu.direction_mispredicts);
}
