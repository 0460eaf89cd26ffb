//! Exhaustive mechanism × scenario matrix tests: every protection mechanism
//! must behave sanely under every workload/topology combination the
//! harnesses use (no panics, plausible metrics, correct event handling).

#![allow(
    clippy::expect_used,
    reason = "test setup helpers abort the test on a broken fixture, as a failed assertion would"
)]

use hybp_repro::bp_common::{Addr, Asid, BranchKind, BranchRecord, HwThreadId, Privilege};
use hybp_repro::bp_pipeline::{RunMetrics, SimConfig, Simulation};
use hybp_repro::bp_workloads::profile::SpecBenchmark;
use hybp_repro::bp_workloads::WorkloadGenerator;
use hybp_repro::hybp::{HybpConfig, Mechanism, SecureBpu};

fn all_mechanisms() -> Vec<Mechanism> {
    vec![
        Mechanism::Baseline,
        Mechanism::Flush,
        Mechanism::Partition,
        Mechanism::Replication {
            extra_storage_pct: 0,
        },
        Mechanism::Replication {
            extra_storage_pct: 100,
        },
        Mechanism::Replication {
            extra_storage_pct: 300,
        },
        Mechanism::DisableSmt,
        Mechanism::hybp_default(),
        Mechanism::HyBp(HybpConfig::randomization_only()),
        Mechanism::HyBp(HybpConfig::with_keys_entries(32 * 1024)),
        Mechanism::TournamentBaseline,
    ]
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
fn every_mechanism_survives_event_storms() {
    // Rapid-fire context switches and privilege flips must never corrupt
    // state or panic, for any mechanism.
    for mech in all_mechanisms() {
        let mut bpu = SecureBpu::new(mech, 2, 99).expect("valid mechanism");
        let mut now = 0u64;
        for round in 0..50u64 {
            for t in 0..2u8 {
                let hw = HwThreadId::new(t);
                bpu.on_context_switch(hw, Asid::new((round % 7) as u16 + 1), now);
                bpu.on_privilege_change(hw, Privilege::Kernel, now + 1);
                let r = BranchRecord::conditional(
                    Addr::new(0x1000 + round * 4),
                    Addr::new(0x2000),
                    round % 2 == 0,
                    1,
                );
                let _ = bpu.process_branch(hw, &r, now + 2);
                bpu.on_privilege_change(hw, Privilege::User, now + 3);
            }
            now += 100;
        }
        let stats = bpu.observation().stats;
        assert_eq!(stats.context_switches, 100, "{mech}");
        assert_eq!(stats.privilege_changes, 200, "{mech}");
    }
}

#[test]
fn hybp_key_reads_on_a_generator_stream_are_pinned() {
    // One key read per index or tag transform of the L2 BTB or a TAGE
    // tagged table. A change to what the renewal counter counts moves this.
    let mut bpu = SecureBpu::new(Mechanism::hybp_default(), 1, 7).expect("valid mechanism");
    let hw = HwThreadId::new(0);
    bpu.on_context_switch(hw, Asid::new(1), 0);
    let mut generator = WorkloadGenerator::new(SpecBenchmark::Mcf.profile(), 42);
    let mut now = 1u64;
    for _ in 0..10_000 {
        let r = generator.next_branch();
        now += u64::from(r.gap) + 1;
        let _ = bpu.process_branch(hw, &r, now);
    }
    let codec = bpu.observation().codec.expect("hybp has a codec");
    assert_eq!(codec.randomized_accesses, 282_618);
    assert_eq!(codec.counter_renewals, 0);
}

#[test]
fn every_mechanism_handles_every_branch_kind() {
    for mech in all_mechanisms() {
        let mut bpu = SecureBpu::new(mech, 1, 7).expect("valid mechanism");
        let hw = HwThreadId::new(0);
        let records = [
            BranchRecord::conditional(Addr::new(0x100), Addr::new(0x200), true, 2),
            BranchRecord::conditional(Addr::new(0x104), Addr::new(0x200), false, 2),
            BranchRecord::unconditional(Addr::new(0x108), BranchKind::Direct, Addr::new(0x300), 2),
            BranchRecord::unconditional(
                Addr::new(0x10C),
                BranchKind::Indirect,
                Addr::new(0x400),
                2,
            ),
            BranchRecord::unconditional(Addr::new(0x110), BranchKind::Call, Addr::new(0x500), 2),
            BranchRecord::unconditional(Addr::new(0x520), BranchKind::Return, Addr::new(0x114), 2),
        ];
        for (i, r) in records.iter().enumerate() {
            let _ = bpu.process_branch(hw, r, i as u64 * 10);
        }
        let stats = bpu.observation().stats;
        assert_eq!(stats.branches, 6, "{mech}");
        assert_eq!(stats.conditional_branches, 2, "{mech}");
    }
}

#[test]
fn replication_sweep_is_monotone_in_capacity() {
    // More replication storage must never make steady-state IPC worse on a
    // capacity-sensitive benchmark (sanity for the Figure-8 sweep).
    let mut cfg = SimConfig::quick_test();
    cfg.warmup_instructions = 100_000;
    cfg.measure_instructions = 500_000;
    let ipc = |pct: u32| {
        run_st(
            Mechanism::Replication {
                extra_storage_pct: pct,
            },
            SpecBenchmark::Xz,
            cfg,
        )
        .threads[0]
            .ipc()
    };
    let low = ipc(0);
    let high = ipc(300);
    assert!(
        high > low * 0.99,
        "replication +300% ({high}) must not lose to +0% ({low})"
    );
}

#[test]
fn smt_derate_caps_scaling() {
    // SMT throughput must exceed solo but stay well below additive.
    let mut cfg = SimConfig::quick_test();
    cfg.warmup_instructions = 80_000;
    cfg.measure_instructions = 300_000;
    let solo_a = run_st(Mechanism::Baseline, SpecBenchmark::Wrf, cfg).throughput();
    let solo_b = run_st(Mechanism::Baseline, SpecBenchmark::Namd, cfg).throughput();
    let smt = run_smt(
        Mechanism::Baseline,
        [SpecBenchmark::Wrf, SpecBenchmark::Namd],
        cfg,
    )
    .throughput();
    assert!(
        smt > solo_a.max(solo_b) * 1.02,
        "smt {smt} vs solos {solo_a}/{solo_b}"
    );
    assert!(
        smt < (solo_a + solo_b) * 0.95,
        "smt scaling unrealistically additive: {smt} vs {solo_a}+{solo_b}"
    );
}

#[test]
fn tournament_baseline_is_slower_than_tage() {
    let mut cfg = SimConfig::quick_test();
    cfg.warmup_instructions = 100_000;
    cfg.measure_instructions = 400_000;
    let tage = run_st(Mechanism::Baseline, SpecBenchmark::Deepsjeng, cfg).threads[0].ipc();
    let tourney =
        run_st(Mechanism::TournamentBaseline, SpecBenchmark::Deepsjeng, cfg).threads[0].ipc();
    assert!(tage > tourney, "TAGE {tage} must beat tournament {tourney}");
}
