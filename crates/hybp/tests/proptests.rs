//! Property-based tests on the HyBP codec and mechanisms, on the in-repo
//! deterministic harness (`bp_common::check`).

#![allow(
    clippy::expect_used,
    reason = "test setup helpers abort the test on a broken fixture, as a failed assertion would"
)]

use bp_common::check::Checker;
use bp_common::{Addr, Asid, BranchRecord, HwThreadId, Vmid};
use bp_predictors::codec::{TableCodec, TableId, TableUnit};
use hybp::{HybpCodec, HybpConfig, Mechanism, SecureBpu};

fn l2() -> TableId {
    TableId::new(TableUnit::Btb, 2)
}

fn codec(seed: u64) -> HybpCodec {
    HybpCodec::new(&HybpConfig::paper_default(), 4, seed).expect("paper default is valid")
}

/// Content encode/decode round-trips for any value, slot and key state.
#[test]
fn content_roundtrips() {
    Checker::new("content_roundtrips").cases(128).run(|g| {
        let (value, seed) = (g.u64(), g.u64());
        let slot = g.usize_in(0, 4);
        let mut c = codec(seed);
        c.renew_slot(slot, Asid::new(1), 0);
        c.set_context(slot, Asid::new(1), Vmid::new(0));
        let enc = c.encode_content(l2(), value);
        assert_eq!(c.decode_content(l2(), enc), value);
    });
}

/// Index/tag transforms are deterministic between key changes: the same
/// (pc, raw) maps identically at any two times within a generation.
#[test]
fn transforms_stable_within_generation() {
    Checker::new("transforms_stable_within_generation").run(|g| {
        let (pc, raw, seed) = (g.u64(), g.u64(), g.u64());
        let t1 = g.in_range(10_000, 1_000_000);
        let t2 = g.in_range(10_000, 1_000_000);
        let mut c = codec(seed);
        c.renew_slot(0, Asid::new(1), 0);
        c.set_context(0, Asid::new(1), Vmid::new(0));
        let a = c.transform_index(l2(), raw, Addr::new(pc), t1);
        let b = c.transform_index(l2(), raw, Addr::new(pc), t2);
        assert_eq!(a, b);
        let ta = c.transform_tag(l2(), raw, Addr::new(pc), t1);
        let tb = c.transform_tag(l2(), raw, Addr::new(pc), t2);
        assert_eq!(ta, tb);
    });
}

/// Isolated tables pass through unchanged for any inputs.
#[test]
fn isolated_tables_identity() {
    Checker::new("isolated_tables_identity")
        .cases(128)
        .run(|g| {
            let (raw, pc, seed) = (g.u64(), g.u64(), g.u64());
            let level = g.usize_in(0, 2);
            let mut c = codec(seed);
            c.renew_slot(0, Asid::new(1), 0);
            c.set_context(0, Asid::new(1), Vmid::new(0));
            let id = TableId::new(TableUnit::Btb, level);
            assert_eq!(c.transform_index(id, raw, Addr::new(pc), 5_000), raw);
            assert_eq!(c.encode_content(id, raw), raw);
        });
}

/// The BPU never panics and keeps counters consistent for arbitrary branch
/// streams under every mechanism.
#[test]
fn bpu_counters_consistent() {
    Checker::new("bpu_counters_consistent").cases(24).run(|g| {
        let seed = g.u64();
        let stream = {
            let len = g.usize_in(1, 80);
            g.vec(len, |g| {
                (
                    g.u32_in(0, 1 << 16) as u16,
                    g.bool(),
                    g.u32_in(0, 1 << 16) as u16,
                )
            })
        };
        for mech in [
            Mechanism::Baseline,
            Mechanism::hybp_default(),
            Mechanism::Partition,
        ] {
            let mut bpu = SecureBpu::new(mech, 2, seed).expect("valid config");
            let hw = HwThreadId::new((seed % 2) as u8);
            bpu.on_context_switch(hw, Asid::new(5), 0);
            let mut conds = 0u64;
            for (i, &(pc16, taken, tgt16)) in stream.iter().enumerate() {
                let r = BranchRecord::conditional(
                    Addr::new(0x1000 + u64::from(pc16) * 4),
                    Addr::new(0x9000 + u64::from(tgt16) * 4),
                    taken,
                    1,
                );
                conds += 1;
                let _ = bpu.process_branch(hw, &r, 1_000 + i as u64 * 8);
            }
            let s = bpu.observation().stats;
            assert_eq!(s.branches, conds);
            assert_eq!(s.conditional_branches, conds);
            assert!(s.direction_mispredicts <= conds);
        }
    });
}

/// Renewing one slot never perturbs another slot's index mapping.
#[test]
fn renewal_is_slot_local() {
    Checker::new("renewal_is_slot_local").cases(128).run(|g| {
        let (pc, raw, seed) = (g.u64(), g.u64(), g.u64());
        let mut c = codec(seed);
        c.renew_slot(0, Asid::new(1), 0);
        c.renew_slot(1, Asid::new(2), 0);
        c.set_context(1, Asid::new(2), Vmid::new(0));
        let before = c.transform_index(l2(), raw, Addr::new(pc), 50_000);
        c.renew_slot(0, Asid::new(1), 60_000);
        c.set_context(1, Asid::new(2), Vmid::new(0));
        let after = c.transform_index(l2(), raw, Addr::new(pc), 70_000);
        assert_eq!(before, after);
    });
}

/// Construction rejects invalid configurations with typed errors instead of
/// panicking.
#[test]
fn construction_rejects_bad_configs() {
    assert!(SecureBpu::new(Mechanism::Baseline, 0, 1).is_err());
    let mut cfg = HybpConfig::paper_default();
    cfg.renewal_threshold = 0;
    assert!(SecureBpu::new(Mechanism::HyBp(cfg), 2, 1).is_err());
    assert!(HybpCodec::new(&cfg, 4, 1).is_err());
    assert!(SecureBpu::new(
        Mechanism::Replication {
            extra_storage_pct: 100_000
        },
        2,
        1
    )
    .is_err());
}
