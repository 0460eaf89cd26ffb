//! Property-based tests on the predictor structures, on the in-repo
//! deterministic harness (`bp_common::check`).

use bp_common::check::Checker;
use bp_common::Addr;
use bp_predictors::btb::{BtbConfig, BtbHierarchy, BtbTable};
use bp_predictors::codec::{IdentityCodec, TableId, TableUnit};
use bp_predictors::ras::ReturnAddressStack;
use bp_predictors::tage_scl::TageScL;

/// Insert-then-lookup returns the stored content for any PC/target,
/// regardless of geometry.
#[test]
fn btb_insert_lookup_roundtrip() {
    Checker::new("btb_insert_lookup_roundtrip")
        .cases(256)
        .run(|g| {
            let sets_pow = g.u32_in(0, 8);
            let ways = g.usize_in(1, 8);
            let (pc, content) = (g.u64(), g.u64());
            let cfg = BtbConfig::new(1 << sets_pow, ways, 24);
            let mut t = BtbTable::new(cfg, TableId::new(TableUnit::Btb, 0), 1);
            let mut c = IdentityCodec::new();
            t.insert(Addr::new(pc), content, &mut c, 0);
            assert_eq!(t.lookup(Addr::new(pc), &mut c, 1), Some(content));
        });
}

/// Occupancy never exceeds capacity and flush always zeroes it.
#[test]
fn btb_occupancy_bounded() {
    Checker::new("btb_occupancy_bounded").run(|g| {
        let len = g.usize_in(1, 300);
        let pcs = g.vec(len, |g| g.u64());
        let cfg = BtbConfig::new(16, 2, 16);
        let mut t = BtbTable::new(cfg, TableId::new(TableUnit::Btb, 1), 2);
        let mut c = IdentityCodec::new();
        for (i, &pc) in pcs.iter().enumerate() {
            t.insert(Addr::new(pc), i as u64, &mut c, i as u64);
            assert!(t.occupancy() <= cfg.entries());
        }
        t.flush();
        assert_eq!(t.occupancy(), 0);
    });
}

/// The hierarchy finds a just-installed branch at L0 for any PC.
#[test]
fn hierarchy_install_hits() {
    Checker::new("hierarchy_install_hits").cases(128).run(|g| {
        let (pc, tgt) = (g.u64(), g.u64());
        let mut h = BtbHierarchy::zen2();
        let mut c = IdentityCodec::new();
        h.update(Addr::new(pc), Addr::new(tgt), &mut c, 0);
        let r = h.lookup(Addr::new(pc), &mut c, 1);
        assert_eq!(r.level(), Some(0));
        assert_eq!(r.target(), Some(Addr::new(tgt)));
    });
}

/// Direction predictors converge on any constant-direction branch.
#[test]
fn tage_learns_any_constant_branch() {
    Checker::new("tage_learns_any_constant_branch")
        .cases(64)
        .run(|g| {
            let (pc, dir) = (g.u64(), g.bool());
            let mut p = TageScL::paper_default();
            let mut c = IdentityCodec::new();
            for i in 0..32u64 {
                let _ = p.predict_slot(Addr::new(pc), 0, &mut c, i);
                p.update_slot(Addr::new(pc), 0, dir, &mut c, i);
            }
            assert_eq!(p.predict_slot(Addr::new(pc), 0, &mut c, 100), dir);
        });
}

/// The RAS is a strict LIFO up to its capacity, for any push sequence.
#[test]
fn ras_is_lifo() {
    Checker::new("ras_is_lifo").run(|g| {
        let len = g.usize_in(1, 32);
        let addrs = g.vec(len, |g| g.u64());
        let mut ras = ReturnAddressStack::new(64);
        for &a in &addrs {
            ras.push(Addr::new(a));
        }
        for &a in addrs.iter().rev() {
            assert_eq!(ras.pop(), Some(Addr::new(a)));
        }
        assert_eq!(ras.pop(), None);
    });
}

/// Predictions are deterministic: two identical predictors fed the same
/// stream agree everywhere.
#[test]
fn tage_is_deterministic() {
    Checker::new("tage_is_deterministic").cases(32).run(|g| {
        let len = g.usize_in(1, 200);
        let stream = g.vec(len, |g| (g.u32_in(0, 1 << 16) as u16, g.bool()));
        let mut a = TageScL::paper_default();
        let mut b = TageScL::paper_default();
        let mut ca = IdentityCodec::new();
        let mut cb = IdentityCodec::new();
        for (i, &(pc16, taken)) in stream.iter().enumerate() {
            let pc = Addr::new(0x1000 + u64::from(pc16) * 4);
            let pa = a.predict_slot(pc, 0, &mut ca, i as u64);
            let pb = b.predict_slot(pc, 0, &mut cb, i as u64);
            assert_eq!(pa, pb);
            a.update_slot(pc, 0, taken, &mut ca, i as u64);
            b.update_slot(pc, 0, taken, &mut cb, i as u64);
        }
    });
}
