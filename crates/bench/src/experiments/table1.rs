//! Table I: performance overhead, hardware cost and security coverage of
//! every defense mechanism, at the default Linux-time-slice context-switch
//! interval on an SMT-2 core.

use crate::{
    degradation, no_switch_config, smt_point_cached, st_point_cached, Ctx, ExpResult,
    DEFAULT_INTERVAL,
};
use bp_workloads::TABLE_V_MIXES;
use hybp::cost::mechanism_cost;
use hybp::Mechanism;

/// SMT throughput under `mech` across all Table V mixes (no-switch runs;
/// context-switch effects at 16M are folded in via the single-thread model
/// which the fig5/fig6 experiments quantify — at 16M they are < 1% for every
/// mechanism except via their fixed parts, which these runs capture).
/// The per-mix runs fan out as one supervised sweep; `None` when every
/// mix point was lost.
fn smt_throughput(ctx: &Ctx, label: &str, mech: Mechanism) -> Option<f64> {
    let mixes: Vec<_> = TABLE_V_MIXES.to_vec();
    let thrs: Vec<f64> = ctx
        .sweep(label, &mixes, |mix| {
            smt_point_cached(ctx, mech, mix.pair, no_switch_config(ctx.scale)).0
        })
        .into_iter()
        .flatten()
        .collect();
    if thrs.is_empty() {
        None
    } else {
        Some(thrs.iter().sum::<f64>() / thrs.len() as f64)
    }
}

pub fn run(ctx: &Ctx) -> ExpResult {
    let mut csv = ctx.csv(
        "table1_comparison.csv",
        "mechanism,perf_overhead,hw_cost_pct,single_thread_secure,smt_secure",
    );
    println!("Table I: comparison of security mechanisms (SMT-2, {DEFAULT_INTERVAL}-cycle slices)");
    println!(
        "{:<18} {:>10} {:>9} {:>14} {:>6}",
        "mechanism", "perf ovh", "hw cost", "single-thread", "SMT"
    );
    let Some(baseline_thr) = smt_throughput(ctx, "table1:smt:Baseline", Mechanism::Baseline) else {
        // No reference point — nothing downstream can be computed.
        return ctx.finish_experiment(csv);
    };
    let solo_thr = {
        // Disable-SMT: only the first member of each mix runs.
        let mixes: Vec<_> = TABLE_V_MIXES.to_vec();
        let thrs: Vec<f64> = ctx
            .sweep("table1:solo", &mixes, |mix| {
                st_point_cached(
                    ctx,
                    Mechanism::Baseline,
                    mix.pair[0],
                    no_switch_config(ctx.scale),
                )
                .0
            })
            .into_iter()
            .flatten()
            .collect();
        if thrs.is_empty() {
            None
        } else {
            Some(thrs.iter().sum::<f64>() / thrs.len() as f64)
        }
    };
    let rows: [(Mechanism, &str, &str); 5] = [
        (Mechanism::Flush, "yes", "NO"),
        (Mechanism::Partition, "yes", "yes"),
        (Mechanism::replication_default(), "yes", "yes"),
        (Mechanism::DisableSmt, "-", "yes"),
        (Mechanism::hybp_default(), "yes", "yes"),
    ];
    println!(
        "{:<18} {:>10} {:>9} {:>14} {:>6}   (baseline throughput {:.3})",
        "Baseline", "0.0%", "0%", "NO", "NO", baseline_thr
    );
    for (mech, st_sec, smt_sec) in rows {
        let thr = match mech {
            Mechanism::DisableSmt => solo_thr,
            m => smt_throughput(ctx, &format!("table1:smt:{}", m.name()), m),
        };
        let Some(thr) = thr else { continue };
        let overhead = degradation(thr, baseline_thr);
        let cost = mechanism_cost(&mech, 2);
        println!(
            "{:<18} {:>9.1}% {:>8.1}% {:>14} {:>6}",
            mech.to_string(),
            overhead * 100.0,
            cost.overhead_fraction() * 100.0,
            st_sec,
            smt_sec
        );
        csv.row(format_args!(
            "{},{:.4},{:.4},{},{}",
            mech,
            overhead,
            cost.overhead_fraction(),
            st_sec,
            smt_sec
        ));
    }
    println!();
    println!("(paper: Flush 5.1%/0, Partition 6.3%/0, Replication 2.1%/100%,");
    println!(" DisableSMT 18%/0, HyBP 0.5%/21.1%)");
    ctx.finish_experiment(csv)
}
