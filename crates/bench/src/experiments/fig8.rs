//! Figure 8: performance loss of the Replication mechanism as branch
//! predictor storage scales from +0% to +300%, against HyBP's fixed
//! (0.5% loss, 21.1% storage) point — the crossover the paper places at
//! ≈ +240%.

use crate::{degradation, mean_smt_throughput, no_switch_config, Ctx, ExpResult, Point};
use bp_workloads::TABLE_V_MIXES;
use hybp::cost::mechanism_cost;
use hybp::Mechanism;

const SWEEP: [u32; 8] = [0, 40, 80, 120, 160, 200, 240, 300];

pub fn run(ctx: &Ctx) -> ExpResult {
    let mut csv = ctx.csv(
        "fig8_replication_sweep.csv",
        "mechanism,extra_storage_pct,perf_loss",
    );
    println!("Figure 8: Replication storage sweep vs HyBP (SMT-2, Table V mixes)");
    let (Some(baseline), Some(hybp_thr)) = (
        mean_smt_throughput(ctx, "fig8:smt:Baseline", Mechanism::Baseline),
        mean_smt_throughput(ctx, "fig8:smt:HyBP", Mechanism::hybp_default()),
    ) else {
        // No reference points — nothing downstream can be computed.
        return ctx.finish_experiment(csv);
    };
    let hybp_loss = degradation(hybp_thr, baseline);
    let hybp_cost = mechanism_cost(&Mechanism::hybp_default(), 2).overhead_fraction();
    println!(
        "HyBP reference point: {:.2}% loss at {:.1}% storage overhead",
        hybp_loss * 100.0,
        hybp_cost * 100.0
    );
    csv.row(format_args!(
        "HyBP,{:.1},{:.5}",
        hybp_cost * 100.0,
        hybp_loss
    ));
    println!("{:>14} {:>10}", "extra storage", "perf loss");
    // Parallel phase: the whole (storage point × mix) grid at once, then
    // per-point averages summed serially in mix order.
    let mut jobs: Vec<(u32, usize)> = Vec::new();
    for &pct in &SWEEP {
        for mi in 0..TABLE_V_MIXES.len() {
            jobs.push((pct, mi));
        }
    }
    let thrs = ctx.sweep("fig8:grid", &jobs, |&(pct, mi)| {
        let mech = Mechanism::Replication {
            extra_storage_pct: pct,
        };
        ctx.point(&Point::pair(
            mech,
            TABLE_V_MIXES[mi].pair,
            no_switch_config(ctx.scale),
        ))
        .throughput()
    });
    let mut crossover: Option<u32> = None;
    for (k, &pct) in SWEEP.iter().enumerate() {
        let n = TABLE_V_MIXES.len();
        let done: Vec<f64> = thrs[k * n..(k + 1) * n].iter().flatten().copied().collect();
        let Some(avg) = bp_common::stats::mean(&done) else {
            println!("{:>13}% {:>10}", pct, "n/a");
            continue;
        };
        let loss = degradation(avg, baseline);
        println!("{:>13}% {:>9.2}%", pct, loss * 100.0);
        csv.row(format_args!("Replication,{},{:.5}", pct, loss));
        if crossover.is_none() && loss <= hybp_loss {
            crossover = Some(pct);
        }
    }
    match crossover {
        Some(p) => println!("Replication matches HyBP's loss at ≈ +{p}% storage (paper: ≈ +240%)"),
        None => println!("Replication never reaches HyBP's loss within the sweep (paper: ≈ +240%)"),
    }
    ctx.finish_experiment(csv)
}
