//! Figure 2: IPC loss when the front-end pipeline grows by +2/+4/+8 cycles
//! (the cost of putting an encryption engine on the prediction critical
//! path), per benchmark, with each benchmark's prediction accuracy.

use crate::{all_benchmarks, degradation, no_switch_config, pct, Ctx, ExpResult, Point};
use hybp::Mechanism;

pub fn run(ctx: &Ctx) -> ExpResult {
    let mut csv = ctx.csv(
        "fig2_pipeline_latency.csv",
        "benchmark,accuracy,loss_plus2,loss_plus4,loss_plus8",
    );
    println!("Figure 2: performance impact of extra front-end latency");
    println!(
        "{:<14} {:>9} {:>8} {:>8} {:>8}",
        "benchmark", "accuracy", "+2cyc", "+4cyc", "+8cyc"
    );
    let benches = all_benchmarks();
    // Supervised sweep: per-benchmark (accuracy, losses) tuples.
    let rows: Vec<Option<(f64, [f64; 3])>> = ctx.sweep("fig2:benches", &benches, |&bench| {
        let base = ctx.point(&Point::single(
            Mechanism::Baseline,
            bench,
            no_switch_config(ctx.scale),
        ));
        let (base_ipc, accuracy) = (base.threads[0].ipc(), base.bpu.direction_accuracy());
        let mut losses = [0.0f64; 3];
        for (k, extra) in [2u32, 4, 8].iter().enumerate() {
            let mut cfg = no_switch_config(ctx.scale);
            cfg.core.extra_frontend_cycles = *extra;
            losses[k] = degradation(ctx.ipc(Mechanism::Baseline, bench, cfg), base_ipc);
        }
        (accuracy, losses)
    });
    let mut avgs = [Vec::new(), Vec::new(), Vec::new()];
    for (bench, slot) in benches.iter().zip(&rows) {
        let Some((accuracy, losses)) = *slot else {
            continue;
        };
        for (k, loss) in losses.iter().enumerate() {
            avgs[k].push(*loss);
        }
        println!(
            "{:<14} {:>8.1}% {:>8} {:>8} {:>8}",
            bench.name(),
            accuracy * 100.0,
            pct(losses[0]),
            pct(losses[1]),
            pct(losses[2])
        );
        csv.row(format_args!(
            "{},{:.4},{:.4},{:.4},{:.4}",
            bench.name(),
            accuracy,
            losses[0],
            losses[1],
            losses[2]
        ));
    }
    if !avgs[0].is_empty() {
        let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        println!(
            "{:<14} {:>9} {:>8} {:>8} {:>8}",
            "average",
            "",
            pct(mean(&avgs[0])),
            pct(mean(&avgs[1])),
            pct(mean(&avgs[2]))
        );
        csv.row(format_args!(
            "average,,{:.4},{:.4},{:.4}",
            mean(&avgs[0]),
            mean(&avgs[1]),
            mean(&avgs[2])
        ));
    }
    println!("(paper: up to 19.5% at +8 cycles; ~7.8% average at +8)");
    ctx.finish_experiment(csv)
}
