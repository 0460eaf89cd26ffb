//! §VII-F context: the performance value of modern branch prediction —
//! TAGE-SC-L versus a decades-old tournament predictor on the same core.
//! The paper quotes ≈ 5.4% in its setup, arguing that single-digit
//! protection overheads squander real generational gains.

use crate::{all_benchmarks, degradation, no_switch_config, Ctx, ExpResult};
use hybp::Mechanism;

pub fn run(ctx: &Ctx) -> ExpResult {
    let mut csv = ctx.csv(
        "sec7f_tage_vs_tournament.csv",
        "benchmark,tage_ipc,tournament_ipc,tage_gain",
    );
    println!("§VII-F: TAGE-SC-L vs tournament predictor (unprotected baseline core)");
    println!(
        "{:<14} {:>10} {:>12} {:>10}",
        "benchmark", "TAGE IPC", "tourney IPC", "TAGE gain"
    );
    let benches = all_benchmarks();
    // Supervised sweep: both predictor runs per benchmark are one task.
    let rows: Vec<Option<(f64, f64)>> = ctx.sweep("sec7f:benches", &benches, |&bench| {
        let cfg = no_switch_config(ctx.scale);
        let tage = ctx.ipc(Mechanism::Baseline, bench, cfg);
        let tourney = ctx.ipc(Mechanism::TournamentBaseline, bench, cfg);
        (tage, tourney)
    });
    let mut gains = Vec::new();
    for (bench, slot) in benches.iter().zip(&rows) {
        let Some((tage, tourney)) = *slot else {
            continue;
        };
        let gain = -degradation(tage, tourney); // positive = TAGE faster
        gains.push(gain);
        println!(
            "{:<14} {:>10.3} {:>12.3} {:>9.2}%",
            bench.name(),
            tage,
            tourney,
            gain * 100.0
        );
        csv.row(format_args!(
            "{},{:.4},{:.4},{:.5}",
            bench.name(),
            tage,
            tourney,
            gain
        ));
    }
    if !gains.is_empty() {
        let avg = gains.iter().sum::<f64>() / gains.len() as f64;
        println!(
            "{:<14} {:>10} {:>12} {:>9.2}%",
            "average",
            "",
            "",
            avg * 100.0
        );
        csv.row(format_args!("average,,,{:.5}", avg));
    }
    println!();
    println!("(paper: ≈ 5.4% average gain from TAGE-SC-L over the tournament predictor)");
    ctx.finish_experiment(csv)
}
