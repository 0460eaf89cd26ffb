//! Figure 5: normalized IPC of HyBP per application across context-switch
//! intervals (256K..16M cycles).

use crate::{all_benchmarks, ipc_at, overhead_model, Ctx, ExpResult, INTERVALS};
use bp_workloads::profile::SpecBenchmark;
use hybp::Mechanism;

pub fn run(ctx: &Ctx) -> ExpResult {
    match &ctx.bench_subset {
        Some(subset) => run_with_benches(ctx, subset),
        None => run_with_benches(ctx, &all_benchmarks()),
    }
}

/// [`run`] over an explicit benchmark subset (what the determinism tests
/// use to exercise the full telemetry path at a fraction of the cost).
pub fn run_with_benches(ctx: &Ctx, benches: &[SpecBenchmark]) -> ExpResult {
    let mut csv = ctx.csv(
        "fig5_hybp_per_app.csv",
        "benchmark,interval_cycles,normalized_ipc,method",
    );
    println!("Figure 5: normalized IPC of HyBP under different context-switch intervals");
    print!("{:<14}", "benchmark");
    for i in INTERVALS {
        print!(" {:>9}", format_interval(i));
    }
    println!();
    // Supervised sweep: one point per benchmark, each producing its full
    // per-interval row. Aggregation below runs serially in input order
    // over completed points only.
    let rows: Vec<Option<Vec<(f64, &'static str)>>> =
        ctx.sweep("fig5:benches", benches, |&bench| {
            let base = overhead_model(ctx, Mechanism::Baseline, bench);
            let hybp = overhead_model(ctx, Mechanism::hybp_default(), bench);
            INTERVALS
                .iter()
                .map(|&interval| {
                    let (b, _) = ipc_at(ctx, Mechanism::Baseline, bench, interval, &base);
                    let (h, method) =
                        ipc_at(ctx, Mechanism::hybp_default(), bench, interval, &hybp);
                    (h / b, method)
                })
                .collect()
        });
    let mut per_interval_sum = vec![0.0f64; INTERVALS.len()];
    let mut completed = 0usize;
    for (bench, slot) in benches.iter().zip(&rows) {
        let Some(row) = slot else { continue };
        completed += 1;
        print!("{:<14}", bench.name());
        for (k, &interval) in INTERVALS.iter().enumerate() {
            let (norm, method) = row[k];
            per_interval_sum[k] += norm;
            print!(" {:>9.4}", norm);
            csv.row(format_args!(
                "{},{},{:.5},{}",
                bench.name(),
                interval,
                norm,
                method
            ));
        }
        println!();
    }
    if completed > 0 {
        print!("{:<14}", "average");
        for (k, &interval) in INTERVALS.iter().enumerate() {
            let avg = per_interval_sum[k] / completed as f64;
            print!(" {:>9.4}", avg);
            csv.row(format_args!("average,{},{:.5},", interval, avg));
        }
        println!();
    }
    println!("(paper: ≥ 0.995 average at the 16M default; down to ~0.79 for the most");
    println!(" switch-sensitive applications at 256K)");
    ctx.finish_experiment(csv)
}

fn format_interval(i: u64) -> String {
    if i >= 1_000_000 {
        format!("{}M", i / 1_000_000)
    } else {
        format!("{}K", i / 1_000)
    }
}
