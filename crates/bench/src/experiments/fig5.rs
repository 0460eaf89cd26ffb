//! Figure 5: normalized IPC of HyBP per application across context-switch
//! intervals (256K..16M cycles).
//!
//! Under `--sample` (phase-sampled replay) the interval sweep is replaced
//! by one bounded-error point per benchmark: HyBP's IPC over the plan's
//! representative windows, normalized to the baseline's over the same
//! windows. Sampled rows carry `interval_cycles=0` and `method=sampled`,
//! and the CSV is marked with a `# sampled:` header.

use crate::{
    all_benchmarks, ipc_at_cached, model_cached, sampled_estimate, Ctx, ExpResult, INTERVALS,
};
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
    if ctx.sampling.is_some() {
        return run_sampled(ctx, benches);
    }
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
            let base = model_cached(ctx, Mechanism::Baseline, bench);
            let hybp = model_cached(ctx, Mechanism::hybp_default(), bench);
            INTERVALS
                .iter()
                .map(|&interval| {
                    let (b, _) = ipc_at_cached(ctx, Mechanism::Baseline, bench, interval, &base);
                    let (h, method) =
                        ipc_at_cached(ctx, Mechanism::hybp_default(), bench, interval, &hybp);
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

/// The `--sample` path: one bounded-error normalized-IPC point per
/// benchmark, computed from each stream's phase plan.
fn run_sampled(ctx: &Ctx, benches: &[SpecBenchmark]) -> ExpResult {
    let spec = ctx.sampling.as_ref().ok_or("sampled run without a spec")?;
    let mut csv = ctx.csv(
        "fig5_hybp_per_app.csv",
        "benchmark,interval_cycles,normalized_ipc,method",
    );
    println!("Figure 5 (phase-sampled): normalized IPC of HyBP, bounded-error estimate");
    println!(
        "{:<14} {:>9} {:>10} {:>10} {:>9}",
        "benchmark", "norm_ipc", "hybp_mpki", "bound", "coverage"
    );
    // One point per benchmark: sample the stream once, replay both
    // mechanisms over the same representative windows.
    type SampledRow = (f64, f64, f64, u64, u64, f64);
    #[expect(
        clippy::panic,
        reason = "sweep boundary: the supervised sweep records each of these as a point failure naming the stream"
    )]
    let rows: Vec<Option<SampledRow>> = ctx.sweep("fig5:sampled", benches, |&bench| {
        let plan = crate::phase_plan_for(ctx, bench, spec).unwrap_or_else(|e| panic!("{e}"));
        let base = sampled_estimate(ctx, Mechanism::Baseline, bench, &plan)
            .unwrap_or_else(|e| panic!("{e}"));
        let hybp = sampled_estimate(ctx, Mechanism::hybp_default(), bench, &plan)
            .unwrap_or_else(|e| panic!("{e}"));
        (
            hybp.estimate.ipc() / base.estimate.ipc(),
            hybp.estimate.mpki(),
            hybp.error_bound_mpki,
            plan.selections.len() as u64,
            plan.total_windows,
            hybp.coverage,
        )
    });
    let mut selected = 0u64;
    let mut windows = 0u64;
    let mut coverage_sum = 0.0f64;
    let mut completed = 0usize;
    for (bench, slot) in benches.iter().zip(&rows) {
        let Some(&(norm, mpki, bound, sel, total, coverage)) = slot.as_ref() else {
            continue;
        };
        completed += 1;
        selected += sel;
        windows += total;
        coverage_sum += coverage;
        println!(
            "{:<14} {:>9.4} {:>10.3} {:>10.3} {:>8.2}%",
            bench.name(),
            norm,
            mpki,
            bound,
            coverage * 100.0
        );
        csv.row(format_args!("{},0,{:.5},sampled", bench.name(), norm));
    }
    if completed > 0 {
        csv.mark_sampled(selected, windows, coverage_sum / completed as f64);
    }
    println!("(each point is HyBP IPC / baseline IPC over the same representative windows;");
    println!(" MPKI error is bounded per DESIGN.md §6h)");
    ctx.finish_experiment(csv)
}

fn format_interval(i: u64) -> String {
    if i >= 1_000_000 {
        format!("{}M", i / 1_000_000)
    } else {
        format!("{}K", i / 1_000)
    }
}
