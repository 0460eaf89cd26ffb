//! Figure 6: average performance degradation of Flush, Partition and HyBP
//! on a single-threaded core across context-switch intervals, with Flush's
//! loss decomposed into its context-switch and privilege-change parts.
//!
//! The decomposition runs Flush twice: once with privilege-change flushes
//! (the real mechanism) and once with kernel episodes disabled (isolating
//! the context-switch share).

use crate::{
    all_benchmarks, degradation, ipc_at, no_switch_config, overhead_model, Csv, Ctx, ExpResult,
    INTERVALS,
};
use bp_workloads::profile::SpecBenchmark;
use hybp::Mechanism;

pub fn run(ctx: &Ctx) -> ExpResult {
    let mut csv = ctx.csv(
        "fig6_switch_interval_sweep.csv",
        "mechanism,interval_cycles,avg_degradation,method",
    );
    println!("Figure 6: average degradation vs context-switch interval (single-threaded core)");
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "mechanism", "256K", "512K", "1M", "4M", "16M"
    );
    let mechanisms = [
        Mechanism::Flush,
        Mechanism::Partition,
        Mechanism::hybp_default(),
    ];
    let benches = all_benchmarks();
    for mech in mechanisms {
        // Supervised sweep: per-benchmark loss rows (baseline + mechanism
        // models, direct points at small intervals).
        let rows: Vec<Vec<(f64, &'static str)>> = ctx
            .sweep(&format!("fig6:{}", mech.name()), &benches, |&bench| {
                let base_model = overhead_model(ctx, Mechanism::Baseline, bench);
                let mech_model = overhead_model(ctx, mech, bench);
                INTERVALS
                    .iter()
                    .map(|&interval| {
                        let (b, _) = ipc_at(ctx, Mechanism::Baseline, bench, interval, &base_model);
                        let (m, method) = ipc_at(ctx, mech, bench, interval, &mech_model);
                        (degradation(m, b), method)
                    })
                    .collect()
            })
            .into_iter()
            .flatten()
            .collect();
        print!("{:<12}", mech.to_string());
        for (k, &interval) in INTERVALS.iter().enumerate() {
            let losses: Vec<f64> = rows.iter().map(|r| r[k].0).collect();
            if losses.is_empty() {
                print!(" {:>9}", "n/a");
                continue;
            }
            let method = rows.last().map(|r| r[k].1).unwrap_or("model");
            let avg = losses.iter().sum::<f64>() / losses.len() as f64;
            print!(" {:>8.2}%", avg * 100.0);
            csv.row(format_args!("{},{},{:.5},{}", mech, interval, avg, method));
        }
        println!();
    }

    // Flush decomposition at the default interval: share attributable to
    // privilege-change flushing (timer kernel episodes) vs context switches.
    println!();
    println!("Flush decomposition (share of loss from privilege-change flushing):");
    decompose_flush(ctx, &mut csv);
    println!();
    println!("(paper at 16M: Flush 5.1%, Partition 6.3%, HyBP 0.5%; Partition worst cases");
    println!(" fotonik3d 18.2% / xz 19.4%)");
    ctx.finish_experiment(csv)
}

fn decompose_flush(ctx: &Ctx, csv: &mut Csv) {
    // At very large intervals Flush's remaining loss is purely the
    // privilege-change part; compare against a run with kernel episodes
    // pushed out of the measurement window.
    let benches = [
        SpecBenchmark::Deepsjeng,
        SpecBenchmark::Xz,
        SpecBenchmark::Wrf,
    ];
    let shares: Vec<Option<(f64, f64)>> = ctx.sweep("fig6:flush-decomp", &benches, |&bench| {
        let cfg = no_switch_config(ctx.scale);
        let base = ctx.ipc(Mechanism::Baseline, bench, cfg);
        let flush = ctx.ipc(Mechanism::Flush, bench, cfg);
        let mut no_kernel = cfg;
        no_kernel.kernel_timer_interval = u64::MAX / 4;
        let base_nk = ctx.ipc(Mechanism::Baseline, bench, no_kernel);
        let flush_nk = ctx.ipc(Mechanism::Flush, bench, no_kernel);
        let total = degradation(flush, base);
        let ctx_only = degradation(flush_nk, base_nk);
        let priv_share = if total > 1e-6 {
            ((total - ctx_only) / total).clamp(0.0, 1.0)
        } else {
            0.0
        };
        (total, priv_share)
    });
    for (bench, slot) in benches.iter().zip(&shares) {
        let Some((total, priv_share)) = *slot else {
            continue;
        };
        println!(
            "  {:<14} total {:>6.2}%  privilege part {:>5.1}%",
            bench.name(),
            total * 100.0,
            priv_share * 100.0
        );
        csv.row(format_args!(
            "Flush-priv-share-{},{},{:.4},direct",
            bench.name(),
            u64::MAX / 4,
            priv_share
        ));
    }
}
