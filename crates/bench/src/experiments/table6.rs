//! Table VI: HyBP performance overhead as the randomized index keys table
//! grows from 1K to 32K entries, at 4M- and 16M-cycle context-switch
//! intervals. Bigger tables take longer to refresh, so branches run on
//! stale keys (pure accuracy cost) for longer after each switch.

use crate::{all_benchmarks, degradation, ipc_at, overhead_model, Ctx, ExpResult};
use hybp::{HybpConfig, Mechanism};

pub fn run(ctx: &Ctx) -> ExpResult {
    let mut csv = ctx.csv(
        "table6_keys_table_sensitivity.csv",
        "keys_entries,interval_cycles,avg_overhead",
    );
    let sizes = [1024usize, 2048, 4096, 16 * 1024, 32 * 1024];
    let intervals = [4_000_000u64, 16_000_000];
    // A representative benchmark subset keeps the run laptop-sized; the
    // effect being measured (stale-key window length) is workload-light.
    let benches: Vec<_> = all_benchmarks()[..6].to_vec();
    println!("Table VI: overhead vs randomized index keys table size");
    println!(
        "{:>9} {:>12} {:>12}",
        "entries", "4M interval", "16M interval"
    );
    // Parallel phase: one model per (size, benchmark), plus the shared
    // baseline models; modeled interval points are then pure arithmetic.
    let base_models = ctx.sweep("table6:base-models", &benches, |&b| {
        overhead_model(ctx, Mechanism::Baseline, b)
    });
    let mut jobs: Vec<(usize, usize)> = Vec::new();
    for (si, _) in sizes.iter().enumerate() {
        for (bi, _) in benches.iter().enumerate() {
            jobs.push((si, bi));
        }
    }
    let models = ctx.sweep("table6:grid", &jobs, |&(si, bi)| {
        let mech = Mechanism::HyBp(HybpConfig::with_keys_entries(sizes[si]));
        overhead_model(ctx, mech, benches[bi])
    });
    for (si, &entries) in sizes.iter().enumerate() {
        let mech = Mechanism::HyBp(HybpConfig::with_keys_entries(entries));
        print!("{:>9}", entries);
        for &interval in &intervals {
            // A benchmark contributes only when both its baseline and
            // HyBP models completed.
            let mut losses = Vec::new();
            for (bi, &bench) in benches.iter().enumerate() {
                let (Some(base_model), Some(model)) =
                    (&base_models[bi], &models[si * benches.len() + bi])
                else {
                    continue;
                };
                let (b, _) = ipc_at(ctx, Mechanism::Baseline, bench, interval, base_model);
                let (h, _) = ipc_at(ctx, mech, bench, interval, model);
                losses.push(degradation(h, b));
            }
            if losses.is_empty() {
                print!(" {:>12}", "n/a");
                continue;
            }
            let avg = losses.iter().sum::<f64>() / losses.len() as f64;
            print!(" {:>11.2}%", avg * 100.0);
            csv.row(format_args!("{},{},{:.5}", entries, interval, avg));
        }
        println!();
    }
    println!();
    println!("(paper: 1.4%..1.9% at 4M and 0.5%..0.9% at 16M as tables grow 1K→32K)");
    ctx.finish_experiment(csv)
}
