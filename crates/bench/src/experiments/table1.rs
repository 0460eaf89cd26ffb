//! Table I: performance overhead, hardware cost and security coverage of
//! every defense mechanism on an SMT-2 core.
//!
//! Every run here uses [`no_switch_config`]: no context switch fires, only
//! the kernel timer episodes (privilege changes) do. The overheads are
//! therefore the mechanisms' fixed parts on an SMT-2 core, not their cost
//! at the paper's 16M-cycle Linux time slice; nothing folds switch effects
//! in. fig5/fig6 quantify those on a single-threaded core.

use crate::{degradation, mean_smt_throughput, no_switch_config, Ctx, ExpResult};
use bp_workloads::profile::SpecBenchmark;
use bp_workloads::TABLE_V_MIXES;
use hybp::cost::mechanism_cost;
use hybp::Mechanism;

pub fn run(ctx: &Ctx) -> ExpResult {
    let mut csv = ctx.csv(
        "table1_comparison.csv",
        "mechanism,perf_overhead,hw_cost_pct,single_thread_secure,smt_secure",
    );
    println!(
        "Table I: comparison of security mechanisms (SMT-2, no context switches, kernel timer episodes only)"
    );
    println!(
        "{:<18} {:>10} {:>9} {:>14} {:>6}",
        "mechanism", "perf ovh", "hw cost", "single-thread", "SMT"
    );
    let Some(baseline_thr) = mean_smt_throughput(ctx, "table1:smt:Baseline", Mechanism::Baseline)
    else {
        // No reference point — nothing downstream can be computed.
        return ctx.finish_experiment(csv);
    };
    // Disable-SMT: only the first member of each mix runs. Mixes repeat
    // first members (wrf starts mix2, mix4 and mix7), so each distinct one
    // is simulated once and counted once per mix it starts, in table order;
    // a lost point drops every mix it starts.
    let mut firsts: Vec<SpecBenchmark> = TABLE_V_MIXES.iter().map(|mix| mix.pair[0]).collect();
    firsts.sort_unstable();
    firsts.dedup();
    let firsts_ipc = ctx.sweep("table1:solo", &firsts, |&bench| {
        ctx.ipc(Mechanism::Baseline, bench, no_switch_config(ctx.scale))
    });
    let solo: Vec<f64> = TABLE_V_MIXES
        .iter()
        .filter_map(|mix| firsts_ipc[firsts.binary_search(&mix.pair[0]).ok()?])
        .collect();
    let solo_thr = bp_common::stats::mean(&solo);
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
            m => mean_smt_throughput(ctx, &format!("table1:smt:{}", m.name()), m),
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
