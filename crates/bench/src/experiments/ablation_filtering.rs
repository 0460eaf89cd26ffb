//! Ablation: the upper-level filtering effect (§V-B).
//!
//! The paper's "surprising" claim: physically isolating L0/L1 doesn't just
//! protect those tables — it also *filters* the information flow into the
//! shared L2, multiplying contention-attack costs. This ablation compares
//! full HyBP against randomization-only (shared upper levels) on:
//!
//! * the share of victim BTB traffic absorbed by the upper levels (the
//!   paper's `m` factor),
//! * Algorithm 1's success rate,
//! * the malicious-training PoC.

use crate::{no_switch_config, Ctx, ExpResult, Point, Scale};
use bp_attacks::poc::{btb_training, PocParams};
use bp_attacks::ppp::{campaign, PppParams};
use bp_workloads::profile::SpecBenchmark;
use hybp::{HybpConfig, Mechanism};

pub fn run(ctx: &Ctx) -> ExpResult {
    let runs = match ctx.scale {
        Scale::Quick => 6,
        Scale::Default => 16,
        Scale::Full => 48,
    };
    let mut csv = ctx.csv(
        "ablation_filtering.csv",
        "variant,upper_hit_share,ppp_success,btb_training_accuracy",
    );
    println!("Filtering ablation: full HyBP vs randomization-only");
    println!(
        "{:<22} {:>16} {:>12} {:>18}",
        "variant", "L0/L1 hit share", "PPP success", "training accuracy"
    );
    let variants = [
        ("HyBP (full)", HybpConfig::paper_default()),
        ("randomization-only", HybpConfig::randomization_only()),
    ];
    // Supervised sweep: each variant's workload run + attack campaigns.
    let rows: Vec<Option<(f64, u32, u32, f64)>> =
        ctx.sweep("ablation_filtering:variants", &variants, |&(_, cfg)| {
            let mech = Mechanism::HyBp(cfg);
            // Upper-level filtering measured on a real workload: the fraction of
            // BTB hits served by L0/L1 is the traffic the shared L2 never sees.
            let bpu = ctx
                .point(&Point::single(
                    mech,
                    SpecBenchmark::Xz,
                    no_switch_config(ctx.scale),
                ))
                .bpu;
            let upper = (bpu.btb_hits[0] + bpu.btb_hits[1]) as f64;
            let upper_share = upper / (upper + bpu.btb_hits[2] as f64 + bpu.btb_misses as f64);
            let ppp = campaign(mech, &PppParams::quick(), runs, 9);
            let poc = btb_training(mech, PocParams::quick(), 31);
            (
                upper_share,
                ppp.successes,
                ppp.runs,
                poc.training_accuracy(),
            )
        });
    for ((name, _), slot) in variants.iter().zip(&rows) {
        let Some((upper_share, successes, ppp_runs, training)) = *slot else {
            continue;
        };
        println!(
            "{:<22} {:>15.1}% {:>9}/{:<3} {:>17.1}%",
            name,
            upper_share * 100.0,
            successes,
            ppp_runs,
            training * 100.0
        );
        csv.row(format_args!(
            "{},{:.4},{:.4},{:.4}",
            name,
            upper_share,
            f64::from(successes) / f64::from(ppp_runs),
            training
        ));
    }
    println!();
    println!("Full HyBP should show a high upper-level hit share (the m filter) and the");
    println!("lowest attack rates; randomization-only loses the filter and the training");
    println!("protection for anything resident in the shared upper levels.");
    ctx.finish_experiment(csv)
}
