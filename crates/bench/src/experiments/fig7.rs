//! Figure 7: throughput (a) and Hmean fairness (b) degradation of the
//! isolation mechanisms on an SMT-2 core, per Table V mix.

use std::collections::BTreeMap;

use crate::{degradation, no_switch_config, Ctx, ExpResult, Point};
use bp_pipeline::RunMetrics;
use bp_workloads::profile::SpecBenchmark;
use bp_workloads::TABLE_V_MIXES;
use hybp::Mechanism;

pub fn run(ctx: &Ctx) -> ExpResult {
    let mut csv = ctx.csv(
        "fig7_smt_mixes.csv",
        "mix,class,mechanism,throughput_degradation,hmean_degradation",
    );
    let mechanisms = [
        Mechanism::Baseline,
        Mechanism::Partition,
        Mechanism::replication_default(),
        Mechanism::hybp_default(),
    ];

    // Parallel phase 1: solo IPC per (mechanism, benchmark) — the
    // fairness reference points, each needed by several mixes.
    let mut solo_jobs: Vec<(Mechanism, SpecBenchmark)> = Vec::new();
    for mech in mechanisms {
        for mix in TABLE_V_MIXES {
            for &b in &mix.pair {
                if !solo_jobs
                    .iter()
                    .any(|(m, jb)| m.to_string() == mech.to_string() && *jb == b)
                {
                    solo_jobs.push((mech, b));
                }
            }
        }
    }
    let solo_ipcs = ctx.sweep("fig7:solo", &solo_jobs, |&(mech, b)| {
        ctx.ipc(mech, b, no_switch_config(ctx.scale))
    });
    // Lost points simply never enter the map; downstream lookups treat an
    // absent key as "skip this mix/mechanism".
    let solo: BTreeMap<(String, SpecBenchmark), f64> = solo_jobs
        .iter()
        .zip(&solo_ipcs)
        .filter_map(|(&(mech, b), ipc)| ipc.map(|ipc| ((mech.to_string(), b), ipc)))
        .collect();

    // Supervised sweep 2: one point per (mix, mechanism) SMT run.
    let mut smt_jobs: Vec<(usize, Mechanism)> = Vec::new();
    for (mi, _) in TABLE_V_MIXES.iter().enumerate() {
        for mech in mechanisms {
            smt_jobs.push((mi, mech));
        }
    }
    let smt_points = ctx.sweep("fig7:smt", &smt_jobs, |&(mi, mech)| {
        ctx.point(&Point::pair(
            mech,
            TABLE_V_MIXES[mi].pair,
            no_switch_config(ctx.scale),
        ))
    });
    let smt: BTreeMap<(usize, String), &RunMetrics> = smt_jobs
        .iter()
        .zip(&smt_points)
        .filter_map(|(&(mi, mech), point)| {
            point
                .as_deref()
                .map(|point| ((mi, mech.to_string()), point))
        })
        .collect();

    // Serial aggregation, in mix order.
    println!("Figure 7: SMT throughput and Hmean fairness degradation per mix");
    println!(
        "{:<28} {:<7} {:>22} {:>22}",
        "mix", "class", "throughput degradation", "hmean degradation"
    );
    let mut agg: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (mi, mix) in TABLE_V_MIXES.iter().enumerate() {
        let Some(base_point) = smt.get(&(mi, Mechanism::Baseline.to_string())) else {
            continue; // baseline SMT point lost: the whole mix is uncomputable
        };
        let (base_thr, base_ipcs) = (base_point.throughput(), base_point.ipcs());
        let Some(base_solo) = mix
            .pair
            .iter()
            .map(|&b| solo.get(&(Mechanism::Baseline.to_string(), b)).copied())
            .collect::<Option<Vec<f64>>>()
        else {
            continue; // a baseline solo reference was lost
        };
        let base_hmean = match bp_common::stats::hmean_fairness(&base_ipcs, &base_solo) {
            Some(h) => h,
            None => {
                eprintln!(
                    "skipping mix {}: baseline fairness unavailable",
                    mix.label()
                );
                continue;
            }
        };
        for mech in mechanisms.iter().skip(1) {
            let Some(point) = smt.get(&(mi, mech.to_string())) else {
                continue; // this (mix, mechanism) SMT point was lost
            };
            let thr_deg = degradation(point.throughput(), base_thr);
            let Some(mech_solo) = mix
                .pair
                .iter()
                .map(|&b| solo.get(&(mech.to_string(), b)).copied())
                .collect::<Option<Vec<f64>>>()
            else {
                continue; // a solo reference for this mechanism was lost
            };
            let hmean = match bp_common::stats::hmean_fairness(&point.ipcs(), &mech_solo) {
                Some(h) => h,
                None => {
                    eprintln!(
                        "skipping {} on mix {}: fairness unavailable",
                        mech.name(),
                        mix.label()
                    );
                    continue;
                }
            };
            let hmean_deg = degradation(hmean, base_hmean);
            println!(
                "{:<28} {:<7} {:>11} ({:<9}) {:>11} ({:<9})",
                mix.label(),
                mix.class().to_string(),
                format!("{:+.2}%", thr_deg * 100.0),
                mech.name(),
                format!("{:+.2}%", hmean_deg * 100.0),
                mech.name()
            );
            csv.row(format_args!(
                "{},{},{},{:.5},{:.5}",
                mix,
                mix.class(),
                mech,
                thr_deg,
                hmean_deg
            ));
            let e = agg.entry(mech.to_string()).or_default();
            e.0.push(thr_deg);
            e.1.push(hmean_deg);
        }
    }
    println!();
    for mech in mechanisms.iter().skip(1) {
        let Some((thr, hm)) = agg.get(&mech.to_string()) else {
            continue; // every mix for this mechanism was lost
        };
        let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        let max = |v: &Vec<f64>| v.iter().cloned().fold(f64::MIN, f64::max);
        println!(
            "{:<22} avg throughput loss {:>6.2}% (max {:>6.2}%), avg hmean loss {:>6.2}% (max {:>6.2}%)",
            mech.to_string(),
            mean(thr) * 100.0,
            max(thr) * 100.0,
            mean(hm) * 100.0,
            max(hm) * 100.0
        );
        csv.row(format_args!(
            "average,,{},{:.5},{:.5}",
            mech,
            mean(thr),
            mean(hm)
        ));
    }
    println!();
    println!("(paper: HyBP avg 0.2% / max 3.8% throughput loss vs Partition avg 4.4% /");
    println!(" max 12.6%; Partition Hmean up to ~17% on H-ILP mixes, HyBP ≤ 2.3%)");
    ctx.finish_experiment(csv)
}
