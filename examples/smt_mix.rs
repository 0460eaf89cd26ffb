//! SMT mix scenario: co-run a Table V benchmark pair under different
//! protection mechanisms and compare throughput and fairness.
//!
//! ```sh
//! cargo run --release --example smt_mix [mix_id 1..=12]
//! ```

#![allow(
    clippy::expect_used,
    reason = "an example aborts on a broken preset: it shows the happy path, not error handling"
)]

use hybp_repro::bp_common::stats::hmean_fairness;
use hybp_repro::bp_pipeline::{SimConfig, Simulation};
use hybp_repro::bp_workloads::TABLE_V_MIXES;
use hybp_repro::hybp::Mechanism;

fn main() {
    let mix_id: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let mix = TABLE_V_MIXES
        .iter()
        .find(|m| m.id as usize == mix_id)
        .copied()
        .unwrap_or(TABLE_V_MIXES[6]);
    println!("{} ({})", mix.label(), mix.class());

    let mut cfg = SimConfig::default_run();
    cfg.warmup_instructions = 250_000;
    cfg.measure_instructions = 700_000;

    // Solo references (per mechanism) for fairness.
    for mech in [
        Mechanism::Baseline,
        Mechanism::Partition,
        Mechanism::replication_default(),
        Mechanism::hybp_default(),
    ] {
        let solo: Vec<f64> = mix
            .pair
            .iter()
            .map(|&b| {
                Simulation::builder(mech, cfg)
                    .single_thread(b)
                    .build()
                    .expect("valid config")
                    .run()
                    .expect("completes")
                    .threads[0]
                    .ipc()
            })
            .collect();
        let smt = Simulation::builder(mech, cfg)
            .smt(mix.pair)
            .build()
            .expect("valid config")
            .run()
            .expect("completes");
        let ipcs = smt.ipcs();
        let fairness = hmean_fairness(&ipcs, &solo).unwrap_or(0.0);
        println!(
            "{:<22} throughput {:.3} (= {:.3} + {:.3})  hmean fairness {:.3}",
            mech.to_string(),
            smt.throughput(),
            ipcs[0],
            ipcs[1],
            fairness
        );
    }
    println!();
    println!("Fairness is the harmonic mean of each thread's speedup vs running alone");
    println!("under the same mechanism (Luo et al.); higher is better, 0.5 is typical");
    println!("for two symmetric threads sharing one core.");
}
