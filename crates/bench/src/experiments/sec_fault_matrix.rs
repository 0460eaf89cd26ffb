//! Robustness matrix: every protection mechanism under every fault class.
//!
//! For each (mechanism × fault class) pair this runs a clean and a faulted
//! simulation of the same configuration and reports whether the paper's
//! "stale keys cost accuracy, never correctness" claim holds under
//! adversarial disturbance: identical architectural branch streams, full
//! retirement, bounded direction-accuracy loss, and the fault actually
//! firing where it applies.

use crate::{Ctx, ExpResult, Scale};
use bp_faults::{FaultInjector, FaultPlan, FaultStats};
use bp_pipeline::{RunMetrics, SimConfig, Simulation};
use bp_workloads::profile::SpecBenchmark;
use hybp::{HybpConfig, Mechanism};

const BENCH: SpecBenchmark = SpecBenchmark::Deepsjeng;
const MAX_ACCURACY_LOSS: f64 = 0.25;

fn all_mechanisms() -> Vec<Mechanism> {
    vec![
        Mechanism::Baseline,
        Mechanism::Flush,
        Mechanism::Partition,
        Mechanism::Replication {
            extra_storage_pct: 100,
        },
        Mechanism::DisableSmt,
        Mechanism::hybp_default(),
        Mechanism::HyBp(HybpConfig::randomization_only()),
        Mechanism::TournamentBaseline,
    ]
}

struct FaultClass {
    name: &'static str,
    hybp_only: bool,
    plan: fn() -> FaultPlan,
    fired: fn(&FaultStats) -> u64,
}

fn fault_classes() -> Vec<FaultClass> {
    vec![
        FaultClass {
            name: "sram-key-flips",
            hybp_only: true,
            plan: || FaultPlan::new(0xFA01).with_key_bit_flips(97),
            fired: |s| s.key_bit_flips,
        },
        FaultClass {
            name: "btb-payload-flips",
            hybp_only: false,
            plan: || FaultPlan::new(0xFA02).with_btb_target_flips(53),
            fired: |s| s.btb_target_flips,
        },
        FaultClass {
            name: "direction-flips",
            hybp_only: false,
            plan: || FaultPlan::new(0xFA03).with_direction_flips(101),
            fired: |s| s.direction_flips,
        },
        FaultClass {
            name: "refresh-disturbance",
            hybp_only: true,
            plan: || {
                FaultPlan::new(0xFA04)
                    .with_forced_context_switches(6_000)
                    .with_refresh_delays(2, 37)
                    .with_refresh_drops(3)
            },
            fired: |s| s.refreshes_delayed + s.refreshes_dropped,
        },
        FaultClass {
            name: "trace-anomalies",
            hybp_only: false,
            plan: || {
                FaultPlan::new(0xFA05)
                    .with_record_drops(211)
                    .with_record_duplicates(223)
            },
            fired: |s| s.records_dropped + s.records_duplicated,
        },
        FaultClass {
            name: "os-disturbance",
            hybp_only: false,
            plan: || {
                FaultPlan::new(0xFA06)
                    .with_forced_context_switches(7_000)
                    .with_forced_timers(5_000)
            },
            fired: |s| s.forced_context_switches + s.forced_timers,
        },
        FaultClass {
            name: "counter-saturation",
            hybp_only: true,
            plan: || FaultPlan::new(0xFA07).with_counter_saturation(5_000),
            fired: |s| s.counters_saturated,
        },
    ]
}

fn fault_cfg(scale: Scale) -> SimConfig {
    let mut cfg = SimConfig::quick_test();
    cfg.warmup_instructions = scale.warmup_instructions() / 4;
    cfg.measure_instructions = scale.fixed_instructions() / 4;
    cfg.ctx_switch_interval = 25_000;
    cfg
}

fn run_one(
    ctx: &Ctx,
    mech: Mechanism,
    cfg: SimConfig,
    plan: Option<FaultPlan>,
) -> (RunMetrics, FaultStats) {
    let injector = plan.map(FaultInjector::from_plan);
    let sink = ctx.telemetry.sink();
    #[expect(
        clippy::expect_used,
        reason = "sweep boundary: configs here are built from validated presets, and a failed run is a programming error; the supervised sweep records either panic as a point failure"
    )]
    let metrics = Simulation::builder(mech, cfg)
        .single_thread(BENCH)
        .fault_injector(injector.clone())
        .telemetry(sink.clone())
        .build()
        .expect("valid config")
        .run()
        .expect("simulation completes");
    ctx.telemetry.absorb(&sink);
    let stats = injector.map(|i| i.stats()).unwrap_or_default();
    (metrics, stats)
}

pub fn run(ctx: &Ctx) -> ExpResult {
    let cfg = fault_cfg(ctx.scale);
    let mut csv = ctx.csv(
        "sec_fault_matrix.csv",
        "fault_class,mechanism,streams_agree,retired_ok,clean_accuracy,faulted_accuracy,\
         accuracy_delta,faults_fired,verdict",
    );

    println!("Robustness matrix: accuracy under faults, correctness never ({BENCH:?})");
    println!(
        "{:<20} {:<22} {:>7} {:>7} {:>8} {:>7} {:>8}",
        "fault class", "mechanism", "clean%", "fault%", "delta", "fired", "verdict"
    );

    // Supervised phase 1: the clean reference run per mechanism.
    let mechanisms = all_mechanisms();
    let clean: Vec<Option<RunMetrics>> = ctx.sweep("sec_fault_matrix:clean", &mechanisms, |&m| {
        run_one(ctx, m, cfg, None).0
    });

    // Supervised phase 2: the full (fault class × mechanism) grid.
    let classes = fault_classes();
    let mut jobs: Vec<(usize, usize)> = Vec::new();
    for ci in 0..classes.len() {
        for mi in 0..mechanisms.len() {
            jobs.push((ci, mi));
        }
    }
    let faulted_runs: Vec<Option<(RunMetrics, FaultStats)>> =
        ctx.sweep("sec_fault_matrix:grid", &jobs, |&(ci, mi)| {
            run_one(ctx, mechanisms[mi], cfg, Some((classes[ci].plan)()))
        });

    let mut failures = 0u32;
    for (ci, class) in classes.iter().enumerate() {
        for (mi, mech) in mechanisms.iter().enumerate() {
            // A lost clean reference or faulted run drops the cell from the
            // matrix (reported as a sweep loss), not a verdict failure.
            let (Some(clean_run), Some((faulted, stats))) =
                (&clean[mi], &faulted_runs[ci * mechanisms.len() + mi])
            else {
                continue;
            };
            let agree = faulted.streams_agree_with(clean_run);
            let retired_ok = faulted
                .threads
                .iter()
                .all(|t| t.retired >= cfg.measure_instructions);
            let clean_acc = clean_run.bpu.direction_accuracy();
            let faulted_acc = faulted.bpu.direction_accuracy();
            let delta = faulted_acc - clean_acc;
            let fired = (class.fired)(stats);
            let applies = !class.hybp_only || matches!(mech, Mechanism::HyBp(_));
            let ok = agree
                && retired_ok
                && faulted_acc >= clean_acc - MAX_ACCURACY_LOSS
                && faulted_acc > 0.5
                && (!applies || fired > 0);
            if !ok {
                failures += 1;
            }
            println!(
                "{:<20} {:<22} {:>6.2}% {:>6.2}% {:>+7.2}% {:>7} {:>8}",
                class.name,
                mech.to_string(),
                clean_acc * 100.0,
                faulted_acc * 100.0,
                delta * 100.0,
                fired,
                if ok { "ok" } else { "FAIL" }
            );
            csv.row(format_args!(
                "{},{},{},{},{:.5},{:.5},{:+.5},{},{}",
                class.name,
                mech,
                agree,
                retired_ok,
                clean_acc,
                faulted_acc,
                delta,
                fired,
                if ok { "ok" } else { "fail" }
            ));
        }
        println!();
    }

    println!("(invariant: streams identical, quota retired, accuracy loss bounded by");
    println!(" {MAX_ACCURACY_LOSS} absolute — faults degrade prediction, never execution)");
    ctx.finish_experiment(csv)?;
    if failures > 0 {
        return Err(format!("{failures} matrix cells violated the robustness invariant").into());
    }
    Ok(())
}
