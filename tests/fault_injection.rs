//! Fault-injection robustness matrix: every protection mechanism must
//! tolerate every fault class with **bounded accuracy loss and zero
//! correctness loss** — the paper's "stale keys cost accuracy, never
//! correctness" claim, machine-checked under adversarial disturbance.
//!
//! For each (mechanism × fault class) pair the harness runs a clean and a
//! faulted simulation of the same configuration and asserts:
//!
//! 1. no panic anywhere in the stack (the run completes),
//! 2. the architectural branch-record streams are identical (per-generator
//!    [`StreamDigest`] agreement) — faults may change *predictions*, never
//!    the retired instruction stream,
//! 3. every thread still retires its full measurement quota,
//! 4. direction accuracy degrades by a bounded amount only,
//! 5. the fault class actually fired where it applies (no vacuous passes).
//!
//! A separate unit-level test pins the refresh-timing invariant: a delayed
//! or dropped code-book rewrite must not change the *acknowledged* refresh
//! duration, else timing would leak the fault state.

#![allow(
    clippy::expect_used,
    reason = "test setup helpers abort the test on a broken fixture, as a failed assertion would"
)]

use std::sync::OnceLock;

use hybp_repro::bp_common::{Asid, Vmid};
use hybp_repro::bp_crypto::keys::{KeyManager, KeysTableConfig, PAPER_RENEWAL_THRESHOLD};
use hybp_repro::bp_crypto::Qarma64;
use hybp_repro::bp_faults::{FaultInjector, FaultPlan, FaultStats};
use hybp_repro::bp_pipeline::{RunMetrics, SimConfig, Simulation};
use hybp_repro::bp_workloads::SpecBenchmark;
use hybp_repro::hybp::{HybpConfig, Mechanism};

/// Accuracy may dip under disturbance, but boundedly: a faulted run loses at
/// most this much absolute direction accuracy versus the clean run.
const MAX_ACCURACY_LOSS: f64 = 0.25;

const BENCH: SpecBenchmark = SpecBenchmark::Deepsjeng;

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

fn fault_cfg() -> SimConfig {
    let mut cfg = SimConfig::quick_test();
    cfg.warmup_instructions = 15_000;
    cfg.measure_instructions = 60_000;
    // Short enough that ordinary context switches also occur in-run.
    cfg.ctx_switch_interval = 25_000;
    cfg
}

fn run_one(mech: Mechanism, plan: Option<FaultPlan>) -> (RunMetrics, FaultStats) {
    let injector = plan.map(FaultInjector::from_plan);
    let metrics = Simulation::builder(mech, fault_cfg())
        .single_thread(BENCH)
        .fault_injector(injector.clone())
        .build()
        .expect("valid config")
        .run()
        .expect("completes");
    let stats = injector.map(|i| i.stats()).unwrap_or_default();
    (metrics, stats)
}

/// Clean reference runs, one per mechanism, computed once for the module.
fn clean_runs() -> &'static Vec<RunMetrics> {
    static CLEAN: OnceLock<Vec<RunMetrics>> = OnceLock::new();
    CLEAN.get_or_init(|| {
        all_mechanisms()
            .into_iter()
            .map(|m| run_one(m, None).0)
            .collect()
    })
}

fn is_hybp(mech: &Mechanism) -> bool {
    matches!(mech, Mechanism::HyBp(_))
}

/// Runs one fault class against every mechanism and checks the invariant.
///
/// `fired` extracts the class's counters from the stats; it must be non-zero
/// whenever the class applies (always, or only under HyBP when `hybp_only`).
fn check_class(
    name: &str,
    plan: &dyn Fn() -> FaultPlan,
    hybp_only: bool,
    fired: &dyn Fn(&FaultStats) -> u64,
) {
    let cfg = fault_cfg();
    for (mech, clean) in all_mechanisms().into_iter().zip(clean_runs()) {
        let (faulted, stats) = run_one(mech, Some(plan()));

        // Correctness: the architectural stream is untouched and every
        // thread finished its measurement quota.
        assert!(
            faulted.streams_agree_with(clean),
            "[{name}] {mech}: architectural streams diverged under faults"
        );
        for t in &faulted.threads {
            assert!(
                t.retired >= cfg.measure_instructions,
                "[{name}] {mech}: thread retired {} < quota {}",
                t.retired,
                cfg.measure_instructions
            );
        }

        // Accuracy: may degrade, but boundedly.
        let clean_acc = clean.bpu.direction_accuracy();
        let faulted_acc = faulted.bpu.direction_accuracy();
        assert!(
            faulted_acc >= clean_acc - MAX_ACCURACY_LOSS,
            "[{name}] {mech}: accuracy collapsed {clean_acc:.3} -> {faulted_acc:.3}"
        );
        assert!(
            faulted_acc > 0.5,
            "[{name}] {mech}: faulted accuracy {faulted_acc:.3} is no better than chance"
        );

        // The class must actually have fired where it applies.
        if !hybp_only || is_hybp(&mech) {
            assert!(
                fired(&stats) > 0,
                "[{name}] {mech}: fault class never fired (vacuous pass), stats {stats:?}"
            );
        }
    }
}

#[test]
fn sram_key_bit_flips_cost_accuracy_never_correctness() {
    check_class(
        "sram-key-flips",
        &|| FaultPlan::new(0xFA01).with_key_bit_flips(97),
        true,
        &|s| s.key_bit_flips,
    );
}

#[test]
fn btb_payload_flips_cost_accuracy_never_correctness() {
    check_class(
        "btb-payload-flips",
        &|| FaultPlan::new(0xFA02).with_btb_target_flips(53),
        false,
        &|s| s.btb_target_flips,
    );
}

#[test]
fn direction_flips_cost_accuracy_never_correctness() {
    check_class(
        "direction-flips",
        &|| FaultPlan::new(0xFA03).with_direction_flips(101),
        false,
        &|s| s.direction_flips,
    );
}

#[test]
fn refresh_disturbance_costs_accuracy_never_correctness() {
    // Forced context switches guarantee renewals happen in-run; delay/drop
    // faults then disturb the code-book rewrites those renewals start.
    check_class(
        "refresh-disturbance",
        &|| {
            FaultPlan::new(0xFA04)
                .with_forced_context_switches(6_000)
                .with_refresh_delays(2, 37)
                .with_refresh_drops(3)
        },
        true,
        &|s| s.refreshes_delayed + s.refreshes_dropped,
    );
}

#[test]
fn trace_anomalies_cost_accuracy_never_correctness() {
    check_class(
        "trace-anomalies",
        &|| {
            FaultPlan::new(0xFA05)
                .with_record_drops(211)
                .with_record_duplicates(223)
        },
        false,
        &|s| s.records_dropped + s.records_duplicated,
    );
}

#[test]
fn os_disturbance_costs_accuracy_never_correctness() {
    check_class(
        "os-disturbance",
        &|| {
            FaultPlan::new(0xFA06)
                .with_forced_context_switches(7_000)
                .with_forced_timers(5_000)
        },
        false,
        &|s| s.forced_context_switches + s.forced_timers,
    );
}

#[test]
fn counter_saturation_costs_accuracy_never_correctness() {
    check_class(
        "counter-saturation",
        &|| FaultPlan::new(0xFA07).with_counter_saturation(5_000),
        true,
        &|s| s.counters_saturated,
    );
}

#[test]
fn refresh_timing_is_fault_independent() {
    // KeyManager::renew must acknowledge the same nominal completion time
    // whether the rewrite proceeds, starts late, or is lost entirely —
    // otherwise refresh timing would leak the fault state (and the paper's
    // fixed 263-cycle rewrite would become observable side-channel input).
    let plans: [Option<FaultPlan>; 3] = [
        None,
        Some(FaultPlan::new(1).with_refresh_delays(1, 999)),
        Some(FaultPlan::new(2).with_refresh_drops(1)),
    ];
    let mut acknowledged = Vec::new();
    for plan in plans {
        let mut km = KeyManager::new(
            Box::new(Qarma64::from_seed(7)),
            2,
            KeysTableConfig::paper_default(),
            PAPER_RENEWAL_THRESHOLD,
            9,
        )
        .expect("paper default");
        km.set_fault_injector(plan.map(FaultInjector::from_plan));
        let duration = km.slot(0).table().refresh_duration();
        let done = km.renew(0, Asid::new(1), Vmid::new(0), 1_000);
        assert_eq!(done, 1_000 + duration, "renew must report nominal timing");
        acknowledged.push(done);
    }
    assert!(
        acknowledged.windows(2).all(|w| w[0] == w[1]),
        "acknowledged refresh completion varied across fault dispositions: {acknowledged:?}"
    );
}

/// The robustness matrix itself must be robust: with harness point faults
/// injected into its own sweep grid, the `sec_fault_matrix` experiment
/// still runs to completion under the supervisor, loses exactly the
/// injected points, writes a partial (never wrong) CSV, and reports the
/// degradation as a visible error.
#[test]
fn sec_fault_matrix_survives_point_faults_under_the_supervisor() {
    use bench::{experiments, Ctx, Scale, SweepReport};
    use bp_common::pool::Pool;
    use bp_faults::points::PointFaultPlan;

    let base = std::env::temp_dir().join(format!("hybp-matrix-supervised-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    // One grid cell dies outright; a second fails once and must be
    // retried back to health.
    let plan =
        PointFaultPlan::parse("panic@sec_fault_matrix:grid@5,transient@sec_fault_matrix:grid@11@1")
            .expect("valid plan");
    let ctx = Ctx::custom(Scale::Quick, Pool::new(2))
        .with_results_dir(base.join("results"))
        .with_fault_points(plan);

    let exp = experiments::all()
        .into_iter()
        .find(|e| e.name == "sec_fault_matrix")
        .expect("registered experiment");
    let result = (exp.run)(&ctx);

    // The experiment completes (no panic escaped the supervisor) and
    // reports its degradation, naming the lost point.
    let err = result.expect_err("degraded run must error").to_string();
    assert!(err.contains("degraded"), "{err}");
    assert!(err.contains("sec_fault_matrix:grid[5]"), "{err}");

    // Exactly the injected failure was lost; the transient point
    // recovered via retry.
    let reports: Vec<SweepReport> = ctx.supervisor.drain();
    let grid = reports
        .iter()
        .find(|r| r.label == "sec_fault_matrix:grid")
        .expect("grid sweep report");
    assert_eq!(grid.lost(), 1, "{grid:?}");
    assert_eq!(grid.failures[0].index, 5);
    assert!(grid.failures[0].panicked);
    assert_eq!(grid.recovered, 1, "{grid:?}");
    let clean = reports
        .iter()
        .find(|r| r.label == "sec_fault_matrix:clean")
        .expect("clean sweep report");
    assert_eq!(clean.lost(), 0, "{clean:?}");

    // The CSV is partial, not wrong: one grid cell short, all others
    // present and well-formed.
    let text =
        std::fs::read_to_string(base.join("results/sec_fault_matrix.csv")).expect("csv written");
    let total = grid.total + clean.total;
    assert!(
        text.starts_with(&format!("# partial: {}/{} points\n", total - 1, total)),
        "{}",
        text.lines().next().unwrap_or("")
    );
    let rows = text.lines().skip(2).count();
    assert_eq!(rows, grid.total - 1, "one row per surviving grid cell");

    let _ = std::fs::remove_dir_all(&base);
}
