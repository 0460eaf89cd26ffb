//! Supervised-sweep guarantees: a failing sweep point costs that point,
//! never the experiment; retries recover transient faults bit-exactly;
//! partial CSVs are marked; and none of it perturbs a clean run.

#![allow(
    clippy::expect_used,
    reason = "test setup helpers abort the test on a broken fixture, as a failed assertion would"
)]

use bench::{Ctx, Scale};
use bp_common::pool::{Pool, RetryPolicy};
use bp_faults::points::PointFaultPlan;

/// A context with a temp results dir, threaded, with the standard retry
/// policy and the given fault plan.
fn tmp_ctx(tag: &str, threads: usize, plan: &str) -> Ctx {
    let base = std::env::temp_dir().join(format!("hybp-supervision-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    Ctx::custom(Scale::Quick, Pool::new(threads))
        .with_results_dir(base.join("results"))
        .with_fault_points(PointFaultPlan::parse(plan).expect("valid plan"))
}

fn cleanup(ctx: &Ctx) {
    if let Some(base) = ctx.results_dir.parent() {
        let _ = std::fs::remove_dir_all(base);
    }
}

/// Runs a cheap 6-point sweep and finishes an experiment around it.
fn run_sweep(ctx: &Ctx, label: &str) -> (Vec<Option<u64>>, bench::ExpResult) {
    let items: Vec<u64> = (0..6).collect();
    let slots = ctx.sweep(label, &items, |&x| x * 10 + 1);
    let mut csv = ctx.csv("sweep.csv", "x,y");
    for slot in slots.iter().flatten() {
        csv.row(format_args!("{},{}", slot / 10, slot));
    }
    let result = ctx.finish_experiment(csv);
    (slots, result)
}

fn csv_text(ctx: &Ctx) -> String {
    std::fs::read_to_string(ctx.results_dir.join("sweep.csv")).expect("csv written")
}

#[test]
fn panic_point_costs_that_point_and_marks_the_csv_partial() {
    let ctx = tmp_ctx("panic", 3, "panic@lab:sweep@2");
    let (slots, result) = run_sweep(&ctx, "lab:sweep");

    // Only the faulted point is lost.
    assert_eq!(slots.iter().filter(|s| s.is_some()).count(), 5);
    assert!(slots[2].is_none());

    // The experiment reports the degradation, naming the lost point.
    let err = result.expect_err("degraded run must error").to_string();
    assert!(err.contains("degraded"), "{err}");
    assert!(err.contains("lab:sweep[2]"), "{err}");

    // The CSV still holds every completed row, under a partial header.
    let text = csv_text(&ctx);
    assert!(text.starts_with("# partial: 5/6 points\n"), "{text}");
    assert_eq!(text.lines().count(), 2 + 5, "{text}");

    // The supervisor journalled the panic with its retry count.
    let reports = ctx.supervisor.drain();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].lost(), 1);
    assert_eq!(reports[0].failures[0].index, 2);
    assert!(reports[0].failures[0].panicked);
    assert_eq!(
        reports[0].failures[0].attempts,
        RetryPolicy::standard(0).max_attempts
    );
    cleanup(&ctx);
}

#[test]
fn transient_fault_recovers_via_retry_and_leaves_a_clean_csv() {
    let ctx = tmp_ctx("transient", 2, "transient@lab:sweep@4@2");
    let (slots, result) = run_sweep(&ctx, "lab:sweep");

    assert!(slots.iter().all(Option::is_some), "no point may be lost");
    result.expect("recovered run must succeed");
    let text = csv_text(&ctx);
    assert!(!text.starts_with('#'), "recovered CSV must not be partial");

    let reports = ctx.supervisor.drain();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].completed, 6);
    assert_eq!(reports[0].recovered, 1);
    assert_eq!(reports[0].retried_attempts, 2);
    assert!(reports[0].failures.is_empty());
    cleanup(&ctx);
}

#[test]
fn fatal_error_point_is_not_retried() {
    let ctx = tmp_ctx("fatal", 2, "error@lab:sweep@0");
    let (slots, result) = run_sweep(&ctx, "lab:sweep");

    assert!(slots[0].is_none());
    assert!(result.is_err());
    let reports = ctx.supervisor.drain();
    assert_eq!(reports[0].failures[0].attempts, 1, "fatal must not retry");
    assert!(!reports[0].failures[0].panicked);
    cleanup(&ctx);
}

#[test]
fn clean_sweeps_are_identical_at_any_thread_count_and_to_plain_par_map() {
    let items: Vec<u64> = (0..16).collect();
    let expected: Vec<u64> = items.iter().map(|&x| x * 10 + 1).collect();
    for threads in [1usize, 2, 8] {
        let ctx = tmp_ctx(&format!("clean{threads}"), threads, "");
        let slots = ctx.sweep("lab:sweep", &items, |&x| x * 10 + 1);
        let got: Vec<u64> = slots.into_iter().map(|s| s.expect("clean")).collect();
        assert_eq!(got, expected, "{threads} threads diverged");
        let reports = ctx.supervisor.drain();
        assert_eq!(reports[0].completed, 16);
        assert_eq!(reports[0].retried_attempts, 0);
        cleanup(&ctx);
    }
}

#[test]
fn faulted_runs_are_deterministic_across_repeats_and_thread_counts() {
    let plan = "panic@lab:sweep@1,transient@lab:sweep@3@1";
    let mut outputs = Vec::new();
    for (tag, threads) in [("d1", 1usize), ("d2", 4), ("d3", 4)] {
        let ctx = tmp_ctx(&format!("det-{tag}"), threads, plan);
        let (_, result) = run_sweep(&ctx, "lab:sweep");
        assert!(result.is_err());
        outputs.push(csv_text(&ctx));
        cleanup(&ctx);
    }
    assert_eq!(outputs[0], outputs[1], "thread count changed faulted CSV");
    assert_eq!(outputs[1], outputs[2], "faulted CSV not reproducible");
}

#[test]
fn sweeps_in_other_labels_are_untouched_by_the_plan() {
    let ctx = tmp_ctx("other", 2, "panic@other:sweep@0");
    let (slots, result) = run_sweep(&ctx, "lab:sweep");
    assert!(slots.iter().all(Option::is_some));
    result.expect("unfaulted label must run clean");
    cleanup(&ctx);
}
