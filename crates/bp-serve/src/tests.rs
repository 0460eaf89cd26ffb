//! Engine-level tests: exact accounting under fault soaks, thread-count
//! invariance, snapshot-backed restart stream identity, degraded-mode
//! semantics, and budget exhaustion.

use std::path::PathBuf;

use bp_common::pool::{Pool, RetryPolicy};
use bp_common::telemetry::Health;

use super::*;

fn test_config() -> ServeConfig {
    ServeConfig {
        shards: 4,
        hw_threads: 2,
        mechanism: Mechanism::hybp_default(),
        seed: 0xd15e_a5e0_0bad_cafe,
        queue_capacity: 8,
        service_cycles: 64,
        deadline_cycles: 1024,
        restart_penalty_cycles: 10_000,
        snapshot_interval: 32,
        restart_budget: RetryPolicy::standard(7),
        snapshot_dir: None,
    }
}

fn soak_requests(n: u64) -> Vec<Request> {
    synth_requests(&WorkloadSpec::soak(n, 0x1234_5678))
}

/// Two distinct shards that actually receive traffic from `requests`
/// (the soak workload has only a handful of `(hw, asid)` pairs, so a
/// hard-coded shard index may sit idle).
fn busy_shards(engine: &ServeEngine, requests: &[Request]) -> (usize, usize) {
    let first = engine.route(requests[0].hw, requests[0].asid);
    let second = requests
        .iter()
        .map(|r| engine.route(r.hw, r.asid))
        .find(|&s| s != first)
        .unwrap_or(first);
    (first, second)
}

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bp-serve-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

#[test]
fn config_validation_rejects_degenerate_values() {
    let ok = ServeEngine::new(test_config());
    assert!(ok.is_ok());
    for (mutate, what) in [
        (
            (|c: &mut ServeConfig| c.shards = 0) as fn(&mut ServeConfig),
            "shards",
        ),
        (|c| c.queue_capacity = 0, "queue_capacity"),
        (|c| c.service_cycles = 0, "service_cycles"),
        (|c| c.deadline_cycles = 1, "deadline_cycles"),
        (|c| c.snapshot_interval = 0, "snapshot_interval"),
        (|c| c.restart_budget.max_attempts = 0, "max_attempts"),
    ] {
        let mut cfg = test_config();
        mutate(&mut cfg);
        assert!(ServeEngine::new(cfg).is_err(), "{what} must be rejected");
    }
}

#[test]
fn routing_is_pure_and_covers_all_shards() {
    let engine = ServeEngine::new(test_config()).expect("valid config");
    let mut hit = [false; 4];
    for hw in 0..2u8 {
        for asid in 1..64u16 {
            let s = engine.route(HwThreadId::new(hw), Asid::new(asid));
            assert!(s < 4);
            assert_eq!(s, engine.route(HwThreadId::new(hw), Asid::new(asid)));
            hit[s] = true;
        }
    }
    assert!(hit.iter().all(|&h| h), "every shard serves some domain");
}

#[test]
fn fault_free_soak_accounts_every_request_exactly_once() {
    let engine = ServeEngine::new(test_config()).expect("valid config");
    let requests = soak_requests(2_000);
    let report = engine.run(&requests, &Pool::new(2));
    assert!(report.accounting_exact());
    let t = report.totals();
    assert_eq!(t.submitted, 2_000);
    assert_eq!(t.lost, 0);
    assert_eq!(t.restarts, 0);
    assert_eq!(t.degraded_answers, 0);
    assert!(t.answered > 1_000, "most of the soak is served: {t:?}");
    // The bursty arrivals exercise real backpressure against the 8-deep
    // queue and the deadline.
    assert!(
        t.shed > 0,
        "bursts must shed under the bounded queue: {t:?}"
    );
    assert!(report.readiness().is_ready());
    let snap = report.snapshot();
    assert_eq!(snap.scope, "serve");
    assert_eq!(snap.get("submitted"), 2_000);
    assert_eq!(snap.get("is_ready"), 1);
}

#[test]
fn report_is_bit_identical_across_pool_thread_counts() {
    let mut cfg = test_config();
    cfg.snapshot_dir = Some(tmpdir("threads"));
    let requests = soak_requests(1_500);
    let probe = ServeEngine::new(cfg.clone()).expect("valid config");
    let (sa, sb) = busy_shards(&probe, &requests);
    let plan = PointFaultPlan::parse(&format!(
        "shard-panic@{sa}@40,refresh-stall@{sb}@25,queue-overload@{sa}@10,queue-overload@{sb}@5"
    ))
    .expect("valid fault spec");
    let engine = probe.with_faults(plan);
    let base = engine.run(&requests, &Pool::new(1));
    for threads in [2, 4] {
        let got = engine.run(&requests, &Pool::new(threads));
        assert_eq!(got, base, "report drifted at {threads} pool threads");
    }
    assert!(base.accounting_exact());
    assert_eq!(base.totals().lost, 1);
    let _ = std::fs::remove_dir_all(cfg.snapshot_dir.expect("set above"));
}

#[test]
fn forced_queue_overload_sheds_typed_and_counted() {
    let requests = soak_requests(400);
    let probe = ServeEngine::new(test_config()).expect("valid config");
    let (target, _) = busy_shards(&probe, &requests);
    let plan =
        PointFaultPlan::parse(&format!("queue-overload@{target}@3")).expect("valid fault spec");
    let engine = probe.with_faults(plan);
    let report = engine.run(&requests, &Pool::new(2));
    assert!(report.accounting_exact());
    assert!(report.shards[target].shed_overload >= 1);
    assert!(report.responses.iter().any(|r| matches!(
        r,
        Response::Shed {
            reason: ShedReason::QueueOverload,
            ..
        } if r.shard() == target
    )));
}

/// A panicked-and-restarted shard must resume bit-identical to a shard
/// that never saw the lost request. With a zero-cycle restart penalty the
/// faulted run (minus its lost request) and a clean run over the stream
/// with that request omitted must agree on *every* response field.
#[test]
fn restart_resumes_stream_identical_predictions_from_snapshot() {
    let mut cfg = test_config();
    cfg.queue_capacity = 1 << 16; // no shedding: isolate the restart path
    cfg.deadline_cycles = 1 << 40;
    cfg.restart_penalty_cycles = 0;
    cfg.restart_budget = RetryPolicy {
        max_attempts: 3,
        base_backoff_ms: 0,
        seed: 7,
        retry_panics: true,
    };
    cfg.snapshot_interval = 16;
    cfg.snapshot_dir = Some(tmpdir("restart"));
    let requests = soak_requests(1_200);
    let probe = ServeEngine::new(cfg.clone()).expect("valid config");
    let (target_shard, _) = busy_shards(&probe, &requests);
    let plan =
        PointFaultPlan::parse(&format!("shard-panic@{target_shard}@50")).expect("valid fault spec");
    let engine = probe.with_faults(plan);
    let faulted = engine.run(&requests, &Pool::new(2));
    assert!(faulted.accounting_exact());
    let stats = &faulted.shards[target_shard];
    assert_eq!(stats.lost, 1);
    assert_eq!(stats.restarts, 1);
    assert_eq!(
        stats.snapshot_restores, 1,
        "the panic lands past snapshot_interval, so restore must come from disk: {stats:?}"
    );
    assert_eq!(stats.snapshot_failures, 0);
    assert_eq!(stats.journal_replays, 0);
    assert!(stats.snapshots_written >= 1);
    assert_eq!(stats.health, Health::Degraded, "restarted but serving");

    let lost_id = faulted
        .responses
        .iter()
        .find_map(|r| match *r {
            Response::Lost { id, .. } => Some(id),
            _ => None,
        })
        .expect("exactly one lost request");

    let clean_engine = ServeEngine::new(ServeConfig {
        snapshot_dir: None,
        ..cfg.clone()
    })
    .expect("valid config");
    let without_lost: Vec<Request> = requests
        .iter()
        .copied()
        .filter(|r| r.id != lost_id)
        .collect();
    let clean = clean_engine.run(&without_lost, &Pool::new(2));

    let resumed: Vec<&Response> = faulted
        .responses
        .iter()
        .filter(|r| r.id() != lost_id)
        .collect();
    assert_eq!(resumed.len(), clean.responses.len());
    for (f, c) in resumed.iter().zip(clean.responses.iter()) {
        assert_eq!(**f, *c, "stream diverged after restart at id {}", c.id());
    }
    let _ = std::fs::remove_dir_all(cfg.snapshot_dir.expect("set above"));
}

/// A stalled key refresh opens a degraded window: answers are flagged and
/// counted, but which requests get answered/shed and when is unchanged —
/// stale keys cost accuracy, never correctness (paper §V-C2).
#[test]
fn refresh_stall_degrades_accuracy_only() {
    let cfg = test_config();
    let requests = soak_requests(1_500);
    let clean_engine = ServeEngine::new(cfg.clone()).expect("valid config");
    let (sa, sb) = busy_shards(&clean_engine, &requests);
    let clean = clean_engine.run(&requests, &Pool::new(2));
    let plan = PointFaultPlan::parse(&format!("refresh-stall@{sa}@20,refresh-stall@{sb}@30"))
        .expect("valid fault spec");
    let stalled = ServeEngine::new(cfg)
        .expect("valid config")
        .with_faults(plan)
        .run(&requests, &Pool::new(2));

    assert!(stalled.accounting_exact());
    assert_eq!(clean.responses.len(), stalled.responses.len());
    for (c, s) in clean.responses.iter().zip(stalled.responses.iter()) {
        assert_eq!(c.id(), s.id());
        assert_eq!(c.shard(), s.shard());
        match (c, s) {
            (
                Response::Answered {
                    completed_at: ca,
                    latency: la,
                    ..
                },
                Response::Answered {
                    completed_at: cb,
                    latency: lb,
                    ..
                },
            ) => {
                // Identical service timing: the non-stalling refresh never
                // blocks the server.
                assert_eq!(ca, cb);
                assert_eq!(la, lb);
            }
            (
                Response::Shed {
                    reason: ra, at: aa, ..
                },
                Response::Shed {
                    reason: rb, at: ab, ..
                },
            ) => {
                assert_eq!(ra, rb);
                assert_eq!(aa, ab);
            }
            (c, s) => panic!("response kind changed under stall: {c:?} vs {s:?}"),
        }
    }
    assert_eq!(clean.totals().degraded_answers, 0);
    let t = stalled.totals();
    assert!(t.degraded_answers > 0, "stall must open a degraded window");
    assert_eq!(t.lost, 0);
    assert_eq!(t.restarts, 0);
    let windows: u64 = stalled.shards.iter().map(|s| s.degraded_windows).sum();
    assert!(windows >= 1);
    // Some answers were visibly flagged while the stale-key window was
    // open, and a later generation advance closed it again: the shard
    // self-heals, so final readiness recovers to ready.
    assert!(stalled
        .responses
        .iter()
        .any(|r| matches!(r, Response::Answered { degraded: true, .. })));
    assert_eq!(stalled.readiness().count(Health::Failed), 0);
}

#[test]
fn restart_budget_exhaustion_fails_shard_and_sheds_remainder() {
    let mut cfg = test_config();
    // Immediate re-panics must reach the panic site instead of being
    // deadline-shed behind the restart penalty.
    cfg.queue_capacity = 1 << 16;
    cfg.deadline_cycles = 1 << 40;
    cfg.restart_penalty_cycles = 0;
    cfg.restart_budget = RetryPolicy {
        max_attempts: 2,
        base_backoff_ms: 0,
        seed: 7,
        retry_panics: true,
    };
    let requests = soak_requests(1_200);
    let probe = ServeEngine::new(cfg).expect("valid config");
    let (target, _) = busy_shards(&probe, &requests);
    let plan = PointFaultPlan::parse(&format!(
        "shard-panic@{target}@10,shard-panic@{target}@11,shard-panic@{target}@12"
    ))
    .expect("valid fault spec");
    let engine = probe.with_faults(plan);
    let report = engine.run(&requests, &Pool::new(2));
    assert!(report.accounting_exact());
    let s = &report.shards[target];
    assert_eq!(s.lost, 2, "two panics consumed the two-life budget");
    assert_eq!(s.restarts, 1, "only the first panic earned a restart");
    assert_eq!(s.health, Health::Failed);
    assert!(s.shed_failed > 0, "the failed shard's tail is shed, typed");
    assert!(report
        .shards
        .iter()
        .all(|s| s.shard == target || s.health != Health::Failed));
    let r = report.readiness();
    assert_eq!(r.worst(), Health::Failed);
    assert_eq!(report.snapshot().get("shards_failed"), 1);
}

#[test]
fn synth_workload_is_deterministic_and_ordered() {
    let spec = WorkloadSpec::soak(500, 42);
    let a = synth_requests(&spec);
    let b = synth_requests(&spec);
    assert_eq!(a, b);
    assert_eq!(a.len(), 500);
    assert!(a.windows(2).all(|w| w[0].submitted_at <= w[1].submitted_at));
    assert!(a.windows(2).all(|w| w[0].id + 1 == w[1].id));
}
