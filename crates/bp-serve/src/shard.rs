//! One supervised worker shard: bounded virtual-time queue, prediction,
//! panic isolation, snapshot-backed restart, and stale-key tracking.
//!
//! A [`SecureBpu`] holds an `Rc`-based fault injector and is therefore not
//! `Send`; a shard's entire lifetime — construction, every request, every
//! restart — runs inside a single order-preserving `Pool::par_map` task.
//! Everything that crosses back to the engine ([`ShardOutcome`]) is plain
//! data.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use bp_common::telemetry::Health;
use bp_common::{Addr, Asid, BranchKind, BranchRecord, Cycle, HwThreadId};
use bp_faults::points::{PointFaultPlan, ServeFaultKind};
use bp_faults::{FaultHook, FaultInjector, RefreshDisposition};
use hybp::{BranchOutcome, SecureBpu};

use crate::snapshot;
use crate::{Request, Response, ServeConfig, ShardStats, ShedReason};

/// The Send result of one shard's complete run: one response per routed
/// request (in dequeue order) plus the shard's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutcome {
    /// One response per request routed to the shard.
    pub responses: Vec<Response>,
    /// The shard's statistics and final health.
    pub stats: ShardStats,
}

/// One answered request as recorded for replay. Applying the journal to a
/// freshly built shard reproduces its predictor state bit-for-bit: the
/// live path and the replay path share [`LiveShard::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JournalEntry {
    pub hw: u8,
    pub asid: u16,
    pub pc: u64,
    pub kind: u8,
    pub target: u64,
    pub taken: bool,
    pub gap: u32,
    pub now: Cycle,
    /// Whether a refresh-stall was armed immediately before this request;
    /// replay re-arms it so the same renewal is dropped.
    pub arm_stall: bool,
}

pub(crate) fn encode_kind(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Direct => 1,
        BranchKind::Indirect => 2,
        BranchKind::Call => 3,
        BranchKind::Return => 4,
    }
}

pub(crate) fn decode_kind(code: u8) -> Option<BranchKind> {
    match code {
        0 => Some(BranchKind::Conditional),
        1 => Some(BranchKind::Direct),
        2 => Some(BranchKind::Indirect),
        3 => Some(BranchKind::Call),
        4 => Some(BranchKind::Return),
        _ => None,
    }
}

impl JournalEntry {
    fn from_request(req: &Request, now: Cycle, arm_stall: bool) -> JournalEntry {
        JournalEntry {
            hw: req.hw.raw(),
            asid: req.asid.raw(),
            pc: req.record.pc.into(),
            kind: encode_kind(req.record.kind),
            target: req.record.target.into(),
            taken: req.record.taken,
            gap: req.record.gap,
            now,
            arm_stall,
        }
    }

    fn record(&self) -> BranchRecord {
        BranchRecord {
            pc: Addr::new(self.pc),
            // The in-memory journal only holds encodings of real kinds;
            // snapshot loading re-validates codes before building entries.
            kind: decode_kind(self.kind).unwrap_or(BranchKind::Conditional),
            target: Addr::new(self.target),
            taken: self.taken,
            gap: self.gap,
        }
    }
}

/// Fault hook dropping the next `armed` key-table refreshes — the
/// injectable "refresh stall" that opens a stale-key window. The counter
/// is shared with the shard loop through an `Rc<Cell>`; the shard never
/// crosses threads, so the non-atomic cell is sound.
#[derive(Debug)]
struct StallHook {
    armed: Rc<Cell<u32>>,
}

impl FaultHook for StallHook {
    fn on_refresh(&mut self, _slot: usize, _now: Cycle) -> RefreshDisposition {
        let pending = self.armed.get();
        if pending > 0 {
            self.armed.set(pending - 1);
            RefreshDisposition::Drop
        } else {
            RefreshDisposition::Proceed
        }
    }
}

/// The mutable, non-`Send` core of a shard: the predictor plus the ASID
/// view per hardware thread and the shared stall trigger.
struct LiveShard {
    bpu: SecureBpu,
    stall: Rc<Cell<u32>>,
    asids: Vec<Option<u16>>,
}

impl LiveShard {
    fn build(cfg: &ServeConfig, shard: usize) -> Result<LiveShard, ()> {
        let seed = crate::fnv1a(
            &(shard as u64).to_le_bytes(),
            cfg.seed ^ crate::fnv1a(b"shard", 0xcbf2_9ce4_8422_2325),
        );
        let mut bpu = SecureBpu::new(cfg.mechanism, cfg.hw_threads, seed).map_err(|_| ())?;
        let stall = Rc::new(Cell::new(0u32));
        bpu.set_fault_injector(Some(FaultInjector::new(StallHook {
            armed: Rc::clone(&stall),
        })));
        Ok(LiveShard {
            bpu,
            stall,
            asids: vec![None; cfg.hw_threads],
        })
    }

    /// Applies one journal entry: arm any recorded stall, context-switch if
    /// the hardware thread changed ASID, then predict-and-train. Live
    /// serving and restart replay both go through here, which is what makes
    /// restored shards stream-identical.
    fn apply(&mut self, entry: &JournalEntry) -> BranchOutcome {
        if entry.arm_stall {
            self.stall.set(self.stall.get() + 1);
        }
        let hw = HwThreadId::new(entry.hw);
        let hwi = hw.index().min(self.asids.len().saturating_sub(1));
        if self.asids[hwi] != Some(entry.asid) {
            self.bpu
                .on_context_switch(hw, Asid::new(entry.asid), entry.now);
            self.asids[hwi] = Some(entry.asid);
        }
        self.bpu.process_branch(hw, &entry.record(), entry.now)
    }
}

/// Sheds every remaining request of a permanently failed shard.
fn shed_rest(
    requests: &[Request],
    from: usize,
    shard: usize,
    stats: &mut ShardStats,
    responses: &mut Vec<Response>,
) {
    for req in &requests[from..] {
        stats.submitted += 1;
        stats.shed_failed += 1;
        responses.push(Response::Shed {
            id: req.id,
            shard,
            reason: ShedReason::ShardFailed,
            at: req.submitted_at,
        });
    }
}

/// Runs one shard's complete soak: every routed request is answered, shed,
/// or lost — exactly once — and the result is a pure function of
/// `(cfg, shard, requests, plan)`.
pub(crate) fn run_shard(
    cfg: &ServeConfig,
    shard: usize,
    requests: &[Request],
    plan: &PointFaultPlan,
) -> ShardOutcome {
    let mut stats = ShardStats::new(shard);
    let mut responses = Vec::with_capacity(requests.len());

    let mut live = match LiveShard::build(cfg, shard) {
        Ok(l) => l,
        Err(()) => {
            // Unreachable after ServeEngine::new's trial construction, but
            // a build refusal must fail the shard loudly, not panic.
            stats.health = Health::Failed;
            shed_rest(requests, 0, shard, &mut stats, &mut responses);
            return ShardOutcome { responses, stats };
        }
    };

    let mut journal: Vec<JournalEntry> = Vec::new();
    let mut snapshot_len: usize = 0; // journal prefix captured on disk
    let mut busy_until: Cycle = 0;
    let mut inflight: VecDeque<Cycle> = VecDeque::new();
    let mut attempts_used: u32 = 0;
    let mut seen_stalls: u64 = 0;
    let mut degraded = false;
    let mut gen_at_stall: u64 = 0;

    for (i, req) in requests.iter().enumerate() {
        stats.submitted += 1;
        // Dequeue ordinal — what serve faults key on.
        let deq = i as u64;

        // Retire completions up to this arrival, then check backpressure.
        while inflight.front().is_some_and(|&c| c <= req.submitted_at) {
            inflight.pop_front();
        }
        stats.queue_depth.set(inflight.len() as u64);
        let forced_overload = plan
            .serve_fault_at(ServeFaultKind::QueueOverload, shard, deq)
            .is_some();
        if forced_overload || inflight.len() >= cfg.queue_capacity {
            stats.shed_overload += 1;
            responses.push(Response::Shed {
                id: req.id,
                shard,
                reason: ShedReason::QueueOverload,
                at: req.submitted_at,
            });
            continue;
        }

        // Deadline check happens before any predictor mutation: a shed
        // request must never train the model.
        let start = busy_until.max(req.submitted_at);
        let finish = start + cfg.service_cycles;
        if finish > req.submitted_at + cfg.deadline_cycles {
            stats.shed_deadline += 1;
            responses.push(Response::Shed {
                id: req.id,
                shard,
                reason: ShedReason::DeadlineExpired,
                at: req.submitted_at,
            });
            continue;
        }

        let arm_stall = plan
            .serve_fault_at(ServeFaultKind::RefreshStall, shard, deq)
            .is_some();
        let entry = JournalEntry::from_request(req, start, arm_stall);
        let panic_armed = plan
            .serve_fault_at(ServeFaultKind::ShardPanic, shard, deq)
            .is_some();

        // Supervision boundary. AssertUnwindSafe is sound because a caught
        // panic discards `live` wholesale and rebuilds it from the journal.
        let served = catch_unwind(AssertUnwindSafe(|| {
            #[expect(
                clippy::panic,
                reason = "fault injection: this panic exists to exercise the supervision boundary below and is caught by it"
            )]
            if panic_armed {
                panic!("injected shard-panic (shard {shard}, dequeue {deq})");
            }
            live.apply(&entry)
        }));

        match served {
            Ok(outcome) => {
                journal.push(entry);
                busy_until = finish;
                inflight.push_back(finish);
                let latency = finish - req.submitted_at;
                stats.latency.record(latency);

                // Stale-key window tracking: a manager-wide stall count
                // moving without a generation advance opens degraded mode;
                // the serving slot's next generation advance closes it.
                let slot = live.bpu.domain(req.hw).isolation_slot();
                let mut key_generation = 0;
                if let Some(epoch) = live.bpu.key_epoch(slot, finish) {
                    key_generation = epoch.generation;
                    if epoch.refresh_stalls > seen_stalls {
                        seen_stalls = epoch.refresh_stalls;
                        if !degraded {
                            stats.degraded_windows += 1;
                        }
                        degraded = true;
                        gen_at_stall = epoch.generation;
                    } else if degraded && epoch.generation > gen_at_stall {
                        degraded = false;
                    }
                }
                if degraded {
                    stats.degraded_answers += 1;
                }
                stats.answered += 1;
                responses.push(Response::Answered {
                    id: req.id,
                    shard,
                    direction_mispredict: outcome.direction_mispredict,
                    target_mispredict: outcome.target_mispredict,
                    completed_at: finish,
                    latency,
                    degraded,
                    key_generation,
                });

                if let Some(dir) = cfg.snapshot_dir.as_deref() {
                    if journal.len() >= snapshot_len + cfg.snapshot_interval as usize {
                        match snapshot::write(dir, shard, cfg.seed, &journal) {
                            Ok(()) => {
                                snapshot_len = journal.len();
                                stats.snapshots_written += 1;
                            }
                            Err(_) => stats.snapshot_failures += 1,
                        }
                    }
                }
            }
            Err(_) => {
                // The in-flight request is lost; the supervisor decides
                // between restart and permanent failure.
                attempts_used += 1;
                stats.lost += 1;
                responses.push(Response::Lost {
                    id: req.id,
                    shard,
                    restart: attempts_used,
                });
                if attempts_used >= cfg.restart_budget.max_attempts {
                    stats.health = Health::Failed;
                    shed_rest(requests, i + 1, shard, &mut stats, &mut responses);
                    return ShardOutcome { responses, stats };
                }

                let mut fresh = match LiveShard::build(cfg, shard) {
                    Ok(l) => l,
                    Err(()) => {
                        stats.health = Health::Failed;
                        shed_rest(requests, i + 1, shard, &mut stats, &mut responses);
                        return ShardOutcome { responses, stats };
                    }
                };
                // Prefer the on-disk snapshot (exercising the serialized
                // form) and replay the journal tail after it; any
                // validation failure falls back to the full in-memory
                // journal. Both paths rebuild identical predictor state.
                let mut replayed_from_disk = false;
                if let Some(dir) = cfg.snapshot_dir.as_deref() {
                    if snapshot_len > 0 {
                        match snapshot::load(dir, shard, cfg.seed) {
                            Some(entries) if entries.as_slice() == &journal[..snapshot_len] => {
                                for e in &entries {
                                    fresh.apply(e);
                                }
                                for e in &journal[snapshot_len..] {
                                    fresh.apply(e);
                                }
                                stats.snapshot_restores += 1;
                                replayed_from_disk = true;
                            }
                            _ => stats.snapshot_failures += 1,
                        }
                    }
                }
                if !replayed_from_disk {
                    for e in &journal {
                        fresh.apply(e);
                    }
                    stats.journal_replays += 1;
                }
                live = fresh;
                stats.restarts += 1;

                // The restart keeps the shard's virtual server busy: fixed
                // penalty plus the retry policy's seeded backoff, folded in
                // as cycles (attempt numbering is 2-based in the policy).
                busy_until = busy_until.max(req.submitted_at)
                    + cfg.restart_penalty_cycles
                    + cfg.restart_budget.backoff_ms(shard, attempts_used + 1);
            }
        }
    }

    stats.health = if stats.health == Health::Failed {
        Health::Failed
    } else if degraded || stats.restarts > 0 {
        Health::Degraded
    } else {
        Health::Ready
    };
    ShardOutcome { responses, stats }
}
