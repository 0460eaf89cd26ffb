//! The assembled secure branch prediction unit.
//!
//! [`SecureBpu`] wires the three-level BTB, the TAGE-SC-L direction
//! predictor and per-thread return address stacks together under one of the
//! paper's protection [`Mechanism`]s, and exposes the trace-driven interface
//! the pipeline model consumes: [`SecureBpu::process_branch`] predicts,
//! compares against the trace outcome, trains, and reports what the
//! front-end would have to pay.

use bp_common::telemetry::{Observable, TelemetrySnapshot};
use bp_common::{
    Asid, BranchKind, BranchRecord, ConfigError, Cycle, HwThreadId, Privilege, SecurityDomain,
    Telemetry, Vmid,
};
use bp_faults::FaultInjector;
use bp_predictors::btb::{BtbHierarchy, BtbHierarchyConfig};
use bp_predictors::codec::IdentityCodec;
use bp_predictors::ras::ReturnAddressStack;
use bp_predictors::tage::TageConfig;
use bp_predictors::tage_scl::TageScL;
use bp_predictors::tournament::Tournament;

use crate::codec::HybpCodec;
use crate::mechanism::Mechanism;

/// What one branch cost the front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// The direction predictor was wrong (conditional branches only).
    pub direction_mispredict: bool,
    /// The branch was taken but fetch had no (correct) target: BTB miss,
    /// garbled entry, or RAS mismatch.
    pub target_mispredict: bool,
    /// BTB level that hit, if any.
    pub btb_level: Option<u8>,
    /// Fetch-bubble cycles charged for a correct-but-slow target (hits in
    /// L1/L2 cost 1/4 cycles even when correct).
    pub btb_latency: u32,
}

impl BranchOutcome {
    /// Whether the branch redirects the pipeline (full penalty).
    pub fn mispredicted(&self) -> bool {
        self.direction_mispredict || self.target_mispredict
    }
}

/// Counters the BPU gathers across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BpuStats {
    /// Total branches processed.
    pub branches: u64,
    /// Conditional branches processed.
    pub conditional_branches: u64,
    /// Direction mispredictions.
    pub direction_mispredicts: u64,
    /// Target mispredictions (taken branches without a usable target).
    pub target_mispredicts: u64,
    /// BTB hits per level.
    pub btb_hits: [u64; 3],
    /// BTB full misses (on taken non-return branches).
    pub btb_misses: u64,
    /// Context switches observed.
    pub context_switches: u64,
    /// Privilege changes observed.
    pub privilege_changes: u64,
    /// Full-predictor flushes performed (Flush mechanism).
    pub full_flushes: u64,
    /// Branches predicted while the active slot's keys-table rewrite was
    /// still in flight (HyBP only). Non-zero proves predictions kept
    /// flowing *during* refresh windows — the machine-checkable half of the
    /// paper's off-critical-path refresh claim (§V-C2): stale keys are
    /// served, the front-end never waits on the keys table.
    pub predictions_during_refresh: u64,
}

impl BpuStats {
    /// Direction prediction accuracy over conditional branches.
    pub fn direction_accuracy(&self) -> f64 {
        if self.conditional_branches == 0 {
            return 1.0;
        }
        1.0 - self.direction_mispredicts as f64 / self.conditional_branches as f64
    }
}

impl Observable for BpuStats {
    fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::new("bpu")
            .with("branches", self.branches)
            .with("conditional_branches", self.conditional_branches)
            .with("direction_mispredicts", self.direction_mispredicts)
            .with("target_mispredicts", self.target_mispredicts)
            .with("btb_l0_hits", self.btb_hits[0])
            .with("btb_l1_hits", self.btb_hits[1])
            .with("btb_l2_hits", self.btb_hits[2])
            .with("btb_misses", self.btb_misses)
            .with("context_switches", self.context_switches)
            .with("privilege_changes", self.privilege_changes)
            .with("full_flushes", self.full_flushes)
            .with(
                "predictions_during_refresh",
                self.predictions_during_refresh,
            )
    }
}

/// Everything the BPU reports at end of run, in one shape: the core
/// counters, the codec's counters when the mechanism randomizes, and the
/// per-slot BTB occupancy. This replaces the former accessor triplet
/// (`stats()` / `codec_stats()` / `btb_occupancy()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BpuObservation {
    /// Core counters.
    pub stats: BpuStats,
    /// Codec counters, when the mechanism is HyBP.
    pub codec: Option<crate::codec::CodecStats>,
    /// BTB occupancy `(l0, l1, l2)` per isolation slot.
    pub btb_occupancy: Vec<(usize, usize, usize)>,
}

/// A point-in-time view of one isolation slot's key state — the shape a
/// serving layer polls to detect and exit stale-key degraded mode. Carries
/// no key material, only epoch bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyEpoch {
    /// The slot's keys-table generation (bumped when a rewrite begins).
    pub generation: u64,
    /// Whether a background keys-table rewrite is currently in flight.
    pub refresh_in_flight: bool,
    /// Reads served from a not-yet-rewritten entry mid-refresh (§V-C2).
    pub stale_hits: u64,
    /// Renewals whose rewrite was dropped by a fault, BPU-wide — keys kept
    /// serving stale. Monotone; a move without a generation advance is the
    /// degraded-mode entry signal.
    pub refresh_stalls: u64,
}

/// Direction predictor layout per mechanism.
#[derive(Debug)]
enum DirState {
    /// One shared predictor, slot ignored (Baseline, Flush, Disable-SMT).
    Shared(Box<TageScL>),
    /// One predictor with per-slot isolated small structures and shared
    /// tagged tables (HyBP).
    Slotted(Box<TageScL>),
    /// Fully separate predictors per slot (Partition, Replication).
    PerSlot(Vec<TageScL>),
    /// Shared tournament predictor (the §VII-F comparison baseline).
    Tournament(Box<Tournament>),
}

/// Codec layout per mechanism.
// No `Debug`: the HyBP variant owns the key manager (secret-hygiene).
enum CodecState {
    Identity(IdentityCodec),
    Hybp(Box<HybpCodec>),
}

/// The secure branch prediction unit.
// No `Debug`: owns the codec and with it the key material.
pub struct SecureBpu {
    mechanism: Mechanism,
    n_hw_threads: usize,
    dir: DirState,
    btb: BtbHierarchy,
    ras: Vec<ReturnAddressStack>,
    codec: CodecState,
    domains: Vec<SecurityDomain>,
    stats: BpuStats,
    /// Optional disturbance source for BTB payload and direction-counter
    /// read faults (the keys-table faults live inside the codec).
    faults: Option<FaultInjector>,
}

impl SecureBpu {
    /// Builds a BPU for `n_hw_threads` SMT threads under `mechanism`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `n_hw_threads` is zero or the
    /// mechanism's parameters fail [`Mechanism::validate`].
    pub fn new(mechanism: Mechanism, n_hw_threads: usize, seed: u64) -> Result<Self, ConfigError> {
        if n_hw_threads == 0 {
            return Err(ConfigError::zero("n_hw_threads"));
        }
        mechanism.validate()?;
        let slots = SecurityDomain::slot_count(n_hw_threads);
        let tage_cfg = TageConfig::paper_scl();
        let zen2 = BtbHierarchyConfig::zen2();

        let (dir, btb, codec) = match mechanism {
            Mechanism::TournamentBaseline => (
                DirState::Tournament(Box::new(Tournament::alpha_like())),
                BtbHierarchy::with_config(zen2, seed),
                CodecState::Identity(IdentityCodec::new()),
            ),
            Mechanism::Baseline | Mechanism::Flush | Mechanism::DisableSmt => (
                // Shared tables, but per-hardware-thread history registers
                // and base/SC/loop banks — as real SMT baselines have (only
                // the large structures are truly shared state).
                DirState::Shared(Box::new(TageScL::with_layout(tage_cfg, 1, n_hw_threads))),
                BtbHierarchy::with_config(zen2, seed),
                CodecState::Identity(IdentityCodec::new()),
            ),
            Mechanism::Partition => {
                let scaled = tage_cfg.scaled(1, slots);
                let cfg = BtbHierarchyConfig {
                    l0: zen2.l0.scaled(1, slots),
                    l1: zen2.l1.scaled(1, slots),
                    l2: zen2.l2.scaled(1, slots),
                    slots,
                    l2_shared: false,
                    ..zen2
                };
                (
                    DirState::PerSlot((0..slots).map(|_| TageScL::new(scaled.clone())).collect()),
                    BtbHierarchy::with_config(cfg, seed),
                    CodecState::Identity(IdentityCodec::new()),
                )
            }
            Mechanism::Replication { extra_storage_pct } => {
                // Total storage is (100 + extra)%, split across slots.
                let numer = 100 + extra_storage_pct as usize;
                let denom = 100 * slots;
                let scaled = tage_cfg.scaled(numer, denom);
                let cfg = BtbHierarchyConfig {
                    l0: zen2.l0.scaled(numer, denom),
                    l1: zen2.l1.scaled(numer, denom),
                    l2: zen2.l2.scaled(numer, denom),
                    slots,
                    l2_shared: false,
                    ..zen2
                };
                (
                    DirState::PerSlot((0..slots).map(|_| TageScL::new(scaled.clone())).collect()),
                    BtbHierarchy::with_config(cfg, seed),
                    CodecState::Identity(IdentityCodec::new()),
                )
            }
            Mechanism::HyBp(hybp_cfg) => {
                // The randomization-only ablation shares the upper levels
                // (a single isolation slot) while keeping per-domain keys on
                // the large tables.
                let upper_slots = if hybp_cfg.isolate_upper { slots } else { 1 };
                let cfg = BtbHierarchyConfig {
                    slots: upper_slots,
                    l2_shared: true,
                    ..zen2
                };
                (
                    DirState::Slotted(Box::new(TageScL::with_slots(tage_cfg, upper_slots))),
                    BtbHierarchy::with_config(cfg, seed),
                    CodecState::Hybp(Box::new(HybpCodec::new(&hybp_cfg, slots, seed)?)),
                )
            }
        };

        Ok(SecureBpu {
            mechanism,
            n_hw_threads,
            dir,
            btb,
            ras: (0..n_hw_threads)
                .map(|_| ReturnAddressStack::new(32))
                .collect(),
            codec,
            domains: (0..n_hw_threads)
                .map(|t| {
                    SecurityDomain::new(HwThreadId::new(t as u8), Asid::new(0), Privilege::User)
                })
                .collect(),
            stats: BpuStats::default(),
            faults: None,
        })
    }

    /// Attaches (or detaches) a fault injector. The same injector disturbs
    /// BTB payload reads and direction-counter reads here, and — when the
    /// mechanism is HyBP — keys-table reads and refreshes inside the codec.
    pub fn set_fault_injector(&mut self, faults: Option<FaultInjector>) {
        if let CodecState::Hybp(c) = &mut self.codec {
            c.set_fault_injector(faults.clone());
        }
        self.faults = faults;
    }

    /// Installs the telemetry sink. Today the BPU's own hot path stays in
    /// plain counters (the per-branch rate would swamp any event stream);
    /// the sink is forwarded to the codec's key manager, which emits one
    /// `keys/refresh` span per renewal.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if let CodecState::Hybp(c) = &mut self.codec {
            c.set_telemetry(telemetry);
        }
    }

    /// Folds a hardware-thread id into the configured range (an out-of-range
    /// id is an anomaly, not a reason to crash).
    fn hw_index(&self, hw: HwThreadId) -> usize {
        bp_common::fast_mod_usize(hw.index(), self.n_hw_threads)
    }

    /// The active mechanism.
    pub fn mechanism(&self) -> &Mechanism {
        &self.mechanism
    }

    /// Number of hardware threads the BPU serves.
    pub fn hw_threads(&self) -> usize {
        self.n_hw_threads
    }

    /// Extra front-end cycles every prediction pays under this mechanism
    /// (non-zero only for the inline-cipher ablation of HyBP).
    pub fn extra_frontend_cycles(&self) -> u32 {
        match &self.mechanism {
            Mechanism::HyBp(cfg) if cfg.inline_cipher => cfg.cipher.inline_latency(),
            _ => 0,
        }
    }

    /// The security domain currently active on `hw`.
    pub fn domain(&self, hw: HwThreadId) -> SecurityDomain {
        self.domains[self.hw_index(hw)]
    }

    /// The full end-of-run observation: core counters, codec counters and
    /// per-slot BTB occupancy in one shape.
    pub fn observation(&self) -> BpuObservation {
        BpuObservation {
            stats: self.stats,
            codec: match &self.codec {
                CodecState::Hybp(c) => Some(c.stats()),
                CodecState::Identity(_) => None,
            },
            btb_occupancy: (0..self.btb.config().slots)
                .map(|s| self.btb.occupancy(s))
                .collect(),
        }
    }

    /// The key-epoch view of isolation slot `slot` at cycle `now`, or
    /// `None` when the mechanism has no key manager (everything but HyBP).
    ///
    /// `refresh_stalls` is manager-wide (all slots share one manager);
    /// `generation`/`stale_hits`/`refresh_in_flight` are per-slot.
    pub fn key_epoch(&self, slot: usize, now: Cycle) -> Option<KeyEpoch> {
        match &self.codec {
            CodecState::Hybp(c) => {
                let km = c.key_manager();
                let table = km.slot(slot).table();
                Some(KeyEpoch {
                    generation: table.generation(),
                    refresh_in_flight: table.refresh_in_flight(now),
                    stale_hits: table.stale_hits(),
                    refresh_stalls: km.refresh_stalls(),
                })
            }
            CodecState::Identity(_) => None,
        }
    }

    fn dir_slot(&self, domain: SecurityDomain) -> usize {
        match &self.dir {
            // Shared baseline: banked per hardware thread (history/base),
            // tables shared.
            DirState::Shared(_) => domain.hw_thread().index(),
            DirState::Tournament(_) => 0,
            // The randomization-only ablation keeps a single shared slot.
            DirState::Slotted(d) if d.slot_count() == 1 => 0,
            DirState::Slotted(_) | DirState::PerSlot(_) => domain.isolation_slot(),
        }
    }

    fn btb_slot(&self, domain: SecurityDomain) -> usize {
        if self.btb.config().slots == 1 {
            0
        } else {
            domain.isolation_slot()
        }
    }

    /// Runs one dynamic branch through the BPU: predict, compare against the
    /// trace outcome, train, and report the front-end cost.
    pub fn process_branch(
        &mut self,
        hw: HwThreadId,
        rec: &BranchRecord,
        now: Cycle,
    ) -> BranchOutcome {
        let hwi = self.hw_index(hw);
        let domain = self.domains[hwi];
        let dir_slot = self.dir_slot(domain);
        let btb_slot = self.btb_slot(domain);
        if let CodecState::Hybp(c) = &mut self.codec {
            c.set_context(domain.isolation_slot(), domain.asid(), Vmid::new(0));
            c.count_access(now);
            // A prediction served while the slot's code-book rewrite is
            // still in flight uses stale keys instead of waiting (§V-C2);
            // counting these makes the latency-hiding claim assertable.
            if c.refresh_in_flight(domain.isolation_slot(), now) {
                self.stats.predictions_during_refresh += 1;
            }
        }
        self.stats.branches += 1;

        // Split borrows: the codec must be separable from dir/btb/ras/stats.
        // Dispatch on the codec variant ONCE per branch, then run the whole
        // predict/train path monomorphized on the concrete codec so every
        // index/tag/content transform inlines (the `dyn` hop per table access
        // was the single largest per-branch cost).
        let core = BpuCore {
            dir: &mut self.dir,
            btb: &mut self.btb,
            ras: &mut self.ras,
            stats: &mut self.stats,
            faults: self.faults.as_ref(),
        };
        match &mut self.codec {
            CodecState::Identity(c) => core.process(c, hwi, dir_slot, btb_slot, rec, now),
            CodecState::Hybp(c) => core.process(c.as_mut(), hwi, dir_slot, btb_slot, rec, now),
        }
    }

    /// Notifies the BPU that `hw` switched to software thread `new_asid`.
    ///
    /// Returns the cycle at which any background key refresh completes
    /// (HyBP), or `None` for mechanisms without one.
    pub fn on_context_switch(
        &mut self,
        hw: HwThreadId,
        new_asid: Asid,
        now: Cycle,
    ) -> Option<Cycle> {
        self.stats.context_switches += 1;
        let hwi = self.hw_index(hw);
        let old = self.domains[hwi];
        self.domains[hwi] = old.with_asid(new_asid);
        self.ras[hwi].flush();
        match (&self.mechanism, &mut self.dir) {
            (Mechanism::Baseline | Mechanism::DisableSmt | Mechanism::TournamentBaseline, _) => {
                None
            }
            (Mechanism::Flush, DirState::Shared(d)) => {
                d.flush_all();
                self.btb.flush_all();
                self.stats.full_flushes += 1;
                None
            }
            (Mechanism::Partition | Mechanism::Replication { .. }, DirState::PerSlot(v)) => {
                for p in Privilege::ALL {
                    let slot = old.with_privilege(p).isolation_slot();
                    v[slot].flush_all();
                    self.btb.flush_slot_upper(slot);
                }
                None
            }
            (Mechanism::HyBp(cfg), DirState::Slotted(d)) => {
                let mut done = now;
                let isolate = cfg.isolate_upper;
                for p in Privilege::ALL {
                    let slot = old.with_privilege(p).isolation_slot();
                    if isolate {
                        d.flush_slot_isolated(slot);
                        self.btb.flush_slot_upper(slot);
                    }
                    if let CodecState::Hybp(c) = &mut self.codec {
                        done = done.max(c.renew_slot(slot, new_asid, now));
                    }
                }
                Some(done)
            }
            // Construction pairs each mechanism with its dir layout; if the
            // pairing is ever broken, degrade to "no background refresh"
            // rather than crash mid-simulation.
            _ => None,
        }
    }

    /// Notifies the BPU that `hw` changed privilege level.
    pub fn on_privilege_change(&mut self, hw: HwThreadId, privilege: Privilege, now: Cycle) {
        let _ = now;
        self.stats.privilege_changes += 1;
        let hwi = self.hw_index(hw);
        self.domains[hwi] = self.domains[hwi].with_privilege(privilege);
        if matches!(self.mechanism, Mechanism::Flush) {
            if let DirState::Shared(d) = &mut self.dir {
                d.flush_all();
            }
            self.btb.flush_all();
            self.stats.full_flushes += 1;
        }
    }

    /// The L2 BTB geometry (sets/ways) — attack harnesses derive candidate
    /// pools from it.
    pub fn l2_geometry(&self) -> (usize, usize) {
        let g = self.btb.l2_geometry();
        (g.sets, g.ways)
    }

    /// **Evaluation-only ground truth**: the physical L2 set that `pc` maps
    /// to for the domain active on `hw`, under the current keys. Real
    /// attackers have no such oracle; the security harness uses it solely to
    /// *verify* whether an eviction set found through architectural signals
    /// is genuine (the paper verifies against its simulator the same way).
    pub fn debug_l2_set(&mut self, hw: HwThreadId, pc: bp_common::Addr, now: Cycle) -> u64 {
        let domain = self.domains[self.hw_index(hw)];
        if let CodecState::Hybp(c) = &mut self.codec {
            c.set_context(domain.isolation_slot(), domain.asid(), Vmid::new(0));
        }
        let codec: &mut dyn bp_predictors::codec::TableCodec = match &mut self.codec {
            CodecState::Identity(c) => c,
            CodecState::Hybp(c) => c.as_mut(),
        };
        let g = self.btb.l2_geometry();
        let raw = g.raw_index(pc);
        bp_common::fast_mod(
            codec.transform_index(
                bp_predictors::codec::TableId::new(bp_predictors::codec::TableUnit::Btb, 2),
                raw,
                pc,
                now,
            ),
            g.sets as u64,
        )
    }

    /// Total modeled predictor storage in bits (tables only, excluding keys
    /// tables; see [`crate::cost`] for the full cost model).
    pub fn storage_bits(&self) -> u64 {
        let dir = match &self.dir {
            DirState::Shared(d) | DirState::Slotted(d) => d.storage_bits_with_slots(),
            DirState::PerSlot(v) => v.iter().map(TageScL::storage_bits_with_slots).sum(),
            DirState::Tournament(t) => t.storage_bits(),
        };
        dir + self.btb.storage_bits()
    }
}

/// Disjoint borrows of everything [`SecureBpu::process_branch`] touches
/// besides the codec, so the per-branch path can be generic over the
/// concrete codec type while the codec itself is borrowed out of the same
/// `SecureBpu`.
struct BpuCore<'a> {
    dir: &'a mut DirState,
    btb: &'a mut BtbHierarchy,
    ras: &'a mut [ReturnAddressStack],
    stats: &'a mut BpuStats,
    faults: Option<&'a FaultInjector>,
}

impl BpuCore<'_> {
    /// The predict/compare/train path for one branch, monomorphized per
    /// codec. Byte-for-byte the same decisions as the former `dyn`-dispatch
    /// body: same table access order, same RNG draws, same counters.
    fn process<C: bp_predictors::codec::TableCodec + ?Sized>(
        self,
        codec: &mut C,
        hwi: usize,
        dir_slot: usize,
        btb_slot: usize,
        rec: &BranchRecord,
        now: Cycle,
    ) -> BranchOutcome {
        // Direction prediction.
        let (predicted_taken, direction_mispredict) = if rec.kind.is_conditional() {
            self.stats.conditional_branches += 1;
            let mut p = match &mut *self.dir {
                DirState::Shared(d) | DirState::Slotted(d) => {
                    d.predict_slot(rec.pc, dir_slot, codec, now)
                }
                DirState::PerSlot(v) => v[dir_slot].predict_slot(rec.pc, 0, codec, now),
                DirState::Tournament(t) => t.predict(rec.pc),
            };
            // A transient counter-read fault inverts the *prediction* the
            // front-end sees; the trace outcome (architectural truth) is
            // untouched, so a flip can only cost accuracy.
            if let Some(f) = self.faults {
                if f.flip_direction(now) {
                    p = !p;
                }
            }
            (p, p != rec.taken)
        } else {
            (true, false)
        };
        if direction_mispredict {
            self.stats.direction_mispredicts += 1;
        }

        // Target prediction.
        let mut btb_level = None;
        let mut btb_latency = 0;
        let mut target_mispredict = false;
        match rec.kind {
            BranchKind::Return => {
                let predicted = self.ras[hwi].pop();
                if predicted != Some(rec.target) {
                    target_mispredict = true;
                }
            }
            _ => {
                let lookup = self.btb.lookup_slot(rec.pc, btb_slot, codec, now);
                btb_level = lookup.level();
                if rec.taken {
                    // A transient payload fault flips one bit of the target
                    // fetch *reads*; the stored entry and the trace target
                    // stay intact, so a flip degrades into an ordinary
                    // target mispredict.
                    let read_target = lookup.target().map(|t| match self.faults {
                        Some(f) => match f.on_btb_target(t.raw(), now) {
                            Some(bit) => bp_common::Addr::new(t.raw() ^ (1u64 << (bit % 64))),
                            None => t,
                        },
                        None => t,
                    });
                    match read_target {
                        Some(t) if t == rec.target => {
                            // Correct target; deeper levels still cost fetch
                            // bubbles even when right.
                            btb_latency = lookup.latency();
                        }
                        _ => {
                            // Taken, but fetch had no usable target. Only a
                            // penalty when the direction side said "taken"
                            // (otherwise the direction mispredict already
                            // pays), but unconditional kinds always need it.
                            if predicted_taken {
                                target_mispredict = true;
                            }
                        }
                    }
                    if lookup.is_miss() {
                        self.stats.btb_misses += 1;
                    }
                }
                if let Some(l) = lookup.level() {
                    self.stats.btb_hits[l as usize] += 1;
                }
                if rec.kind == BranchKind::Call {
                    self.ras[hwi].push(rec.pc.wrapping_add(4));
                }
            }
        }
        if target_mispredict {
            self.stats.target_mispredicts += 1;
        }

        // Training.
        if rec.kind.is_conditional() {
            match &mut *self.dir {
                DirState::Shared(d) | DirState::Slotted(d) => {
                    d.update_slot(rec.pc, dir_slot, rec.taken, codec, now)
                }
                DirState::PerSlot(v) => v[dir_slot].update_slot(rec.pc, 0, rec.taken, codec, now),
                DirState::Tournament(t) => t.update(rec.pc, rec.taken),
            }
        }
        if rec.taken && rec.kind != BranchKind::Return {
            self.btb
                .update_slot(rec.pc, rec.target, btb_slot, codec, now);
        }

        BranchOutcome {
            direction_mispredict,
            target_mispredict,
            btb_level,
            btb_latency,
        }
    }
}

impl Observable for SecureBpu {
    /// The core counters plus — under HyBP — the codec's counters, as one
    /// flat, deterministically ordered map.
    fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.stats.snapshot();
        if let CodecState::Hybp(c) = &self.codec {
            let cs = c.stats();
            snap = snap
                .with("key_reads", cs.key_reads)
                .with("counter_renewals", cs.counter_renewals);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_common::Addr;

    fn taken_cond(pc: u64, target: u64) -> BranchRecord {
        BranchRecord::conditional(Addr::new(pc), Addr::new(target), true, 4)
    }

    fn run_warm(bpu: &mut SecureBpu, hw: HwThreadId, pc: u64, n: u64) -> u64 {
        let mut mispredicts = 0;
        for i in 0..n {
            let o = bpu.process_branch(hw, &taken_cond(pc, pc + 0x100), 1000 + i * 10);
            if o.mispredicted() {
                mispredicts += 1;
            }
        }
        mispredicts
    }

    #[test]
    fn baseline_learns_quickly() {
        let mut bpu = SecureBpu::new(Mechanism::Baseline, 1, 1).expect("valid config");
        let hw = HwThreadId::new(0);
        let m = run_warm(&mut bpu, hw, 0x4000, 100);
        assert!(m < 10, "baseline warm mispredicts {m}");
        assert!(bpu.observation().stats.direction_accuracy() > 0.9);
    }

    #[test]
    fn key_epoch_tracks_generation_and_stalls() {
        use bp_faults::{FaultInjector, FaultPlan};
        let hw = HwThreadId::new(0);

        // Non-HyBP mechanisms have no key manager.
        let base = SecureBpu::new(Mechanism::Baseline, 1, 1).expect("valid config");
        assert_eq!(base.key_epoch(0, 0), None);

        let mut bpu = SecureBpu::new(Mechanism::hybp_default(), 1, 11).expect("valid config");
        bpu.on_context_switch(hw, Asid::new(1), 0);
        let e0 = bpu.key_epoch(0, 0).expect("hybp exposes key epochs");
        assert_eq!(e0.refresh_stalls, 0);

        // A fault-free context switch advances the generation (once the
        // rewrite lands) and counts no stalls.
        let done = bpu
            .on_context_switch(hw, Asid::new(2), 10_000)
            .expect("renewal acknowledged");
        let e1 = bpu.key_epoch(0, done + 1).expect("hybp exposes key epochs");
        assert!(e1.generation > e0.generation, "rewrite completed");
        assert_eq!(e1.refresh_stalls, 0);

        // A dropped refresh moves refresh_stalls but not the generation:
        // the degraded-mode entry signal.
        let inj = FaultInjector::from_plan(FaultPlan::new(3).with_refresh_drops(1));
        bpu.set_fault_injector(Some(inj));
        bpu.on_context_switch(hw, Asid::new(3), 50_000);
        let e2 = bpu.key_epoch(0, 60_000).expect("hybp exposes key epochs");
        assert_eq!(e2.generation, e1.generation, "rewrite was lost");
        // A context switch renews both privilege slots of the thread, so
        // the (manager-wide) stall counter moves by two.
        assert_eq!(e2.refresh_stalls, 2, "stalls surfaced to the epoch view");
    }

    #[test]
    fn direction_flips_cost_accuracy_only() {
        use bp_faults::{FaultInjector, FaultPlan};
        let mut bpu = SecureBpu::new(Mechanism::hybp_default(), 1, 3).expect("valid config");
        let hw = HwThreadId::new(0);
        bpu.on_context_switch(hw, Asid::new(1), 0);
        run_warm(&mut bpu, hw, 0x4000, 100);
        let inj = FaultInjector::from_plan(FaultPlan::new(1).with_direction_flips(5));
        bpu.set_fault_injector(Some(inj.clone()));
        // Warm predictor + every-5th-read flip: each flip inverts a correct
        // prediction, so roughly one in five branches now mispredicts.
        let m = run_warm(&mut bpu, hw, 0x4000, 100);
        assert!(m >= 15, "flips must surface as mispredicts, got {m}");
        assert!(inj.stats().direction_flips >= 15);
        // Remove the injector: accuracy recovers fully (transient faults
        // never trained the predictor with wrong outcomes).
        bpu.set_fault_injector(None);
        let clean = run_warm(&mut bpu, hw, 0x4000, 100);
        assert!(clean < 5, "recovery after transient flips, got {clean}");
    }

    #[test]
    fn btb_payload_flips_cost_accuracy_only() {
        use bp_faults::{FaultInjector, FaultPlan};
        let mut bpu = SecureBpu::new(Mechanism::hybp_default(), 1, 4).expect("valid config");
        let hw = HwThreadId::new(0);
        bpu.on_context_switch(hw, Asid::new(1), 0);
        run_warm(&mut bpu, hw, 0x4000, 100);
        let inj = FaultInjector::from_plan(FaultPlan::new(2).with_btb_target_flips(3));
        bpu.set_fault_injector(Some(inj.clone()));
        let m = run_warm(&mut bpu, hw, 0x4000, 99);
        assert!(m >= 20, "payload flips must mispredict targets, got {m}");
        assert!(inj.stats().btb_target_flips >= 20);
        bpu.set_fault_injector(None);
        let clean = run_warm(&mut bpu, hw, 0x4000, 100);
        assert!(
            clean < 5,
            "stored BTB entries were never corrupted, got {clean}"
        );
    }

    #[test]
    fn all_mechanisms_process_branches() {
        for mech in [
            Mechanism::Baseline,
            Mechanism::Flush,
            Mechanism::Partition,
            Mechanism::replication_default(),
            Mechanism::DisableSmt,
            Mechanism::hybp_default(),
        ] {
            let mut bpu = SecureBpu::new(mech, 2, 5).expect("valid config");
            let hw = HwThreadId::new(1);
            bpu.on_context_switch(hw, Asid::new(3), 0);
            let m = run_warm(&mut bpu, hw, 0x8000, 200);
            assert!(m < 30, "{mech}: {m} mispredicts in steady state");
        }
    }

    #[test]
    fn flush_loses_state_on_context_switch() {
        let mut bpu = SecureBpu::new(Mechanism::Flush, 1, 2).expect("valid config");
        let hw = HwThreadId::new(0);
        run_warm(&mut bpu, hw, 0x4000, 200);
        bpu.on_context_switch(hw, Asid::new(9), 10_000);
        // Immediately re-running the same branch: cold again.
        let o = bpu.process_branch(hw, &taken_cond(0x4000, 0x4100), 10_001);
        assert!(o.mispredicted(), "flushed predictor must be cold");
        assert!(bpu.observation().stats.full_flushes >= 1);
    }

    #[test]
    fn baseline_keeps_state_on_context_switch() {
        let mut bpu = SecureBpu::new(Mechanism::Baseline, 1, 2).expect("valid config");
        let hw = HwThreadId::new(0);
        run_warm(&mut bpu, hw, 0x4000, 200);
        bpu.on_context_switch(hw, Asid::new(9), 10_000);
        let o = bpu.process_branch(hw, &taken_cond(0x4000, 0x4100), 10_001);
        assert!(!o.mispredicted(), "baseline retains residual state");
    }

    #[test]
    fn hybp_key_change_invalidates_l2_but_keeps_warmup_cheap() {
        let mut bpu = SecureBpu::new(Mechanism::hybp_default(), 1, 3).expect("valid config");
        let hw = HwThreadId::new(0);
        bpu.on_context_switch(hw, Asid::new(1), 0);
        let cold = run_warm(&mut bpu, hw, 0x4000, 50);
        let warm = run_warm(&mut bpu, hw, 0x4000, 50);
        assert!(warm <= cold, "warm phase must not be worse");
        // Context switch away and back: HyBP re-keys, state unusable.
        let done = bpu.on_context_switch(hw, Asid::new(2), 100_000);
        assert!(done.is_some(), "HyBP reports key refresh completion");
        let o = bpu.process_branch(hw, &taken_cond(0x4000, 0x4100), 100_001);
        assert!(o.mispredicted(), "re-keyed predictor must look cold");
    }

    #[test]
    fn flush_on_privilege_change_only_for_flush_mechanism() {
        let mut flush = SecureBpu::new(Mechanism::Flush, 1, 4).expect("valid config");
        let mut hybp = SecureBpu::new(Mechanism::hybp_default(), 1, 4).expect("valid config");
        let hw = HwThreadId::new(0);
        hybp.on_context_switch(hw, Asid::new(1), 0);
        run_warm(&mut flush, hw, 0x4000, 200);
        run_warm(&mut hybp, hw, 0x4000, 200);
        flush.on_privilege_change(hw, Privilege::Kernel, 5000);
        hybp.on_privilege_change(hw, Privilege::Kernel, 5000);
        flush.on_privilege_change(hw, Privilege::User, 5001);
        hybp.on_privilege_change(hw, Privilege::User, 5001);
        let fo = flush.process_branch(hw, &taken_cond(0x4000, 0x4100), 5002);
        let ho = hybp.process_branch(hw, &taken_cond(0x4000, 0x4100), 5002);
        assert!(fo.mispredicted(), "Flush flushed on privilege change");
        assert!(
            !ho.mispredicted(),
            "HyBP user-slot state survives a privilege round-trip"
        );
    }

    #[test]
    fn hybp_isolates_threads_in_smt() {
        let mut bpu = SecureBpu::new(Mechanism::hybp_default(), 2, 5).expect("valid config");
        let t0 = HwThreadId::new(0);
        let t1 = HwThreadId::new(1);
        bpu.on_context_switch(t0, Asid::new(1), 0);
        bpu.on_context_switch(t1, Asid::new(2), 0);
        // Thread 0 trains a branch.
        run_warm(&mut bpu, t0, 0x4000, 300);
        // Thread 1 running the same PC sees no useful state.
        let o = bpu.process_branch(t1, &taken_cond(0x4000, 0x4100), 50_000);
        assert!(o.mispredicted(), "cross-thread state must be unusable");
    }

    #[test]
    fn baseline_leaks_across_threads_in_smt() {
        // The contrast case: without protection, thread 1 benefits from
        // thread 0's training — exactly the shared-state property attacks
        // exploit.
        let mut bpu = SecureBpu::new(Mechanism::Baseline, 2, 5).expect("valid config");
        let t0 = HwThreadId::new(0);
        let t1 = HwThreadId::new(1);
        run_warm(&mut bpu, t0, 0x4000, 300);
        let o = bpu.process_branch(t1, &taken_cond(0x4000, 0x4100), 50_000);
        assert!(!o.mispredicted(), "baseline shares predictor state");
    }

    #[test]
    fn returns_use_ras() {
        let mut bpu = SecureBpu::new(Mechanism::Baseline, 1, 6).expect("valid config");
        let hw = HwThreadId::new(0);
        let call =
            BranchRecord::unconditional(Addr::new(0x1000), BranchKind::Call, Addr::new(0x9000), 2);
        let ret = BranchRecord::unconditional(
            Addr::new(0x9050),
            BranchKind::Return,
            Addr::new(0x1004),
            3,
        );
        let _ = bpu.process_branch(hw, &call, 0);
        let o = bpu.process_branch(hw, &ret, 1);
        assert!(!o.target_mispredict, "RAS must predict the return");
        // A return without a matching call mispredicts.
        let o2 = bpu.process_branch(hw, &ret, 2);
        assert!(o2.target_mispredict);
    }

    #[test]
    fn btb_latency_charged_for_lower_level_hits() {
        let mut bpu = SecureBpu::new(Mechanism::Baseline, 1, 7).expect("valid config");
        let hw = HwThreadId::new(0);
        // Train many branches so some live only in L1/L2.
        for i in 0..2000u64 {
            let r = BranchRecord::unconditional(
                Addr::new(0x10_0000 + i * 4),
                BranchKind::Direct,
                Addr::new(0x20_0000 + i * 4),
                1,
            );
            let _ = bpu.process_branch(hw, &r, i);
        }
        let mut latencies = std::collections::BTreeSet::new();
        for i in 0..2000u64 {
            let r = BranchRecord::unconditional(
                Addr::new(0x10_0000 + i * 4),
                BranchKind::Direct,
                Addr::new(0x20_0000 + i * 4),
                1,
            );
            let o = bpu.process_branch(hw, &r, 10_000 + i);
            if !o.mispredicted() {
                latencies.insert(o.btb_latency);
            }
        }
        assert!(
            latencies.len() > 1,
            "expected a mix of BTB hit latencies, got {latencies:?}"
        );
    }

    #[test]
    fn inline_cipher_reports_extra_latency() {
        let mut cfg = crate::HybpConfig::paper_default();
        cfg.inline_cipher = true;
        let bpu = SecureBpu::new(Mechanism::HyBp(cfg), 1, 8).expect("valid config");
        assert_eq!(bpu.extra_frontend_cycles(), 8);
        let normal = SecureBpu::new(Mechanism::hybp_default(), 1, 8).expect("valid config");
        assert_eq!(normal.extra_frontend_cycles(), 0);
    }

    #[test]
    fn partition_storage_is_not_larger_than_baseline() {
        let base = SecureBpu::new(Mechanism::Baseline, 2, 9).expect("valid config");
        let part = SecureBpu::new(Mechanism::Partition, 2, 9).expect("valid config");
        // Partition divides the same storage; small rounding slack allowed.
        assert!(
            part.storage_bits() <= base.storage_bits() + base.storage_bits() / 8,
            "partition {} vs baseline {}",
            part.storage_bits(),
            base.storage_bits()
        );
    }

    #[test]
    fn randomization_only_shares_upper_levels() {
        // Without upper-level isolation, cross-thread residual state is
        // visible again at L0/L1 (the ablation's security regression).
        let mut bpu = SecureBpu::new(
            Mechanism::HyBp(crate::HybpConfig::randomization_only()),
            2,
            5,
        )
        .expect("valid config");
        let t0 = HwThreadId::new(0);
        let t1 = HwThreadId::new(1);
        bpu.on_context_switch(t0, Asid::new(1), 0);
        bpu.on_context_switch(t1, Asid::new(2), 0);
        run_warm(&mut bpu, t0, 0x4000, 300);
        let o = bpu.process_branch(t1, &taken_cond(0x4000, 0x4100), 50_000);
        assert!(
            !o.mispredicted(),
            "shared upper levels leak across threads in the ablation"
        );
    }

    #[test]
    fn key_reads_per_branch_are_pinned() {
        // One key read is one keys-table lookup (`key_reads`): one per
        // index or tag transform of the L2 BTB or a tagged table.
        let mut bpu = SecureBpu::new(Mechanism::hybp_default(), 1, 7).expect("valid config");
        let hw = HwThreadId::new(0);
        bpu.on_context_switch(hw, Asid::new(1), 0);
        let reads = |bpu: &SecureBpu| bpu.observation().codec.expect("hybp has a codec").key_reads;
        let ret = BranchRecord::unconditional(
            Addr::new(0x9050),
            BranchKind::Return,
            Addr::new(0x1004),
            3,
        );
        let direct = BranchRecord::unconditional(
            Addr::new(0x6000),
            BranchKind::Direct,
            Addr::new(0x7000),
            2,
        );
        let not_taken = BranchRecord::conditional(Addr::new(0x5000), Addr::new(0x5100), false, 4);
        // Cold taken conditional: 15 index + 15 tag reads for the TAGE
        // predict, then index + tag for the L2 lookup and again for the
        // update's L2 probe. A not-taken branch skips the update; a direct
        // branch skips TAGE; a return touches only the RAS; an L0 hit
        // never reaches L2.
        for (rec, expected) in [
            (taken_cond(0x4000, 0x4100), 34),
            (not_taken, 32),
            (direct, 4),
            (ret, 0),
            (taken_cond(0x4000, 0x4100), 30),
        ] {
            let before = reads(&bpu);
            let _ = bpu.process_branch(hw, &rec, 1_000);
            assert_eq!(reads(&bpu) - before, expected, "{rec:?}");
        }
    }

    #[test]
    fn renewal_counts_one_access_per_predicted_branch() {
        // 160 branches at a threshold of 16 renew 10 times, whatever each
        // branch reads: 34 or 32 keys for a conditional, 4 for a direct
        // branch and none for a return.
        let mut cfg = crate::HybpConfig::paper_default();
        cfg.renewal_threshold = 16;
        let mut bpu = SecureBpu::new(Mechanism::HyBp(cfg), 1, 7).expect("valid config");
        let hw = HwThreadId::new(0);
        bpu.on_context_switch(hw, Asid::new(1), 0);
        let branches = [
            taken_cond(0x4000, 0x4100),
            BranchRecord::conditional(Addr::new(0x5000), Addr::new(0x5100), false, 4),
            BranchRecord::unconditional(
                Addr::new(0x6000),
                BranchKind::Direct,
                Addr::new(0x7000),
                2,
            ),
            BranchRecord::unconditional(
                Addr::new(0x9050),
                BranchKind::Return,
                Addr::new(0x1004),
                3,
            ),
        ];
        for i in 0..160u64 {
            let _ = bpu.process_branch(hw, &branches[i as usize % 4], 1_000 + i);
        }
        let codec = bpu.observation().codec.expect("hybp has a codec");
        assert_eq!(codec.counter_renewals, 10, "{codec:?}");
    }

    #[test]
    fn replication_scales_storage() {
        let r100 = SecureBpu::new(
            Mechanism::Replication {
                extra_storage_pct: 100,
            },
            2,
            9,
        )
        .expect("valid config");
        let r300 = SecureBpu::new(
            Mechanism::Replication {
                extra_storage_pct: 300,
            },
            2,
            9,
        )
        .expect("valid config");
        assert!(r300.storage_bits() > r100.storage_bits());
    }
}
