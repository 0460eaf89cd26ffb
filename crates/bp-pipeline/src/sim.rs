//! The cycle-level simulation loop.

use std::sync::Arc;

use bp_common::telemetry::{Observable, TelemetrySnapshot};
use bp_common::{Addr, Asid, BranchRecord, ConfigError, Cycle, HwThreadId, Privilege, Telemetry};
use bp_faults::{FaultInjector, TraceDisposition};
use bp_trace::TraceStore;
use bp_workloads::profile::{BenchmarkProfile, SpecBenchmark};
use bp_workloads::WorkloadGenerator;
use hybp::SecureBpu;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::metrics::{RunMetrics, StageCycles, StreamDigest, ThreadMetrics};

/// Seed of the user stream on hardware thread `hw`, software slot `sw`,
/// under master seed `master`. Public so trace capture (the `trace_tool`
/// binary) records streams under exactly the seeds replay will ask for.
pub fn stream_seed(master: u64, hw: usize, sw: usize) -> u64 {
    master ^ ((hw as u64) << 32) ^ ((sw as u64) << 16) ^ 0xABCD
}

/// Seed of hardware thread `hw`'s kernel stream under master seed `master`.
pub fn kernel_stream_seed(master: u64, hw: usize) -> u64 {
    master ^ 0xFEED ^ (hw as u64)
}

/// Canonical store name of the user stream at (`hw`, `sw`) running `bench`.
pub fn stream_name(hw: usize, sw: usize, bench: SpecBenchmark) -> String {
    format!("t{hw}s{sw}-{}", bench.name())
}

/// Canonical store name of hardware thread `hw`'s kernel stream.
pub fn kernel_stream_name(hw: usize) -> String {
    format!("kernel-t{hw}")
}

/// A captured stream being replayed from a [`TraceStore`].
///
/// Holds a streaming cursor, not a decoded vector: the store keeps only
/// the raw file bytes resident and the cursor decodes one chunk at a
/// time, so replay memory stays O(chunk) per stream.
#[derive(Debug)]
struct ReplaySource {
    cursor: bp_trace::RecordCursor,
    profile: BenchmarkProfile,
    store: Arc<TraceStore>,
}

/// Where one instruction stream's branches come from: the synthetic
/// generator, or a captured trace replayed record-for-record.
#[derive(Debug)]
enum Feed {
    Generate(WorkloadGenerator),
    Replay(ReplaySource),
}

impl Feed {
    fn next_branch(&mut self) -> BranchRecord {
        match self {
            Feed::Generate(g) => g.next_branch(),
            Feed::Replay(r) => match r.cursor.next() {
                Some(rec) => rec,
                None => {
                    // The capture ran out before the simulation did: restart
                    // the stream and let the store count the wrap as
                    // degradation (the replay is no longer the recorded run).
                    r.cursor.reset();
                    r.store.note_wrap();
                    // Non-empty is enforced at build; the fallback only
                    // guards the unreachable empty case (panic-freedom).
                    r.cursor.next().unwrap_or_else(|| {
                        BranchRecord::conditional(Addr::new(0x1000), Addr::new(0x1010), true, 16)
                    })
                }
            },
        }
    }

    fn profile(&self) -> &BenchmarkProfile {
        match self {
            Feed::Generate(g) => g.profile(),
            Feed::Replay(r) => &r.profile,
        }
    }
}

/// Fetch progress within one instruction stream.
#[derive(Debug, Clone)]
struct FetchState {
    pending: Option<bp_common::BranchRecord>,
    gap_left: u32,
    /// How a fault hook told us to treat the pending branch once its gap is
    /// fetched (trace anomalies; `Keep` when no faults are armed).
    disposition: TraceDisposition,
}

impl FetchState {
    fn new() -> Self {
        FetchState {
            pending: None,
            gap_left: 0,
            disposition: TraceDisposition::Keep,
        }
    }
}

/// Privilege mode state machine of one hardware thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    User,
    /// In a kernel episode with `remaining` instructions; `then_switch`
    /// marks scheduler episodes that end in a context switch.
    Kernel {
        remaining: u64,
        then_switch: bool,
    },
}

/// Per-hardware-thread simulation state.
#[derive(Debug)]
struct HwContext {
    hw: HwThreadId,
    /// Software threads alternated by the context-switch schedule.
    user_gens: Vec<Feed>,
    asids: Vec<Asid>,
    active: usize,
    kernel_gen: Feed,
    mode: Mode,
    user_fetch: FetchState,
    kernel_fetch: FetchState,
    /// One digest per user generator, plus the kernel generator's last.
    digests: Vec<StreamDigest>,
    window: u32,
    retire_credit: f64,
    retired_total: u64,
    /// Measurement bookkeeping.
    measured_retired: u64,
    measure_start: Option<Cycle>,
    measure_end: Option<Cycle>,
    stall_until: Cycle,
    next_cs: Cycle,
    next_timer: Cycle,
}

impl HwContext {
    /// The fetch state of the currently active stream (user or kernel).
    fn fetch_state(&mut self) -> &mut FetchState {
        match self.mode {
            Mode::User => &mut self.user_fetch,
            Mode::Kernel { .. } => &mut self.kernel_fetch,
        }
    }

    fn active_base_ipc(&self) -> f64 {
        match self.mode {
            Mode::User => self.user_gens[self.active].profile().base_ipc,
            Mode::Kernel { .. } => self.kernel_gen.profile().base_ipc,
        }
    }

    fn done(&self, measure_target: u64) -> bool {
        self.measured_retired >= measure_target
    }
}

/// Configures and constructs a [`Simulation`]: workload layout, fault
/// injection and telemetry wiring all converge here, so the simulation has a
/// single way in instead of a constructor per concern.
///
/// Obtain one from [`Simulation::builder`], pick a workload shape with
/// [`single_thread`](SimulationBuilder::single_thread),
/// [`smt`](SimulationBuilder::smt) or
/// [`threads`](SimulationBuilder::threads), then
/// [`build`](SimulationBuilder::build).
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    pub(crate) mechanism: hybp::Mechanism,
    pub(crate) cfg: SimConfig,
    pub(crate) threads: Vec<Vec<SpecBenchmark>>,
    pub(crate) faults: Option<FaultInjector>,
    pub(crate) telemetry: Telemetry,
    pub(crate) trace_store: Option<Arc<TraceStore>>,
}

impl SimulationBuilder {
    /// A single-hardware-thread workload of `bench`: two software instances
    /// of the benchmark alternate at the context-switch interval (so the
    /// baseline sees realistic cross-process pollution rather than a
    /// pristine predictor).
    pub fn single_thread(mut self, bench: SpecBenchmark) -> Self {
        self.threads = vec![vec![bench, bench]];
        self
    }

    /// An SMT workload: hardware thread `i` alternates between two software
    /// instances of `pair[i]`.
    pub fn smt(mut self, pair: [SpecBenchmark; 2]) -> Self {
        self.threads = vec![vec![pair[0], pair[0]], vec![pair[1], pair[1]]];
        self
    }

    /// Fully explicit workload layout: `threads[i]` lists the software
    /// threads that time-share hardware thread `i`.
    pub fn threads(mut self, threads: &[Vec<SpecBenchmark>]) -> Self {
        self.threads = threads.to_vec();
        self
    }

    /// Attaches (or detaches) a fault injector. The injector disturbs the
    /// predictor (key/payload/direction faults, via the BPU), the trace feed
    /// (dropped/duplicated records) and the OS model (forced context
    /// switches and timer interrupts).
    pub fn fault_injector(mut self, faults: Option<FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a telemetry sink. The simulation emits rare-event spans
    /// (context-switch stalls) and forwards the sink to the BPU's key
    /// manager, which emits one span per key refresh; hot-path facts stay in
    /// plain counters ([`StageCycles`], `BpuStats`). A disabled sink costs
    /// one branch per would-be event.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Replays every instruction stream from captured `.bpt` traces in
    /// `store` instead of running the synthetic generators. Streams are
    /// looked up by the canonical [`stream_name`]/[`stream_seed`] scheme,
    /// so a store recorded with `trace_tool record` at the same master
    /// seed replays the identical dynamic run. `None` (the default)
    /// generates.
    pub fn trace_store(mut self, store: Option<Arc<TraceStore>>) -> Self {
        self.trace_store = store;
        self
    }

    /// Builds the simulation.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when no workload was chosen, any hardware
    /// thread has no software threads, the configuration or mechanism is
    /// invalid, or (under [`trace_store`](SimulationBuilder::trace_store))
    /// a required stream is missing, undecodable, or empty — for the full
    /// trace diagnosis, load the stream through the store directly before
    /// building.
    pub fn build(self) -> Result<Simulation, ConfigError> {
        let SimulationBuilder {
            mechanism,
            cfg,
            threads,
            faults,
            telemetry,
            trace_store,
        } = self;
        cfg.validate()?;
        if threads.is_empty() {
            return Err(ConfigError::zero("hardware threads"));
        }
        if threads.iter().any(Vec::is_empty) {
            return Err(ConfigError::inconsistent(
                "software threads",
                "every hardware thread needs at least one software thread",
            ));
        }
        // `ConfigError` carries only static text (secret-hygiene keeps it
        // Copy-friendly); callers wanting the full chunk/offset diagnosis
        // pre-load through the store, which surfaces the real `TraceError`.
        let feed = |name: String, seed: u64, profile: BenchmarkProfile| match &trace_store {
            None => Ok(Feed::Generate(WorkloadGenerator::new(profile, seed))),
            Some(store) => {
                let loaded = store.load(&name, seed).map_err(|_| {
                    ConfigError::inconsistent(
                        "trace replay",
                        "stream missing or undecodable in the trace store",
                    )
                })?;
                if loaded.is_empty() {
                    return Err(ConfigError::inconsistent(
                        "trace replay",
                        "trace stream holds no records",
                    ));
                }
                Ok(Feed::Replay(ReplaySource {
                    cursor: loaded.records(),
                    profile,
                    store: Arc::clone(store),
                }))
            }
        };
        let mut bpu = SecureBpu::new(mechanism, cfg.smt_capacity.max(threads.len()), cfg.seed)?;
        bpu.set_fault_injector(faults.clone());
        bpu.set_telemetry(telemetry.clone());
        let mut next_asid = 1u16;
        let mut contexts = Vec::with_capacity(threads.len());
        for (i, sw) in threads.iter().enumerate() {
            let mut user_gens = Vec::with_capacity(sw.len());
            for (j, b) in sw.iter().enumerate() {
                user_gens.push(feed(
                    stream_name(i, j, *b),
                    stream_seed(cfg.seed, i, j),
                    b.profile(),
                )?);
            }
            let asids: Vec<Asid> = (0..sw.len())
                .map(|_| {
                    let a = Asid::new(next_asid);
                    next_asid = next_asid.wrapping_add(1);
                    a
                })
                .collect();
            contexts.push(HwContext {
                hw: HwThreadId::new(i as u8),
                digests: vec![StreamDigest::new(); user_gens.len() + 1],
                user_gens,
                asids,
                active: 0,
                kernel_gen: feed(
                    kernel_stream_name(i),
                    kernel_stream_seed(cfg.seed, i),
                    SpecBenchmark::Kernel.profile(),
                )?,
                mode: Mode::User,
                user_fetch: FetchState::new(),
                kernel_fetch: FetchState::new(),
                window: 0,
                retire_credit: 0.0,
                retired_total: 0,
                measured_retired: 0,
                measure_start: None,
                measure_end: None,
                stall_until: 0,
                // Stagger per-thread OS events so they do not align.
                next_cs: cfg.ctx_switch_interval + (i as Cycle) * (cfg.ctx_switch_interval / 3 + 1),
                next_timer: cfg.kernel_timer_interval
                    + (i as Cycle) * (cfg.kernel_timer_interval / 3 + 1),
            });
        }
        let mut sim = Simulation {
            cfg,
            bpu,
            contexts,
            cycle: 0,
            faults,
            telemetry,
            stages: StageCycles::default(),
        };
        // Announce the initial software threads.
        for i in 0..sim.contexts.len() {
            let hw = sim.contexts[i].hw;
            let asid = sim.contexts[i].asids[0];
            sim.bpu.on_context_switch(hw, asid, 0);
        }
        Ok(sim)
    }
}

/// A trace-driven, cycle-level SMT simulation of one core plus OS events.
///
/// # Examples
///
/// ```
/// use bp_pipeline::{SimConfig, Simulation};
/// use bp_workloads::SpecBenchmark;
/// use hybp::Mechanism;
///
/// let mut cfg = SimConfig::quick_test();
/// cfg.warmup_instructions = 5_000;
/// cfg.measure_instructions = 20_000;
/// let m = Simulation::builder(Mechanism::Baseline, cfg)
///     .single_thread(SpecBenchmark::Lbm)
///     .build()
///     .expect("valid config")
///     .run()
///     .expect("completes");
/// assert!(m.threads[0].ipc() > 0.5);
/// ```
// No `Debug`: owns the [`SecureBpu`] and with it the key material
// (secret-hygiene).
pub struct Simulation {
    cfg: SimConfig,
    bpu: SecureBpu,
    contexts: Vec<HwContext>,
    cycle: Cycle,
    faults: Option<FaultInjector>,
    telemetry: Telemetry,
    stages: StageCycles,
}

impl Simulation {
    /// Starts configuring a simulation of `mechanism` under `cfg`; pick a
    /// workload shape on the returned [`SimulationBuilder`].
    pub fn builder(mechanism: hybp::Mechanism, cfg: SimConfig) -> SimulationBuilder {
        SimulationBuilder {
            mechanism,
            cfg,
            threads: Vec::new(),
            faults: None,
            telemetry: Telemetry::disabled(),
            trace_store: None,
        }
    }

    /// Read access to the BPU (attack/analysis harnesses).
    pub fn bpu(&self) -> &SecureBpu {
        &self.bpu
    }

    /// Per-stage cycle attribution accumulated so far.
    pub fn stages(&self) -> StageCycles {
        self.stages
    }

    /// Runs warmup + measurement. Running an already-finished simulation
    /// again returns the same final metrics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runaway`] when the runaway deadline elapses
    /// before every hardware thread finishes its measurement quota — the
    /// model stopped making forward progress.
    pub fn run(&mut self) -> Result<RunMetrics, SimError> {
        let measure = self.cfg.measure_instructions;
        let deadline = self.deadline();
        loop {
            if self.contexts.iter().all(|c| c.done(measure)) {
                break;
            }
            if self.cycle >= deadline {
                return Err(SimError::Runaway {
                    cycle: self.cycle,
                    deadline,
                });
            }
            self.step();
        }
        let threads = self
            .contexts
            .iter()
            .map(|c| ThreadMetrics {
                retired: c.measured_retired.min(measure),
                cycles: match (c.measure_start, c.measure_end) {
                    (Some(s), Some(e)) => e - s,
                    (Some(s), None) => self.cycle.saturating_sub(s).max(1),
                    _ => 1,
                },
            })
            .collect();
        Ok(RunMetrics {
            threads,
            cycles: self.cycle,
            bpu: self.bpu.observation().stats,
            stages: self.stages,
            stream_digests: self.contexts.iter().map(|c| c.digests.clone()).collect(),
        })
    }

    /// Generous runaway bound: even at 0.05 IPC the run fits.
    fn deadline(&self) -> Cycle {
        (self.cfg.warmup_instructions + self.cfg.measure_instructions) * 40 + 10_000_000
    }

    /// One simulated cycle: retire, OS events, fetch.
    fn step(&mut self) {
        self.cycle += 1;
        let now = self.cycle;
        self.retire(now);
        self.os_events(now);
        self.fetch(now);
    }

    /// ILP-limited retirement sharing the issue width.
    fn retire(&mut self, now: Cycle) {
        let mut budget = self.cfg.core.issue_width;
        let n = self.contexts.len();
        let derate = if n > 1 {
            self.cfg.core.smt_ilp_derate
        } else {
            1.0
        };
        // Rotate service order so no thread is structurally favoured.
        for k in 0..n {
            let i = (now as usize + k) % n;
            let c = &mut self.contexts[i];
            let ipc = c.active_base_ipc() * derate;
            c.retire_credit = (c.retire_credit + ipc).min(ipc * 4.0 + 1.0);
            let want = (c.retire_credit as u32).min(c.window);
            let grant = want.min(budget);
            if grant > 0 {
                budget -= grant;
                c.window -= grant;
                c.retire_credit -= f64::from(grant);
                c.retired_total += u64::from(grant);
                if c.retired_total >= self.cfg.warmup_instructions {
                    if c.measure_start.is_none() {
                        c.measure_start = Some(now);
                    }
                    if c.measure_end.is_none() {
                        c.measured_retired += u64::from(grant);
                        if c.measured_retired >= self.cfg.measure_instructions {
                            c.measure_end = Some(now);
                        }
                    }
                }
            }
        }
    }

    /// Timer interrupts and context switches (entered only from user mode;
    /// kernel exits fire the deferred actions).
    fn os_events(&mut self, now: Cycle) {
        for i in 0..self.contexts.len() {
            let (mode, mut next_cs, mut next_timer, hw) = {
                let c = &self.contexts[i];
                (c.mode, c.next_cs, c.next_timer, c.hw)
            };
            if mode != Mode::User {
                continue;
            }
            // An adversarial OS can reschedule or interrupt at any moment;
            // a forced event simply pulls the next deadline to "now".
            if let Some(f) = &self.faults {
                let d = f.on_os_tick(hw.index(), now);
                if d.force_context_switch {
                    next_cs = now;
                    self.contexts[i].next_cs = now;
                }
                if d.force_timer {
                    next_timer = now;
                    self.contexts[i].next_timer = now;
                }
            }
            if now >= next_cs {
                // Scheduler entry: privilege change into the kernel; the
                // actual thread switch happens when the episode ends.
                self.bpu.on_privilege_change(hw, Privilege::Kernel, now);
                let c = &mut self.contexts[i];
                c.mode = Mode::Kernel {
                    remaining: self.cfg.scheduler_instructions,
                    then_switch: true,
                };
            } else if now >= next_timer {
                self.bpu.on_privilege_change(hw, Privilege::Kernel, now);
                let c = &mut self.contexts[i];
                c.mode = Mode::Kernel {
                    remaining: self.cfg.kernel_episode_instructions,
                    then_switch: false,
                };
                c.next_timer = now + self.cfg.kernel_timer_interval;
            }
        }
    }

    /// ICOUNT fetch: the least-loaded ready thread fetches up to
    /// `fetch_width` instructions, stopping at redirects/bubbles.
    ///
    /// Stall attribution happens where each stall is charged: redirect and
    /// BTB-bubble penalties below, context-switch costs in
    /// `note_kernel_progress`. There is deliberately no "waiting on the keys
    /// table" charge point anywhere in the front end: HyBP serves stale keys
    /// while a refresh's background SRAM rewrite runs, so no fetch path can
    /// park on key state. If such a path were ever added it would have to
    /// emit a `("sim", "keys_stall")` span — the telemetry invariant tests
    /// pin the count of those spans at zero while refresh spans are in
    /// flight.
    fn fetch(&mut self, now: Cycle) {
        let pick = self
            .contexts
            .iter()
            .enumerate()
            .filter(|(_, c)| c.stall_until <= now && c.window < self.cfg.core.window_size)
            .min_by_key(|(_, c)| c.window)
            .map(|(i, _)| i);
        let Some(i) = pick else {
            // Every thread is stalled or window-full: the front end idles.
            self.stages.fetch_idle_cycles += 1;
            return;
        };
        let mut budget = self.cfg.core.fetch_width;
        while budget > 0 {
            // Re-resolve everything each iteration: a kernel-episode end can
            // switch the active stream (and even stall the thread) mid-fetch.
            if self.contexts[i].stall_until > now {
                break;
            }
            let c = &mut self.contexts[i];
            let mode_before = c.mode;
            if c.fetch_state().pending.is_none() {
                let (rec, digest_idx) = match c.mode {
                    Mode::User => (c.user_gens[c.active].next_branch(), c.active),
                    Mode::Kernel { .. } => (c.kernel_gen.next_branch(), c.digests.len() - 1),
                };
                // Witness the architectural stream *before* any fault
                // disposition — trace anomalies change what the predictor
                // sees, never what the program executes.
                if let Some(d) = c.digests.get_mut(digest_idx) {
                    d.fold(&rec);
                }
                let hw_idx = c.hw.index();
                let disposition = match &self.faults {
                    Some(f) => f.on_branch_record(hw_idx, now),
                    None => TraceDisposition::Keep,
                };
                let fetch_state = c.fetch_state();
                fetch_state.gap_left = rec.gap;
                fetch_state.pending = Some(rec);
                fetch_state.disposition = disposition;
            }
            let fetch_state = c.fetch_state();
            if fetch_state.gap_left > 0 {
                // Fetch gap (non-branch) instructions first.
                let gap_now = fetch_state.gap_left.min(budget);
                fetch_state.gap_left -= gap_now;
                budget -= gap_now;
                c.window += gap_now;
                self.note_kernel_progress(i, u64::from(gap_now), now);
                // Mode may have changed (episode ended): restart resolution.
                if self.contexts[i].mode != mode_before {
                    continue;
                }
                continue;
            }
            // Fetch the branch itself. (The pending slot was filled above;
            // an empty one here means the stream is wedged — stop fetching
            // rather than crash.)
            let Some(rec) = fetch_state.pending.take() else {
                break;
            };
            let disposition =
                std::mem::replace(&mut fetch_state.disposition, TraceDisposition::Keep);
            budget -= 1;
            c.window += 1;
            let hw = c.hw;
            if disposition == TraceDisposition::Drop {
                // The record was lost on the way to the predictor: fetch it
                // as a plain instruction, never predicting or training.
                self.note_kernel_progress(i, 1, now);
                continue;
            }
            let outcome = self.bpu.process_branch(hw, &rec, now);
            if disposition == TraceDisposition::Duplicate {
                // The feed replayed the record: the predictor sees (and
                // trains on) it twice, but it retires only once.
                let _ = self.bpu.process_branch(hw, &rec, now);
            }
            self.note_kernel_progress(i, 1, now);
            if outcome.mispredicted() {
                let penalty = Cycle::from(self.cfg.core.mispredict_penalty)
                    + Cycle::from(self.cfg.core.extra_frontend_cycles)
                    + Cycle::from(self.bpu.extra_frontend_cycles());
                self.stages.redirect_stall_cycles += penalty;
                let c = &mut self.contexts[i];
                c.stall_until = c.stall_until.max(now + penalty);
                break;
            } else if outcome.btb_latency > 0 {
                self.stages.btb_stall_cycles += Cycle::from(outcome.btb_latency);
                let c = &mut self.contexts[i];
                c.stall_until = c.stall_until.max(now + Cycle::from(outcome.btb_latency));
                break;
            }
        }
    }

    /// Advances kernel-episode accounting by `instructions` fetched; fires
    /// the deferred context switch / privilege return at episode end.
    fn note_kernel_progress(&mut self, i: usize, instructions: u64, now: Cycle) {
        if instructions == 0 {
            return;
        }
        let c = &mut self.contexts[i];
        let Mode::Kernel {
            remaining,
            then_switch,
        } = c.mode
        else {
            return;
        };
        if remaining > instructions {
            c.mode = Mode::Kernel {
                remaining: remaining - instructions,
                then_switch,
            };
            return;
        }
        // Episode over.
        let hw = c.hw;
        c.mode = Mode::User;
        if then_switch {
            c.active = (c.active + 1) % c.user_gens.len();
            let asid = c.asids[c.active];
            let cost = Cycle::from(self.cfg.core.context_switch_cost);
            c.next_cs = now + self.cfg.ctx_switch_interval;
            c.stall_until = now + cost;
            // The outgoing thread's fetch state is abandoned (it will get a
            // fresh stream when it returns — different dynamic path).
            c.user_fetch = FetchState::new();
            self.stages.ctx_switch_stall_cycles += cost;
            self.telemetry.span(
                now,
                "sim",
                "ctx_switch_stall",
                now,
                now + cost,
                hw.index() as u64,
            );
            self.bpu.on_context_switch(hw, asid, now);
        }
        self.bpu.on_privilege_change(hw, Privilege::User, now);
    }
}

impl Observable for Simulation {
    /// Scope `"sim"`: elapsed cycles plus per-stage stall attribution.
    fn snapshot(&self) -> TelemetrySnapshot {
        let s = &self.stages;
        TelemetrySnapshot::new("sim")
            .with("cycles", self.cycle)
            .with("fetch_idle_cycles", s.fetch_idle_cycles)
            .with("redirect_stall_cycles", s.redirect_stall_cycles)
            .with("btb_stall_cycles", s.btb_stall_cycles)
            .with("ctx_switch_stall_cycles", s.ctx_switch_stall_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybp::Mechanism;

    fn quick() -> SimConfig {
        let mut cfg = SimConfig::quick_test();
        cfg.warmup_instructions = 30_000;
        cfg.measure_instructions = 120_000;
        cfg
    }

    fn run_st(mech: Mechanism, bench: SpecBenchmark, cfg: SimConfig) -> RunMetrics {
        Simulation::builder(mech, cfg)
            .single_thread(bench)
            .build()
            .expect("valid config")
            .run()
            .expect("completes")
    }

    fn run_smt(mech: Mechanism, pair: [SpecBenchmark; 2], cfg: SimConfig) -> RunMetrics {
        Simulation::builder(mech, cfg)
            .smt(pair)
            .build()
            .expect("valid config")
            .run()
            .expect("completes")
    }

    #[test]
    fn baseline_ipc_approaches_base_ipc() {
        let m = run_st(Mechanism::Baseline, SpecBenchmark::Lbm, quick());
        let ipc = m.threads[0].ipc();
        let base = SpecBenchmark::Lbm.profile().base_ipc;
        assert!(
            ipc > base * 0.8 && ipc <= base * 1.02,
            "lbm IPC {ipc} vs base {base}"
        );
    }

    #[test]
    fn harder_branches_cost_ipc() {
        let lbm = run_st(Mechanism::Baseline, SpecBenchmark::Lbm, quick()).threads[0].ipc();
        let mcf = run_st(Mechanism::Baseline, SpecBenchmark::Mcf, quick()).threads[0].ipc();
        assert!(mcf < lbm, "mcf {mcf} must be slower than lbm {lbm}");
    }

    #[test]
    fn extra_frontend_latency_reduces_ipc() {
        let mut cfg = quick();
        let base = run_st(Mechanism::Baseline, SpecBenchmark::Mcf, cfg).threads[0].ipc();
        cfg.core.extra_frontend_cycles = 8;
        let slow = run_st(Mechanism::Baseline, SpecBenchmark::Mcf, cfg).threads[0].ipc();
        assert!(
            slow < base * 0.99,
            "8 extra cycles must cost mcf >1% (got {base} -> {slow})"
        );
    }

    #[test]
    fn smt_throughput_beats_single_thread() {
        let cfg = quick();
        let solo = run_st(Mechanism::Baseline, SpecBenchmark::Wrf, cfg).throughput();
        let smt = run_smt(
            Mechanism::Baseline,
            [SpecBenchmark::Wrf, SpecBenchmark::Mcf],
            cfg,
        )
        .throughput();
        assert!(
            smt > solo * 1.05,
            "SMT throughput {smt} must beat solo {solo}"
        );
    }

    #[test]
    fn flush_costs_more_at_small_intervals() {
        let mut small = quick();
        small.measure_instructions = 500_000;
        small.ctx_switch_interval = 25_000;
        let mut big = quick();
        big.measure_instructions = 500_000;
        big.ctx_switch_interval = 8_000_000;
        let bench = SpecBenchmark::Deepsjeng;
        let ipc_small = run_st(Mechanism::Flush, bench, small).threads[0].ipc();
        let ipc_big = run_st(Mechanism::Flush, bench, big).threads[0].ipc();
        assert!(
            ipc_small < ipc_big,
            "flush at 100K ({ipc_small}) must be slower than at 16M ({ipc_big})"
        );
    }

    #[test]
    fn hybp_close_to_baseline_at_default_interval() {
        let cfg = quick();
        let base = run_st(Mechanism::Baseline, SpecBenchmark::Xz, cfg).threads[0].ipc();
        let hybp = run_st(Mechanism::hybp_default(), SpecBenchmark::Xz, cfg).threads[0].ipc();
        let loss = (base - hybp) / base;
        assert!(
            loss < 0.05,
            "HyBP loss at 16M interval should be small, got {loss}"
        );
    }

    #[test]
    fn partition_loses_to_hybp_on_capacity_sensitive_bench() {
        let mut cfg = quick();
        // Long enough for the quarter-capacity tables to be the bottleneck
        // (short runs are dominated by cold-start for both mechanisms).
        cfg.warmup_instructions = 150_000;
        cfg.measure_instructions = 600_000;
        let part = run_st(Mechanism::Partition, SpecBenchmark::Fotonik3d, cfg).threads[0].ipc();
        let hybp =
            run_st(Mechanism::hybp_default(), SpecBenchmark::Fotonik3d, cfg).threads[0].ipc();
        assert!(
            part < hybp,
            "partition ({part}) must underperform HyBP ({hybp}) on fotonik3d"
        );
    }

    #[test]
    fn all_threads_reach_measurement() {
        let cfg = quick();
        let m = run_smt(
            Mechanism::hybp_default(),
            [SpecBenchmark::CactuBssn, SpecBenchmark::Xz],
            cfg,
        );
        for (i, t) in m.threads.iter().enumerate() {
            assert_eq!(
                t.retired, cfg.measure_instructions,
                "thread {i} must complete measurement"
            );
            assert!(t.ipc() > 0.1, "thread {i} ipc {}", t.ipc());
        }
    }

    #[test]
    fn builder_without_workload_is_a_config_error() {
        // `expect_err` would need `Simulation: Debug`, which secret-hygiene
        // forbids (it owns the BPU's key material) — match instead.
        let err = match Simulation::builder(Mechanism::Baseline, quick()).build() {
            Err(e) => e,
            Ok(_) => panic!("no workload chosen must be rejected"),
        };
        assert!(err.to_string().contains("hardware threads"));
    }

    #[test]
    fn stage_cycles_attribute_known_stalls() {
        let mut cfg = quick();
        cfg.ctx_switch_interval = 25_000;
        let m = run_st(Mechanism::Baseline, SpecBenchmark::Mcf, cfg);
        let s = m.stages;
        assert!(
            s.redirect_stall_cycles > 0,
            "mcf mispredicts must charge redirects"
        );
        assert!(
            s.ctx_switch_stall_cycles > 0,
            "25K interval must context-switch"
        );
        assert_eq!(
            s.ctx_switch_stall_cycles % Cycle::from(cfg.core.context_switch_cost),
            0,
            "every context switch charges exactly the configured cost"
        );
    }

    #[test]
    fn telemetry_sink_sees_ctx_switch_spans_and_key_refreshes() {
        let sink = Telemetry::ring(4096);
        let mut cfg = quick();
        cfg.ctx_switch_interval = 25_000;
        let mut sim = Simulation::builder(Mechanism::hybp_default(), cfg)
            .single_thread(SpecBenchmark::Xz)
            .telemetry(sink.clone())
            .build()
            .expect("valid config");
        sim.run().expect("completes");
        let events = sink.drain();
        let cost = Cycle::from(cfg.core.context_switch_cost);
        let cs: Vec<_> = events
            .iter()
            .filter(|e| e.scope == "sim" && e.name == "ctx_switch_stall")
            .collect();
        assert!(!cs.is_empty(), "context switches must emit stall spans");
        for e in &cs {
            let (start, end) = e.span_bounds().expect("stall events are spans");
            assert_eq!(end - start, cost);
        }
        assert!(
            events
                .iter()
                .any(|e| e.scope == "keys" && e.name == "refresh"),
            "HyBP context switches must emit key refresh spans"
        );
        assert_eq!(sink.dropped(), 0, "ring must be large enough for this run");
    }

    #[test]
    fn simulation_snapshot_matches_stage_counters() {
        let mut sim = Simulation::builder(Mechanism::Baseline, quick())
            .single_thread(SpecBenchmark::Mcf)
            .build()
            .expect("valid config");
        let m = sim.run().expect("completes");
        let snap = sim.snapshot();
        assert_eq!(snap.scope, "sim");
        assert_eq!(snap.get("cycles"), m.cycles);
        assert_eq!(
            snap.get("redirect_stall_cycles"),
            m.stages.redirect_stall_cycles
        );
        assert_eq!(
            snap.get("ctx_switch_stall_cycles"),
            m.stages.ctx_switch_stall_cycles
        );
    }
}
