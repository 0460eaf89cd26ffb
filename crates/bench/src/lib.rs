//! Experiment harness for regenerating every table and figure of the HyBP
//! paper. Every experiment is a registered body in [`experiments`], run
//! through the one `bench_all` entry point (`bench_all --only <name>` for a
//! single one); this library holds the shared measurement machinery.
//!
//! # Measurement strategy (see `DESIGN.md` §8 and `EXPERIMENTS.md`)
//!
//! Context-switch intervals up to 16M cycles cannot be swept directly at
//! laptop scale (a single 16M-cycle interval spans tens of millions of
//! instructions). The harness therefore uses the standard decomposition
//!
//! ```text
//! CPI_mech(I) ≈ CPI_mech(∞) · (1 + C_mech / I)
//! ```
//!
//! where `CPI(∞)` is measured in a run without context switches (timer
//! kernel episodes still run — they are interval-independent) and `C`, the
//! per-switch cycle cost, is measured directly from a run at a 1M-cycle
//! interval covering several switches. Small intervals (≤ 1M) are always
//! measured directly; the model is validated against direct measurement at
//! the crossover. Every CSV row records which method produced it.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use bp_common::{Cycle, Telemetry};
use bp_pipeline::{
    kernel_stream_name, kernel_stream_seed, stream_name, stream_seed, RunMetrics, SimConfig,
    Simulation,
};
use bp_trace::TraceStore;
use bp_workloads::profile::{BenchmarkProfile, SpecBenchmark};
use hybp::Mechanism;

pub mod cache;
pub mod cli;
pub mod experiments;
pub mod serve;
pub mod supervise;
pub mod telemetry;

pub use cache::{CacheKey, ModelCache};
pub use cli::Ctx;
pub use supervise::{PointFailure, Supervisor, SweepReport};
pub use telemetry::{FlushSummary, TelemetryHub};

/// Pre-loads every stream a workload layout will replay, so a damaged
/// trace fails with the *full* decode diagnosis (chunk ordinal and byte
/// offset) instead of the builder's static [`bp_common::ConfigError`]
/// text. Runs at the sweep boundary: the panic becomes a recorded point
/// failure whose message carries the trace error.
#[expect(
    clippy::panic,
    reason = "sweep boundary: the supervised sweep records this as a point failure naming the damaged chunk"
)]
fn preload_streams(store: &Arc<TraceStore>, seed: u64, threads: &[Vec<SpecBenchmark>]) {
    for (i, sw) in threads.iter().enumerate() {
        for (j, b) in sw.iter().enumerate() {
            let name = stream_name(i, j, *b);
            if let Err(e) = store.load(&name, stream_seed(seed, i, j)) {
                panic!("trace replay {name}: {e}");
            }
        }
        let name = kernel_stream_name(i);
        if let Err(e) = store.load(&name, kernel_stream_seed(seed, i)) {
            panic!("trace replay {name}: {e}");
        }
    }
}

/// Runs one single-thread simulation point, observed by `telemetry`,
/// replaying from `trace` when one is attached.
///
/// The deadline backstop is an invariant here — harness configs always
/// retire their measurement quota — so a runaway is a panic, which the
/// supervised sweeps convert into a recorded point failure.
fn run_single(
    mechanism: Mechanism,
    bench: SpecBenchmark,
    cfg: SimConfig,
    telemetry: &Telemetry,
    trace: Option<&Arc<TraceStore>>,
) -> RunMetrics {
    if let Some(store) = trace {
        preload_streams(store, cfg.seed, &[vec![bench, bench]]);
    }
    #[expect(
        clippy::expect_used,
        reason = "sweep boundary: configs here are built from validated presets, and a failed run is a programming error; the supervised sweep records either panic as a point failure"
    )]
    Simulation::builder(mechanism, cfg)
        .single_thread(bench)
        .telemetry(telemetry.clone())
        .trace_store(trace.map(Arc::clone))
        .build()
        .expect("valid config")
        .run()
        .expect("simulation completes")
}

/// Runs one SMT co-run point, observed by `telemetry`, replaying from
/// `trace` when one is attached.
fn run_smt_pair(
    mechanism: Mechanism,
    pair: [SpecBenchmark; 2],
    cfg: SimConfig,
    telemetry: &Telemetry,
    trace: Option<&Arc<TraceStore>>,
) -> RunMetrics {
    if let Some(store) = trace {
        preload_streams(
            store,
            cfg.seed,
            &[vec![pair[0], pair[0]], vec![pair[1], pair[1]]],
        );
    }
    #[expect(
        clippy::expect_used,
        reason = "sweep boundary: configs here are built from validated presets, and a failed run is a programming error; the supervised sweep records either panic as a point failure"
    )]
    Simulation::builder(mechanism, cfg)
        .smt(pair)
        .telemetry(telemetry.clone())
        .trace_store(trace.map(Arc::clone))
        .build()
        .expect("valid config")
        .run()
        .expect("simulation completes")
}

/// What an experiment body returns: `Ok(())` or a printable failure (a
/// violated invariant, an unwritable CSV, a degraded sweep, …). The error
/// is `Send + Sync` so a whole experiment can run behind the deadline
/// watchdog's channel.
pub type ExpResult = Result<(), Box<dyn std::error::Error + Send + Sync>>;

/// Run-length preset, selectable with `--scale quick|default|full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast smoke runs (CI-sized); every EXPERIMENTS.md number uses it.
    Quick,
    /// Longer measurement windows than `Quick`.
    Default,
    /// Long runs for tighter confidence.
    Full,
}

impl Scale {
    /// Parses one scale value through the shared strict-parse helper
    /// ([`bp_common::parse::one_of`]).
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid options when `v` is not one of
    /// them — a typo like `ful` must never silently run at a different
    /// scale.
    pub fn parse(v: &str) -> Result<Scale, String> {
        bp_common::parse::one_of(
            "scale",
            v,
            &[
                ("quick", Scale::Quick),
                ("default", Scale::Default),
                ("full", Scale::Full),
            ],
        )
    }

    /// The value accepted by [`Scale::parse`] for this scale.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }

    /// Instructions measured per no-switch (fixed-part) run. Must span
    /// several kernel-timer intervals (the interval-independent privilege
    /// flushes are part of the fixed cost being measured).
    pub fn fixed_instructions(self) -> u64 {
        match self {
            Scale::Quick => 2_000_000,
            Scale::Default => 5_000_000,
            Scale::Full => 16_000_000,
        }
    }

    /// Warmup instructions.
    pub fn warmup_instructions(self) -> u64 {
        match self {
            Scale::Quick => 150_000,
            Scale::Default => 400_000,
            Scale::Full => 1_500_000,
        }
    }

    /// Context switches covered by the per-switch-cost calibration run.
    pub fn calibration_switches(self) -> u64 {
        match self {
            Scale::Quick => 3,
            Scale::Default => 5,
            Scale::Full => 10,
        }
    }
}

/// Interval used for per-switch-cost calibration.
pub const CALIBRATION_INTERVAL: Cycle = 1_000_000;

/// The paper's context-switch interval sweep (cycles).
pub const INTERVALS: [Cycle; 5] = [256_000, 512_000, 1_000_000, 4_000_000, 16_000_000];

/// The default "Linux time slice" interval.
pub const DEFAULT_INTERVAL: Cycle = 16_000_000;

/// A no-context-switch simulation config (timer episodes still fire).
pub fn no_switch_config(scale: Scale) -> SimConfig {
    let mut cfg = SimConfig::default_run();
    cfg.ctx_switch_interval = u64::MAX / 4; // never fires
    cfg.warmup_instructions = scale.warmup_instructions();
    cfg.measure_instructions = scale.fixed_instructions();
    cfg
}

/// A direct-measurement config at `interval`, sized to cover
/// `switches` context switches.
pub fn direct_config(scale: Scale, interval: Cycle, switches: u64, base_ipc: f64) -> SimConfig {
    let mut cfg = SimConfig::default_run();
    cfg.ctx_switch_interval = interval;
    cfg.warmup_instructions = scale.warmup_instructions();
    let needed = (interval as f64 * switches as f64 * base_ipc * 1.1) as u64;
    cfg.measure_instructions = needed.max(scale.fixed_instructions());
    cfg
}

/// Upper bound on instructions any harness run at `scale` consumes from
/// one replay stream of `profile`, plus slack. `trace_tool record` uses
/// this as the per-stream record budget so captures cover every config
/// the experiments build at that scale: the widest run is either the
/// fixed-part run or the largest direct-measurement run (interval
/// ≤ [`CALIBRATION_INTERVAL`], sized by [`direct_config`] for
/// `max(4, calibration_switches)` switches).
pub fn replay_stream_budget(scale: Scale, profile: &BenchmarkProfile) -> u64 {
    let switches = scale.calibration_switches().max(4);
    let direct = (CALIBRATION_INTERVAL as f64 * switches as f64 * profile.base_ipc * 1.1) as u64;
    scale.warmup_instructions() + direct.max(scale.fixed_instructions()) + 256_000
}

/// Per-(mechanism, benchmark) interval-overhead model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    /// IPC with no context switches.
    pub ipc_fixed: f64,
    /// Per-switch cycle cost (model parameter `C`).
    pub per_switch_cycles: f64,
}

impl OverheadModel {
    /// Predicted IPC at context-switch interval `I`.
    pub fn ipc_at(&self, interval: Cycle) -> f64 {
        self.ipc_fixed / (1.0 + self.per_switch_cycles / interval as f64)
    }
}

/// Measures the overhead model for a single-thread run of `bench` under
/// `mechanism`, with both underlying runs observed by `telemetry` (so span
/// events survive into the suite's JSONL export) and optionally replayed
/// from `trace`.
fn single_thread_model_observed(
    mechanism: Mechanism,
    bench: SpecBenchmark,
    scale: Scale,
    telemetry: &Telemetry,
    trace: Option<&Arc<TraceStore>>,
) -> OverheadModel {
    let fixed = run_single(mechanism, bench, no_switch_config(scale), telemetry, trace);
    let ipc_fixed = fixed.threads[0].ipc();
    let cal_cfg = direct_config(
        scale,
        CALIBRATION_INTERVAL,
        scale.calibration_switches(),
        bench.profile().base_ipc,
    );
    let cal = run_single(mechanism, bench, cal_cfg, telemetry, trace);
    let ipc_cal = cal.threads[0].ipc();
    // CPI(I)/CPI(∞) = 1 + C/I  ⇒  C = I · (ipc_fixed/ipc_cal − 1).
    let per_switch_cycles = (CALIBRATION_INTERVAL as f64 * (ipc_fixed / ipc_cal - 1.0)).max(0.0);
    OverheadModel {
        ipc_fixed,
        per_switch_cycles,
    }
}

/// Relative performance degradation of `ipc` versus `baseline_ipc`.
pub fn degradation(ipc: f64, baseline_ipc: f64) -> f64 {
    (baseline_ipc - ipc) / baseline_ipc
}

/// Memo key for a simulation-derived point: folds in the mechanism
/// (including its embedded config), the workload description, the scale
/// and the *exact* simulation parameters, so no two distinct points can
/// alias and any config change misses cleanly.
fn sim_key(
    kind: &'static str,
    mechanism: Mechanism,
    workload: &str,
    scale: Scale,
    cfg: &SimConfig,
) -> CacheKey {
    CacheKey::new(kind)
        .with("mech", format_args!("{mechanism:?}"))
        .with("workload", format_args!("{workload}"))
        .with("scale", format_args!("{}", scale.name()))
        .with("cfg", format_args!("{cfg:?}"))
}

/// [`single_thread_model_observed`] through the context's memo: the two
/// model parameters are stored bit-exactly, so every experiment sharing a
/// model sees the same numbers to the last bit.
pub fn model_cached(ctx: &Ctx, mechanism: Mechanism, bench: SpecBenchmark) -> OverheadModel {
    let cal_cfg = direct_config(
        ctx.scale,
        CALIBRATION_INTERVAL,
        ctx.scale.calibration_switches(),
        bench.profile().base_ipc,
    );
    let key = sim_key(
        "model",
        mechanism,
        bench.name(),
        ctx.scale,
        &no_switch_config(ctx.scale),
    )
    .with("cal_cfg", format_args!("{cal_cfg:?}"));
    let v = ctx.cache.get_or_compute(&key, || {
        let sink = ctx.telemetry.sink();
        let m =
            single_thread_model_observed(mechanism, bench, ctx.scale, &sink, ctx.trace.as_ref());
        ctx.telemetry.absorb(&sink);
        vec![m.ipc_fixed, m.per_switch_cycles]
    });
    OverheadModel {
        ipc_fixed: v[0],
        per_switch_cycles: v[1],
    }
}

/// IPC of `bench` under `mechanism` at `interval`: measured directly when
/// the interval is small enough, with the point served from the context's
/// memo, and modeled otherwise (modeled points are free — they are pure
/// arithmetic on the already-memoised model). Returns `(ipc, method)`.
pub fn ipc_at_cached(
    ctx: &Ctx,
    mechanism: Mechanism,
    bench: SpecBenchmark,
    interval: Cycle,
    model: &OverheadModel,
) -> (f64, &'static str) {
    if interval <= CALIBRATION_INTERVAL {
        let cfg = direct_config(ctx.scale, interval, 4, bench.profile().base_ipc);
        let key = sim_key("direct", mechanism, bench.name(), ctx.scale, &cfg);
        let ipc = ctx.cache.get_or_compute_one(&key, || {
            let sink = ctx.telemetry.sink();
            let ipc = run_single(mechanism, bench, cfg, &sink, ctx.trace.as_ref()).threads[0].ipc();
            ctx.telemetry.absorb(&sink);
            ipc
        });
        (ipc, "direct")
    } else {
        (model.ipc_at(interval), "model")
    }
}

/// Cached single-thread point under an arbitrary config: returns
/// `(ipc, direction_accuracy)`.
pub fn st_point_cached(
    ctx: &Ctx,
    mechanism: Mechanism,
    bench: SpecBenchmark,
    cfg: SimConfig,
) -> (f64, f64) {
    let key = sim_key("st_point", mechanism, bench.name(), ctx.scale, &cfg);
    let v = ctx.cache.get_or_compute(&key, || {
        let sink = ctx.telemetry.sink();
        let m = run_single(mechanism, bench, cfg, &sink, ctx.trace.as_ref());
        ctx.telemetry.absorb(&sink);
        vec![m.threads[0].ipc(), m.bpu.direction_accuracy()]
    });
    (v[0], v[1])
}

/// Cached no-switch single-thread IPC (the most shared point of all: every
/// baseline comparison starts here).
pub fn no_switch_ipc_cached(ctx: &Ctx, mechanism: Mechanism, bench: SpecBenchmark) -> f64 {
    st_point_cached(ctx, mechanism, bench, no_switch_config(ctx.scale)).0
}

/// Cached SMT point for one co-running pair: returns
/// `(throughput, per-thread IPCs)`.
pub fn smt_point_cached(
    ctx: &Ctx,
    mechanism: Mechanism,
    pair: [SpecBenchmark; 2],
    cfg: SimConfig,
) -> (f64, Vec<f64>) {
    let workload = format!("{}+{}", pair[0].name(), pair[1].name());
    let key = sim_key("smt_point", mechanism, &workload, ctx.scale, &cfg);
    let v = ctx.cache.get_or_compute(&key, || {
        let sink = ctx.telemetry.sink();
        let m = run_smt_pair(mechanism, pair, cfg, &sink, ctx.trace.as_ref());
        ctx.telemetry.absorb(&sink);
        let mut out = vec![m.throughput()];
        out.extend(m.ipcs());
        out
    });
    (v[0], v[1..].to_vec())
}

/// Computes (deterministically) the phase plan for `bench`'s canonical
/// replay stream in `ctx`'s trace store under `spec`.
///
/// # Errors
///
/// Returns a message when no trace store is attached, the stream is
/// missing or undecodable, or the trace is shorter than one window.
pub fn phase_plan_for(
    ctx: &Ctx,
    bench: SpecBenchmark,
    spec: &bp_trace::SamplingSpec,
) -> Result<bp_trace::PhasePlan, String> {
    let store = ctx
        .trace
        .as_ref()
        .ok_or("phase sampling requires --trace-dir")?;
    let name = stream_name(0, 0, bench);
    let seed = stream_seed(SimConfig::default_run().seed, 0, 0);
    let loaded = store
        .load(&name, seed)
        .map_err(|e| format!("{name}: {e}"))?;
    let (plan, _) = loaded.sample(spec).map_err(|e| format!("{name}: {e}"))?;
    Ok(plan)
}

/// One sampled-replay point: the bounded-error MPKI/IPC estimate for
/// (`mechanism`, `bench`) over the plan's representative windows.
///
/// # Errors
///
/// Returns a message when the replay cannot be built (no store, missing
/// stream) or the plan is stale for the store's current bytes.
pub fn sampled_estimate(
    ctx: &Ctx,
    mechanism: Mechanism,
    bench: SpecBenchmark,
    plan: &bp_trace::PhasePlan,
) -> Result<bp_pipeline::SampledEstimate, String> {
    Simulation::builder(mechanism, SimConfig::default_run())
        .single_thread(bench)
        .trace_store(ctx.trace.clone())
        .sampled_replay(plan.clone())
        .map_err(|e| format!("{}: {e}", bench.name()))?
        .run()
        .map_err(|e| format!("{}: {e}", bench.name()))
}

/// Synthesizes a phase-alternating branch stream: `phases` cycle every
/// `phase_instructions`, each phase drawing from its benchmark's profile,
/// until `total_instructions` are covered. This is the worst reasonable
/// case for sampling (abrupt phase changes) and the best case for showing
/// why one contiguous sample is not enough.
pub fn phased_records(
    seed: u64,
    phases: &[SpecBenchmark],
    phase_instructions: u64,
    total_instructions: u64,
) -> Vec<bp_common::BranchRecord> {
    let mut gens: Vec<_> = phases
        .iter()
        .enumerate()
        .map(|(i, b)| {
            bp_workloads::WorkloadGenerator::new(b.profile(), seed ^ ((i as u64 + 1) << 24))
        })
        .collect();
    let mut records = Vec::new();
    let mut instructions = 0u64;
    while instructions < total_instructions {
        let phase = ((instructions / phase_instructions) as usize) % gens.len();
        let r = gens[phase].next_branch();
        instructions += u64::from(r.gap) + 1;
        records.push(r);
    }
    records
}

/// Simple CSV accumulator writing into a results directory.
#[derive(Debug)]
pub struct Csv {
    path: String,
    buf: String,
    partial: Option<(usize, usize)>,
    sampled: Option<(u64, u64, f64)>,
}

impl Csv {
    /// Creates a CSV with a header row under `dir` (what [`Ctx::csv`] uses,
    /// so tests can redirect output away from the tracked `results/`); the
    /// file is written on [`Csv::finish`].
    pub fn at_dir(dir: impl AsRef<Path>, name: &str, header: &str) -> Csv {
        let mut buf = String::new();
        let _ = writeln!(buf, "{header}");
        Csv {
            path: dir.as_ref().join(name).display().to_string(),
            buf,
            partial: None,
            sampled: None,
        }
    }

    /// Appends one row.
    pub fn row(&mut self, row: std::fmt::Arguments<'_>) {
        let _ = writeln!(self.buf, "{row}");
    }

    /// File stem of the output path (telemetry JSONL exports are named
    /// after it, so `fig5_hybp_per_app.csv` pairs with
    /// `fig5_hybp_per_app.jsonl`).
    pub fn stem(&self) -> String {
        Path::new(&self.path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "experiment".to_owned())
    }

    /// Marks the file as degraded output: [`Csv::finish`] will prepend a
    /// `# partial: N/M points` comment line so downstream diffing can
    /// never mistake a degraded CSV for a complete one. A complete file
    /// carries no comment and stays byte-identical to the pre-supervision
    /// format.
    pub fn mark_partial(&mut self, completed: usize, total: usize) {
        self.partial = Some((completed, total));
    }

    /// Marks the file as produced by phase-sampled replay: [`Csv::finish`]
    /// will prepend a `# sampled: k/N windows (coverage …)` comment line so
    /// a bounded-error estimate can never be mistaken for a full replay.
    /// Composes with [`Csv::mark_partial`], whose line stays first.
    pub fn mark_sampled(&mut self, selected: u64, total_windows: u64, coverage: f64) {
        self.sampled = Some((selected, total_windows, coverage));
    }

    /// Writes the file (creating the directory if needed) and returns the
    /// path.
    pub fn finish(self) -> std::io::Result<String> {
        if let Some(parent) = Path::new(&self.path).parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut body = self.buf;
        if let Some((selected, total, coverage)) = self.sampled {
            body = format!(
                "# sampled: {selected}/{total} windows (coverage {:.2}%)\n{body}",
                coverage * 100.0
            );
        }
        if let Some((completed, total)) = self.partial {
            body = format!("# partial: {completed}/{total} points\n{body}");
        }
        std::fs::write(&self.path, body)?;
        Ok(self.path)
    }
}

/// The single-thread benchmark list (all of Table V's constituents).
pub fn all_benchmarks() -> [SpecBenchmark; 14] {
    SpecBenchmark::ALL
}

/// Pretty percent formatting.
pub fn pct(x: f64) -> String {
    format!("{:+.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_predicts_monotone_in_interval() {
        let m = OverheadModel {
            ipc_fixed: 2.0,
            per_switch_cycles: 100_000.0,
        };
        assert!(m.ipc_at(256_000) < m.ipc_at(16_000_000));
        assert!(m.ipc_at(16_000_000) <= 2.0);
    }

    #[test]
    fn degradation_signs() {
        assert!(degradation(1.9, 2.0) > 0.0);
        assert!(degradation(2.1, 2.0) < 0.0);
    }

    #[test]
    fn csv_writes_rows() {
        let dir = std::env::temp_dir().join(format!("hybp-csv-{}", std::process::id()));
        let mut c = Csv::at_dir(&dir, "test_tmp.csv", "a,b");
        c.row(format_args!("1,2"));
        let p = c.finish().unwrap();
        let s = std::fs::read_to_string(&p).unwrap();
        assert_eq!(s, "a,b\n1,2\n");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
