//! Experiment harness for regenerating every table and figure of the HyBP
//! paper. Every experiment is a registered body in [`experiments`], run
//! through the one `bench_all` entry point (`bench_all --only <name>` for a
//! single one); this library holds the shared measurement machinery.
//!
//! # Simulated points
//!
//! Every simulated run is one [`Point`]: a mechanism, a workload (one
//! benchmark, or an SMT pair) and an exact [`SimConfig`]. Experiments read
//! runs through [`Ctx::point`], which keeps each run's whole
//! [`RunMetrics`] for the life of the process, so a point shared by
//! several experiments simulates once.
//!
//! # Measurement strategy (see `DESIGN.md` §8 and `EXPERIMENTS.md`)
//!
//! Context-switch intervals up to 16M cycles cannot be swept directly at
//! laptop scale (a single 16M-cycle interval spans tens of millions of
//! instructions). The harness therefore extrapolates the 4M and 16M
//! intervals with the standard decomposition
//!
//! ```text
//! CPI_mech(I) ≈ CPI_mech(∞) · (1 + C_mech / I)
//! ```
//!
//! where `CPI(∞)` is measured in a run without context switches (timer
//! kernel episodes still run — they are interval-independent) and `C`, the
//! per-switch cycle cost, is calibrated from one run at a 1M-cycle interval
//! covering several switches. Intervals up to 1M are always measured
//! directly. Nothing checks the extrapolation against a direct run at 4M
//! or 16M; measuring those intervals directly is an open item of
//! `ROADMAP.md` ("Measure what the headline numbers claim"). Every CSV row
//! records which method produced it.

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
use bp_workloads::TABLE_V_MIXES;
use hybp::Mechanism;

pub mod cache;
pub mod cli;
pub mod experiments;
pub mod serve;
pub mod supervise;
pub mod telemetry;

pub use cache::ModelCache;
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

/// What a [`Point`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One benchmark on a single-threaded core.
    Single(SpecBenchmark),
    /// Two co-running benchmarks on an SMT-2 core, one per hardware thread.
    Pair([SpecBenchmark; 2]),
}

/// One simulated run: everything its [`RunMetrics`] depends on. Its
/// `Debug` text is the memo key of [`Ctx::point`], so every field that
/// can change a run must render there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Defense mechanism, including its embedded configuration.
    pub mechanism: Mechanism,
    /// What runs on the core.
    pub workload: Workload,
    /// Exact simulation parameters.
    pub cfg: SimConfig,
}

impl Point {
    /// A single-thread point running `bench`.
    pub fn single(mechanism: Mechanism, bench: SpecBenchmark, cfg: SimConfig) -> Point {
        Point {
            mechanism,
            workload: Workload::Single(bench),
            cfg,
        }
    }

    /// An SMT point co-running `pair`.
    pub fn pair(mechanism: Mechanism, pair: [SpecBenchmark; 2], cfg: SimConfig) -> Point {
        Point {
            mechanism,
            workload: Workload::Pair(pair),
            cfg,
        }
    }

    /// Simulates the point, observed by `telemetry`, replaying from
    /// `trace` when one is attached.
    ///
    /// The deadline backstop is an invariant here — harness configs always
    /// retire their measurement quota — so a runaway is a panic, which the
    /// supervised sweeps convert into a recorded point failure.
    fn run(&self, telemetry: &Telemetry, trace: Option<&Arc<TraceStore>>) -> RunMetrics {
        // Each hardware thread time-shares two instances of its benchmark;
        // the preload and the run read the same layout.
        let layout = match self.workload {
            Workload::Single(b) => vec![vec![b, b]],
            Workload::Pair([a, b]) => vec![vec![a, a], vec![b, b]],
        };
        if let Some(store) = trace {
            preload_streams(store, self.cfg.seed, &layout);
        }
        #[expect(
            clippy::expect_used,
            reason = "sweep boundary: configs here are built from validated presets, and a failed run is a programming error; the supervised sweep records either panic as a point failure"
        )]
        Simulation::builder(self.mechanism, self.cfg)
            .threads(&layout)
            .telemetry(telemetry.clone())
            .trace_store(trace.map(Arc::clone))
            .build()
            .expect("valid config")
            .run()
            .expect("simulation completes")
    }
}

impl Ctx {
    /// The run of `point`, through the context's memo. A miss simulates
    /// the point, observed by a fresh telemetry sink and replaying from
    /// the attached trace store, if any; a hit returns the stored run.
    /// Either way the point's telemetry events go to the hub, so an export
    /// reads as if every lookup had simulated. Every memoised run of every
    /// experiment comes through here.
    pub fn point(&self, point: &Point) -> Arc<RunMetrics> {
        let recorded = self.cache.get_or_compute(&format!("{point:?}"), || {
            let sink = self.telemetry.sink();
            let run = point.run(&sink, self.trace.as_ref());
            cache::Recorded {
                run: Arc::new(run),
                events: sink.drain().into(),
                dropped: sink.dropped(),
            }
        });
        self.telemetry.absorb(&recorded.events, recorded.dropped);
        recorded.run
    }

    /// IPC of `bench` running alone under `mechanism` and `cfg`.
    pub fn ipc(&self, mechanism: Mechanism, bench: SpecBenchmark, cfg: SimConfig) -> f64 {
        self.point(&Point::single(mechanism, bench, cfg)).threads[0].ipc()
    }
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

/// The overhead model of `bench` under `mechanism`: arithmetic over two
/// memoised points, the no-switch run (the same point every other
/// experiment reads) and the calibration run at [`CALIBRATION_INTERVAL`].
pub fn overhead_model(ctx: &Ctx, mechanism: Mechanism, bench: SpecBenchmark) -> OverheadModel {
    let ipc_fixed = ctx.ipc(mechanism, bench, no_switch_config(ctx.scale));
    let cal_cfg = direct_config(
        ctx.scale,
        CALIBRATION_INTERVAL,
        ctx.scale.calibration_switches(),
        bench.profile().base_ipc,
    );
    let ipc_cal = ctx.ipc(mechanism, bench, cal_cfg);
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

/// IPC of `bench` under `mechanism` at `interval`: a direct point when the
/// interval is at most [`CALIBRATION_INTERVAL`], and `model`'s
/// extrapolation otherwise. Returns `(ipc, method)`.
pub fn ipc_at(
    ctx: &Ctx,
    mechanism: Mechanism,
    bench: SpecBenchmark,
    interval: Cycle,
    model: &OverheadModel,
) -> (f64, &'static str) {
    if interval <= CALIBRATION_INTERVAL {
        let cfg = direct_config(ctx.scale, interval, 4, bench.profile().base_ipc);
        (ctx.ipc(mechanism, bench, cfg), "direct")
    } else {
        (model.ipc_at(interval), "model")
    }
}

/// Mean SMT throughput under `mechanism` over the Table V mixes, each run
/// without context switches. The mixes fan out as one supervised sweep
/// named `label`; `None` when every mix point was lost.
pub fn mean_smt_throughput(ctx: &Ctx, label: &str, mechanism: Mechanism) -> Option<f64> {
    let thrs: Vec<f64> = ctx
        .sweep(label, &TABLE_V_MIXES, |mix| {
            ctx.point(&Point::pair(
                mechanism,
                mix.pair,
                no_switch_config(ctx.scale),
            ))
            .throughput()
        })
        .into_iter()
        .flatten()
        .collect();
    bp_common::stats::mean(&thrs)
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

    /// Writes the file (creating the directory if needed) and returns the
    /// path.
    pub fn finish(self) -> std::io::Result<String> {
        if let Some(parent) = Path::new(&self.path).parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut body = self.buf;
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
