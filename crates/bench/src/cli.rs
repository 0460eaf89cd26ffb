//! Command-line handling for `bench_all`, the one entry point of every
//! experiment, and the run context each experiment body receives.
//!
//! Options:
//!
//! * `--only NAME[,NAME...]` — run only the named experiments of
//!   [`experiments::all`] (default: the whole suite). They run in registry
//!   order whatever order they are given in, so the memo fills in the same
//!   order.
//! * `--scale quick|default|full` — run-length preset ([`Scale`]),
//! * `--threads N` — worker count for the parallel sweeps (default: the
//!   `HYBP_THREADS` environment variable, else
//!   [`std::thread::available_parallelism`]),
//! * `--resume` — skip experiments the previous run report recorded as
//!   clean whose CSV is still intact,
//! * `--deadline-secs N` — abandon any one experiment after `N` seconds,
//! * `--telemetry DIR` — export one sorted telemetry JSONL file per
//!   experiment into `DIR`. Capture turns the in-process point memo off: a
//!   memoised point runs no simulation, so a point shared by two
//!   experiments would put its events in whichever file computed it first.
//! * `--trace-dir DIR` — replay every instruction stream from the `.bpt`
//!   traces in `DIR` (recorded with `trace_tool record`) instead of
//!   running the synthetic generators. The memo stays on: every entry was
//!   computed by this process, under this replay, so a hit returns exactly
//!   what recomputing would.
//! * `--trace-mode strict|lenient` — how trace damage is treated
//!   (default `strict`; only valid with `--trace-dir`). Strict fails the
//!   affected sweep points with an error naming the damaged chunk;
//!   lenient completes on the surviving records and flags the run as
//!   degraded (`# partial` CSV header, non-zero exit).
//! * `--benches a,b,...` — restrict benchmark-driven experiments that
//!   honor subsets (currently fig5) to the named benchmarks.
//!
//! Every simulated run is one [`crate::Point`], memoised whole for the
//! life of the process by [`Ctx::point`] ([`ModelCache`]), so experiments
//! sharing a point simulate it once.
//!
//! Unknown options and malformed values are fatal usage errors (exit
//! code 2) with a message listing what is valid — a typo must never
//! silently fall back to a default and quietly measure the wrong thing.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bp_common::pool::{Pool, RetryPolicy, TaskError};
use bp_faults::points::{PointDisposition, PointFaultPlan};
use bp_trace::{ReadMode, TraceSession, TraceStore};
use bp_workloads::profile::SpecBenchmark;

use crate::cache::ModelCache;
use crate::supervise::{PointFailure, Supervisor, SweepReport};
use crate::telemetry::TelemetryHub;
use crate::{experiments, Csv, ExpResult, Scale};

/// Option summary printed with every usage error.
pub const USAGE: &str = "options: [--only NAME,...] [--scale quick|default|full] [--threads N] \
     [--resume] [--deadline-secs N] [--telemetry DIR] [--trace-dir DIR] \
     [--trace-mode strict|lenient] [--benches a,b,...]";

/// Parsed command-line options, before any pool is constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOptions {
    /// Experiments selected by `--only`, in registry order; `None` runs
    /// the whole suite.
    pub only: Option<Vec<&'static str>>,
    /// Run-length preset.
    pub scale: Scale,
    /// Worker count (≥ 1, already resolved against the environment).
    pub threads: usize,
    /// Whether `--resume` was given.
    pub resume: bool,
    /// Per-experiment watchdog (`--deadline-secs`), if any.
    pub deadline: Option<Duration>,
    /// Telemetry JSONL export directory (`--telemetry DIR`), if any.
    pub telemetry: Option<PathBuf>,
    /// Trace replay directory (`--trace-dir DIR`), if any.
    pub trace_dir: Option<PathBuf>,
    /// Trace decode mode (`--trace-mode`; default strict).
    pub trace_mode: ReadMode,
    /// Benchmark subset (`--benches`), if any.
    pub benches: Option<Vec<SpecBenchmark>>,
}

/// Parses a comma-separated list, each name strictly against `choices`
/// ([`bp_common::parse::one_of`]), in the order given.
fn parse_list<T: Copy>(
    flag: &str,
    what: &str,
    v: &str,
    choices: &[(&str, T)],
) -> Result<Vec<T>, String> {
    let out = v
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| bp_common::parse::one_of(what, p, choices))
        .collect::<Result<Vec<T>, String>>()?;
    if out.is_empty() {
        let names: Vec<&str> = choices.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "{flag} needs at least one name; valid names are {}",
            names.join(", ")
        ));
    }
    Ok(out)
}

/// Parses a `--benches` value: comma-separated benchmark names.
///
/// # Errors
///
/// Rejects an empty list or any unknown name, listing what is valid.
pub fn parse_benches(v: &str) -> Result<Vec<SpecBenchmark>, String> {
    let choices = SpecBenchmark::ALL.map(|b| (b.name(), b));
    parse_list("--benches", "benchmark", v, &choices)
}

/// Parses an `--only` value: comma-separated experiment names, returned in
/// registry order ([`experiments::all`]) whatever order they were given in.
///
/// # Errors
///
/// Rejects an empty list or any unknown name, listing every experiment.
pub fn parse_only(v: &str) -> Result<Vec<&'static str>, String> {
    let choices: Vec<(&str, &'static str)> = experiments::all()
        .iter()
        .map(|e| (e.name, e.name))
        .collect();
    let picked = parse_list("--only", "experiment", v, &choices)?;
    Ok(choices
        .into_iter()
        .map(|(_, name)| name)
        .filter(|name| picked.contains(name))
        .collect())
}

/// Parses a `--threads`/`HYBP_THREADS` value.
///
/// # Errors
///
/// Rejects anything that is not a positive integer, with a message
/// naming the offending value.
pub fn parse_threads(v: &str) -> Result<usize, String> {
    bp_common::parse::positive("thread count", v).map(|n| n as usize)
}

/// Resolves the worker count when `--threads` is absent: a set
/// `HYBP_THREADS` must parse (same strictness as the flag), otherwise the
/// machine's available parallelism is used.
#[expect(
    clippy::disallowed_methods,
    reason = "HYBP_THREADS is an operator parallelism knob; it changes scheduling only, never the simulated results"
)]
fn threads_from_env() -> Result<usize, String> {
    match std::env::var("HYBP_THREADS") {
        Ok(v) => parse_threads(&v).map_err(|e| format!("HYBP_THREADS: {e}")),
        Err(_) => Ok(Pool::machine_sized().threads()),
    }
}

/// Parses `bench_all`'s options from `args` (argv without the program
/// name).
///
/// # Errors
///
/// Returns a usage message on any unknown option, missing value, unknown
/// experiment or scale, or non-positive thread count or deadline.
pub fn parse(args: &[String]) -> Result<CliOptions, String> {
    let mut only: Option<Vec<&'static str>> = None;
    let mut scale = Scale::Default;
    let mut threads: Option<usize> = None;
    let mut resume = false;
    let mut deadline: Option<Duration> = None;
    let mut telemetry: Option<PathBuf> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut trace_mode: Option<ReadMode> = None;
    let mut benches: Option<Vec<SpecBenchmark>> = None;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value; {USAGE}"))
        };
        match flag.as_str() {
            "--only" => only = Some(parse_only(value()?)?),
            "--scale" => scale = Scale::parse(value()?)?,
            "--threads" => threads = Some(parse_threads(value()?)?),
            "--resume" => resume = true,
            "--deadline-secs" => {
                let secs = bp_common::parse::positive("deadline", value()?)?;
                deadline = Some(Duration::from_secs(secs));
            }
            "--telemetry" => telemetry = Some(PathBuf::from(value()?)),
            "--trace-dir" => trace_dir = Some(PathBuf::from(value()?)),
            "--trace-mode" => trace_mode = Some(ReadMode::parse(value()?)?),
            "--benches" => benches = Some(parse_benches(value()?)?),
            other => return Err(format!("unknown option '{other}'; {USAGE}")),
        }
    }
    let threads = match threads {
        Some(t) => t,
        None => threads_from_env()?,
    };
    if trace_mode.is_some() && trace_dir.is_none() {
        return Err(format!(
            "--trace-mode only applies to trace replay; add --trace-dir DIR. {USAGE}"
        ));
    }
    Ok(CliOptions {
        only,
        scale,
        threads,
        resume,
        deadline,
        telemetry,
        trace_dir,
        trace_mode: trace_mode.unwrap_or_default(),
        benches,
    })
}

/// Seed of the standard deterministic retry backoff schedule. Backoff
/// affects only *when* a retry runs, never what it computes, but a fixed
/// seed keeps reruns bit-identical end to end.
pub const RETRY_SEED: u64 = 0x4879_4250; // "HyBP"

/// Everything an experiment body needs: the scale preset, the worker
/// pool, the point memo, and the sweep supervisor. One `Ctx` serves
/// a whole `bench_all` suite run, so every experiment shares the memo
/// while the supervisor is drained per experiment.
#[derive(Debug)]
pub struct Ctx {
    /// Run-length preset.
    pub scale: Scale,
    /// Worker pool for the sweep grids.
    pub pool: Pool,
    /// In-process memo of simulated points, shared by every experiment
    /// run through this context (off under telemetry capture).
    pub cache: ModelCache,
    /// Retry policy applied to every supervised sweep.
    pub retry: RetryPolicy,
    /// Harness point-fault plan (normally empty; populated from
    /// `HYBP_FAULT_POINTS` for resilience testing).
    pub fault_points: PointFaultPlan,
    /// Accumulates sweep outcomes for the run report.
    pub supervisor: Supervisor,
    /// Directory CSVs are written into (default `results/`).
    pub results_dir: PathBuf,
    /// Telemetry collection hub (disabled unless `--telemetry` was given
    /// or [`Ctx::with_telemetry_dir`] was called).
    pub telemetry: TelemetryHub,
    /// Directory telemetry JSONL files are flushed into, when enabled.
    pub telemetry_dir: Option<PathBuf>,
    /// Trace store replacing the synthetic generators, when replaying
    /// (`--trace-dir`).
    pub trace: Option<Arc<TraceStore>>,
    /// Benchmark subset restriction (`--benches`), honored by experiments
    /// that sweep benchmarks (currently fig5).
    pub bench_subset: Option<Vec<SpecBenchmark>>,
}

impl Ctx {
    /// A context from explicit parts, with an empty memo, the standard
    /// retry policy, no injected point faults, and CSVs under `results/`.
    pub fn custom(scale: Scale, pool: Pool) -> Ctx {
        Ctx {
            scale,
            pool,
            cache: ModelCache::new(true),
            retry: RetryPolicy::standard(RETRY_SEED),
            fault_points: PointFaultPlan::empty(),
            supervisor: Supervisor::new(),
            results_dir: PathBuf::from("results"),
            telemetry: TelemetryHub::new(false),
            telemetry_dir: None,
            trace: None,
            bench_subset: None,
        }
    }

    /// Attaches a trace store: every simulation point replays captured
    /// streams instead of generating. Attach it before running anything,
    /// so every memo entry comes from the replay.
    pub fn with_trace_store(mut self, store: Arc<TraceStore>) -> Ctx {
        self.trace = Some(store);
        self
    }

    /// Restricts benchmark sweeps to `benches`.
    pub fn with_bench_subset(mut self, benches: Vec<SpecBenchmark>) -> Ctx {
        self.bench_subset = Some(benches);
        self
    }

    /// Replaces the CSV output directory (tests point this at a temp dir
    /// so they never clobber the tracked `results/` files).
    pub fn with_results_dir(mut self, dir: impl Into<PathBuf>) -> Ctx {
        self.results_dir = dir.into();
        self
    }

    /// Replaces the point-fault plan.
    pub fn with_fault_points(mut self, plan: PointFaultPlan) -> Ctx {
        self.fault_points = plan;
        self
    }

    /// Enables telemetry capture, flushing one JSONL file per experiment
    /// into `dir`, and turns the memo off: a memoised point runs no
    /// simulation, so a point shared by two experiments would put its
    /// events in whichever one computed it first (or in both, under a
    /// race).
    pub fn with_telemetry_dir(mut self, dir: impl Into<PathBuf>) -> Ctx {
        self.cache = ModelCache::new(false);
        self.telemetry = TelemetryHub::new(true);
        self.telemetry_dir = Some(dir.into());
        self
    }

    /// A context from explicit options.
    ///
    /// # Errors
    ///
    /// A malformed `HYBP_FAULT_POINTS` value (a typo must never silently
    /// inject nothing) or a `--trace-dir` that cannot be opened as a trace
    /// session; `bench_all` reports either as a usage error (exit code 2).
    pub fn from_options(opts: CliOptions) -> Result<Ctx, String> {
        let fault_points = PointFaultPlan::from_env()?;
        let mut ctx =
            Ctx::custom(opts.scale, Pool::new(opts.threads)).with_fault_points(fault_points);
        if let Some(dir) = opts.telemetry {
            ctx = ctx.with_telemetry_dir(dir);
        }
        if let Some(dir) = opts.trace_dir {
            // Harness-level I/O faults (`HYBP_FAULT_POINTS` byte-fault
            // entries) are injected at trace ingest — the adversarial
            // decode path exercised end to end.
            let session = TraceSession::open(dir)
                .mode(opts.trace_mode)
                .ingest_faults(ctx.fault_points.io_plan())
                .build()
                .map_err(|e| e.to_string())?;
            ctx = ctx.with_trace_store(Arc::clone(session.store()));
        }
        if let Some(benches) = opts.benches {
            ctx = ctx.with_bench_subset(benches);
        }
        Ok(ctx)
    }

    /// Runs one supervised sweep: `f` over `items` in input order,
    /// fail-soft, with the context's retry policy and point-fault plan.
    ///
    /// Returns one slot per item — `Some(value)` for completed points,
    /// `None` for points lost to a panic or exhausted retries — and
    /// records a [`SweepReport`] with the supervisor. Aggregations must
    /// iterate completed slots only, so a degraded sweep yields a partial
    /// (but never wrong) CSV; with no losses the output is identical to a
    /// plain `par_map`.
    pub fn sweep<T, R, F>(&self, label: &str, items: &[T], f: F) -> Vec<Option<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let attempts_seen: Vec<AtomicU32> = items.iter().map(|_| AtomicU32::new(0)).collect();
        let results = self.pool.try_par_map(items, &self.retry, |i, item, attempt| {
            attempts_seen[i].fetch_max(attempt, Ordering::Relaxed);
            match self.fault_points.disposition(label, i, attempt) {
                PointDisposition::Proceed => Ok(f(item)),
                #[expect(
                    clippy::panic,
                    reason = "deliberate injected point fault used to exercise the supervised-sweep recovery path"
                )]
                PointDisposition::Panic => {
                    panic!("injected point fault: panic at {label}[{i}] attempt {attempt}")
                }
                PointDisposition::FatalError => Err(TaskError::fatal(format!(
                    "injected point fault: fatal error at {label}[{i}]"
                ))),
                PointDisposition::TransientError => Err(TaskError::transient(format!(
                    "injected point fault: transient error at {label}[{i}] attempt {attempt}"
                ))),
            }
        });
        let mut completed = 0;
        let mut recovered = 0;
        let mut retried_attempts = 0u32;
        let mut failures = Vec::new();
        let mut out = Vec::with_capacity(items.len());
        for (i, r) in results.into_iter().enumerate() {
            let attempts = attempts_seen[i].load(Ordering::Relaxed);
            retried_attempts += attempts.saturating_sub(1);
            match r {
                Ok(v) => {
                    completed += 1;
                    if attempts > 1 {
                        recovered += 1;
                    }
                    out.push(Some(v));
                }
                Err(fail) => {
                    failures.push(PointFailure::from_task(&fail));
                    out.push(None);
                }
            }
        }
        self.supervisor.record(SweepReport {
            label: label.to_string(),
            total: items.len(),
            completed,
            retried_attempts,
            recovered,
            failures,
        });
        out
    }

    /// A CSV accumulator rooted at the context's results directory.
    pub fn csv(&self, name: &str, header: &str) -> Csv {
        Csv::at_dir(&self.results_dir, name, header)
    }

    /// Finishes an experiment: writes `csv`, marking it partial when any
    /// undrained sweep lost points, and turns those losses into a visible
    /// failure. When telemetry is enabled, also flushes the hub into
    /// `<telemetry_dir>/<csv-stem>.jsonl` — preceded by a
    /// `("bench", "points")` mark carrying the sweep-point total, so even
    /// an experiment whose runs emitted no spans produces a non-empty,
    /// schema-valid file.
    ///
    /// A degraded experiment still writes everything it computed — the
    /// returned error reports the loss (and names the lost points), it
    /// does not discard work.
    ///
    /// # Errors
    ///
    /// I/O failure writing the CSV or the telemetry JSONL, or a
    /// degradation report when sweep points were lost.
    pub fn finish_experiment(&self, mut csv: Csv) -> ExpResult {
        self.report_trace_degradation();
        let (lost, total) = self.supervisor.pending_losses();
        if lost > 0 {
            csv.mark_partial(total - lost, total);
        }
        let stem = csv.stem();
        let path = csv.finish()?;
        if let Some(dir) = &self.telemetry_dir {
            self.telemetry.mark("bench", "points", total as u64);
            let summary = self.telemetry.flush_jsonl(dir, &stem)?;
            println!(
                "wrote {} ({} events)",
                summary.path.display(),
                summary.events
            );
        }
        if lost > 0 {
            let named: Vec<String> = self
                .supervisor
                .pending_failures()
                .iter()
                .map(|(label, f)| format!("{label}[{}]", f.index))
                .collect();
            return Err(format!(
                "degraded: lost {lost}/{total} sweep points ({}); partial CSV at {path}",
                named.join(", ")
            )
            .into());
        }
        println!("wrote {path}");
        Ok(())
    }

    /// Converts trace-store degradation (lenient-mode losses, stream
    /// wrap-arounds) into a synthetic `trace:ingest` sweep report, so the
    /// standard partial-tolerant path handles it: the CSV gains its
    /// `# partial` header and [`Ctx::finish_experiment`] returns the
    /// degradation error. Points that *computed* are still written — a
    /// degraded replay is reported, never discarded.
    fn report_trace_degradation(&self) {
        let Some(store) = &self.trace else { return };
        if !store.is_degraded() {
            return;
        }
        let damaged = store.damaged_files();
        let wraps = store.wraps();
        let mut failures: Vec<PointFailure> = damaged
            .iter()
            .enumerate()
            .map(|(i, (name, health))| PointFailure {
                index: i,
                attempts: 1,
                panicked: false,
                message: format!("{name}: {health}"),
            })
            .collect();
        if wraps > 0 {
            failures.push(PointFailure {
                index: damaged.len(),
                attempts: 1,
                panicked: false,
                message: format!(
                    "{wraps} stream wrap-around(s): the capture is shorter than the run it replayed"
                ),
            });
        }
        for f in &failures {
            eprintln!("trace degradation: {}", f.message);
        }
        let total = store.files_loaded() as usize + usize::from(wraps > 0);
        self.supervisor.record(SweepReport {
            label: "trace:ingest".to_string(),
            total,
            completed: total - failures.len(),
            retried_attempts: 0,
            recovered: 0,
            failures,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let o = parse(&s(&["--scale", "quick", "--threads", "3", "--resume"])).unwrap();
        assert_eq!(o.scale, Scale::Quick);
        assert_eq!(o.threads, 3);
        assert!(o.resume);
    }

    #[test]
    fn rejects_scale_typo_with_options_listed() {
        let e = parse(&s(&["--scale", "ful"])).unwrap_err();
        assert!(e.contains("ful"), "{e}");
        assert!(e.contains("quick, default, full"), "{e}");
    }

    #[test]
    fn rejects_bad_thread_counts() {
        for bad in ["0", "-2", "two", "1.5", ""] {
            assert!(parse_threads(bad).is_err(), "{bad:?} accepted");
        }
        assert_eq!(parse_threads("8"), Ok(8));
    }

    #[test]
    fn rejects_unknown_options_and_missing_values() {
        assert!(parse(&s(&["--scael", "quick"])).is_err());
        let e = parse(&s(&["--no-cache"])).unwrap_err();
        assert!(e.contains("unknown option '--no-cache'"), "{e}");
        assert!(e.contains(USAGE), "{e}");
        assert!(parse(&s(&["--scale"])).is_err());
        assert!(parse(&s(&["--threads"])).is_err());
        assert!(parse(&s(&["--telemetry"])).is_err());
        assert!(parse(&s(&["--only"])).is_err());
        assert!(parse(&s(&["--deadline-secs"])).is_err());
    }

    #[test]
    fn only_keeps_registry_order() {
        let o = parse(&s(&["--only", "fig5_hybp_per_app,table1_comparison"])).unwrap();
        assert_eq!(
            o.only,
            Some(vec!["table1_comparison", "fig5_hybp_per_app"]),
            "selection must run in registry order, not argv order"
        );
        assert_eq!(parse(&[]).unwrap().only, None);
    }

    #[test]
    fn only_rejects_unknown_and_empty_names_listing_every_experiment() {
        for bad in ["nope", "fig5_hybp_per_app,nope", "", ","] {
            let e = parse(&s(&["--only", bad])).unwrap_err();
            for exp in experiments::all() {
                assert!(e.contains(exp.name), "{bad:?}: {e}");
            }
        }
        assert!(parse(&s(&["--only", "nope"]))
            .unwrap_err()
            .contains("'nope'"));
    }

    #[test]
    fn deadline_must_be_a_positive_integer() {
        for bad in ["0", "x", "-1", "1.5"] {
            let e = parse(&s(&["--deadline-secs", bad])).unwrap_err();
            assert!(e.contains(&format!("'{bad}'")), "{e}");
        }
        let o = parse(&s(&["--deadline-secs", "1200"])).unwrap();
        assert_eq!(o.deadline, Some(Duration::from_secs(1200)));
        assert_eq!(parse(&[]).unwrap().deadline, None);
    }

    #[test]
    fn resume_is_parsed() {
        assert!(parse(&s(&["--resume", "--scale", "quick"])).unwrap().resume);
        assert!(!parse(&[]).unwrap().resume);
    }

    #[test]
    fn telemetry_flag_parses_and_forces_cache_off() {
        let o = parse(&s(&["--telemetry", "out/telemetry", "--threads", "1"])).unwrap();
        assert_eq!(
            o.telemetry.as_deref(),
            Some(std::path::Path::new("out/telemetry"))
        );
        let ctx = Ctx::from_options(o).unwrap();
        assert!(ctx.telemetry.is_enabled());
        assert_eq!(
            ctx.telemetry_dir.as_deref(),
            Some(std::path::Path::new("out/telemetry"))
        );
        assert!(
            !ctx.cache.is_enabled(),
            "telemetry capture must turn the memo off"
        );
    }

    #[test]
    fn trace_dir_naming_a_regular_file_is_an_error_not_an_exit() {
        let file = std::env::temp_dir().join(format!("hybp-cli-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, "not a trace directory").unwrap();
        let path = file.display().to_string();
        let o = parse(&s(&["--trace-dir", &path, "--threads", "1"])).unwrap();
        let e = Ctx::from_options(o).unwrap_err();
        std::fs::remove_file(&file).unwrap();
        assert!(e.contains("not a directory"), "{e}");
    }

    #[test]
    fn trace_replay_keeps_the_memo_on() {
        // A missing trace directory opens fine (replay fails per point).
        let dir = std::env::temp_dir().join(format!("hybp-cli-no-traces-{}", std::process::id()));
        let path = dir.display().to_string();
        let o = parse(&s(&["--trace-dir", &path, "--threads", "1"])).unwrap();
        let ctx = Ctx::from_options(o).unwrap();
        assert!(ctx.trace.is_some());
        assert!(ctx.cache.is_enabled());
    }

    #[test]
    fn defaults_are_sane() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scale, Scale::Default);
        assert!(o.threads >= 1);
        assert!(Ctx::custom(o.scale, Pool::new(1)).cache.is_enabled());
    }
}
