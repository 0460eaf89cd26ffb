//! `bench_all`: the one entry point of every experiment — each table,
//! figure and security campaign in [`bench::experiments::all`]. By default
//! it runs the entire suite; `--only <name>[,<name>...]` selects
//! experiments by registry name (unknown names are a usage error listing
//! the valid ones). Everything selected runs in one process with a shared
//! worker pool and a shared in-process memo of simulated points (so a
//! point several experiments need is simulated once), then the driver
//! prints a per-experiment wall-clock table. The run journal,
//! `results/run_report.json`, is the suite's one report: per-experiment
//! status, seconds and memo hits/misses, and the suite's `total_seconds`
//! and memo totals (`hits`, `misses`, and `points`, the distinct runs
//! held: `misses − points` is how many runs racing workers simulated
//! twice).
//!
//! Experiments run one after another, in registry order whatever order
//! `--only` names them in (each is internally parallel across its sweep
//! grid, which is where the work is), so stdout stays readable and CSVs
//! are byte-identical for any selection and at any `--threads` value. The
//! suite is crash-safe and self-describing:
//!
//! * every experiment runs under `catch_unwind` and (optionally) a
//!   `--deadline-secs` watchdog, so one wedged or panicking experiment
//!   costs that experiment, never the suite;
//! * after *each* experiment the driver journals
//!   `results/run_report.json` (atomically, via tmp + rename) with the
//!   per-experiment status, every lost sweep point, retry counts, and
//!   memo hit/miss deltas, plus the wall-clock seconds since the suite
//!   started — a crash mid-suite leaves a valid report covering
//!   everything finished so far;
//! * `--resume` skips experiments the previous report (same scale)
//!   recorded as clean and whose CSV is still present and not partial,
//!   so an interrupted suite run finishes by re-running only what it
//!   must.
//!
//! The process exits non-zero if anything failed, panicked, timed out,
//! degraded (lost sweep points), or did not write its expected CSV.
//!
//! With `--telemetry DIR` every experiment additionally exports a sorted,
//! schema-valid telemetry JSONL file into `DIR` (validated line-by-line
//! after each experiment), and the journal carries per-experiment
//! telemetry summaries. The memo stays on: each entry keeps its point's
//! events and every lookup replays them, so each experiment's file holds
//! its own points' events, deterministically at any `--threads`.
//!
//! Usage: `bench_all [--only NAME,...] [OPTIONS]`; [`bench::cli`] documents
//! every option.

#![expect(
    clippy::disallowed_types,
    reason = "wall-clock seconds go only to run_report.json and the console timing table; no CSV reads them"
)]

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{cli, experiments, Ctx, SweepReport};
use bp_common::telemetry::parse_jsonl_line;

/// Journal location, relative to the working directory.
const REPORT_PATH: &str = "results/run_report.json";

/// Terminal status of one experiment in the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Ran clean and wrote its CSV.
    Ok,
    /// Ran to completion but lost sweep points; its CSV is partial.
    Degraded,
    /// Returned an error (or did not write its expected CSV).
    Failed,
    /// Panicked outside any supervised sweep.
    Panicked,
    /// Exceeded `--deadline-secs`; its worker thread was abandoned.
    Deadline,
    /// Skipped by `--resume` (clean in the previous report, CSV intact).
    Skipped,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Degraded => "degraded",
            Status::Failed => "failed",
            Status::Panicked => "panicked",
            Status::Deadline => "deadline",
            Status::Skipped => "skipped",
        }
    }

    /// Whether this status makes the suite exit non-zero.
    fn is_failure(self) -> bool {
        !matches!(self, Status::Ok | Status::Skipped)
    }
}

/// Per-experiment telemetry export summary (present only with
/// `--telemetry` and at least one flushed file).
struct TelemetrySummary {
    /// JSONL file path, as written.
    file: String,
    /// Events written across this experiment's flushes.
    events: usize,
    /// Events lost to ring overflow (0 in any healthy run).
    dropped: u64,
}

/// Outcome of one experiment, journal-ready.
struct Outcome {
    name: &'static str,
    seconds: f64,
    status: Status,
    /// Human-readable cause for non-ok statuses.
    reason: Option<String>,
    /// Sweep reports drained from the supervisor for this experiment.
    sweeps: Vec<SweepReport>,
    /// Memo lookups served and computed during this experiment.
    cache_hits: u64,
    cache_misses: u64,
    /// Telemetry export, when capture was enabled and the experiment
    /// flushed a file.
    telemetry: Option<TelemetrySummary>,
}

impl Outcome {
    fn retried_attempts(&self) -> u32 {
        self.sweeps.iter().map(|s| s.retried_attempts).sum()
    }

    fn recovered(&self) -> usize {
        self.sweeps.iter().map(|s| s.recovered).sum()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let exps: Vec<_> = experiments::all()
        .into_iter()
        .filter(|e| opts.only.as_ref().is_none_or(|only| only.contains(&e.name)))
        .collect();
    let (resume, deadline) = (opts.resume, opts.deadline);
    let ctx = match Ctx::from_options(opts) {
        Ok(ctx) => Arc::new(ctx),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let prior_report = if resume {
        std::fs::read_to_string(REPORT_PATH).ok()
    } else {
        None
    };
    println!(
        "bench_all: {} experiment(s), scale {}, {} worker thread(s){}{}",
        exps.len(),
        ctx.scale.name(),
        ctx.pool.threads(),
        match deadline {
            Some(d) => format!(", deadline {}s/experiment", d.as_secs()),
            None => String::new(),
        },
        if resume {
            if prior_report.is_some() {
                ", resuming from results/run_report.json"
            } else {
                ", --resume with no previous report (running everything)"
            }
        } else {
            ""
        }
    );
    if !ctx.fault_points.is_empty() {
        println!(
            "fault injection: {} harness point fault(s) armed via HYBP_FAULT_POINTS",
            ctx.fault_points.entries().len()
        );
    }
    if let Some(dir) = &ctx.telemetry_dir {
        println!(
            "telemetry: exporting JSONL to {} (a memo hit replays its point's events)",
            dir.display()
        );
    }

    let suite_start = Instant::now();
    let mut outcomes: Vec<Outcome> = Vec::new();
    for exp in &exps {
        println!();
        println!("=== {} ===", exp.name);
        if let Some(report) = &prior_report {
            if can_skip(report, exp.name, ctx.scale.name(), exp.csv, &ctx) {
                println!("(clean in previous run, CSV intact — skipped; rerun without --resume)");
                outcomes.push(Outcome {
                    name: exp.name,
                    seconds: 0.0,
                    status: Status::Skipped,
                    reason: None,
                    sweeps: Vec::new(),
                    cache_hits: 0,
                    cache_misses: 0,
                    telemetry: None,
                });
                journal(&ctx, &outcomes, exps.len(), suite_start.elapsed());
                continue;
            }
        }
        // Discard any sweep reports recorded by a worker thread abandoned
        // at a previous experiment's deadline — they belong to nobody.
        let _ = ctx.supervisor.drain();
        let cache_before = ctx.cache.stats();
        let start = Instant::now();
        let result = run_guarded(&ctx, exp.run, deadline);
        let seconds = start.elapsed().as_secs_f64();
        let sweeps = ctx.supervisor.drain();
        let lost: usize = sweeps.iter().map(SweepReport::lost).sum();
        let (status, reason) = match result {
            Guarded::Done(Ok(())) => match exp.csv {
                Some(csv) if !ctx.results_dir.join(csv).is_file() => {
                    (Status::Failed, Some(format!("did not write results/{csv}")))
                }
                _ => (Status::Ok, None),
            },
            Guarded::Done(Err(e)) if lost > 0 => (Status::Degraded, Some(e.to_string())),
            Guarded::Done(Err(e)) => (Status::Failed, Some(e.to_string())),
            Guarded::Panicked => (
                Status::Panicked,
                Some("panicked outside any supervised sweep".to_string()),
            ),
            Guarded::TimedOut => (
                Status::Deadline,
                Some(format!(
                    "exceeded the {}s deadline; worker thread abandoned",
                    deadline.map(|d| d.as_secs()).unwrap_or(0)
                )),
            ),
        };
        // Collect (and validate) what this experiment exported; drop any
        // unflushed events so they can never leak into the next
        // experiment's file.
        let flushes = ctx.telemetry.drain_flushes();
        let _ = ctx.telemetry.discard_pending();
        let mut telemetry = None;
        let (mut status, mut reason) = (status, reason);
        if ctx.telemetry.is_enabled() && !flushes.is_empty() {
            let mut events = 0usize;
            let mut dropped = 0u64;
            let mut schema_errors = Vec::new();
            for f in &flushes {
                events += f.events;
                dropped += f.dropped;
                if let Err(e) = validate_jsonl(&f.path) {
                    schema_errors.push(format!("{}: {e}", f.path.display()));
                }
            }
            telemetry = Some(TelemetrySummary {
                file: flushes[0].path.display().to_string(),
                events,
                dropped,
            });
            if !schema_errors.is_empty() && !status.is_failure() {
                status = Status::Failed;
                reason = Some(format!(
                    "telemetry export invalid: {}",
                    schema_errors.join("; ")
                ));
            }
        }
        if let Some(r) = &reason {
            eprintln!("{}: {} — {}", exp.name, status.as_str(), r);
        }
        let cache_after = ctx.cache.stats();
        outcomes.push(Outcome {
            name: exp.name,
            seconds,
            status,
            reason,
            sweeps,
            cache_hits: cache_after.hits - cache_before.hits,
            cache_misses: cache_after.misses - cache_before.misses,
            telemetry,
        });
        journal(&ctx, &outcomes, exps.len(), suite_start.elapsed());
    }
    let total_seconds = suite_start.elapsed().as_secs_f64();
    let cache = ctx.cache.stats();

    println!();
    println!("=== suite summary ===");
    println!("{:<32} {:>9}  status", "experiment", "seconds");
    for o in &outcomes {
        println!(
            "{:<32} {:>9.2}  {}{}",
            o.name,
            o.seconds,
            o.status.as_str(),
            match &o.reason {
                Some(r) => format!(": {r}"),
                None => String::new(),
            }
        );
    }
    println!(
        "{:<32} {:>9.2}  ({} threads, cache {} hits / {} misses / {} points, {:.0}% hit rate)",
        "total",
        total_seconds,
        ctx.pool.threads(),
        cache.hits,
        cache.misses,
        cache.points,
        cache.hit_rate() * 100.0
    );

    println!("journal at {REPORT_PATH}");

    let failures = outcomes.iter().filter(|o| o.status.is_failure()).count();
    if failures > 0 {
        eprintln!("{failures} experiment(s) did not run clean (see {REPORT_PATH})");
        std::process::exit(1);
    }
}

/// What the guarded runner observed.
enum Guarded {
    Done(bench::ExpResult),
    Panicked,
    TimedOut,
}

/// Runs one experiment under `catch_unwind`, optionally racing a
/// deadline. With a deadline the experiment runs on its own thread; on
/// timeout that thread is *abandoned* (it keeps the suite process alive
/// no longer than the remaining experiments, and any sweep reports it
/// records late are discarded before the next experiment starts).
fn run_guarded(
    ctx: &Arc<Ctx>,
    run: fn(&Ctx) -> bench::ExpResult,
    deadline: Option<Duration>,
) -> Guarded {
    let Some(deadline) = deadline else {
        return match catch_unwind(AssertUnwindSafe(|| run(ctx))) {
            Ok(r) => Guarded::Done(r),
            Err(_) => Guarded::Panicked,
        };
    };
    let (tx, rx) = mpsc::channel();
    let ctx2 = Arc::clone(ctx);
    std::thread::spawn(move || {
        let outcome = match catch_unwind(AssertUnwindSafe(|| run(&ctx2))) {
            Ok(r) => Guarded::Done(r),
            Err(_) => Guarded::Panicked,
        };
        let _ = tx.send(outcome);
    });
    match rx.recv_timeout(deadline) {
        Ok(outcome) => outcome,
        Err(_) => Guarded::TimedOut,
    }
}

/// Whether `--resume` may skip this experiment: the previous report must
/// be for the same scale and record the experiment as clean (ok, or
/// already skipped by an earlier resume), and the expected CSV must still
/// exist and not carry a `# partial:` header.
///
/// The report is our own hand-rolled JSON with one experiment per line,
/// so a line-based scan is exact, not heuristic.
fn can_skip(report: &str, name: &str, scale: &str, csv: Option<&str>, ctx: &Ctx) -> bool {
    if !report.contains(&format!("\"scale\": \"{scale}\"")) {
        return false;
    }
    let name_tag = format!("\"name\": \"{name}\"");
    let clean = report.lines().any(|line| {
        line.contains(&name_tag)
            && (line.contains("\"status\": \"ok\"") || line.contains("\"status\": \"skipped\""))
    });
    if !clean {
        return false;
    }
    match csv {
        None => true,
        Some(csv) => {
            let path = ctx.results_dir.join(csv);
            match std::fs::read_to_string(&path) {
                Ok(text) => !text.lines().next().unwrap_or("#").starts_with('#'),
                Err(_) => false,
            }
        }
    }
}

/// Validates one exported telemetry JSONL file line-by-line against the
/// event schema. An empty export is invalid: every finished experiment
/// emits at least its `("bench", "points")` mark.
fn validate_jsonl(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        parse_jsonl_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        lines += 1;
    }
    if lines == 0 {
        return Err("empty export".to_string());
    }
    Ok(())
}

/// Minimal JSON string escaping for reason/message fields.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Writes the journal after each experiment: tmp + rename, so a crash
/// mid-write can never leave a truncated `run_report.json`. `elapsed` is
/// the suite wall-clock so far; after the last experiment it is the
/// suite's total.
fn journal(ctx: &Ctx, outcomes: &[Outcome], total_experiments: usize, elapsed: Duration) {
    let body = render_report(ctx, outcomes, total_experiments, elapsed);
    if let Err(e) = write_atomic(REPORT_PATH, &body) {
        eprintln!("failed to journal {REPORT_PATH}: {e}");
    }
}

fn write_atomic(path: &str, body: &str) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let tmp = format!("{path}.tmp{}", std::process::id());
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Renders the run report. One experiment per line — [`can_skip`]'s
/// resume scan depends on that shape.
fn render_report(
    ctx: &Ctx,
    outcomes: &[Outcome],
    total_experiments: usize,
    elapsed: Duration,
) -> String {
    let cache = ctx.cache.stats();
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": 1,");
    let _ = writeln!(s, "  \"scale\": \"{}\",", ctx.scale.name());
    let _ = writeln!(s, "  \"threads\": {},", ctx.pool.threads());
    if let Some(dir) = &ctx.telemetry_dir {
        let _ = writeln!(
            s,
            "  \"telemetry_dir\": \"{}\",",
            escape(&dir.display().to_string())
        );
    }
    let _ = writeln!(s, "  \"total_experiments\": {total_experiments},");
    let _ = writeln!(s, "  \"completed_experiments\": {},", outcomes.len());
    let _ = writeln!(s, "  \"total_seconds\": {:.3},", elapsed.as_secs_f64());
    let _ = writeln!(
        s,
        "  \"cache\": {{ \"hits\": {}, \"misses\": {}, \"points\": {} }},",
        cache.hits, cache.misses, cache.points
    );
    let _ = writeln!(s, "  \"experiments\": [");
    for (i, o) in outcomes.iter().enumerate() {
        let comma = if i + 1 < outcomes.len() { "," } else { "" };
        let mut line = format!(
            "    {{ \"name\": \"{}\", \"seconds\": {:.3}, \"status\": \"{}\"",
            o.name,
            o.seconds,
            o.status.as_str()
        );
        if let Some(r) = &o.reason {
            let _ = write!(line, ", \"reason\": \"{}\"", escape(r));
        }
        let _ = write!(
            line,
            ", \"retried_attempts\": {}, \"recovered\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}",
            o.retried_attempts(),
            o.recovered(),
            o.cache_hits,
            o.cache_misses
        );
        // Memo and telemetry fields stay inline on the experiment's line: the
        // resume scan and CI's grep contracts are line-based.
        if let Some(t) = &o.telemetry {
            let _ = write!(
                line,
                ", \"telemetry_file\": \"{}\", \"telemetry_events\": {}, \
                 \"telemetry_dropped\": {}",
                escape(&t.file),
                t.events,
                t.dropped
            );
        }
        let failed: Vec<String> = o
            .sweeps
            .iter()
            .flat_map(|sweep| {
                sweep.failures.iter().map(|f| {
                    format!(
                        "{{ \"sweep\": \"{}\", \"index\": {}, \"attempts\": {}, \
                         \"panicked\": {}, \"message\": \"{}\" }}",
                        escape(&sweep.label),
                        f.index,
                        f.attempts,
                        f.panicked,
                        escape(&f.message)
                    )
                })
            })
            .collect();
        let _ = write!(
            line,
            ", \"failed_points\": [{}] }}{comma}",
            failed.join(", ")
        );
        let _ = writeln!(s, "{line}");
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}
