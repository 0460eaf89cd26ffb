//! `bench_serve` — the prediction-service soak driver.
//!
//! Runs the deterministic closed-loop soak from `bench::serve` and
//! maintains the root-level `BENCH_serve.json` resilience trajectory:
//!
//! * default: re-measure and rewrite the live `soak` block, *preserving*
//!   the pinned `baseline` block from the existing file (if any);
//! * `--rebaseline`: additionally pin the fresh run as the new baseline;
//! * `--check`: measure, compare against the committed file, and exit 1
//!   unless every deterministic counter matches **exactly** and
//!   predictions/sec retained at least 50% — this is what CI's
//!   `serve-resilience` job runs on the clean pass (no file writes). The
//!   throughput floor is loose because an end-to-end multi-threaded
//!   service soak wobbles on shared runners; the counters carry the exact
//!   regression authority.
//!
//! When `HYBP_FAULT_POINTS` carries service faults (`shard-panic`,
//! `refresh-stall`, `queue-overload`), the run switches to resilience
//! mode: the pinned file is never read or written, shard snapshots go to
//! `results/serve_snapshots/` so restarts exercise the disk-restore path,
//! and the journal (default `results/serve_journal.txt`) names every shed
//! and lost request. The process then exits non-zero iff the injected
//! faults disrupted service — which is exactly what CI's fault pass
//! asserts. Exact accounting is enforced unconditionally in both modes.

use std::path::PathBuf;
use std::process::ExitCode;

use bench::serve::{self, Mode, ServeBaseline, ServeBenchReport, SCHEMA};
use bp_common::pool::Pool;
use bp_common::telemetry::Health;
use bp_faults::points::PointFaultPlan;

/// Fraction of the committed predictions/sec the soak must retain under
/// `--check`. Loose because the soak is end-to-end and multi-threaded, so
/// runner-to-runner variance is wide; exact counter equality is the
/// precise half of the gate.
const CHECK_RETAIN: f64 = 0.5;

const USAGE: &str = "usage: bench_serve [--quick|--full] [--threads N] [--rebaseline] [--check] [--out PATH] [--journal PATH]

  --quick        100k-request soak (default; what CI runs)
  --full         1M-request soak (trajectory-quality numbers)
  --threads N    worker-pool threads (default 4; counters are invariant)
  --rebaseline   also pin this run as the new `baseline` block
  --check        compare against the committed file instead of writing:
                 exit 1 unless counters match exactly and predictions/sec
                 retained >=50%
  --out PATH     report path (default: BENCH_serve.json at the repo root)
  --journal PATH shed/lost journal path (default: results/serve_journal.txt)

Service faults from HYBP_FAULT_POINTS (shard-panic/refresh-stall/queue-overload)
switch the run to resilience mode: no pinned-file IO, journal written, exit
non-zero iff the faults disrupted service.";

struct Options {
    mode: Mode,
    threads: usize,
    rebaseline: bool,
    check: bool,
    out: PathBuf,
    journal: PathBuf,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        mode: Mode::Quick,
        threads: 4,
        rebaseline: false,
        check: false,
        out: PathBuf::from("BENCH_serve.json"),
        journal: PathBuf::from("results/serve_journal.txt"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.mode = Mode::Quick,
            "--full" => opts.mode = Mode::Full,
            "--threads" => {
                let v = args.next().ok_or("--threads needs a count")?;
                opts.threads = v
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| format!("--threads: `{v}` is not a positive integer"))?;
            }
            "--rebaseline" => opts.rebaseline = true,
            "--check" => opts.check = true,
            "--out" => opts.out = PathBuf::from(args.next().ok_or("--out needs a path")?),
            "--journal" => {
                opts.journal = PathBuf::from(args.next().ok_or("--journal needs a path")?);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if opts.check && opts.rebaseline {
        return Err("--check and --rebaseline are mutually exclusive".to_string());
    }
    Ok(opts)
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;
    let faults = PointFaultPlan::from_env()
        .map_err(|e| format!("HYBP_FAULT_POINTS: {e} (refusing to run with a garbled plan)"))?;
    let resilience = !faults.serve_faults().is_empty();
    println!(
        "bench_serve: {} mode, {} threads, fingerprint {}{}",
        opts.mode.name(),
        opts.threads,
        serve::fingerprint(),
        if resilience {
            " [resilience: service faults armed]"
        } else {
            ""
        }
    );
    let pool = Pool::new(opts.threads);
    let snapshot_dir = resilience.then(|| PathBuf::from("results/serve_snapshots"));
    let (report, soak) = serve::run_soak(opts.mode, &faults, &pool, snapshot_dir)?;
    let c = &soak.counters;
    println!(
        "soak: {} requests -> {} answered, {} shed (overload {}, deadline {}, failed {}), {} lost",
        c.requests,
        c.answered,
        c.shed_overload + c.shed_deadline + c.shed_failed,
        c.shed_overload,
        c.shed_deadline,
        c.shed_failed,
        c.lost
    );
    println!(
        "      {} restarts, {} degraded answers in {} windows, p99 {} cycles, {:.0} predictions/sec",
        c.restarts, c.degraded_answers, c.degraded_windows, c.p99_latency_cycles,
        soak.predictions_per_sec
    );
    serve::write_journal(&opts.journal, &report)
        .map_err(|e| format!("{}: {e}", opts.journal.display()))?;
    println!("journal: {}", opts.journal.display());

    if resilience {
        let readiness = report.readiness();
        let failed = readiness.count(Health::Failed);
        let disrupted = c.lost > 0
            || c.restarts > 0
            || c.degraded_windows > 0
            || c.shed_failed > 0
            || failed > 0;
        if disrupted {
            eprintln!(
                "serve-resilience: injected faults disrupted service ({} lost, {} restarts, {} degraded windows, {} shards failed) — journal accounts every request",
                c.lost, c.restarts, c.degraded_windows, failed
            );
            return Ok(ExitCode::FAILURE);
        }
        println!("serve-resilience: armed faults never fired (idle shard/ordinal?) — service undisturbed");
        return Ok(ExitCode::SUCCESS);
    }

    if opts.check {
        let text = std::fs::read_to_string(&opts.out).map_err(|e| {
            format!(
                "{}: {e} (run bench_serve once to create it)",
                opts.out.display()
            )
        })?;
        let committed =
            serve::parse_report(&text).map_err(|e| format!("{}: {e}", opts.out.display()))?;
        serve::validate(&committed).map_err(|e| format!("{}: {e}", opts.out.display()))?;
        if committed.mode != opts.mode.name() {
            return Err(format!(
                "{}: committed mode `{}` vs requested `{}` — rerun with the matching mode",
                opts.out.display(),
                committed.mode,
                opts.mode.name()
            ));
        }
        let mut bad = Vec::new();
        if committed.soak.counters != soak.counters {
            bad.push(format!(
                "deterministic counters drifted:\n  committed {:?}\n  current   {:?}",
                committed.soak.counters, soak.counters
            ));
        }
        let floor = committed.soak.predictions_per_sec * CHECK_RETAIN;
        if soak.predictions_per_sec < floor {
            bad.push(format!(
                "throughput: {:.0} predictions/sec vs committed {:.0} (floor {:.0})",
                soak.predictions_per_sec, committed.soak.predictions_per_sec, floor
            ));
        }
        if bad.is_empty() {
            println!(
                "serve-trajectory OK: counters exact, throughput within {:.0}% of {}",
                100.0 * (1.0 - CHECK_RETAIN),
                opts.out.display()
            );
            return Ok(ExitCode::SUCCESS);
        }
        eprintln!("serve-trajectory REGRESSION vs {}:", opts.out.display());
        for line in &bad {
            eprintln!("  {line}");
        }
        return Ok(ExitCode::FAILURE);
    }

    // Preserve (or re-pin) the baseline block.
    let baseline = if opts.rebaseline {
        Some(ServeBaseline {
            mode: opts.mode.name().to_string(),
            soak: soak.clone(),
        })
    } else {
        match std::fs::read_to_string(&opts.out) {
            Ok(text) => {
                let prior = serve::parse_report(&text)
                    .map_err(|e| format!("{}: {e} (fix or --rebaseline)", opts.out.display()))?;
                prior.baseline
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("{}: {e}", opts.out.display())),
        }
    };
    let doc = ServeBenchReport {
        schema: SCHEMA,
        mode: opts.mode.name().to_string(),
        fingerprint: serve::fingerprint(),
        soak,
        baseline,
    };
    serve::validate(&doc)?;
    let rendered = serve::render_report(&doc);
    let tmp = opts.out.with_extension("json.tmp");
    std::fs::write(&tmp, rendered.as_bytes()).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    println!("wrote {}", opts.out.display());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
