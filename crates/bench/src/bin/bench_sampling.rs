//! `bench_sampling` — full-replay vs phase-sampled-replay comparison.
//!
//! Synthesizes a deterministic phase-alternating trace (phases drawn from
//! four benchmark profiles — the abrupt-phase-change worst case for
//! sampling), then measures the same (mechanism, stream) point both ways:
//!
//! * **full** — every record through the BPU under the shared cycle model,
//! * **sampled** — BBV extraction + k-means once, then only the plan's
//!   representative windows (warmup included), recombined by cluster
//!   weight. Sampling cost is charged to the sampled side, so the reported
//!   speedup is end-to-end honest.
//!
//! `--check` (what CI's `sampling-integrity` job runs) exits 1 unless the
//! sampled path is at least [`CHECK_MIN_SPEEDUP`]× faster and its MPKI
//! error is within the estimate's own reported bound.
//!
//! ```text
//! bench_sampling [--instructions N] [--spec k=K,window=W,...] [--check]
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "wall-clock seconds go only to the speedup line and its --check gate; no simulated number reads them"
)]

use std::process::ExitCode;
use std::time::Instant;

use bench::phased_records;
use bp_pipeline::{stream_name, stream_seed, SimConfig, Simulation};
use bp_trace::{SamplingSpec, TraceSession};
use bp_workloads::profile::SpecBenchmark;
use hybp::Mechanism;

/// Minimum end-to-end speedup `--check` demands of the sampled path.
const CHECK_MIN_SPEEDUP: f64 = 10.0;

/// Default synthetic-trace length: long enough that full replay dominates
/// the sampled path's fixed costs, short enough for CI.
const DEFAULT_INSTRUCTIONS: u64 = 40_000_000;

/// Phases the synthetic trace cycles through.
const PHASES: [SpecBenchmark; 4] = [
    SpecBenchmark::Mcf,
    SpecBenchmark::Xz,
    SpecBenchmark::Lbm,
    SpecBenchmark::Deepsjeng,
];

const USAGE: &str = "usage: bench_sampling [--instructions N] [--spec k=K,window=W,...] [--check]

  --instructions N  synthetic trace length (default 40000000)
  --spec SPEC       sampling spec (default k=8,window=100000,warmup=2)
  --check           exit 1 unless speedup >= 10x and MPKI error <= bound";

struct Options {
    instructions: u64,
    spec: SamplingSpec,
    check: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        instructions: DEFAULT_INSTRUCTIONS,
        spec: SamplingSpec {
            warmup: 2,
            ..SamplingSpec::default()
        },
        check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--instructions" => {
                let v = args.next().ok_or("--instructions needs a value")?;
                opts.instructions = bp_common::parse::positive("instruction count", &v)?;
            }
            "--spec" => {
                let v = args.next().ok_or("--spec needs a value")?;
                opts.spec = SamplingSpec::parse(&v)?;
            }
            "--check" => opts.check = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;
    let dir = std::env::temp_dir().join(format!("hybp-bench-sampling-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SimConfig::default_run();

    // Record the synthetic stream under the canonical replay name/seed.
    let seed = stream_seed(cfg.seed, 0, 0);
    let bench = SpecBenchmark::Mcf; // names the stream; phases set the content
    let records = phased_records(seed, &PHASES, opts.spec.window * 8, opts.instructions);
    let session = TraceSession::open(&dir)
        .build()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let store = session.store();
    store
        .save(
            &stream_name(0, 0, bench),
            seed,
            &records,
            bp_trace::DEFAULT_CHUNK_RECORDS,
        )
        .map_err(|e| format!("save: {e}"))?;
    println!(
        "recorded {} records ({} instructions, {} phases cycling every {} instructions)",
        records.len(),
        opts.instructions,
        PHASES.len(),
        opts.spec.window * 8
    );
    drop(records);

    let builder = || {
        Simulation::builder(Mechanism::hybp_default(), cfg)
            .single_thread(bench)
            .trace_store(Some(std::sync::Arc::clone(store)))
    };

    // Full replay: the ground truth and the time to beat.
    let t0 = Instant::now();
    let full = builder().full_replay().map_err(|e| e.to_string())?.run();
    let full_secs = t0.elapsed().as_secs_f64();
    println!(
        "full replay:    {:>8.3}s  mpki {:.4}  ipc {:.4}  ({} instructions)",
        full_secs,
        full.mpki(),
        full.ipc(),
        full.instructions
    );

    // Sampled replay, charged end to end: sample + seek/warm/measure.
    let t1 = Instant::now();
    let loaded = store
        .load(&stream_name(0, 0, bench), seed)
        .map_err(|e| format!("load: {e}"))?;
    let (plan, stats) = loaded
        .sample(&opts.spec)
        .map_err(|e| format!("sample: {e}"))?;
    let sample_secs = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let sampled = builder()
        .sampled_replay(plan.clone())
        .map_err(|e| e.to_string())?
        .run()
        .map_err(|e| e.to_string())?;
    let replay_secs = t2.elapsed().as_secs_f64();
    let sampled_secs = sample_secs + replay_secs;
    println!(
        "sampled replay: {:>8.3}s  mpki {:.4}  ipc {:.4}  ({} of {} instructions; \
         sample {:.3}s + replay {:.3}s; peak {} records buffered)",
        sampled_secs,
        sampled.estimate.mpki(),
        sampled.estimate.ipc(),
        sampled.replayed_instructions,
        full.instructions,
        sample_secs,
        replay_secs,
        stats.peak_buffered
    );

    let speedup = full_secs / sampled_secs.max(1e-9);
    let err = (sampled.estimate.mpki() - full.mpki()).abs();
    println!(
        "speedup {speedup:.1}x  |  {}/{} windows, coverage {:.2}%, dispersion {:.4}",
        plan.selections.len(),
        plan.total_windows,
        sampled.coverage * 100.0,
        plan.dispersion()
    );
    println!(
        "mpki error {err:.4} (bound {:.4})",
        sampled.error_bound_mpki
    );
    let _ = std::fs::remove_dir_all(&dir);

    if opts.check {
        let mut bad = Vec::new();
        if speedup < CHECK_MIN_SPEEDUP {
            bad.push(format!(
                "speedup {speedup:.1}x below the required {CHECK_MIN_SPEEDUP:.0}x"
            ));
        }
        if err > sampled.error_bound_mpki {
            bad.push(format!(
                "mpki error {err:.4} exceeds the reported bound {:.4}",
                sampled.error_bound_mpki
            ));
        }
        if !bad.is_empty() {
            for b in &bad {
                eprintln!("sampling-integrity FAIL: {b}");
            }
            return Ok(ExitCode::FAILURE);
        }
        println!("sampling-integrity OK: >= {CHECK_MIN_SPEEDUP:.0}x and within the error bound");
    }
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
