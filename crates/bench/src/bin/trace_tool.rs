//! Capture, corrupt and inspect `.bpt` branch-trace files.
//!
//! Three subcommands:
//!
//! * `record` — generate the stream files an experiment run at a given
//!   scale will replay (`--trace-dir`). Streams are named and seeded
//!   exactly as the simulator builds its generators, so a replayed run is
//!   byte-identical to a generated one.
//! * `corrupt` — apply a deterministic byte-fault spec (the
//!   `HYBP_FAULT_POINTS` I/O grammar: `bitflip@o@b`, `truncate@o`,
//!   `torn@o`, `dup@o@l`) to a trace file, for integrity drills.
//! * `check` — decode a trace file in strict (default) or `--lenient`
//!   mode and report either the typed error (exit 1) or the recovered
//!   record count and health ledger.
//!
//! ```text
//! trace_tool record  --out DIR [--scale S] [--benches a,b] [--margin F] [--smt] [--chunk N]
//! trace_tool corrupt --file F --spec SPEC [--out F2]
//! trace_tool check   --file F [--lenient]
//! ```

use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;

use bench::cli::parse_benches;
use bench::{replay_stream_budget, Scale};
use bp_faults::bytes::ByteFaultPlan;
use bp_pipeline::{kernel_stream_name, kernel_stream_seed, stream_name, stream_seed, SimConfig};
use bp_trace::{
    ReadMode, TraceSession, TraceStore, TraceWriter, DEFAULT_CHUNK_RECORDS, FILE_EXTENSION,
};
use bp_workloads::profile::SpecBenchmark;
use bp_workloads::WorkloadGenerator;

const USAGE: &str = "usage: trace_tool <record|corrupt|check> [options]
  record  --out DIR [--scale quick|default|full] [--benches a,b,...]
          [--margin F] [--smt] [--chunk N]
  corrupt --file F --spec SPEC [--out F2]
  check   --file F [--lenient]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("corrupt") => corrupt(&args[1..]),
        Some("check") => check(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Pulls the value following a `--flag` out of `args`.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    for i in 0..args.len() {
        if args[i] == flag {
            return match args.get(i + 1) {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{flag} requires a value")),
            };
        }
    }
    Ok(None)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn record(args: &[String]) -> Result<ExitCode, String> {
    let out = flag_value(args, "--out")?.ok_or("record requires --out DIR")?;
    let scale = match flag_value(args, "--scale")? {
        Some(v) => Scale::parse(&v)?,
        None => Scale::Default,
    };
    let benches: Vec<SpecBenchmark> = match flag_value(args, "--benches")? {
        Some(v) => parse_benches(&v)?,
        None => SpecBenchmark::ALL.to_vec(),
    };
    let margin: f64 = match flag_value(args, "--margin")? {
        Some(v) => v.parse().map_err(|_| format!("bad --margin value '{v}'"))?,
        None => 1.25,
    };
    if margin.is_nan() || margin < 1.0 {
        return Err("--margin must be >= 1.0 (the budget is a floor, not a target)".into());
    }
    let chunk: usize = match flag_value(args, "--chunk")? {
        Some(v) => v.parse().map_err(|_| format!("bad --chunk value '{v}'"))?,
        None => DEFAULT_CHUNK_RECORDS,
    };
    let hw_threads: usize = if has_flag(args, "--smt") { 2 } else { 1 };

    let dir = PathBuf::from(&out);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {out}: {e}"))?;
    let master = SimConfig::default_run().seed;

    let mut files = 0u64;
    for hw in 0..hw_threads {
        for bench in &benches {
            let budget = (replay_stream_budget(scale, &bench.profile()) as f64 * margin) as u64;
            for sw in 0..2 {
                let name = stream_name(hw, sw, *bench);
                let seed = stream_seed(master, hw, sw);
                let summary = record_stream(&dir, &name, seed, bench.profile(), budget, chunk)?;
                println!(
                    "recorded {name}: {} records, {} chunks, {} bytes",
                    summary.records, summary.chunks, summary.bytes
                );
                files += 1;
            }
        }
        let kernel = SpecBenchmark::Kernel;
        let budget = (replay_stream_budget(scale, &kernel.profile()) as f64 * margin) as u64;
        let name = kernel_stream_name(hw);
        let seed = kernel_stream_seed(master, hw);
        let summary = record_stream(&dir, &name, seed, kernel.profile(), budget, chunk)?;
        println!(
            "recorded {name}: {} records, {} chunks, {} bytes",
            summary.records, summary.chunks, summary.bytes
        );
        files += 1;
    }
    println!(
        "recorded {files} stream(s) into {out} at scale {} (margin {margin})",
        scale.name()
    );
    Ok(ExitCode::SUCCESS)
}

/// Streams one generator into `dir/{name}-{seed:016x}.bpt` until the
/// captured instructions (Σ gap+1) reach `budget`.
fn record_stream(
    dir: &std::path::Path,
    name: &str,
    seed: u64,
    profile: bp_workloads::BenchmarkProfile,
    budget: u64,
    chunk: usize,
) -> Result<bp_trace::WriteSummary, String> {
    let path = dir.join(TraceStore::file_name(name, seed));
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    let file = std::fs::File::create(&path).map_err(err)?;
    let mut w = TraceWriter::new(BufWriter::new(file), chunk).map_err(err)?;
    let mut gen = WorkloadGenerator::new(profile, seed);
    let mut instructions = 0u64;
    while instructions < budget {
        let r = gen.next_branch();
        w.push(&r).map_err(err)?;
        instructions += u64::from(r.gap) + 1;
    }
    w.finish().map_err(err)
}

fn corrupt(args: &[String]) -> Result<ExitCode, String> {
    let file = flag_value(args, "--file")?.ok_or("corrupt requires --file F")?;
    let spec = flag_value(args, "--spec")?.ok_or("corrupt requires --spec SPEC")?;
    let out = flag_value(args, "--out")?.unwrap_or_else(|| file.clone());
    let plan = ByteFaultPlan::parse(&spec)?;
    let mut bytes = std::fs::read(&file).map_err(|e| format!("{file}: {e}"))?;
    let before = bytes.len();
    let landed = plan.apply(&mut bytes);
    std::fs::write(&out, &bytes).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "corrupted {out}: {landed} fault(s) landed, {before} -> {} bytes",
        bytes.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn check(args: &[String]) -> Result<ExitCode, String> {
    let file = flag_value(args, "--file")?.ok_or("check requires --file F")?;
    let mode = if has_flag(args, "--lenient") {
        ReadMode::Lenient
    } else {
        ReadMode::Strict
    };
    if !file.ends_with(FILE_EXTENSION) {
        eprintln!("note: {file} does not carry the .{FILE_EXTENSION} extension");
    }
    let bytes = std::fs::read(&file).map_err(|e| format!("{file}: {e}"))?;
    match TraceSession::decode(&bytes, mode) {
        Ok((records, health)) => {
            println!("{file}: {} records ({} mode)", records.len(), mode.name());
            println!("health {health}");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("{file}: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}
