//! Repository benchmark of the HyBP reproduction.
//!
//! ```text
//! perfbench --workload <sim_grid|poc_switch|trace_sample> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! perfbench --pin            # print golden.txt for the default seed
//! ```
//!
//! `--trace 0` measures the named workload end to end with tracing off;
//! `--trace 1` is the traced run that prints the per-layer metrics. The last
//! line of standard output is the JSON result. See README.md.

// Wall-clock timing is this program's output, and thread identity only
// groups pool spans per worker; neither feeds a simulation.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use bp_common::pool::Pool;
use bp_common::Observable as _;

mod gauge;
mod golden;
mod ladder;
mod poc_switch;
mod report;
mod sim_grid;
mod spans;
mod stats;
mod trace_sample;

use gauge::Gauge;
use golden::{Op, DEFAULT_SEED, GOLDEN};
use report::{Metric, Report};
use spans::{traced, Recorder};

/// Workloads, in the order `--pin` prints them.
const WORKLOADS: [&str; 3] = [sim_grid::NAME, poc_switch::NAME, trace_sample::NAME];

/// Set-ups per run; the report gives their median.
const SETUP_REPS: usize = 9;

/// Batches per run at least, however long they take.
const MIN_BATCHES: usize = 3;

/// Per-layer metrics of the traced run: name, unit.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("bp-common.pool_item_s_p50", "s"),
    ("bp-common.pool_item_s_max", "s"),
    ("bp-common.pool_utilization", "ratio"),
    ("bp-common.pool_tail_idle_s", "s"),
    ("bp-common.pool_retries", "count"),
    ("bp-common.pool_panics", "count"),
    ("bp-workloads.next_branch_ns", "ns"),
    ("bp-predictors.tage_ns", "ns"),
    ("bp-predictors.scl_ns", "ns"),
    ("bp-predictors.btb_ns", "ns"),
    ("bp-predictors.flush_us", "us"),
    ("bp-predictors.direction_miss_frac", "ratio"),
    ("bp-predictors.btb_hit_frac", "ratio"),
    ("hybp.codec_ns", "ns"),
    ("hybp.process_branch_ns", "ns"),
    ("hybp.bpu_self_ns", "ns"),
    ("hybp.context_switch_us_p50", "us"),
    ("hybp.context_switch_us_p99", "us"),
    ("hybp.renew_us", "us"),
    ("hybp.predictions_during_refresh_frac", "ratio"),
    ("bp-crypto.key_read_ns", "ns"),
    ("bp-crypto.refresh_us", "us"),
    ("bp-crypto.qarma_ns", "ns"),
    ("bp-crypto.qarma_batch_ns", "ns"),
    ("bp-crypto.stale_hit_frac", "ratio"),
    ("bp-pipeline.run_ns_per_branch", "ns"),
    ("bp-pipeline.self_ns_per_branch", "ns"),
    ("bp-pipeline.host_ns_per_cycle", "ns"),
    ("bp-pipeline.sampled_replay_ms", "ms"),
    ("bp-pipeline.sample_mpki_err", "MPKI"),
    ("bp-pipeline.sample_bound_violations", "count"),
    ("bp-attacks.campaign_s", "s"),
    ("bp-trace.load_ns_per_record", "ns"),
    ("bp-trace.decode_ns_per_record", "ns"),
    ("bp-trace.sample_ns_per_record", "ns"),
    ("bp-trace.save_ns_per_record", "ns"),
    ("bp-trace.coverage", "ratio"),
    ("bp-trace.bytes_per_record", "B"),
    ("bp-trace.peak_buffered", "records"),
    ("bp-trace.records_lost", "count"),
    ("tracing_overhead_frac", "ratio"),
];

/// A seed for one input, derived from the workload seed and a tag.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    bp_common::rng::SplitMix64::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            a.pin = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?,
            "--seconds" => {
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{v}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !a.pin && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// Where the benchmark writes: spans and temporary trace fixtures.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// A directory removed when dropped (trace fixtures).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = out_dir().join(format!("tmp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The git commit of the checkout, read from `.git` (no git process).
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// What makes reports from different machines or builds incomparable.
fn stamp() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "nproc={} cpu=\"{cpu}\" rustc=\"{}\" profile={} commit={}",
        Pool::machine_sized().threads(),
        env!("PERFBENCH_RUSTC"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_commit()
    )
}

/// Wall times of repeated calls, each beside the host's speed.
#[derive(Default)]
struct Timed {
    /// Wall seconds of each call.
    wall_s: Vec<f64>,
    /// Each call's wall seconds at the reference host's speed.
    scaled_s: Vec<f64>,
    /// Wall seconds of each gauge pass.
    gauge_s: Vec<f64>,
}

/// Calls `f` at least `min` times and until `seconds` have passed, with a
/// gauge pass before the first call and after each one.
fn timed(gauge: &mut Gauge, min: usize, seconds: f64, mut f: impl FnMut()) -> Timed {
    let start = Instant::now();
    let mut out = Timed::default();
    let mut before = gauge.pass();
    out.gauge_s.push(before);
    while out.wall_s.len() < min || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        f();
        let wall = t.elapsed().as_secs_f64();
        let after = gauge.pass();
        out.gauge_s.push(after);
        out.wall_s.push(wall);
        out.scaled_s
            .push(wall * 2.0 * gauge::NOMINAL_S / (before + after));
        before = after;
    }
    out
}

/// Runs one untimed warm-up batch, reads the peak resident set it and the
/// set-up reached (less the gauges' own `gauge_bytes`), then times batches.
/// Later batches only repeat the first, so the peak is read before the
/// allocator's long-run fragmentation can move it.
fn warm_then_time(
    gauge: &mut Gauge,
    gauge_bytes: usize,
    seconds: f64,
    mut batch: impl FnMut(),
) -> Result<(f64, Timed), String> {
    batch();
    let peak = peak_rss_mb()? - gauge_bytes as f64 / (1024.0 * 1024.0);
    Ok((peak, timed(gauge, MIN_BATCHES, seconds, batch)))
}

/// One untraced run's measurements.
struct Measured {
    setup: Timed,
    batches: Timed,
    /// Work units per batch, and what one unit is.
    work: f64,
    work_name: &'static str,
    peak_rss_mb: f64,
    ops: Vec<Op>,
}

fn measure(workload: &str, seed: u64, seconds: f64) -> Result<Measured, String> {
    let mut ops = Vec::new();
    let mut work = 0.0;
    let mut serial = Gauge::new(1);
    let serial_bytes = serial.resident_bytes();
    let (setup, (peak_rss_mb, batches), work_name) = match workload {
        sim_grid::NAME => {
            let pool = Pool::machine_sized();
            let mut parallel = Gauge::new(pool.threads());
            let gauge_bytes = serial_bytes + parallel.resident_bytes();
            let points = sim_grid::points(seed, sim_grid::BENCH_SCALE);
            let setup = timed(&mut serial, SETUP_REPS, 0.0, || sim_grid::setup(&points));
            let batches = warm_then_time(&mut parallel, gauge_bytes, seconds, || {
                let results = sim_grid::run(&pool, &points, None, None);
                work = results
                    .iter()
                    .filter_map(|(_, m)| m.as_ref())
                    .map(|m| m.bpu.branches as f64)
                    .sum();
                ops.extend(results.into_iter().map(|r| r.0));
            })?;
            (
                setup,
                batches,
                "branches_per_s: simulated branches per second",
            )
        }
        poc_switch::NAME => {
            let camps = poc_switch::campaigns(seed);
            let setup = timed(&mut serial, SETUP_REPS, 0.0, || poc_switch::setup(&camps));
            let batches = warm_then_time(&mut serial, serial_bytes, seconds, || {
                let (o, rounds) = poc_switch::run(&camps, None, None);
                work = rounds as f64;
                ops.extend(o);
            })?;
            (setup, batches, "rounds_per_s: PoC rounds per second")
        }
        _ => {
            let tmp = TempDir::new(trace_sample::NAME);
            let mut fx = Err(String::new());
            // Recording is the costliest set-up, so fewer repetitions.
            let setup = timed(&mut serial, 3, 0.0, || {
                fx = trace_sample::setup(seed, &tmp.0, None, None)
            });
            let fx = fx?;
            let batches = warm_then_time(&mut serial, serial_bytes, seconds, || {
                let (o, covered, _) = trace_sample::run(&fx, None, None, None);
                work = covered;
                ops.extend(o);
            })?;
            (
                setup,
                batches,
                "trace_branches_per_s: trace records covered by the estimates per second",
            )
        }
    };
    Ok(Measured {
        setup,
        batches,
        work,
        work_name,
        peak_rss_mb,
        ops,
    })
}

/// The pool's per-item picture from the spans of one traced grid batch.
fn pool_metrics(rec: &Recorder, grid: u64, workers: usize) -> Vec<(&'static str, f64)> {
    let all = rec.spans();
    let Some(g) = all.iter().find(|s| s.id == grid) else {
        return Vec::new();
    };
    let items: Vec<&spans::Span> = all.iter().filter(|s| s.parent == Some(grid)).collect();
    let secs: Vec<f64> = items.iter().map(|s| s.duration_ns() as f64 / 1e9).collect();
    let mut last_end = std::collections::BTreeMap::new();
    for s in &items {
        let e = last_end.entry(s.thread.clone()).or_insert(0u64);
        *e = (*e).max(s.end_ns);
    }
    let first_idle = last_end.values().copied().min().unwrap_or(g.end_ns);
    let wall = g.duration_ns() as f64 / 1e9;
    vec![
        ("bp-common.pool_item_s_p50", stats::median(&secs)),
        ("bp-common.pool_item_s_max", stats::quantile(&secs, 1.0)),
        (
            "bp-common.pool_utilization",
            secs.iter().sum::<f64>() / (workers.min(items.len()).max(1) as f64 * wall),
        ),
        (
            "bp-common.pool_tail_idle_s",
            g.end_ns.saturating_sub(first_idle) as f64 / 1e9,
        ),
    ]
}

/// Mean duration of the spans under `parent` whose name starts with
/// `prefix`, in seconds.
fn mean_child_s(rec: &Recorder, parent: u64, prefix: &str) -> f64 {
    let d: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.parent == Some(parent) && s.name.starts_with(prefix))
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect();
    d.iter().sum::<f64>() / d.len().max(1) as f64
}

/// The traced run: every workload's batch once under spans, the ladder,
/// and the named workload untraced against traced for the overhead.
fn traced_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    rec: &Recorder,
) -> Result<(Vec<Metric>, Vec<Op>), String> {
    let root = rec.reserve();
    let start = rec.now_ns();
    let r = Some(rec);
    let tmp = TempDir::new("traced");
    let pool = Pool::machine_sized();
    let points = sim_grid::points(seed, sim_grid::BENCH_SCALE);
    let camps = poc_switch::campaigns(seed);
    let fx = traced(r, Some(root), "op:trace_sample.setup", 1, |id| {
        trace_sample::setup(seed, &tmp.0, r, id)
    })?;
    let refs = trace_sample::references(&fx, seed, GOLDEN, false)?;
    let mut ops = Vec::new();
    let mut values: Vec<(&'static str, f64)> = Vec::new();

    // Tracing overhead: the named workload's batch, untraced then traced.
    let batch = |traced_batch: bool, ops: &mut Vec<Op>| {
        let rec = traced_batch.then_some(rec);
        let parent = traced_batch.then_some(root);
        let t = Instant::now();
        match workload {
            sim_grid::NAME => ops.extend(
                sim_grid::run(&pool, &points, rec, parent)
                    .into_iter()
                    .map(|r| r.0),
            ),
            poc_switch::NAME => ops.extend(poc_switch::run(&camps, rec, parent).0),
            _ => ops.extend(trace_sample::run(&fx, None, rec, parent).0),
        }
        t.elapsed().as_secs_f64()
    };
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        plain.push(batch(false, &mut ops));
        with_spans.push(batch(true, &mut ops));
    }
    let overhead = stats::median(&with_spans) / stats::median(&plain) - 1.0;

    // sim_grid under spans: the pool and the simulated statistics.
    let grid = rec.reserve();
    let t0 = rec.now_ns();
    let results = sim_grid::run(&pool, &points, r, Some(grid));
    rec.record(
        grid,
        Some(root),
        "op:sim_grid.batch",
        t0,
        points.len() as u64,
    );
    values.extend(pool_metrics(rec, grid, pool.threads()));
    let snap = pool.snapshot();
    values.push(("bp-common.pool_retries", snap.get("retries") as f64));
    values.push(("bp-common.pool_panics", snap.get("panics") as f64));
    let (mut cond, mut dir_miss, mut hits, mut misses, mut hybp_branches, mut during) =
        (0, 0, 0, 0, 0, 0);
    for ((_, m), p) in results.iter().zip(&points) {
        let Some(m) = m else { continue };
        cond += m.bpu.conditional_branches;
        dir_miss += m.bpu.direction_mispredicts;
        hits += m.bpu.btb_hits.iter().sum::<u64>();
        misses += m.bpu.btb_misses;
        if matches!(p.mechanism, hybp::Mechanism::HyBp(_)) {
            hybp_branches += m.bpu.branches;
            during += m.bpu.predictions_during_refresh;
        }
    }
    ops.extend(results.into_iter().map(|r| r.0));
    values.push((
        "bp-predictors.direction_miss_frac",
        dir_miss as f64 / cond.max(1) as f64,
    ));
    values.push((
        "bp-predictors.btb_hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    ));
    values.push((
        "hybp.predictions_during_refresh_frac",
        during as f64 / hybp_branches.max(1) as f64,
    ));

    // poc_switch under spans: campaign time.
    let poc = rec.reserve();
    let t0 = rec.now_ns();
    ops.extend(poc_switch::run(&camps, r, Some(poc)).0);
    rec.record(
        poc,
        Some(root),
        "op:poc_switch.batch",
        t0,
        camps.len() as u64,
    );
    values.push(("bp-attacks.campaign_s", mean_child_s(rec, poc, "campaign:")));

    // trace_sample under spans: replay time and the sampling ratios.
    let tr = rec.reserve();
    let t0 = rec.now_ns();
    let (o, _, seen) = trace_sample::run(&fx, Some(&refs), r, Some(tr));
    rec.record(tr, Some(root), "op:trace_sample.batch", t0, o.len() as u64);
    ops.extend(o);
    values.push((
        "bp-pipeline.sampled_replay_ms",
        mean_child_s(rec, tr, "replay:") * 1e3,
    ));
    values.push((
        "bp-pipeline.sample_mpki_err",
        seen.errors.iter().copied().fold(0.0, f64::max),
    ));
    values.push((
        "bp-pipeline.sample_bound_violations",
        seen.bound_violations as f64,
    ));
    values.push((
        "bp-trace.coverage",
        seen.coverage.iter().sum::<f64>() / seen.coverage.len().max(1) as f64,
    ));
    values.push((
        "bp-trace.bytes_per_record",
        fx.bytes.iter().sum::<u64>() as f64 / fx.records.iter().sum::<u64>().max(1) as f64,
    ));
    values.push(("bp-trace.peak_buffered", seen.peak_buffered as f64));
    values.push(("bp-trace.records_lost", seen.records_lost as f64));

    // The ladder, repeated until the run's time is spent.
    let inputs = traced(r, Some(root), "op:ladder.inputs", 1, |_| {
        ladder::Inputs::new(seed)
    });
    let lad = rec.reserve();
    let t0 = rec.now_ns();
    let mut rounds: Vec<std::collections::BTreeMap<&'static str, f64>> = Vec::new();
    let mut switches = Vec::new();
    let started = Instant::now();
    while rounds.len() < MIN_BATCHES || started.elapsed().as_secs_f64() < seconds {
        let (m, s) = ladder::round(&inputs, &fx, r, Some(lad));
        rounds.push(m);
        switches.extend(s);
    }
    rec.record(lad, Some(root), "op:ladder", t0, rounds.len() as u64);
    for key in rounds[0].keys() {
        let v: Vec<f64> = rounds.iter().map(|m| m[key]).collect();
        values.push((key, stats::median(&v)));
    }
    values.push((
        "hybp.context_switch_us_p50",
        stats::quantile(&switches, 0.5),
    ));
    values.push((
        "hybp.context_switch_us_p99",
        stats::quantile(&switches, 0.99),
    ));
    values.push(("tracing_overhead_frac", overhead));
    rec.record(root, None, &format!("workload:{workload}"), start, 1);

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
            Ok(Metric::new(name, v, unit))
        })
        .collect::<Result<Vec<_>, String>>()?;
    println!(
        "# traced {} rounds of the ladder; tracing overhead {:+.2}% ({workload} batch, median of 3 traced vs 3 untraced)",
        rounds.len(),
        overhead * 100.0
    );
    Ok((metrics, ops))
}

/// Prints the golden file for the default seed.
fn pin() -> Result<(), String> {
    println!("# Simulated statistics pinned for --seed {DEFAULT_SEED}. Regenerate with");
    println!("# `cargo run --release --manifest-path perfbench/Cargo.toml -- --pin > perfbench/golden.txt`.");
    let pool = Pool::machine_sized();
    for r in sim_grid::run(
        &pool,
        &sim_grid::points(DEFAULT_SEED, sim_grid::BENCH_SCALE),
        None,
        None,
    ) {
        println!("{}", r.0.golden_line());
    }
    for op in poc_switch::run(&poc_switch::campaigns(DEFAULT_SEED), None, None).0 {
        println!("{}", op.golden_line());
    }
    let tmp = TempDir::new("pin");
    let fx = trace_sample::setup(DEFAULT_SEED, &tmp.0, None, None)?;
    let refs = trace_sample::references(&fx, DEFAULT_SEED, "", true)?;
    for line in trace_sample::reference_lines(&refs) {
        println!("{line}");
    }
    for op in trace_sample::run(&fx, Some(&refs), None, None).0 {
        println!("{}", op.golden_line());
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.pin {
        return pin();
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# stamp: {}", stamp());
    let (metrics, mut ops) = if args.trace {
        let run_id = derive_seed(
            args.seed,
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64),
        );
        let rec = Recorder::new(run_id);
        let (metrics, ops) = traced_run(&args.workload, args.seed, args.seconds, &rec)?;
        let path = out_dir().join("spans").join(format!(
            "{}-seed{}-{run_id:016x}.jsonl",
            args.workload, args.seed
        ));
        rec.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# spans: {} ({} spans, run id {run_id:016x})",
            path.display(),
            rec.spans().len()
        );
        let spans = rec.spans();
        let selfs = spans::self_times(&spans);
        let mut by_name = std::collections::BTreeMap::<String, u64>::new();
        for (s, ns) in spans.iter().zip(selfs) {
            *by_name
                .entry(s.name.split('/').next().unwrap_or("").to_string())
                .or_default() += ns;
        }
        let mut top: Vec<_> = by_name.into_iter().collect();
        top.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
        for (name, ns) in top.iter().take(12) {
            println!("# self {:>10.3} s  {name}", *ns as f64 / 1e9);
        }
        (metrics, ops)
    } else {
        let m = measure(&args.workload, args.seed, args.seconds)?;
        let b = &m.batches;
        let throughput = m.work / stats::median(&b.scaled_s);
        println!(
            "# {} batches; {} = {throughput:.1} at reference speed, {:.1} on the wall clock (median batch {:.4} s scaled, {:.4} s wall)",
            b.wall_s.len(),
            m.work_name,
            m.work / stats::median(&b.wall_s),
            stats::median(&b.scaled_s),
            stats::median(&b.wall_s),
        );
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.6}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("# batch wall_s: {}", list(&b.wall_s));
        println!("# batch scaled_s: {}", list(&b.scaled_s));
        println!("# setup wall_s: {}", list(&m.setup.wall_s));
        println!("# setup scaled_s: {}", list(&m.setup.scaled_s));
        println!(
            "# gauge pass_s (nominal {} s, median {:.6} s): {}",
            gauge::NOMINAL_S,
            stats::median(&b.gauge_s),
            list(&b.gauge_s)
        );
        let metrics = vec![
            Metric::new("throughput", throughput, "1/s"),
            Metric::new("setup_s", stats::median(&m.setup.scaled_s), "s"),
            Metric::new("peak_rss_mb", m.peak_rss_mb, "MiB"),
        ];
        (metrics, m.ops)
    };
    golden::check(&mut ops, args.seed, GOLDEN);
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let failed: Vec<&Op> = ops.iter().filter(|o| o.problem.is_some()).collect();
    println!("ops = {}", ops.len());
    println!("ops_failed = {}", failed.len());
    for op in failed.iter().take(5) {
        println!("# failed: {}", op.problem.as_deref().unwrap_or(""));
    }
    let report = Report {
        correct: failed.is_empty(),
        attempted: ops.len() as u64,
        failed: failed.len() as u64,
        metrics,
    };
    println!("{}", report::render(&report));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
