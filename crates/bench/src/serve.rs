//! `bench::serve` — the closed-loop service soak with a pinned resilience
//! trajectory.
//!
//! Drives [`bp_serve::ServeEngine`] through the deterministic synthetic
//! soak workload ([`bp_serve::WorkloadSpec::soak`]) and reports two kinds
//! of numbers:
//!
//! * **deterministic counters** — answered / shed (by reason) / lost /
//!   degraded / restarts / mispredicted plus the exact p99 latency in
//!   *virtual* cycles. These are bit-identical for any `--threads` value
//!   and are compared **exactly** under `bench_serve --check`;
//! * **throughput** — wall-clock predictions per second, compared under
//!   `--check` against a retain floor (half the committed number).
//!
//! Results land in the root-level `BENCH_serve.json` (written by the
//! `bench_serve` bin), with a pinned `baseline` block that only a
//! deliberate `--rebaseline` moves. Fault-injected runs (`HYBP_FAULT_POINTS`
//! with `shard-panic`/`refresh-stall`/`queue-overload` entries) never touch
//! the pinned file; instead they write a journal naming every shed and lost
//! request so the CI `serve-resilience` job can prove nothing was silently
//! dropped. The wall clock only ever feeds the throughput number and
//! diagnostics — never the counters — hence the file-wide waiver below.

#![expect(
    clippy::disallowed_types,
    reason = "service soak harness: wall-clock predictions/sec is the deliverable (BENCH_serve.json trajectory); every checked counter is virtual-time and thread-invariant"
)]

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bp_common::pool::Pool;
use bp_faults::points::PointFaultPlan;
use bp_serve::{Response, ServeConfig, ServeEngine, ServeReport, WorkloadSpec};

/// Simulation-core identity folded into [`fingerprint`]. Changing it
/// changes the fingerprint pinned in `BENCH_serve.json`.
const CODE_SALT: &str = "hybp-sim-2026-08-pr2";

/// Report schema version (bump on any layout change).
pub const SCHEMA: u32 = 1;

/// Workload seed for the soak stream (independent of the engine seed).
pub const WORKLOAD_SEED: u64 = 0x5eed_10ad_0000_0008;

/// Soak size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// CI-sized: enough traffic to exercise bursts, sheds, and snapshots.
    Quick,
    /// Trajectory-quality: a long soak for stable throughput numbers.
    Full,
}

impl Mode {
    /// Canonical name as written to / parsed from the report.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Quick => "quick",
            Mode::Full => "full",
        }
    }

    /// Parses a canonical mode name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "quick" => Ok(Mode::Quick),
            "full" => Ok(Mode::Full),
            other => Err(format!("unknown serve mode `{other}` (quick|full)")),
        }
    }

    /// Requests submitted during the soak.
    pub fn requests(self) -> u64 {
        match self {
            Mode::Quick => 100_000,
            Mode::Full => 1_000_000,
        }
    }
}

/// The deterministic half of a soak measurement: pure virtual-time
/// counters, bit-identical for any worker-pool thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakCounters {
    /// Requests submitted.
    pub requests: u64,
    /// Shards serving them.
    pub shards: u64,
    /// Requests answered.
    pub answered: u64,
    /// Requests shed: queue full at arrival.
    pub shed_overload: u64,
    /// Requests shed: deadline unmeetable.
    pub shed_deadline: u64,
    /// Requests shed: shard out of restart budget.
    pub shed_failed: u64,
    /// Requests lost to shard panics.
    pub lost: u64,
    /// Answers served inside a stale-key window.
    pub degraded_answers: u64,
    /// Distinct stale-key windows entered.
    pub degraded_windows: u64,
    /// Supervisor restarts.
    pub restarts: u64,
    /// Answers that mispredicted direction or target.
    pub mispredicted: u64,
    /// Exact 99th-percentile answered latency in virtual cycles.
    pub p99_latency_cycles: u64,
}

/// One soak measurement: the deterministic counters plus throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakResult {
    /// Virtual-time counters (checked exactly).
    pub counters: SoakCounters,
    /// Answered predictions per wall-clock second (checked with a retain
    /// floor).
    pub predictions_per_sec: f64,
}

/// The pinned reference run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBaseline {
    /// Mode the baseline was captured under.
    pub mode: String,
    /// The pinned measurement.
    pub soak: SoakResult,
}

/// The full `BENCH_serve.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchReport {
    /// Schema version ([`SCHEMA`]).
    pub schema: u32,
    /// Measurement mode of the live `soak` block.
    pub mode: String,
    /// Config fingerprint ([`fingerprint`]).
    pub fingerprint: String,
    /// The live measurement.
    pub soak: SoakResult,
    /// The pinned reference run, if one was recorded.
    pub baseline: Option<ServeBaseline>,
}

/// Deterministic fingerprint tying `BENCH_serve.json` to the declared
/// simulation-core identity: FNV-1a 64 over the core identity string then
/// the suite tag, so the file changes identity when the core is declared
/// changed.
pub fn fingerprint() -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in CODE_SALT.bytes().chain(*b"/serve") {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Runs the soak: builds the paper-default engine (optionally with a fault
/// plan and a snapshot directory), generates the synthetic stream, serves
/// it on `pool`, and distills the measurement.
///
/// # Errors
///
/// Returns a message when the engine config is rejected or — the invariant
/// this whole crate exists to defend — when the report fails exact
/// accounting.
pub fn run_soak(
    mode: Mode,
    faults: &PointFaultPlan,
    pool: &Pool,
    snapshot_dir: Option<PathBuf>,
) -> Result<(ServeReport, SoakResult), String> {
    let mut config = ServeConfig::paper_default();
    config.snapshot_dir = snapshot_dir;
    let engine = ServeEngine::new(config)
        .map_err(|e| e.to_string())?
        .with_faults(faults.clone());
    let requests = bp_serve::synth_requests(&WorkloadSpec::soak(mode.requests(), WORKLOAD_SEED));
    let start = Instant::now();
    let report = engine.run(&requests, pool);
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    if !report.accounting_exact() {
        return Err(format!(
            "soak accounting broken: {} responses for {} requests",
            report.responses.len(),
            requests.len()
        ));
    }
    let soak = distill(&report, elapsed);
    Ok((report, soak))
}

/// Exact p99 over answered latencies (virtual cycles); 0 when nothing was
/// answered.
fn p99_latency(report: &ServeReport) -> u64 {
    let mut latencies: Vec<u64> = report
        .responses
        .iter()
        .filter_map(|r| match r {
            Response::Answered { latency, .. } => Some(*latency),
            _ => None,
        })
        .collect();
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    latencies[((latencies.len() * 99) / 100).min(latencies.len() - 1)]
}

fn distill(report: &ServeReport, elapsed_secs: f64) -> SoakResult {
    let t = report.totals();
    let mut degraded_windows = 0;
    let mut shed_overload = 0;
    let mut shed_deadline = 0;
    let mut shed_failed = 0;
    for s in &report.shards {
        degraded_windows += s.degraded_windows;
        shed_overload += s.shed_overload;
        shed_deadline += s.shed_deadline;
        shed_failed += s.shed_failed;
    }
    SoakResult {
        counters: SoakCounters {
            requests: t.submitted,
            shards: report.shards.len() as u64,
            answered: t.answered,
            shed_overload,
            shed_deadline,
            shed_failed,
            lost: t.lost,
            degraded_answers: t.degraded_answers,
            degraded_windows,
            restarts: t.restarts,
            mispredicted: t.mispredicted,
            p99_latency_cycles: p99_latency(report),
        },
        predictions_per_sec: t.answered as f64 / elapsed_secs,
    }
}

/// Checks a report's structural invariants: schema version, parseable
/// mode, finite positive throughput, and counters that account every
/// request exactly once.
pub fn validate(report: &ServeBenchReport) -> Result<(), String> {
    if report.schema != SCHEMA {
        return Err(format!(
            "schema {} unsupported (expected {SCHEMA})",
            report.schema
        ));
    }
    Mode::parse(&report.mode)?;
    if report.fingerprint.is_empty() {
        return Err("empty fingerprint".to_string());
    }
    validate_soak("soak", &report.soak)?;
    if let Some(base) = &report.baseline {
        Mode::parse(&base.mode)?;
        validate_soak("baseline.soak", &base.soak)?;
    }
    Ok(())
}

fn validate_soak(what: &str, soak: &SoakResult) -> Result<(), String> {
    let c = &soak.counters;
    let accounted = c.answered + c.shed_overload + c.shed_deadline + c.shed_failed + c.lost;
    if accounted != c.requests {
        return Err(format!(
            "{what}: {accounted} accounted responses for {} requests",
            c.requests
        ));
    }
    if c.shards == 0 || c.requests == 0 || c.answered == 0 {
        return Err(format!("{what}: empty soak (shards/requests/answered)"));
    }
    if !soak.predictions_per_sec.is_finite() || soak.predictions_per_sec <= 0.0 {
        return Err(format!(
            "{what}.predictions_per_sec: non-positive or non-finite"
        ));
    }
    Ok(())
}

/// One named counter column: its report key and accessor.
type CounterField = (&'static str, fn(&SoakCounters) -> u64);

/// The counter fields in canonical render order, paired with accessors —
/// the single source of truth shared by the renderer and the parser.
const COUNTER_FIELDS: [CounterField; 13] = [
    ("requests", |c| c.requests),
    ("shards", |c| c.shards),
    ("answered", |c| c.answered),
    ("shed_overload", |c| c.shed_overload),
    ("shed_deadline", |c| c.shed_deadline),
    ("shed_failed", |c| c.shed_failed),
    ("lost", |c| c.lost),
    ("degraded_answers", |c| c.degraded_answers),
    ("degraded_windows", |c| c.degraded_windows),
    ("restarts", |c| c.restarts),
    ("mispredicted", |c| c.mispredicted),
    ("p99_latency_cycles", |c| c.p99_latency_cycles),
    ("predictions_per_sec", |_| 0), // rendered from the float, parsed separately
];

fn render_soak(soak: &SoakResult, indent: &str) -> String {
    let mut out = format!("{indent}\"soak\": {{ ");
    for (name, get) in &COUNTER_FIELDS[..COUNTER_FIELDS.len() - 1] {
        let _ = write!(out, "\"{name}\": {}, ", get(&soak.counters));
    }
    let _ = write!(
        out,
        "\"predictions_per_sec\": {:.1} }}",
        soak.predictions_per_sec
    );
    out
}

/// Renders the report as the canonical line-oriented JSON (the whole soak
/// object on one line — [`parse_report`] depends on this layout).
pub fn render_report(report: &ServeBenchReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", report.schema);
    let _ = writeln!(out, "  \"mode\": \"{}\",", report.mode);
    let _ = writeln!(out, "  \"fingerprint\": \"{}\",", report.fingerprint);
    let _ = writeln!(out, "{},", render_soak(&report.soak, "  "));
    match &report.baseline {
        None => out.push_str("  \"baseline\": null\n"),
        Some(base) => {
            out.push_str("  \"baseline\": {\n");
            let _ = writeln!(out, "    \"mode\": \"{}\",", base.mode);
            let _ = writeln!(out, "{}", render_soak(&base.soak, "    "));
            out.push_str("  }\n");
        }
    }
    out.push_str("}\n");
    out
}

fn str_field(line: &str, key: &str) -> Result<String, String> {
    let rest = line
        .trim()
        .strip_prefix(&format!("\"{key}\": \""))
        .ok_or_else(|| format!("expected string field `{key}`, got `{}`", line.trim()))?;
    let end = rest
        .find('"')
        .ok_or_else(|| format!("unterminated string in `{key}`"))?;
    Ok(rest[..end].to_string())
}

fn soak_line(line: &str) -> Result<SoakResult, String> {
    let t = line.trim().trim_end_matches(',');
    let t = t
        .strip_prefix("\"soak\": {")
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("expected one-line soak object, got `{}`", line.trim()))?;
    let mut counters: Vec<Option<u64>> = vec![None; COUNTER_FIELDS.len() - 1];
    let mut pps: Option<f64> = None;
    for part in t.split(", \"") {
        let part = part.trim().trim_start_matches('"');
        let (key, value) = part
            .split_once("\":")
            .ok_or_else(|| format!("malformed soak field `{part}`"))?;
        let value = value.trim().trim_end_matches(',');
        if key == "predictions_per_sec" {
            pps = Some(
                value
                    .parse::<f64>()
                    .map_err(|e| format!("bad number in `{key}`: `{value}` ({e})"))?,
            );
            continue;
        }
        let slot = COUNTER_FIELDS[..COUNTER_FIELDS.len() - 1]
            .iter()
            .position(|(name, _)| *name == key)
            .ok_or_else(|| format!("unknown soak field `{key}`"))?;
        counters[slot] = Some(
            value
                .parse::<u64>()
                .map_err(|e| format!("bad number in `{key}`: `{value}` ({e})"))?,
        );
    }
    let get = |i: usize| -> Result<u64, String> {
        counters[i].ok_or_else(|| format!("soak object missing `{}`", COUNTER_FIELDS[i].0))
    };
    Ok(SoakResult {
        counters: SoakCounters {
            requests: get(0)?,
            shards: get(1)?,
            answered: get(2)?,
            shed_overload: get(3)?,
            shed_deadline: get(4)?,
            shed_failed: get(5)?,
            lost: get(6)?,
            degraded_answers: get(7)?,
            degraded_windows: get(8)?,
            restarts: get(9)?,
            mispredicted: get(10)?,
            p99_latency_cycles: get(11)?,
        },
        predictions_per_sec: pps.ok_or("soak object missing `predictions_per_sec`")?,
    })
}

/// Strictly parses the canonical report layout emitted by
/// [`render_report`]. Any structural deviation — wrong field order,
/// unknown fields, truncation — is an error naming the offending line.
pub fn parse_report(text: &str) -> Result<ServeBenchReport, String> {
    fn next<'a>(lines: &mut std::str::Lines<'a>, what: &str) -> Result<&'a str, String> {
        lines.next().ok_or_else(|| format!("missing {what}"))
    }
    fn expect(lines: &mut std::str::Lines<'_>, want: &str) -> Result<(), String> {
        match lines.next() {
            Some(l) if l.trim() == want => Ok(()),
            Some(l) => Err(format!("expected `{want}`, got `{}`", l.trim())),
            None => Err(format!("expected `{want}`, got end of file")),
        }
    }
    let mut lines = text.lines();
    expect(&mut lines, "{")?;
    let schema_line = next(&mut lines, "schema line")?;
    let schema = schema_line
        .trim()
        .strip_prefix("\"schema\": ")
        .ok_or_else(|| format!("expected schema field, got `{}`", schema_line.trim()))?
        .trim_end_matches(',')
        .parse::<u32>()
        .map_err(|e| format!("bad schema number: {e}"))?;
    let mode = str_field(next(&mut lines, "mode line")?, "mode")?;
    let fingerprint = str_field(next(&mut lines, "fingerprint line")?, "fingerprint")?;
    let soak = soak_line(next(&mut lines, "soak line")?)?;
    let baseline = match next(&mut lines, "baseline line")?.trim() {
        "\"baseline\": null" => None,
        "\"baseline\": {" => {
            let base_mode = str_field(next(&mut lines, "baseline mode")?, "mode")?;
            let base_soak = soak_line(next(&mut lines, "baseline soak")?)?;
            expect(&mut lines, "}")?;
            Some(ServeBaseline {
                mode: base_mode,
                soak: base_soak,
            })
        }
        other => return Err(format!("expected baseline block, got `{other}`")),
    };
    expect(&mut lines, "}")?;
    if let Some(extra) = lines.next() {
        if !extra.trim().is_empty() {
            return Err(format!("trailing content after report: `{}`", extra.trim()));
        }
    }
    Ok(ServeBenchReport {
        schema,
        mode,
        fingerprint,
        soak,
        baseline,
    })
}

/// Renders the resilience journal: a header with the totals, then one line
/// per shed or lost request — nothing is summarized away, so a reviewer
/// (or the CI grep) can account for every individual disruption.
pub fn render_journal(report: &ServeReport) -> String {
    let t = report.totals();
    let mut out = String::new();
    let _ = writeln!(out, "hybp-serve-journal v1");
    let _ = writeln!(
        out,
        "totals submitted={} answered={} shed={} lost={} restarts={} degraded_answers={}",
        t.submitted, t.answered, t.shed, t.lost, t.restarts, t.degraded_answers
    );
    for s in &report.shards {
        let _ = writeln!(
            out,
            "shard index={} health={:?} submitted={} answered={} shed_overload={} shed_deadline={} shed_failed={} lost={} restarts={} degraded_windows={}",
            s.shard,
            s.health,
            s.submitted,
            s.answered,
            s.shed_overload,
            s.shed_deadline,
            s.shed_failed,
            s.lost,
            s.restarts,
            s.degraded_windows
        );
    }
    for r in &report.responses {
        match r {
            Response::Answered { .. } => {}
            Response::Shed {
                id,
                shard,
                reason,
                at,
            } => {
                let _ = writeln!(
                    out,
                    "shed id={id} shard={shard} reason={} at={at}",
                    reason.name()
                );
            }
            Response::Lost { id, shard, restart } => {
                let _ = writeln!(out, "lost id={id} shard={shard} restart={restart}");
            }
        }
    }
    let _ = writeln!(out, "end");
    out
}

/// Atomically writes the journal next to the other run artifacts.
///
/// # Errors
///
/// Propagates filesystem errors (unwritable directory, failed rename).
pub fn write_journal(path: &Path, report: &ServeReport) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, render_journal(report).as_bytes())?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(err) => {
            let _ = std::fs::remove_file(&tmp);
            Err(err)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_soak(scale: u64) -> SoakResult {
        SoakResult {
            counters: SoakCounters {
                requests: 1000 * scale,
                shards: 4,
                answered: 960 * scale,
                shed_overload: 30 * scale,
                shed_deadline: 8 * scale,
                shed_failed: scale,
                lost: scale,
                degraded_answers: 17 * scale,
                degraded_windows: 2,
                restarts: 1,
                mispredicted: 111 * scale,
                p99_latency_cycles: 1985,
            },
            // Exactly representable at the renderer's {:.1} precision so
            // render → parse round-trips bit-for-bit.
            predictions_per_sec: 123456.5 * scale as f64,
        }
    }

    #[test]
    fn render_parse_roundtrip_with_baseline() {
        let report = ServeBenchReport {
            schema: SCHEMA,
            mode: "quick".to_string(),
            fingerprint: fingerprint(),
            soak: fake_soak(3),
            baseline: Some(ServeBaseline {
                mode: "quick".to_string(),
                soak: fake_soak(1),
            }),
        };
        let parsed = parse_report(&render_report(&report)).expect("roundtrip parses");
        assert_eq!(parsed, report);
        validate(&parsed).expect("roundtrip validates");
    }

    #[test]
    fn render_parse_roundtrip_without_baseline() {
        let report = ServeBenchReport {
            schema: SCHEMA,
            mode: "full".to_string(),
            fingerprint: fingerprint(),
            soak: fake_soak(2),
            baseline: None,
        };
        let parsed = parse_report(&render_report(&report)).expect("parses");
        assert_eq!(parsed, report);
        validate(&parsed).expect("validates");
    }

    #[test]
    fn parse_rejects_truncation_and_junk() {
        let report = ServeBenchReport {
            schema: SCHEMA,
            mode: "quick".to_string(),
            fingerprint: "f".repeat(16),
            soak: fake_soak(1),
            baseline: None,
        };
        let text = render_report(&report);
        assert!(parse_report(&text[..text.len() - 3]).is_err());
        assert!(parse_report(&text.replace("\"lost\"", "\"lostX\"")).is_err());
    }

    #[test]
    fn validate_rejects_broken_accounting() {
        let mut report = ServeBenchReport {
            schema: SCHEMA,
            mode: "quick".to_string(),
            fingerprint: fingerprint(),
            soak: fake_soak(1),
            baseline: None,
        };
        report.soak.counters.lost += 1;
        assert!(validate(&report).is_err());
        report.soak.counters.lost -= 1;
        report.soak.predictions_per_sec = f64::NAN;
        assert!(validate(&report).is_err());
    }

    #[test]
    fn quick_soak_measures_and_journals() {
        let pool = Pool::new(2);
        let (report, soak) =
            run_soak(Mode::Quick, &PointFaultPlan::empty(), &pool, None).expect("soak runs");
        assert_eq!(soak.counters.requests, Mode::Quick.requests());
        assert!(soak.predictions_per_sec > 0.0);
        assert_eq!(soak.counters.lost, 0, "clean soak loses nothing");
        assert_eq!(soak.counters.degraded_windows, 0, "no stalls injected");
        let journal = render_journal(&report);
        assert!(journal.starts_with("hybp-serve-journal v1\n"));
        assert!(journal.ends_with("end\n"));
        // Every shed request appears by id.
        assert_eq!(
            journal.matches("\nshed id=").count() as u64,
            soak.counters.shed_overload + soak.counters.shed_deadline + soak.counters.shed_failed
        );
    }

    #[test]
    fn fingerprint_is_stable_hex() {
        let f = fingerprint();
        assert_eq!(f.len(), 16);
        assert_eq!(f, fingerprint());
        assert!(f.chars().all(|c| c.is_ascii_hexdigit()));
        // The value pinned in the committed BENCH_serve.json.
        assert_eq!(f, "a30bb24d6a2320a7");
    }
}
