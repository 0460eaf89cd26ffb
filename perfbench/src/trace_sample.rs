//! `trace_sample`: the fig5 `--sample` path over phase-alternating traces
//! recorded in set-up — the one workload where trace decode, BBV
//! extraction and k-means do a large share of the work and the generator
//! does none.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bench::phased_records;
use bp_pipeline::{stream_name, stream_seed, SimConfig, Simulation};
use bp_trace::{SamplingSpec, TraceSession, TraceStore};
use bp_workloads::profile::SpecBenchmark;
use hybp::Mechanism;

use crate::golden::{pinned_value, Op, DEFAULT_SEED};
use crate::spans::{traced, Recorder};

pub const NAME: &str = "trace_sample";

/// One recorded trace: the benchmark that names its replay stream and the
/// profiles its phases cycle through.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpec {
    pub stream: SpecBenchmark,
    pub phases: &'static [SpecBenchmark],
}

/// Abrupt phase changes between profiles of different working-set size
/// (1.4K to 5.2K static branches): the worst reasonable case for sampling.
/// Every phase has a similar branch density (15-22 % of instructions), so a
/// batch's replay work does not depend on which phases the seed's plans
/// happen to select.
pub const TRACES: [TraceSpec; 3] = [
    TraceSpec {
        stream: SpecBenchmark::Mcf,
        phases: &[
            SpecBenchmark::Mcf,
            SpecBenchmark::Xz,
            SpecBenchmark::Deepsjeng,
            SpecBenchmark::Xalancbmk,
        ],
    },
    TraceSpec {
        stream: SpecBenchmark::Xalancbmk,
        phases: &[SpecBenchmark::Xalancbmk, SpecBenchmark::Exchange2],
    },
    TraceSpec {
        stream: SpecBenchmark::Deepsjeng,
        phases: &[
            SpecBenchmark::Deepsjeng,
            SpecBenchmark::Exchange2,
            SpecBenchmark::Mcf,
        ],
    },
];

/// Instructions per recorded trace.
pub const INSTRUCTIONS: u64 = 12_000_000;

/// The fig5 sampling spec with two warmup windows (as `bench_sampling`).
pub fn sampling() -> SamplingSpec {
    SamplingSpec {
        warmup: 2,
        ..SamplingSpec::default()
    }
}

pub fn mechanisms() -> [Mechanism; 2] {
    [Mechanism::Baseline, Mechanism::hybp_default()]
}

/// The recorded traces.
#[derive(Debug)]
pub struct Fixture {
    pub dir: PathBuf,
    pub cfg: SimConfig,
    /// Records per trace, in [`TRACES`] order.
    pub records: Vec<u64>,
    /// File bytes per trace.
    pub bytes: Vec<u64>,
}

impl Fixture {
    fn stream(&self, t: usize) -> (String, u64) {
        (
            stream_name(0, 0, TRACES[t].stream),
            stream_seed(self.cfg.seed, 0, 0),
        )
    }

    fn builder(
        &self,
        store: &Arc<TraceStore>,
        t: usize,
        mech: Mechanism,
    ) -> bp_pipeline::SimulationBuilder {
        Simulation::builder(mech, self.cfg)
            .single_thread(TRACES[t].stream)
            .trace_store(Some(Arc::clone(store)))
    }
}

/// Set-up: generates every trace from `seed` and saves it into `dir`.
pub fn setup(
    seed: u64,
    dir: &Path,
    rec: Option<&Recorder>,
    parent: Option<u64>,
) -> Result<Fixture, String> {
    let mut cfg = SimConfig::default_run();
    cfg.seed = crate::derive_seed(seed, 3);
    let session = TraceSession::open(dir).build().map_err(|e| e.to_string())?;
    let mut fx = Fixture {
        dir: dir.to_path_buf(),
        cfg,
        records: Vec::new(),
        bytes: Vec::new(),
    };
    for (t, spec) in TRACES.iter().enumerate() {
        let trace_seed = crate::derive_seed(seed, 30 + t as u64);
        let name = spec.stream.name();
        let records = traced(rec, parent, &format!("generate:{name}"), 1, |_| {
            phased_records(trace_seed, spec.phases, sampling().window * 8, INSTRUCTIONS)
        });
        let (stream, stream_seed) = fx.stream(t);
        let summary = traced(
            rec,
            parent,
            &format!("save:{name}"),
            records.len() as u64,
            |_| {
                session.store().save(
                    &stream,
                    stream_seed,
                    &records,
                    bp_trace::DEFAULT_CHUNK_RECORDS,
                )
            },
        )
        .map_err(|e| format!("save {name}: {e}"))?;
        fx.records.push(summary.records);
        fx.bytes.push(summary.bytes);
    }
    Ok(fx)
}

fn ref_name(t: usize, mech: Mechanism) -> String {
    format!("ref/{}/{}", TRACES[t].stream.name(), mech.name())
}

/// Full-replay MPKI of every trace × mechanism: the ground truth the
/// sampled estimates are checked against. Pinned for the default seed;
/// replayed here for any other seed (or when `replay` is set, to pin).
pub fn references(fx: &Fixture, seed: u64, golden: &str, replay: bool) -> Result<Vec<f64>, String> {
    let session = TraceSession::open(&fx.dir)
        .build()
        .map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for t in 0..TRACES.len() {
        for mech in mechanisms() {
            let pinned = pinned_value(golden, NAME, &ref_name(t, mech), "full_mpki")
                .and_then(|v| v.parse::<f64>().ok());
            let mpki = match pinned {
                Some(v) if seed == DEFAULT_SEED && !replay => v,
                _ => fx
                    .builder(session.store(), t, mech)
                    .full_replay()
                    .map_err(|e| e.to_string())?
                    .run()
                    .mpki(),
            };
            out.push(mpki);
        }
    }
    Ok(out)
}

/// Golden lines of the references (what `--pin` prints).
pub fn reference_lines(refs: &[f64]) -> Vec<String> {
    let mut out = Vec::new();
    for t in 0..TRACES.len() {
        for (m, mech) in mechanisms().into_iter().enumerate() {
            out.push(format!(
                "{NAME} {} full_mpki={}",
                ref_name(t, mech),
                refs[t * 2 + m]
            ));
        }
    }
    out
}

/// What a traced batch reports beyond its operations.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    pub coverage: Vec<f64>,
    pub peak_buffered: usize,
    pub records_lost: u64,
    /// |sampled − full-replay MPKI| per estimate (with references).
    pub errors: Vec<f64>,
    /// Estimates whose error exceeds their own reported bound.
    pub bound_violations: u64,
}

/// One batch: per trace, load through a fresh store (no decode cache),
/// sample, and replay the plan under every mechanism. Returns the
/// operations and the trace records the estimates cover. With full-replay
/// references, also measures each estimate's error against its bound.
pub fn run(
    fx: &Fixture,
    refs: Option<&[f64]>,
    rec: Option<&Recorder>,
    parent: Option<u64>,
) -> (Vec<Op>, f64, Observed) {
    let mut ops = Vec::new();
    let mut covered = 0.0;
    let mut seen = Observed::default();
    for t in 0..TRACES.len() {
        let name = TRACES[t].stream.name();
        let pushed_before = ops.len();
        let estimate_names: Vec<String> = mechanisms()
            .iter()
            .map(|m| format!("est/{name}/{}", m.name()))
            .collect();
        let outcome = (|| -> Result<(), String> {
            let session = TraceSession::open(&fx.dir)
                .build()
                .map_err(|e| e.to_string())?;
            let store = session.store();
            let (stream, seed) = fx.stream(t);
            let loaded = traced(rec, parent, &format!("load:{name}"), fx.records[t], |_| {
                store.load(&stream, seed)
            })
            .map_err(|e| format!("load {name}: {e}"))?;
            let (plan, stats) = traced(
                rec,
                parent,
                &format!("sample:{name}"),
                fx.records[t],
                |_| loaded.sample(&sampling()),
            )
            .map_err(|e| format!("sample {name}: {e}"))?;
            seen.coverage.push(plan.coverage());
            seen.peak_buffered = seen.peak_buffered.max(stats.peak_buffered);
            for (m, mech) in mechanisms().into_iter().enumerate() {
                let est = traced(
                    rec,
                    parent,
                    &format!("replay:{name}/{}", mech.name()),
                    1,
                    |_| {
                        fx.builder(store, t, mech)
                            .sampled_replay(plan.clone())
                            .map_err(|e| e.to_string())?
                            .run()
                            .map_err(|e| e.to_string())
                    },
                )
                .map_err(|e| format!("replay {name}: {e}"))?;
                let mpki = est.estimate.mpki();
                let stats = format!(
                    "windows={} mpki={mpki} ipc={}",
                    plan.selections.len(),
                    est.estimate.ipc()
                );
                let mut op = Op::new(NAME, estimate_names[m].clone(), stats);
                // The reported bound is measured, not enforced: phase-
                // alternating traces exceed it at most seeds (README.md).
                if let Some(refs) = refs {
                    let err = (mpki - refs[t * 2 + m]).abs();
                    seen.errors.push(err);
                    seen.bound_violations += u64::from(err > est.error_bound_mpki);
                }
                op.require(mpki.is_finite() && !plan.selections.is_empty(), || {
                    format!("{name}: empty plan or non-finite estimate")
                });
                op.require(
                    loaded.health().is_clean() && store.health().is_clean(),
                    || format!("{name}: trace health not clean: {:?}", store.health()),
                );
                ops.push(op);
                covered += loaded.record_count() as f64;
            }
            seen.records_lost += store.health().records_lost;
            Ok(())
        })();
        if let Err(e) = outcome {
            // Every estimate of this trace that did not finish counts failed.
            for est in estimate_names.into_iter().skip(ops.len() - pushed_before) {
                let mut op = Op::new(NAME, est, String::new());
                op.require(false, || e.clone());
                ops.push(op);
            }
        }
    }
    (ops, covered, seen)
}
