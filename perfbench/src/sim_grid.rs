//! `sim_grid`: cold `Simulation::run` points from the fig5/fig6/fig7 grids
//! over a worker pool — the cold suite in miniature, where the
//! predict/train path does nearly all the work.

use bp_common::pool::Pool;
use bp_pipeline::{RunMetrics, SimConfig, Simulation};
use bp_workloads::profile::SpecBenchmark;
use hybp::Mechanism;

use crate::golden::Op;
use crate::spans::{traced, Recorder};

pub const NAME: &str = "sim_grid";

/// Mechanisms of the grid: unprotected, the paper's design, and the
/// isolation-only alternative.
pub fn mechanisms() -> [Mechanism; 3] {
    [
        Mechanism::Baseline,
        Mechanism::hybp_default(),
        Mechanism::Partition,
    ]
}

/// Benchmarks spanning small to large static-branch working sets relative
/// to the TAGE and BTB capacity.
pub const BENCHES: [SpecBenchmark; 6] = [
    SpecBenchmark::Mcf,
    SpecBenchmark::Xz,
    SpecBenchmark::Lbm,
    SpecBenchmark::Fotonik3d,
    SpecBenchmark::Deepsjeng,
    SpecBenchmark::Xalancbmk,
];

/// The fig7 SMT pairs the grid adds.
pub const PAIRS: [[SpecBenchmark; 2]; 2] = [
    [SpecBenchmark::Mcf, SpecBenchmark::Xz],
    [SpecBenchmark::Deepsjeng, SpecBenchmark::Lbm],
];

/// The context-switch interval of the switching configuration (fig5/fig6).
pub const SWITCH_INTERVAL: u64 = 256_000;

/// Run lengths of one grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub warmup: u64,
    /// Measured instructions of a no-switch point, and the floor of a
    /// switching point.
    pub measure: u64,
    /// Context switches a switching point is sized to cover.
    pub switches: u64,
}

/// The benchmark's grid: short enough that a run measures several grids.
pub const BENCH_SCALE: Scale = Scale {
    warmup: 50_000,
    measure: 300_000,
    switches: 2,
};

/// What a grid point simulates.
#[derive(Debug, Clone, Copy)]
pub enum Layout {
    Single(SpecBenchmark),
    Smt([SpecBenchmark; 2]),
}

/// One cold simulation point.
#[derive(Debug, Clone)]
pub struct Point {
    pub label: String,
    pub mechanism: Mechanism,
    pub layout: Layout,
    pub cfg: SimConfig,
}

impl Point {
    pub fn build(&self) -> Simulation {
        let b = Simulation::builder(self.mechanism, self.cfg);
        let b = match self.layout {
            Layout::Single(bench) => b.single_thread(bench),
            Layout::Smt(pair) => b.smt(pair),
        };
        b.build()
            .expect("grid points are built from validated configs")
    }
}

fn config(sim_seed: u64, scale: Scale, interval: Option<(u64, f64)>) -> SimConfig {
    let mut cfg = SimConfig::default_run();
    cfg.seed = sim_seed;
    cfg.warmup_instructions = scale.warmup;
    match interval {
        None => {
            cfg.ctx_switch_interval = u64::MAX / 4;
            cfg.measure_instructions = scale.measure;
        }
        Some((interval, base_ipc)) => {
            cfg.ctx_switch_interval = interval;
            let needed = (interval as f64 * scale.switches as f64 * base_ipc * 1.1) as u64;
            cfg.measure_instructions = needed.max(scale.measure);
        }
    }
    cfg
}

/// The grid for `seed`: mechanisms × benchmarks × {no switch, 256K}, then
/// the SMT pairs (no switch) under every mechanism, longest first so the
/// pool's last items are short and the workers finish together.
pub fn points(seed: u64, scale: Scale) -> Vec<Point> {
    let sim_seed = crate::derive_seed(seed, 1);
    let mut out = Vec::new();
    for mech in mechanisms() {
        for bench in BENCHES {
            let ipc = bench.profile().base_ipc;
            for (tag, interval) in [("noswitch", None), ("256K", Some((SWITCH_INTERVAL, ipc)))] {
                out.push(Point {
                    label: format!("{}/{}/{tag}", mech.name(), bench.name()),
                    mechanism: mech,
                    layout: Layout::Single(bench),
                    cfg: config(sim_seed, scale, interval),
                });
            }
        }
        for pair in PAIRS {
            out.push(Point {
                label: format!(
                    "{}/{}+{}/noswitch",
                    mech.name(),
                    pair[0].name(),
                    pair[1].name()
                ),
                mechanism: mech,
                layout: Layout::Smt(pair),
                cfg: config(sim_seed, scale, None),
            });
        }
    }
    out.sort_by_key(|p| {
        let threads = match p.layout {
            Layout::Single(_) => 1,
            Layout::Smt(_) => 2,
        };
        std::cmp::Reverse(p.cfg.measure_instructions * threads)
    });
    out
}

/// Set-up: constructs every point's simulation once (predictor tables,
/// keys tables, workload generators). Pool items construct their own again
/// because a simulation cannot move between threads.
pub fn setup(points: &[Point]) {
    for p in points {
        std::hint::black_box(p.build());
    }
}

/// The operation record of one finished point, with its invariants.
fn op(point: &Point, result: Result<RunMetrics, String>) -> Op {
    let m = match result {
        Ok(m) => m,
        Err(e) => {
            let mut op = Op::new(NAME, point.label.clone(), String::new());
            op.require(false, || format!("{}: {e}", point.label));
            return op;
        }
    };
    let join = |f: fn(&bp_pipeline::ThreadMetrics) -> u64| {
        m.threads
            .iter()
            .map(|t| f(t).to_string())
            .collect::<Vec<_>>()
            .join("/")
    };
    let b = &m.bpu;
    let stats = format!(
        "retired={} cycles={} dir_miss={} tgt_miss={} btb_hits={}/{}/{} branches={}",
        join(|t| t.retired),
        join(|t| t.cycles),
        b.direction_mispredicts,
        b.target_mispredicts,
        b.btb_hits[0],
        b.btb_hits[1],
        b.btb_hits[2],
        b.branches
    );
    let mut op = Op::new(NAME, point.label.clone(), stats);
    let want = point.cfg.measure_instructions;
    op.require(m.threads.iter().all(|t| t.retired == want), || {
        format!(
            "{}: a thread did not retire its {want} measured instructions",
            point.label
        )
    });
    op.require(b.branches > 0, || format!("{}: no branches", point.label));
    op
}

/// Runs the grid cold over `pool`, in input order. Each item records one
/// span (`point:<label>`) under `parent` when tracing.
pub fn run(
    pool: &Pool,
    points: &[Point],
    rec: Option<&Recorder>,
    parent: Option<u64>,
) -> Vec<(Op, Option<RunMetrics>)> {
    pool.par_map(points, |p| {
        let result = traced(rec, parent, &format!("point:{}", p.label), 1, |_| {
            p.build().run().map_err(|e| e.to_string())
        });
        let metrics = result.as_ref().ok().cloned();
        (op(p, result), metrics)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_statistics_are_identical_at_one_and_nproc_workers() {
        let scale = Scale {
            warmup: 5_000,
            measure: 20_000,
            switches: 1,
        };
        let pts: Vec<Point> = points(crate::golden::DEFAULT_SEED, scale)
            .into_iter()
            .step_by(3)
            .collect();
        let serial: Vec<Op> = run(&Pool::serial(), &pts, None, None)
            .into_iter()
            .map(|r| r.0)
            .collect();
        let nproc = Pool::machine_sized().threads().max(2);
        let parallel: Vec<Op> = run(&Pool::new(nproc), &pts, None, None)
            .into_iter()
            .map(|r| r.0)
            .collect();
        assert_eq!(serial, parallel);
        assert!(serial.iter().all(|o| o.problem.is_none()), "{serial:?}");
    }
}
