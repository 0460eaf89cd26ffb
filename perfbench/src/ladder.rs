//! The per-layer ladder of the traced run.
//!
//! Each rung times calls into one layer's public functions on the
//! workloads' own inputs: the grid's branch streams, the PoC's attacker /
//! victim hand-offs and the recorded traces. Rungs that stack (generator →
//! TAGE → SC/loop → codec → `process_branch` → `Simulation::run`) give a
//! layer's cost as the gap between its rung and the rung below.

use std::collections::BTreeMap;
use std::time::Instant;

use bp_common::{Asid, BranchKind, BranchRecord, Cycle, HwThreadId, Vmid};
use bp_crypto::keys::{IndexSeed, KeysTable, KeysTableConfig};
use bp_crypto::{Qarma64, TweakableBlockCipher};
use bp_pipeline::{stream_seed, SimConfig, Simulation};
use bp_predictors::btb::{BtbHierarchy, BtbHierarchyConfig};
use bp_predictors::codec::{IdentityCodec, TableCodec};
use bp_predictors::tage::{Tage, TageConfig};
use bp_predictors::tage_scl::TageScL;
use bp_trace::TraceSession;
use bp_workloads::WorkloadGenerator;
use hybp::{HybpCodec, HybpConfig, SecureBpu};

use crate::spans::{traced, Recorder};
use crate::{sim_grid, stats, trace_sample};

/// Branches replayed per grid benchmark in every per-branch rung.
pub const BRANCHES_PER_BENCH: usize = 40_000;

/// Calls per round of the per-call rungs (context switch, renew, refresh,
/// flush); enough rounds give the p99 ten samples beyond it.
pub const CALLS_PER_ROUND: usize = 300;

/// One benchmark's replayed stream.
struct Stream {
    records: Vec<BranchRecord>,
    conditional: u64,
    instructions: u64,
}

/// The ladder's inputs, built once per traced run.
pub struct Inputs {
    seed: u64,
    sim_seed: u64,
    streams: Vec<Stream>,
    /// Records of the first trace, re-saved by the save rung.
    save_records: Vec<BranchRecord>,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let sim_seed = crate::derive_seed(seed, 1);
        let streams = sim_grid::BENCHES
            .iter()
            .map(|b| {
                // The stream the grid's simulations replay on thread 0.
                let mut g = WorkloadGenerator::new(b.profile(), stream_seed(sim_seed, 0, 0));
                let records: Vec<BranchRecord> =
                    (0..BRANCHES_PER_BENCH).map(|_| g.next_branch()).collect();
                Stream {
                    conditional: records.iter().filter(|r| r.kind.is_conditional()).count() as u64,
                    instructions: records.iter().map(|r| u64::from(r.gap) + 1).sum(),
                    records,
                }
            })
            .collect();
        let spec = trace_sample::TRACES[0];
        let save_records = bench::phased_records(
            crate::derive_seed(seed, 30),
            spec.phases,
            trace_sample::sampling().window * 8,
            trace_sample::INSTRUCTIONS,
        );
        Inputs {
            seed,
            sim_seed,
            streams,
            save_records,
        }
    }

    fn branches(&self) -> f64 {
        (self.streams.len() * BRANCHES_PER_BENCH) as f64
    }

    fn conditional(&self) -> f64 {
        self.streams.iter().map(|s| s.conditional).sum::<u64>() as f64
    }
}

/// Times `f` as one call batch: a span when tracing, nanoseconds always.
fn batch<R>(
    rec: Option<&Recorder>,
    parent: Option<u64>,
    name: &str,
    calls: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    traced(rec, parent, name, calls, |_| {
        let t = Instant::now();
        let r = f();
        (r, t.elapsed().as_nanos() as f64)
    })
}

/// Predict + update through TAGE or TAGE-SC-L over every stream, with a
/// fresh predictor per stream. Returns total nanoseconds.
fn direction_rung<C: TableCodec>(
    inputs: &Inputs,
    rec: Option<&Recorder>,
    parent: Option<u64>,
    name: &str,
    scl: bool,
    mut codec: impl FnMut() -> C,
) -> f64 {
    traced(rec, parent, &format!("rung:{name}"), 1, |id| {
        let mut total = 0.0;
        for s in &inputs.streams {
            let mut c = codec();
            let mut tage = Tage::new(TageConfig::paper_scl());
            let mut tage_scl = TageScL::new(TageConfig::paper_scl());
            let ((), ns) = batch(rec, id, "calls", s.conditional, || {
                let mut now: Cycle = 1;
                for r in &s.records {
                    now += u64::from(r.gap) + 1;
                    if !r.kind.is_conditional() {
                        continue;
                    }
                    if scl {
                        std::hint::black_box(tage_scl.predict_slot(r.pc, 0, &mut c, now));
                        tage_scl.update_slot(r.pc, 0, r.taken, &mut c, now);
                    } else {
                        std::hint::black_box(tage.predict_slot(r.pc, 0, &mut c, now));
                        tage.update_slot(r.pc, 0, r.taken, &mut c, now);
                    }
                }
            });
            total += ns;
        }
        total
    })
}

/// Lookup + update through the BTB hierarchy over every stream.
fn btb_rung<C: TableCodec>(
    inputs: &Inputs,
    rec: Option<&Recorder>,
    parent: Option<u64>,
    name: &str,
    mut codec: impl FnMut() -> C,
) -> f64 {
    traced(rec, parent, &format!("rung:{name}"), 1, |id| {
        let mut total = 0.0;
        for s in &inputs.streams {
            let mut c = codec();
            let mut btb = BtbHierarchy::with_config(BtbHierarchyConfig::zen2(), inputs.sim_seed);
            let ((), ns) = batch(rec, id, "calls", s.records.len() as u64, || {
                let mut now: Cycle = 1;
                for r in &s.records {
                    now += u64::from(r.gap) + 1;
                    if r.kind == BranchKind::Return {
                        continue;
                    }
                    std::hint::black_box(btb.lookup_slot(r.pc, 0, &mut c, now));
                    if r.taken {
                        btb.update_slot(r.pc, r.target, 0, &mut c, now);
                    }
                }
            });
            total += ns;
        }
        total
    })
}

fn hybp_codec(seed: u64) -> HybpCodec {
    let mut c = HybpCodec::new(&HybpConfig::paper_default(), 1, seed)
        .expect("the paper's HyBP configuration is valid");
    c.renew_slot(0, Asid::new(1), 0);
    c.set_context(0, Asid::new(1), Vmid::new(0));
    c
}

/// Times `calls` single calls of `f(i)` and returns each in microseconds.
fn per_call_us(calls: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..calls)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect()
}

/// One round of every rung. Returns the per-layer values of this round and
/// the per-call context-switch samples (pooled across rounds for the p99).
pub fn round(
    inputs: &Inputs,
    traces: &trace_sample::Fixture,
    rec: Option<&Recorder>,
    parent: Option<u64>,
) -> (BTreeMap<&'static str, f64>, Vec<f64>) {
    let mut m = BTreeMap::new();
    let branches = inputs.branches();
    let conditional = inputs.conditional();
    let seed = inputs.sim_seed;

    // bp-workloads: the generator alone.
    let gen_ns = traced(rec, parent, "rung:generator", 1, |id| {
        let mut total = 0.0;
        for b in sim_grid::BENCHES {
            let mut g = WorkloadGenerator::new(b.profile(), stream_seed(seed, 0, 0));
            total += batch(rec, id, "calls", BRANCHES_PER_BENCH as u64, || {
                for _ in 0..BRANCHES_PER_BENCH {
                    std::hint::black_box(g.next_branch());
                }
            })
            .1;
        }
        total
    });
    m.insert("bp-workloads.next_branch_ns", gen_ns / branches);

    // bp-predictors and the codec, identity codec first.
    let tage_id = direction_rung(inputs, rec, parent, "tage", false, IdentityCodec::new);
    let scl_id = direction_rung(inputs, rec, parent, "tage_scl", true, IdentityCodec::new);
    let btb_id = btb_rung(inputs, rec, parent, "btb", IdentityCodec::new);
    let scl_h = direction_rung(inputs, rec, parent, "tage_scl+codec", true, || {
        hybp_codec(seed)
    });
    let btb_h = btb_rung(inputs, rec, parent, "btb+codec", || hybp_codec(seed));
    m.insert("bp-predictors.tage_ns", tage_id / conditional);
    m.insert("bp-predictors.scl_ns", (scl_id - tage_id) / conditional);
    m.insert("bp-predictors.btb_ns", btb_id / branches);
    let codec_ns = ((scl_h - scl_id) + (btb_h - btb_id)) / branches;
    m.insert("hybp.codec_ns", codec_ns);

    // bp-crypto: keys-table reads, re-keyed at the grid's switch interval
    // (re-keying itself is timed by the refresh rung, not here).
    let (key_ns, stale, reads) = traced(rec, parent, "rung:key_at", 1, |id| {
        let cipher = Qarma64::from_seed(seed);
        let cfg = KeysTableConfig::paper_default();
        let (mut total, mut stale, mut reads) = (0.0, 0u64, 0u64);
        for s in &inputs.streams {
            let mut table = KeysTable::new(cfg).expect("the paper's keys table is valid");
            let mut now: Cycle = 1;
            let mut refreshes = 0u64;
            for chunk in s.records.chunks(4096) {
                if now >= refreshes * sim_grid::SWITCH_INTERVAL {
                    let seed = IndexSeed::derive(Asid::new(1), Vmid::new(0), refreshes);
                    table.begin_refresh(&cipher, seed, refreshes << 20, now);
                    refreshes += 1;
                }
                total += batch(rec, id, "calls", chunk.len() as u64, || {
                    for r in chunk {
                        now += u64::from(r.gap) + 1;
                        let entry = r.pc.bits(12, 10) as usize;
                        std::hint::black_box(table.key_at(entry, now));
                    }
                })
                .1;
                reads += chunk.len() as u64;
            }
            stale += table.stale_hits();
        }
        (total, stale, reads)
    });
    m.insert("bp-crypto.key_read_ns", key_ns / reads as f64);
    m.insert("bp-crypto.stale_hit_frac", stale as f64 / reads as f64);

    // hybp: the whole BPU, per mechanism of the grid.
    let pb = traced(rec, parent, "rung:process_branch", 1, |id| {
        let mut total = 0.0;
        for mech in sim_grid::mechanisms() {
            for s in &inputs.streams {
                let mut bpu = SecureBpu::new(mech, 2, seed).expect("grid mechanisms are valid");
                let hw = HwThreadId::new(0);
                bpu.on_context_switch(hw, Asid::new(1), 0);
                total += batch(
                    rec,
                    id,
                    &format!("calls:{}", mech.name()),
                    s.records.len() as u64,
                    || {
                        let mut now: Cycle = 1;
                        for r in &s.records {
                            now += u64::from(r.gap) + 1;
                            std::hint::black_box(bpu.process_branch(hw, r, now));
                        }
                    },
                )
                .1;
            }
        }
        total
    });
    let mechs = sim_grid::mechanisms().len() as f64;
    let pb_ns = pb / (mechs * branches);
    m.insert("hybp.process_branch_ns", pb_ns);
    // Predictor rungs under each mechanism's codec: HyBP is one of three.
    m.insert(
        "hybp.bpu_self_ns",
        pb_ns - (scl_id + btb_id) / branches - codec_ns / mechs,
    );

    // bp-pipeline: whole simulations over the same streams.
    let (run_ns, sim_branches, sim_cycles) = traced(rec, parent, "rung:simulation_run", 1, |id| {
        let (mut ns, mut b, mut c) = (0.0, 0u64, 0u64);
        for mech in sim_grid::mechanisms() {
            for (bench, s) in sim_grid::BENCHES.iter().zip(&inputs.streams) {
                let mut cfg = SimConfig::default_run();
                cfg.seed = seed;
                cfg.warmup_instructions = 0;
                cfg.ctx_switch_interval = u64::MAX / 4;
                cfg.measure_instructions = s.instructions;
                let mut sim = Simulation::builder(mech, cfg)
                    .single_thread(*bench)
                    .build()
                    .expect("ladder simulations use validated configs");
                let (metrics, t) = batch(rec, id, &format!("run:{}", mech.name()), 1, || sim.run());
                let metrics = metrics.expect("ladder simulations complete");
                ns += t;
                b += metrics.bpu.branches;
                c += metrics.cycles;
            }
        }
        (ns, b, c)
    });
    let run_per_branch = run_ns / sim_branches as f64;
    m.insert("bp-pipeline.run_ns_per_branch", run_per_branch);
    m.insert(
        "bp-pipeline.self_ns_per_branch",
        run_per_branch - gen_ns / branches - pb_ns,
    );
    m.insert("bp-pipeline.host_ns_per_cycle", run_ns / sim_cycles as f64);

    // The re-key path of the PoC hand-offs.
    let switches = traced(
        rec,
        parent,
        "rung:context_switch",
        CALLS_PER_ROUND as u64,
        |_| {
            let mut bpu = SecureBpu::new(hybp::Mechanism::hybp_default(), 2, seed)
                .expect("the paper's HyBP is valid");
            let hw = HwThreadId::new(0);
            let mut now: Cycle = 10_000;
            per_call_us(CALLS_PER_ROUND, |i| {
                // Attacker and victim alternate on one hardware thread, with the
                // PoC's spacing between hand-offs.
                now += 2_508;
                let asid = if i % 2 == 0 { 200 } else { 100 };
                std::hint::black_box(bpu.on_context_switch(hw, Asid::new(asid), now));
            })
        },
    );
    let renew = traced(
        rec,
        parent,
        "rung:renew_slot",
        CALLS_PER_ROUND as u64,
        |_| {
            let mut codec = hybp_codec(seed);
            per_call_us(CALLS_PER_ROUND, |i| {
                let now = 10_000 + i as Cycle * 2_508;
                std::hint::black_box(codec.renew_slot(i % 4, Asid::new(100 + (i % 2) as u16), now));
            })
        },
    );
    m.insert("hybp.renew_us", stats::median(&renew));
    let refresh = traced(
        rec,
        parent,
        "rung:begin_refresh",
        CALLS_PER_ROUND as u64,
        |_| {
            let cipher = Qarma64::from_seed(seed);
            let mut table = KeysTable::new(KeysTableConfig::paper_default())
                .expect("the paper's keys table is valid");
            per_call_us(CALLS_PER_ROUND, |i| {
                let s = IndexSeed::derive(Asid::new(100), Vmid::new(0), i as u64);
                table.begin_refresh(&cipher, s, (i as u64) << 20, i as Cycle * 2_508);
            })
        },
    );
    m.insert("bp-crypto.refresh_us", stats::median(&refresh));
    let (qarma_ns, qarma_batch_ns) = traced(rec, parent, "rung:qarma", 1, |id| {
        let cipher = Qarma64::from_seed(seed);
        const BLOCKS: usize = 65_536;
        let (_, one) = batch(rec, id, "encrypt", BLOCKS as u64, || {
            let mut x = seed;
            for i in 0..BLOCKS as u64 {
                x = cipher.encrypt(x ^ i, 0x0123_4567_89AB_CDEF);
            }
            std::hint::black_box(x)
        });
        let words = KeysTableConfig::paper_default().words();
        let mut buf: Vec<u64> = (0..words as u64).collect();
        let (_, many) = batch(rec, id, "encrypt_batch", BLOCKS as u64, || {
            for i in 0..BLOCKS / words {
                cipher.encrypt_batch(&mut buf, i as u64);
            }
            std::hint::black_box(&buf);
        });
        (
            one / BLOCKS as f64,
            many / ((BLOCKS / words) * words) as f64,
        )
    });
    m.insert("bp-crypto.qarma_ns", qarma_ns);
    m.insert("bp-crypto.qarma_batch_ns", qarma_batch_ns);
    let flush = traced(rec, parent, "rung:flush", CALLS_PER_ROUND as u64, |_| {
        let slots = 4;
        let mut dir = TageScL::with_slots(TageConfig::paper_scl(), slots);
        let cfg = BtbHierarchyConfig {
            slots,
            ..BtbHierarchyConfig::zen2()
        };
        let mut btb = BtbHierarchy::with_config(cfg, seed);
        per_call_us(CALLS_PER_ROUND, |i| {
            dir.flush_slot_isolated(i % slots);
            btb.flush_slot_upper(i % slots);
        })
    });
    m.insert("bp-predictors.flush_us", stats::median(&flush));

    // bp-trace over the recorded traces.
    let (load_ns, decode_ns, sample_ns, records) = traced(rec, parent, "rung:trace", 1, |id| {
        let (mut load, mut decode, mut sample, mut records) = (0.0, 0.0, 0.0, 0u64);
        for (t, spec) in trace_sample::TRACES.iter().enumerate() {
            let session = TraceSession::open(&traces.dir)
                .build()
                .expect("trace dir opens");
            let name = bp_pipeline::stream_name(0, 0, spec.stream);
            let n = traces.records[t];
            let (loaded, ns) = batch(rec, id, "load", n, || {
                session
                    .store()
                    .load(&name, stream_seed(traces.cfg.seed, 0, 0))
            });
            let loaded = loaded.expect("recorded traces load");
            load += ns;
            decode += batch(rec, id, "decode", n, || loaded.records().count()).1;
            sample += batch(rec, id, "sample", n, || {
                loaded.sample(&trace_sample::sampling())
            })
            .1;
            records += n;
        }
        (load, decode, sample, records as f64)
    });
    m.insert("bp-trace.load_ns_per_record", load_ns / records);
    m.insert("bp-trace.decode_ns_per_record", decode_ns / records);
    m.insert("bp-trace.sample_ns_per_record", sample_ns / records);
    let save_ns = traced(rec, parent, "rung:save", 1, |id| {
        let session = TraceSession::open(&traces.dir)
            .build()
            .expect("trace dir opens");
        let n = inputs.save_records.len() as u64;
        batch(rec, id, "save", n, || {
            session
                .store()
                .save(
                    "ladder-save",
                    inputs.seed,
                    &inputs.save_records,
                    bp_trace::DEFAULT_CHUNK_RECORDS,
                )
                .expect("trace dir is writable")
        })
        .1
    });
    m.insert(
        "bp-trace.save_ns_per_record",
        save_ns / inputs.save_records.len() as f64,
    );
    (m, switches)
}
