//! The TAGE walk in lockstep with a naive reference model.
//!
//! `RefTage` is written straight from the unpacked design: one struct per
//! tagged entry and one `Vec` per table, one `FoldedHistory` per fold, the
//! raw index and tag recomputed per table, and one `transform_index` plus
//! one `transform_tag` codec call per table. `Tage` packs every entry into
//! 16 bits in one block, steps its folds as one lane array, and asks the
//! codec for a whole walk's keys at once (`TableCodec::tagged_walk_keys`),
//! which HyBP's codec answers with one keys-table read counted 30 times
//! when no fault or renewal can intervene.
//!
//! Both models run the same branch stream, each with its own identically
//! built codec, and must agree on every prediction, on every table's final
//! occupancy, on the codec's counters and on every keys table's counters.
//! The streams are the generator streams of the six `sim_grid` benchmarks,
//! and seeded random ones over every table geometry the experiments build
//! plus one at the edges of what `Tage` accepts. The schedule re-keys a
//! slot every `SWITCH_EVERY` branches (so reads land on stale words
//! mid-refresh) and updates without a preceding predict every
//! `UNPREDICTED_EVERY` branches (the lost-lookup recovery path).

#![allow(
    clippy::expect_used,
    reason = "test setup helpers abort the test on a broken fixture, as a failed assertion would"
)]

use hybp_repro::bp_common::history::{FoldedHistory, GlobalHistory, PathHistory};
use hybp_repro::bp_common::rng::{SplitMix64, Xoshiro256StarStar};
use hybp_repro::bp_common::{Addr, Asid, Cycle, Vmid};
use hybp_repro::bp_crypto::keys::PAPER_RENEWAL_THRESHOLD;
use hybp_repro::bp_faults::{FaultInjector, FaultPlan};
use hybp_repro::bp_predictors::bimodal::Bimodal;
use hybp_repro::bp_predictors::codec::{IdentityCodec, TableCodec, TableId, TableUnit};
use hybp_repro::bp_predictors::tage::{Tage, TageConfig, TagePrediction, TaggedTableConfig};
use hybp_repro::bp_workloads::{SpecBenchmark, WorkloadGenerator};
use hybp_repro::hybp::{HybpCodec, HybpConfig};

/// The six benchmarks of perfbench's `sim_grid` workload.
const SIM_GRID_BENCHES: [SpecBenchmark; 6] = [
    SpecBenchmark::Mcf,
    SpecBenchmark::Xz,
    SpecBenchmark::Lbm,
    SpecBenchmark::Fotonik3d,
    SpecBenchmark::Deepsjeng,
    SpecBenchmark::Xalancbmk,
];

/// Branches between two re-keys of the (next) slot.
const SWITCH_EVERY: usize = 1_500;
/// Every this many branches, `update` runs without a `predict`.
const UNPREDICTED_EVERY: usize = 97;
/// A renewal threshold the streams cross many times. Each renewal
/// re-encrypts the keys table, so a much smaller one would dominate the
/// run time.
const RENEWING_THRESHOLD: u64 = 1_001;

// ---------------------------------------------------------------------------
// The reference model.

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RefEntry {
    tag: u64,
    ctr: i8,
    u: u8,
}

struct RefHistory {
    global: GlobalHistory,
    path: PathHistory,
    /// `[index, tag, tag2]` folds per table.
    folds: Vec<[FoldedHistory; 3]>,
}

impl RefHistory {
    fn new(config: &TageConfig) -> Self {
        let folds = config
            .tagged
            .iter()
            .map(|t| {
                let index_bits = (usize::BITS - (t.entries - 1).leading_zeros()) as usize;
                let tag_bits = t.tag_bits as usize;
                [
                    FoldedHistory::new(t.history_len, index_bits.max(1)),
                    FoldedHistory::new(t.history_len, tag_bits),
                    FoldedHistory::new(t.history_len, tag_bits.saturating_sub(1).max(1)),
                ]
            })
            .collect();
        RefHistory {
            global: GlobalHistory::new(),
            path: PathHistory::new(),
            folds,
        }
    }

    fn push(&mut self, pc: Addr, taken: bool) {
        self.global.push(taken);
        self.path.push(pc.bits(2, 1) == 1);
        for f in self.folds.iter_mut().flatten() {
            f.update(&self.global);
        }
    }

    fn clear(&mut self) {
        self.global.clear();
        self.path.clear();
        for f in self.folds.iter_mut().flatten() {
            f.clear();
        }
    }
}

struct RefLookup {
    pc: u64,
    slot: usize,
    pred: TagePrediction,
    indices: Vec<usize>,
    tags: Vec<u64>,
}

struct RefTage {
    config: TageConfig,
    bases: Vec<Bimodal>,
    tables: Vec<Vec<RefEntry>>,
    histories: Vec<RefHistory>,
    use_alt_on_new_alloc: i8,
    updates: u64,
    alloc_rng: SplitMix64,
    last: Option<RefLookup>,
}

impl RefTage {
    fn with_slots(config: TageConfig, slots: usize) -> Self {
        RefTage {
            bases: (0..slots)
                .map(|_| Bimodal::new(config.base_entries.next_power_of_two(), 1))
                .collect(),
            tables: config
                .tagged
                .iter()
                .map(|t| vec![RefEntry::default(); t.entries])
                .collect(),
            histories: (0..slots).map(|_| RefHistory::new(&config)).collect(),
            use_alt_on_new_alloc: 0,
            updates: 0,
            alloc_rng: SplitMix64::new(0x7A6E),
            last: None,
            config,
        }
    }

    fn predict<C: TableCodec>(
        &mut self,
        pc: Addr,
        slot: usize,
        codec: &mut C,
        now: Cycle,
    ) -> TagePrediction {
        let h = &self.histories[slot % self.histories.len()];
        let p = pc.raw() >> 2;
        let mut indices = Vec::new();
        let mut tags = Vec::new();
        let mut matching = Vec::new();
        for (i, t) in self.config.tagged.iter().enumerate() {
            let bits = (usize::BITS - (t.entries - 1).leading_zeros()).max(1);
            let [fold_index, fold_tag, fold_tag2] = &h.folds[i];
            let raw_index =
                p ^ (p >> bits) ^ fold_index.value() ^ h.path.low_bits(bits.min(16) as usize);
            let tag_mask = (1u64 << t.tag_bits) - 1;
            let raw_tag = (p ^ fold_tag.value() ^ (fold_tag2.value() << 1)) & tag_mask;
            let id = TableId::new(TableUnit::TageTagged, i);
            let index = (codec.transform_index(id, raw_index, pc, now) % t.entries as u64) as usize;
            let tag = codec.transform_tag(id, raw_tag, pc, now) & tag_mask;
            let e = self.tables[i][index];
            // A never-allocated entry must not match tag 0.
            if e.tag == tag && e != RefEntry::default() {
                matching.push(i);
            }
            indices.push(index);
            tags.push(tag);
        }
        let base_pred = self.bases[slot % self.bases.len()].predict(pc);
        let provider = matching.last().copied();
        let alt = matching.len().checked_sub(2).map(|k| matching[k]);
        let alt_taken = match alt {
            Some(a) => self.tables[a][indices[a]].ctr >= 0,
            None => base_pred,
        };
        let pred = match provider {
            Some(p) => {
                let e = self.tables[p][indices[p]];
                let weak = e.ctr == 0 || e.ctr == -1;
                let taken = if weak && e.u == 0 && self.use_alt_on_new_alloc >= 0 {
                    alt_taken
                } else {
                    e.ctr >= 0
                };
                TagePrediction {
                    taken,
                    provider: Some(p),
                    alt_taken,
                    weak,
                }
            }
            None => TagePrediction {
                taken: base_pred,
                provider: None,
                alt_taken: base_pred,
                weak: true,
            },
        };
        self.last = Some(RefLookup {
            pc: pc.raw(),
            slot,
            pred,
            indices,
            tags,
        });
        pred
    }

    fn update<C: TableCodec>(
        &mut self,
        pc: Addr,
        slot: usize,
        taken: bool,
        codec: &mut C,
        now: Cycle,
    ) {
        let state = match self.last.take() {
            Some(s) if s.pc == pc.raw() && s.slot == slot => s,
            _ => {
                self.predict(pc, slot, codec, now);
                self.last.take().expect("predict stores its lookup")
            }
        };
        self.updates += 1;
        let ctr_max = (1i8 << (self.config.ctr_bits - 1)) - 1;
        let ctr_min = -(1i8 << (self.config.ctr_bits - 1));
        let u_max = ((1u16 << self.config.u_bits) - 1) as u8;
        let base = slot % self.bases.len();
        match state.pred.provider {
            Some(p) => {
                let e = &mut self.tables[p][state.indices[p]];
                let provider_pred = e.ctr >= 0;
                if state.pred.weak && e.u == 0 && provider_pred != state.pred.alt_taken {
                    self.use_alt_on_new_alloc = if state.pred.alt_taken == taken {
                        (self.use_alt_on_new_alloc + 1).min(7)
                    } else {
                        (self.use_alt_on_new_alloc - 1).max(-8)
                    };
                }
                if provider_pred != state.pred.alt_taken {
                    e.u = if provider_pred == taken {
                        (e.u + 1).min(u_max)
                    } else {
                        e.u.saturating_sub(1)
                    };
                }
                e.ctr = if taken {
                    (e.ctr + 1).min(ctr_max)
                } else {
                    (e.ctr - 1).max(ctr_min)
                };
                if state.pred.weak {
                    self.bases[base].update(pc, taken);
                }
            }
            None => self.bases[base].update(pc, taken),
        }
        if state.pred.taken != taken {
            let start = state.pred.provider.map_or(0, |p| p + 1);
            let free: Vec<usize> = (start..self.tables.len())
                .filter(|&j| self.tables[j][state.indices[j]].u == 0)
                .collect();
            if free.is_empty() {
                for j in start..self.tables.len() {
                    let e = &mut self.tables[j][state.indices[j]];
                    e.u = e.u.saturating_sub(1);
                }
            } else {
                let pick = if free.len() > 1 && self.alloc_rng.next_below(4) == 0 {
                    free[1]
                } else {
                    free[0]
                };
                self.tables[pick][state.indices[pick]] = RefEntry {
                    tag: state.tags[pick],
                    ctr: if taken { 0 } else { -1 },
                    u: 0,
                };
            }
        }
        if self.updates.is_multiple_of(self.config.u_reset_period) {
            for e in self.tables.iter_mut().flatten() {
                e.u >>= 1;
            }
        }
        let hs = slot % self.histories.len();
        self.histories[hs].push(pc, taken);
    }

    fn flush_slot(&mut self, slot: usize) {
        let b = slot % self.bases.len();
        self.bases[b].flush();
        let h = slot % self.histories.len();
        self.histories[h].clear();
        self.last = None;
    }

    fn tagged_occupancy(&self, i: usize) -> usize {
        self.tables[i]
            .iter()
            .filter(|&&e| e != RefEntry::default())
            .count()
    }
}

// ---------------------------------------------------------------------------
// The lockstep driver.

/// What the driver needs of a codec beyond the table transforms: the
/// context-switch action and the counters both sides must end with.
trait LockstepCodec: TableCodec {
    /// Makes `slot` active with a fresh key generation.
    fn switch_to(&mut self, slot: usize, asid: Asid, now: Cycle);
    /// Every counter the codec and its keys tables keep, as text.
    fn counters(&self) -> String;
}

impl LockstepCodec for IdentityCodec {
    fn switch_to(&mut self, _slot: usize, _asid: Asid, _now: Cycle) {}

    fn counters(&self) -> String {
        String::new()
    }
}

struct Hybp {
    codec: HybpCodec,
    slots: usize,
    faults: Option<FaultInjector>,
}

impl TableCodec for Hybp {
    fn transform_index(&mut self, table: TableId, raw: u64, pc: Addr, now: Cycle) -> u64 {
        self.codec.transform_index(table, raw, pc, now)
    }

    fn transform_tag(&mut self, table: TableId, raw: u64, pc: Addr, now: Cycle) -> u64 {
        self.codec.transform_tag(table, raw, pc, now)
    }

    fn encode_content(&mut self, table: TableId, raw: u64) -> u64 {
        self.codec.encode_content(table, raw)
    }

    fn decode_content(&mut self, table: TableId, stored: u64) -> u64 {
        self.codec.decode_content(table, stored)
    }

    // The optimized side must reach HyBP's own walk-key path, not the
    // trait default this wrapper would otherwise get.
    fn tagged_walk_keys(&mut self, pc: Addr, now: Cycle, keys: &mut [(u64, u64)]) {
        self.codec.tagged_walk_keys(pc, now, keys);
    }
}

impl LockstepCodec for Hybp {
    fn switch_to(&mut self, slot: usize, asid: Asid, now: Cycle) {
        self.codec.set_context(slot, asid, Vmid::new(0));
        self.codec.renew_slot(slot, asid, now);
    }

    fn counters(&self) -> String {
        let km = self.codec.key_manager();
        let tables: Vec<_> = (0..self.slots)
            .map(|s| {
                let t = km.slot(s).table();
                (
                    t.accesses_since_refresh(),
                    t.stale_hits(),
                    t.generation(),
                    t.anomalous_reads(),
                )
            })
            .collect();
        let faults = self.faults.as_ref().map(FaultInjector::stats);
        format!("{:?} {tables:?} {faults:?}", self.codec.stats())
    }
}

/// How a HyBP codec under test is built.
#[derive(Debug, Clone, Copy)]
struct HybpSetup {
    slots: usize,
    renewal_threshold: u64,
    /// Flip a stored key bit on every this-many-th key read.
    key_flip_period: Option<u64>,
}

impl HybpSetup {
    fn build(self) -> Hybp {
        let mut cfg = HybpConfig::paper_default();
        cfg.renewal_threshold = self.renewal_threshold;
        let mut codec = HybpCodec::new(&cfg, self.slots, 7).expect("valid HyBP config");
        let faults = self
            .key_flip_period
            .map(|p| FaultInjector::from_plan(FaultPlan::new(17).with_key_bit_flips(p)));
        codec.set_fault_injector(faults.clone());
        for slot in 0..self.slots {
            codec.renew_slot(slot, asid(slot), 0);
        }
        codec.set_context(0, asid(0), Vmid::new(0));
        Hybp {
            codec,
            slots: self.slots,
            faults,
        }
    }
}

fn asid(slot: usize) -> Asid {
    Asid::new(slot as u16 + 1)
}

/// One conditional branch of a stream.
#[derive(Debug, Clone, Copy)]
struct Branch {
    pc: Addr,
    taken: bool,
    now: Cycle,
}

/// The conditional branches among the first `len` branches of a generator
/// stream, with the cycle each executes at.
fn generator_stream(bench: SpecBenchmark, seed: u64, len: usize) -> Vec<Branch> {
    let mut g = WorkloadGenerator::new(bench.profile(), seed);
    let mut now: Cycle = 1;
    let mut out = Vec::new();
    for _ in 0..len {
        let r = g.next_branch();
        now += u64::from(r.gap) + 1;
        if r.kind.is_conditional() {
            out.push(Branch {
                pc: r.pc,
                taken: r.taken,
                now,
            });
        }
    }
    out
}

/// `len` random branches over 600 PCs: per-PC biases, a period-3 pattern on
/// every fifth PC (so the tagged tables allocate and provide), and noise.
fn random_stream(seed: u64, len: usize) -> Vec<Branch> {
    let mut rng = Xoshiro256StarStar::seeded(seed);
    let pcs: Vec<u64> = (0..600).map(|_| rng.next_u64() & 0xFF_FFFC).collect();
    let bias: Vec<bool> = pcs.iter().map(|_| rng.chance(0.5)).collect();
    let mut now: Cycle = 1;
    (0..len)
        .map(|i| {
            let k = rng.next_below(pcs.len() as u64) as usize;
            let taken = if k.is_multiple_of(5) {
                i % 3 != 0
            } else {
                bias[k] ^ rng.chance(0.1)
            };
            now += rng.next_below(8) + 1;
            Branch {
                pc: Addr::new(pcs[k]),
                taken,
                now,
            }
        })
        .collect()
}

/// Runs `Tage` and `RefTage` over `stream` in lockstep, each with its own
/// codec from `make_codec`, checks that they never diverge, and returns
/// `Tage`'s codec.
fn lockstep<C: LockstepCodec>(
    label: &str,
    config: &TageConfig,
    slots: usize,
    stream: &[Branch],
    make_codec: impl Fn() -> C,
) -> C {
    let mut fast = Tage::with_slots(config.clone(), slots);
    let mut reference = RefTage::with_slots(config.clone(), slots);
    let (mut fast_codec, mut ref_codec) = (make_codec(), make_codec());
    let mut slot = 0;
    for (i, b) in stream.iter().enumerate() {
        if i > 0 && i % SWITCH_EVERY == 0 {
            slot = (slot + 1) % slots;
            fast_codec.switch_to(slot, asid(slot), b.now);
            ref_codec.switch_to(slot, asid(slot), b.now);
            fast.flush_slot(slot);
            reference.flush_slot(slot);
        }
        if i % UNPREDICTED_EVERY != 0 {
            let got = fast.predict_slot(b.pc, slot, &mut fast_codec, b.now);
            let want = reference.predict(b.pc, slot, &mut ref_codec, b.now);
            assert_eq!(got, want, "{label}: prediction {i} ({b:?}) diverged");
        }
        fast.update_slot(b.pc, slot, b.taken, &mut fast_codec, b.now);
        reference.update(b.pc, slot, b.taken, &mut ref_codec, b.now);
    }
    for t in 0..fast.table_count() {
        assert_eq!(
            fast.tagged_occupancy(t),
            reference.tagged_occupancy(t),
            "{label}: occupancy of table {t}"
        );
    }
    assert_eq!(
        fast_codec.counters(),
        ref_codec.counters(),
        "{label}: codec and keys-table counters"
    );
    fast_codec
}

fn check_all_codecs(label: &str, config: &TageConfig, stream: &[Branch]) {
    lockstep(
        &format!("{label}/identity"),
        config,
        1,
        stream,
        IdentityCodec::new,
    );
    let setups = [
        HybpSetup {
            slots: 1,
            renewal_threshold: PAPER_RENEWAL_THRESHOLD,
            key_flip_period: None,
        },
        HybpSetup {
            slots: 4,
            renewal_threshold: PAPER_RENEWAL_THRESHOLD,
            key_flip_period: None,
        },
        // Renewals land inside walks, on every read position of a walk in
        // turn (a walk reads 30 times; 1,001 = 33 · 30 + 11).
        HybpSetup {
            slots: 1,
            renewal_threshold: RENEWING_THRESHOLD,
            key_flip_period: None,
        },
        HybpSetup {
            slots: 1,
            renewal_threshold: PAPER_RENEWAL_THRESHOLD,
            key_flip_period: Some(7),
        },
    ];
    for setup in setups {
        let label = format!("{label}/{setup:?}");
        let h = lockstep(&label, config, setup.slots, stream, || setup.build());
        // The schedule reaches what each setup is there to check.
        let stats = h.codec.stats();
        let table = h.codec.key_manager().slot(0).table();
        assert!(table.stale_hits() > 0, "{label}: no stale key read");
        if setup.renewal_threshold == RENEWING_THRESHOLD {
            assert!(stats.counter_renewals > 0, "{label}: no renewal");
        }
        if let Some(faults) = &h.faults {
            assert!(faults.stats().key_bit_flips > 0, "{label}: no key fault");
        }
    }
}

/// A geometry no experiment builds, at the edges of what `Tage` accepts:
/// all 24 tables, 12-bit tags (11-bit second tag folds), a zero-length
/// history (its folds stay 0) and one as long as the global register (its
/// folds never evict), over power-of-two and modulo-path table sizes. The
/// two edge lengths come first: allocation prefers the tables right after
/// the provider, so a last table would hardly ever be allocated, and folds
/// that never reach a prediction are not checked.
fn edge_geometry() -> TageConfig {
    let lengths = [
        0, 1024, 2, 3, 5, 8, 12, 17, 24, 33, 46, 63, 86, 117, 159, 216, 292, 395, 480, 560, 640,
        730, 830, 930,
    ];
    TageConfig {
        base_entries: 2048,
        tagged: lengths
            .iter()
            .enumerate()
            .map(|(i, &history_len)| TaggedTableConfig {
                entries: [256, 384, 1000][i % 3],
                tag_bits: 12,
                history_len,
            })
            .collect(),
        ctr_bits: 3,
        u_bits: 1,
        u_reset_period: 256 * 1024,
    }
}

fn run(len: usize) {
    let paper = TageConfig::paper_scl();
    for (k, &bench) in SIM_GRID_BENCHES.iter().enumerate() {
        let stream = generator_stream(bench, 42 + k as u64, len);
        check_all_codecs(&format!("{bench:?}"), &paper, &stream);
    }
    // Every index-fold width the experiments build: paper scale (11 bits),
    // Partition's quarter tables (512 entries, 9 bits) and a fig8
    // Replication size (716 entries at +40 %, 10 bits). 716 and the 3/2
    // scale (3,072 entries) take the modulo path of the index reduction.
    // Then the edges of the geometry.
    let geometries = [
        paper.clone(),
        paper.scaled(3, 2),
        paper.scaled(1, 4),
        paper.scaled(140, 400),
        edge_geometry(),
    ];
    for (seed, config) in (1..).zip(geometries) {
        check_all_codecs(&format!("random{seed}"), &config, &random_stream(seed, len));
    }
}

#[test]
fn tage_walk_matches_the_reference_model() {
    run(20_000);
}

/// The same check over 1M branches per stream (release CI).
#[test]
#[ignore = "long: run with --release --include-ignored"]
fn tage_walk_matches_the_reference_model_long() {
    run(1_000_000);
}
