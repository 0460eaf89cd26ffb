//! TAGE: the TAgged GEometric-history-length predictor (Seznec & Michaud).
//!
//! The paper's direction predictor is TAGE-SC-L; this module implements the
//! TAGE core — a bimodal base (provided by [`crate::bimodal::Bimodal`]) plus
//! a set of partially tagged tables indexed by hashes of geometrically
//! growing global-history lengths. The statistical corrector and loop
//! predictor live in [`crate::sc`] and [`crate::loop_pred`], combined in
//! [`crate::tage_scl`].
//!
//! # Isolation slots
//!
//! Under HyBP the base predictor is physically isolated per
//! `(hardware thread, privilege)` while the tagged tables are shared (and
//! randomized). [`Tage::with_slots`] therefore replicates the base predictor
//! and the per-thread history registers across `slots` isolation slots while
//! keeping a single set of tagged tables; every prediction names the slot it
//! executes in. The single-slot constructors model conventional hardware.
//!
//! # Layout
//!
//! A tagged entry is one `u16` (partial tag in bits 4–15, 3-bit signed
//! counter in bits 1–3, useful bit in bit 0; all-zero is empty), and every
//! tagged table lives in one allocation owned by [`Tage`], each table an
//! offset with its index width and masks fixed at construction. A walk
//! takes all its keys from one [`TableCodec::tagged_walk_keys`] call and
//! keeps each table's entry position and tag in `Tage` for the update.

use crate::bimodal::Bimodal;
use crate::codec::TableCodec;
use bp_common::history::{GlobalHistory, PathHistory};
use bp_common::rng::SplitMix64;
use bp_common::{fast_mod, fast_mod_usize, Addr, Cycle};

/// Geometry of one tagged table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedTableConfig {
    /// Entry count.
    pub entries: usize,
    /// Partial tag width in bits.
    pub tag_bits: u32,
    /// Global-history length hashed into the index/tag.
    pub history_len: usize,
}

/// TAGE configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageConfig {
    /// Base predictor prediction entries (paper: 8192, hysteresis shared 2:1).
    pub base_entries: usize,
    /// The tagged tables, shortest history first.
    pub tagged: Vec<TaggedTableConfig>,
    /// Signed counter width (3 ⇒ range −4..=3).
    pub ctr_bits: u32,
    /// Useful counter width.
    pub u_bits: u32,
    /// Updates between periodic useful-counter resets.
    pub u_reset_period: u64,
}

// Paper-scale geometry. `crate::budget` pins the storage these values
// add up to, bit for bit, against `TageConfig::paper_scl().storage_bits()`.

/// Base (bimodal) prediction entries of the paper-scale TAGE.
pub const PAPER_BASE_ENTRIES: usize = 8192;
/// Entries per tagged table.
pub const PAPER_TAGGED_ENTRIES: usize = 2048;
/// Tables carrying the short partial tag (the shortest histories).
pub const PAPER_SHORT_TABLES: usize = 5;
/// Tables carrying the long partial tag.
pub const PAPER_LONG_TABLES: usize = 10;
/// Partial tag width on the short-history tables.
pub const PAPER_SHORT_TAG_BITS: u32 = 8;
/// Partial tag width on the long-history tables.
pub const PAPER_LONG_TAG_BITS: u32 = 11;
/// Signed prediction counter width.
pub const PAPER_CTR_BITS: u32 = 3;
/// Useful counter width.
pub const PAPER_U_BITS: u32 = 1;

impl TageConfig {
    /// The paper-scale TAGE: 8K-entry base, 15 tagged tables of 2K entries
    /// (modeling the "thirty 1K-entry interleaved banks"), tags 8 bits on
    /// the five shortest tables and 11 bits beyond, histories 4..640.
    pub fn paper_scl() -> Self {
        let lengths = [
            4, 6, 9, 13, 19, 29, 43, 64, 96, 144, 216, 324, 486, 600, 640,
        ];
        debug_assert_eq!(lengths.len(), PAPER_SHORT_TABLES + PAPER_LONG_TABLES);
        TageConfig {
            base_entries: PAPER_BASE_ENTRIES,
            tagged: lengths
                .iter()
                .enumerate()
                .map(|(i, &history_len)| TaggedTableConfig {
                    entries: PAPER_TAGGED_ENTRIES,
                    tag_bits: if i < PAPER_SHORT_TABLES {
                        PAPER_SHORT_TAG_BITS
                    } else {
                        PAPER_LONG_TAG_BITS
                    },
                    history_len,
                })
                .collect(),
            ctr_bits: PAPER_CTR_BITS,
            u_bits: PAPER_U_BITS,
            u_reset_period: 256 * 1024,
        }
    }

    /// A proportionally smaller TAGE: every table scaled to
    /// `numer/denom` of its size (used by Partition and the Figure-8
    /// Replication sweep). Sizes are clamped to at least 16 entries.
    ///
    /// # Panics
    ///
    /// Panics if `numer` is zero or `denom` is zero.
    pub fn scaled(&self, numer: usize, denom: usize) -> Self {
        assert!(numer > 0 && denom > 0, "scale must be positive");
        let mut cfg = self.clone();
        cfg.base_entries = (cfg.base_entries * numer / denom).max(16);
        for t in &mut cfg.tagged {
            t.entries = (t.entries * numer / denom).max(16);
        }
        cfg
    }

    /// Total modeled storage in bits for one base replica plus the tagged
    /// tables (callers multiply the base share by slot count).
    pub fn storage_bits(&self) -> u64 {
        self.base_storage_bits() + self.tagged_storage_bits()
    }

    /// Storage of one base predictor replica in bits.
    pub fn base_storage_bits(&self) -> u64 {
        self.base_entries as u64 + (self.base_entries as u64 / 2)
    }

    /// Storage of the tagged tables in bits.
    pub fn tagged_storage_bits(&self) -> u64 {
        self.tagged
            .iter()
            .map(|t| t.entries as u64 * u64::from(self.ctr_bits + t.tag_bits + self.u_bits))
            .sum()
    }
}

/// Widest partial tag a [`TaggedEntry`] holds.
const MAX_TAG_BITS: u32 = 12;

/// One tagged entry packed into 16 bits: the partial tag in bits 4–15, the
/// 3-bit signed prediction counter (two's complement) in bits 1–3 and the
/// 1-bit useful counter in bit 0 — the CBP TAGE-SC-L entry layout.
///
/// All-zero is the empty (never allocated) entry, so an empty entry cannot
/// match tag 0 by luck: a lookup matches only a non-zero entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TaggedEntry(u16);

impl TaggedEntry {
    const EMPTY: TaggedEntry = TaggedEntry(0);
    const CTR_MAX: i8 = 3;
    const CTR_MIN: i8 = -4;

    /// A freshly allocated entry: weak in the resolved direction
    /// (counter 0 if taken, −1 if not), not useful.
    fn allocated(tag: u16, taken: bool) -> Self {
        TaggedEntry((tag << 4) | if taken { 0 } else { 0b1110 })
    }

    fn matches(self, tag: u16) -> bool {
        self.0 != 0 && self.0 >> 4 == tag
    }

    fn ctr(self) -> i8 {
        // Bits 1–3 to the top of an i8, then an arithmetic shift
        // sign-extends them.
        ((self.0 as i8) << 4) >> 5
    }

    fn taken(self) -> bool {
        self.ctr() >= 0
    }

    fn weak(self) -> bool {
        matches!(self.ctr(), 0 | -1)
    }

    fn useful(self) -> bool {
        self.0 & 1 != 0
    }

    fn set_useful(&mut self, useful: bool) {
        self.0 = (self.0 & !1) | u16::from(useful);
    }

    fn train(&mut self, taken: bool) {
        let c = self.ctr();
        let c = if taken {
            (c + 1).min(Self::CTR_MAX)
        } else {
            (c - 1).max(Self::CTR_MIN)
        };
        self.0 = (self.0 & !0b1110) | ((c as u16 & 0b111) << 1);
    }
}

/// Where one tagged table lives in [`Tage`]'s entry block, and the index
/// and tag constants its walk needs, computed once at construction.
#[derive(Debug, Clone)]
struct TaggedTable {
    /// First entry of this table in the block.
    offset: usize,
    entries: u64,
    /// Index width: `ceil(log2(entries))`, at least 1.
    index_bits: u32,
    /// Low `min(index_bits, 16)` bits: the path history hashed into the index.
    path_mask: u64,
    tag_mask: u64,
}

/// Folded-history lanes: three per tagged table, `[index, tag, tag2]`.
const LANES: usize = 3 * MAX_TABLES;

/// The widest fold a `u32` lane holds: the rotate's carry bit, `1 << width`,
/// must fit beside it.
const MAX_FOLD_BITS: u32 = u32::BITS - 1;

/// The fold geometry every slot's [`HistoryState`] shares, one lane per fold
/// (three per table: index, tag, tag2), fixed at construction.
///
/// Each fold's width and history length are turned into bit constants here,
/// so a push shifts nothing by a variable amount: the per-lane step is the
/// same arithmetic as [`bp_common::history::FoldedHistory::update`], written
/// so that the compiler vectorizes it.
#[derive(Debug, Clone)]
struct FoldLanes {
    /// Lanes in use: three per table.
    live: usize,
    /// `(1 << width) - 1`, or 0 for a zero-length history (its folds stay 0).
    mask: [u32; LANES],
    /// `1 << (history_len % width)`, where the evicted bit leaves the fold;
    /// 0 for a history as long as the register, which evicts nothing.
    out_bit: [u32; LANES],
    /// `1 << width`: the bit the rotate carries back into bit 0.
    carry_bit: [u32; LANES],
    /// Per table, the global-history bit its window evicts on a push (any
    /// in-range bit where `out_bit` is 0).
    evict_at: [usize; MAX_TABLES],
}

impl FoldLanes {
    fn new(config: &[TaggedTableConfig], tables: &[TaggedTable]) -> Self {
        let mut lanes = FoldLanes {
            live: 3 * config.len(),
            mask: [0; LANES],
            out_bit: [0; LANES],
            carry_bit: [0; LANES],
            evict_at: [0; MAX_TABLES],
        };
        for (t, (c, table)) in config.iter().zip(tables).enumerate() {
            let len = c.history_len;
            assert!(len <= GlobalHistory::CAPACITY, "length exceeds capacity");
            let widths = [
                table.index_bits,
                c.tag_bits,
                c.tag_bits.saturating_sub(1).max(1),
            ];
            for (k, w) in widths.into_iter().enumerate() {
                assert!(
                    w > 0 && w <= MAX_FOLD_BITS,
                    "fold width out of range: u32 lanes hold 1..=31 bits"
                );
                let j = 3 * t + k;
                lanes.mask[j] = if len == 0 { 0 } else { (1 << w) - 1 };
                lanes.out_bit[j] = if len < GlobalHistory::CAPACITY {
                    1 << (len % w as usize)
                } else {
                    0
                };
                lanes.carry_bit[j] = 1 << w;
            }
            lanes.evict_at[t] = len.min(GlobalHistory::CAPACITY - 1);
        }
        lanes
    }
}

/// Per-slot history state: the global/path registers and the folded
/// histories for every tagged table (hardware: per-SMT-thread registers).
///
/// The folds are one fixed lane array laid out by [`FoldLanes`]. The three
/// folds of a table share its history length, so a push reads each table's
/// evicted bit once and then steps the live lanes in one loop. The global
/// register is also the one the statistical corrector reads
/// ([`Tage::global_history`]).
#[derive(Debug, Clone)]
struct HistoryState {
    global: GlobalHistory,
    path: PathHistory,
    /// Folded values, lane `3 * table + k` for `k` in `[index, tag, tag2]`.
    /// Boxed for the heap's sake, not the walk's (see [`HistoryState::clear`]).
    folds: Box<[u32; LANES]>,
}

impl HistoryState {
    fn new() -> Self {
        HistoryState {
            global: GlobalHistory::new(),
            path: PathHistory::new(),
            folds: Box::new([0; LANES]),
        }
    }

    /// Empties every register. The lanes get a fresh block rather than
    /// being zeroed in place: a `Simulation` build ends with its first
    /// context switches, which clear slots, so these small blocks land above
    /// the build's large ones and keep glibc from trimming the heap when the
    /// `Simulation` drops. Inline or zeroed-in-place lanes doubled
    /// perfbench's `sim_grid` `setup_s` (DESIGN.md, "History lanes").
    fn clear(&mut self) {
        *self = HistoryState::new();
    }

    fn push(&mut self, lanes: &FoldLanes, pc: Addr, taken: bool) {
        self.global.push(taken);
        self.path.push(pc.bits(2, 1) == 1);
        let n = lanes.live;
        // Each table's evicted bit, read once and spread over its three
        // lanes as an all-ones or all-zeros mask.
        let mut evicted = [0u32; LANES];
        for (e, &at) in evicted[..n].chunks_exact_mut(3).zip(&lanes.evict_at) {
            e.fill(0u32.wrapping_sub(u32::from(self.global.bit(at))));
        }
        let inserted = u32::from(taken);
        for ((((v, &mask), &out), &carry), &ev) in self.folds[..n]
            .iter_mut()
            .zip(&lanes.mask[..n])
            .zip(&lanes.out_bit[..n])
            .zip(&lanes.carry_bit[..n])
            .zip(&evicted[..n])
        {
            // Rotate left by one inside the width, inject the new bit,
            // eject the evicted one.
            let mut x = (*v << 1) | inserted;
            x ^= out & ev;
            x ^= u32::from(x & carry != 0);
            *v = x & mask;
        }
    }
}

/// The result of a TAGE table walk, kept so the update path does not have to
/// repeat the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagePrediction {
    /// Final predicted direction.
    pub taken: bool,
    /// Index of the provider tagged table, or `None` when the base provided.
    pub provider: Option<usize>,
    /// The alternate prediction (next-longest matching component).
    pub alt_taken: bool,
    /// Whether the provider entry was weak (|2·ctr+1| = 1).
    pub weak: bool,
}

const MAX_TABLES: usize = 24;

/// Saved state between `predict` and `update` for one branch; the walk's
/// entry positions and tags stay in [`Tage`]'s `walk_idx`/`walk_tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TageLookupState {
    pc: u64,
    slot: usize,
    pred: TagePrediction,
    provider_idx: usize,
}

/// The TAGE predictor (per-slot bases + shared tagged tables).
#[derive(Debug, Clone)]
pub struct Tage {
    config: TageConfig,
    bases: Vec<Bimodal>,
    /// Every tagged table's entries, table 0 first, in one allocation.
    entries: Vec<TaggedEntry>,
    tables: Vec<TaggedTable>,
    fold_lanes: FoldLanes,
    histories: Vec<HistoryState>,
    /// The last walk's entry position in `entries`, per table.
    walk_idx: [u32; MAX_TABLES],
    /// The last walk's (transformed) tag, per table.
    walk_tag: [u16; MAX_TABLES],
    /// Counter choosing alt-pred for newly allocated weak providers.
    use_alt_on_new_alloc: i8,
    updates: u64,
    alloc_rng: SplitMix64,
    last: Option<TageLookupState>,
}

impl Tage {
    /// Builds a single-slot TAGE predictor (conventional hardware).
    pub fn new(config: TageConfig) -> Self {
        Tage::with_slots(config, 1)
    }

    /// Builds TAGE with `slots` isolated base predictors and history banks
    /// sharing one set of tagged tables (the HyBP layout).
    pub fn with_slots(config: TageConfig, slots: usize) -> Self {
        Tage::with_layout(config, slots, slots)
    }

    /// Fully general layout: `base_slots` physical base-predictor replicas
    /// and `history_slots` history register banks, sharing one set of
    /// tagged tables. Conventional SMT hardware banks the (tiny) history
    /// registers per thread while sharing every table (`base_slots = 1`);
    /// HyBP replicates both per isolation slot. Slot indices are taken
    /// modulo each count.
    ///
    /// # Panics
    ///
    /// Panics if a slot count is zero, there are no tagged tables, or more
    /// than 24; if an entry does not fit the 16-bit packing (a tag
    /// wider than 12 bits, a counter other than 3 bits or a useful counter
    /// other than 1 bit) or the tables hold more than `u32::MAX` entries;
    /// and if a folded history does not fit its `u32` lane (a zero-bit tag,
    /// or a table of more than 2³¹ entries: folds are 1 to 31 bits wide)
    /// or a history is longer than [`GlobalHistory::CAPACITY`].
    pub fn with_layout(config: TageConfig, base_slots: usize, history_slots: usize) -> Self {
        let slots = base_slots;
        assert!(slots > 0 && history_slots > 0, "need at least one slot");
        assert!(
            !config.tagged.is_empty() && config.tagged.len() <= MAX_TABLES,
            "tagged table count must be 1..=24"
        );
        assert!(
            config.ctr_bits == 3
                && config.u_bits == 1
                && config.tagged.iter().all(|t| t.tag_bits <= MAX_TAG_BITS),
            "tagged entries pack into 16 bits: 3-bit counter, 1-bit useful, tags up to 12 bits"
        );
        let mut offset = 0;
        let tables: Vec<TaggedTable> = config
            .tagged
            .iter()
            .map(|c| {
                let index_bits = (usize::BITS - (c.entries - 1).leading_zeros()).max(1);
                let t = TaggedTable {
                    offset,
                    entries: c.entries as u64,
                    index_bits,
                    path_mask: (1u64 << index_bits.min(16)) - 1,
                    tag_mask: (1u64 << c.tag_bits) - 1,
                };
                offset += c.entries;
                t
            })
            .collect();
        assert!(
            u32::try_from(offset).is_ok(),
            "tagged tables must hold at most u32::MAX entries"
        );
        Tage {
            bases: (0..slots)
                .map(|_| Bimodal::new(config.base_entries.next_power_of_two(), 1))
                .collect(),
            entries: vec![TaggedEntry::EMPTY; offset],
            fold_lanes: FoldLanes::new(&config.tagged, &tables),
            tables,
            histories: (0..history_slots).map(|_| HistoryState::new()).collect(),
            walk_idx: [0; MAX_TABLES],
            walk_tag: [0; MAX_TABLES],
            use_alt_on_new_alloc: 0,
            updates: 0,
            alloc_rng: SplitMix64::new(0x7A6E),
            last: None,
            config,
        }
    }

    /// The paper-scale TAGE, single slot.
    pub fn paper_scl() -> Self {
        Tage::new(TageConfig::paper_scl())
    }

    /// The configuration.
    pub fn config(&self) -> &TageConfig {
        &self.config
    }

    /// Number of isolation slots.
    pub fn slot_count(&self) -> usize {
        self.bases.len()
    }

    /// Detailed prediction for a branch executing in `slot`.
    ///
    /// Generic over the codec so concrete codecs (HyBP's QARMA-backed codec,
    /// the identity codec) inline into the table walk. Only the tagged
    /// tables go through the codec, and only through one
    /// [`TableCodec::tagged_walk_keys`] call per walk: the codec's key for
    /// table *i* is XOR-ed into its raw index and raw tag. The base
    /// predictor is isolated per slot and indexed by PC alone. The walk is
    /// allocation-free: the provider/alternate search tracks the last two
    /// matching tables in scalars instead of a match list.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub fn predict_slot<C: TableCodec + ?Sized>(
        &mut self,
        pc: Addr,
        slot: usize,
        codec: &mut C,
        now: Cycle,
    ) -> TagePrediction {
        let mut keys = [(0u64, 0u64); MAX_TABLES];
        codec.tagged_walk_keys(pc, now, &mut keys[..self.tables.len()]);
        let h = &self.histories[fast_mod_usize(slot, self.histories.len())];
        let p = pc.raw() >> 2;
        let path = h.path.low_bits(16);
        let mut match_count = 0usize;
        let mut last_match = usize::MAX;
        let mut second_last = usize::MAX;
        let walk = self.tables.iter().zip(&keys).zip(h.folds.chunks_exact(3));
        for (i, ((t, &(index_key, tag_key)), f)) in walk.enumerate() {
            let (fi, f1, f2) = (u64::from(f[0]), u64::from(f[1]), u64::from(f[2]));
            let raw_idx = p ^ (p >> t.index_bits) ^ fi ^ (path & t.path_mask);
            let raw_tag = (p ^ f1 ^ (f2 << 1)) & t.tag_mask;
            let pos = t.offset + fast_mod(raw_idx ^ index_key, t.entries) as usize;
            let tag = ((raw_tag ^ tag_key) & t.tag_mask) as u16;
            self.walk_idx[i] = pos as u32;
            self.walk_tag[i] = tag;
            if self.entries[pos].matches(tag) {
                second_last = last_match;
                last_match = i;
                match_count += 1;
            }
        }
        let base_pred = self.bases[fast_mod_usize(slot, self.bases.len())].predict(pc);
        let (provider, alt) = match match_count {
            0 => (None, None),
            1 => (Some(last_match), None),
            _ => (Some(last_match), Some(second_last)),
        };
        let alt_taken = match alt {
            Some(a) => self.walk_entry(a).taken(),
            None => base_pred,
        };
        let pred = match provider {
            Some(p) => {
                let e = self.walk_entry(p);
                let weak = e.weak();
                let taken = if weak && !e.useful() && self.use_alt_on_new_alloc >= 0 {
                    alt_taken
                } else {
                    e.taken()
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
        self.last = Some(TageLookupState {
            pc: pc.raw(),
            slot,
            pred,
            provider_idx: provider.unwrap_or(usize::MAX),
        });
        pred
    }

    /// Table `i`'s entry at the last walk's position.
    fn walk_entry(&self, i: usize) -> TaggedEntry {
        self.entries[self.walk_idx[i] as usize]
    }

    fn walk_entry_mut(&mut self, i: usize) -> &mut TaggedEntry {
        &mut self.entries[self.walk_idx[i] as usize]
    }

    /// Trains with the resolved outcome; must follow
    /// [`Tage::predict_slot`] for the same branch and slot. Also advances the
    /// slot's histories.
    ///
    /// Generic over the codec (see [`Tage::predict_slot`]); the hot path
    /// performs no heap allocation — the allocation-victim search tracks the
    /// first two u==0 candidates in scalars.
    pub fn update_slot<C: TableCodec + ?Sized>(
        &mut self,
        pc: Addr,
        slot: usize,
        taken: bool,
        codec: &mut C,
        now: Cycle,
    ) {
        let state = match self.last.take() {
            Some(s) if s.pc == pc.raw() && s.slot == slot => s,
            // Lookup state lost (predict was for another branch, or caller
            // updates without predicting): recompute silently.
            _ => {
                self.predict_slot(pc, slot, codec, now);
                match self.last.take() {
                    Some(s) => s,
                    // predict_slot() always stores lookup state; stay total
                    // and skip the update rather than aborting.
                    None => {
                        debug_assert!(false, "predict_slot must store lookup state");
                        return;
                    }
                }
            }
        };
        self.updates += 1;

        let provider = state.provider_idx;
        let mispredicted = state.pred.taken != taken;

        if provider != usize::MAX {
            let e = self.walk_entry(provider);
            let provider_pred = e.taken();
            // use_alt counter: trained when the provider was weak & new and
            // disagreed with the alternate.
            if state.pred.weak && !e.useful() && provider_pred != state.pred.alt_taken {
                let alt_correct = state.pred.alt_taken == taken;
                self.use_alt_on_new_alloc = if alt_correct {
                    (self.use_alt_on_new_alloc + 1).min(7)
                } else {
                    (self.use_alt_on_new_alloc - 1).max(-8)
                };
            }
            let e = self.walk_entry_mut(provider);
            // Useful bit: provider differs from alt and was correct.
            if provider_pred != state.pred.alt_taken {
                e.set_useful(provider_pred == taken);
            }
            e.train(taken);
        } else {
            let b = fast_mod_usize(slot, self.bases.len());
            self.bases[b].update(pc, taken);
        }
        // Keep the base warm while the provider is weak (cheap stand-in for
        // TAGE's alternate update policy).
        if provider != usize::MAX && state.pred.weak {
            let b = fast_mod_usize(slot, self.bases.len());
            self.bases[b].update(pc, taken);
        }

        // Allocation on misprediction in a longer-history table.
        if mispredicted {
            let start = if provider == usize::MAX {
                0
            } else {
                provider + 1
            };
            if start < self.tables.len() {
                // First two free (u == 0) candidate tables; only their
                // existence and identity matter below, so the scan stops at
                // two instead of collecting a list.
                let mut first_free = usize::MAX;
                let mut second_free = usize::MAX;
                for j in start..self.tables.len() {
                    if !self.walk_entry(j).useful() {
                        if first_free == usize::MAX {
                            first_free = j;
                        } else {
                            second_free = j;
                            break;
                        }
                    }
                }
                if first_free == usize::MAX {
                    for j in start..self.tables.len() {
                        self.walk_entry_mut(j).set_useful(false);
                    }
                } else {
                    // Prefer shorter history with a random skew, as in the
                    // reference implementation. The RNG draw happens only
                    // when a second candidate exists — exactly as it did
                    // with the list (`free.len() > 1` short-circuit), so
                    // the allocation RNG stream is unchanged.
                    let pick = if second_free != usize::MAX && self.alloc_rng.next_below(4) == 0 {
                        second_free
                    } else {
                        first_free
                    };
                    let tag = self.walk_tag[pick];
                    *self.walk_entry_mut(pick) = TaggedEntry::allocated(tag, taken);
                }
            }
        }

        if self.updates.is_multiple_of(self.config.u_reset_period) {
            for e in &mut self.entries {
                e.set_useful(false);
            }
        }

        let hs = fast_mod_usize(slot, self.histories.len());
        self.histories[hs].push(&self.fold_lanes, pc, taken);
    }

    /// The retired global history of `slot`'s history bank: every
    /// [`Tage::update_slot`] for the slot pushes its outcome, and
    /// [`Tage::flush_slot`]/[`Tage::flush_all`] clear it. The statistical
    /// corrector reads it rather than keeping a copy.
    pub(crate) fn global_history(&self, slot: usize) -> &GlobalHistory {
        &self.histories[fast_mod_usize(slot, self.histories.len())].global
    }

    /// Clears everything: tagged tables, all bases, all histories.
    pub fn flush_all(&mut self) {
        for b in &mut self.bases {
            b.flush();
        }
        self.entries.fill(TaggedEntry::EMPTY);
        for h in &mut self.histories {
            h.clear();
        }
        self.last = None;
    }

    /// Clears only one slot's physically isolated state: its base predictor
    /// and history registers (the HyBP context-switch action; the shared
    /// tagged tables are protected by the key change instead).
    pub fn flush_slot(&mut self, slot: usize) {
        let b = fast_mod_usize(slot, self.bases.len());
        self.bases[b].flush();
        let h = fast_mod_usize(slot, self.histories.len());
        self.histories[h].clear();
        self.last = None;
    }

    /// Number of tagged tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Occupancy (allocated entries) of tagged table `i` (analysis helper).
    pub fn tagged_occupancy(&self, i: usize) -> usize {
        let t = &self.tables[i];
        self.entries[t.offset..t.offset + t.entries as usize]
            .iter()
            .filter(|&&e| e != TaggedEntry::EMPTY)
            .count()
    }

    /// Storage bits accounting for base replication across slots.
    pub fn storage_bits_with_slots(&self) -> u64 {
        self.config.base_storage_bits() * self.bases.len() as u64
            + self.config.tagged_storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::IdentityCodec;
    use bp_common::rng::Xoshiro256StarStar;

    fn run_pattern<F: FnMut(u64) -> bool>(
        tage: &mut Tage,
        pcs: &[u64],
        iters: usize,
        mut outcome: F,
    ) -> f64 {
        let mut c = IdentityCodec::new();
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut step = 0u64;
        for _ in 0..iters {
            for &p in pcs {
                let pc = Addr::new(p);
                let t = outcome(step);
                let pred = tage.predict_slot(pc, 0, &mut c, step).taken;
                if pred == t {
                    correct += 1;
                }
                tage.update_slot(pc, 0, t, &mut c, step);
                step += 1;
                total += 1;
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn learns_biased_branches() {
        let mut tage = Tage::paper_scl();
        let acc = run_pattern(&mut tage, &[0x1000], 500, |_| true);
        assert!(acc > 0.98, "always-taken accuracy {acc}");
    }

    #[test]
    fn learns_alternating_pattern() {
        let mut tage = Tage::paper_scl();
        let acc = run_pattern(&mut tage, &[0x2000], 1000, |s| s % 2 == 0);
        assert!(acc > 0.95, "alternating accuracy {acc}");
    }

    #[test]
    fn learns_short_period_pattern() {
        // Period-5 pattern TTTNT: bimodal alone cannot learn this; the
        // tagged tables must.
        let mut tage = Tage::paper_scl();
        let pattern = [true, true, true, false, true];
        let acc = run_pattern(&mut tage, &[0x3000], 2000, |s| pattern[(s % 5) as usize]);
        assert!(acc > 0.9, "period-5 accuracy {acc}");
    }

    #[test]
    fn beats_bimodal_on_history_correlated_branch() {
        // Branch B's outcome equals branch A's previous outcome: pure
        // history correlation.
        let mut tage = Tage::paper_scl();
        let mut bimodal = Bimodal::paper_base();
        let mut c = IdentityCodec::new();
        let mut rng = Xoshiro256StarStar::seeded(5);
        let (mut tage_ok, mut bi_ok, mut total) = (0, 0, 0);
        let mut a_prev = false;
        for step in 0..20_000u64 {
            let a = rng.chance(0.5);
            let b = a_prev;
            for (pc, outcome) in [(Addr::new(0x100), a), (Addr::new(0x200), b)] {
                if tage.predict_slot(pc, 0, &mut c, step).taken == outcome {
                    tage_ok += 1;
                }
                tage.update_slot(pc, 0, outcome, &mut c, step);
                if bimodal.predict(pc) == outcome {
                    bi_ok += 1;
                }
                bimodal.update(pc, outcome);
                total += 1;
            }
            a_prev = a;
        }
        let tage_acc = tage_ok as f64 / total as f64;
        let bi_acc = bi_ok as f64 / total as f64;
        assert!(
            tage_acc > bi_acc + 0.15,
            "tage {tage_acc} should beat bimodal {bi_acc} clearly"
        );
        // A is pure noise (50% ceiling), B is fully determined by history
        // (100% ceiling): overall ceiling is 75%. TAGE should be near it.
        assert!(tage_acc > 0.72, "tage accuracy {tage_acc}");
    }

    #[test]
    fn flush_erases_learned_state() {
        let mut tage = Tage::paper_scl();
        let acc1 = run_pattern(&mut tage, &[0x3000], 2000, |s| s % 2 == 0);
        tage.flush_all();
        assert!(acc1 > 0.9);
        for i in 0..tage.table_count() {
            assert_eq!(
                tage.tagged_occupancy(i),
                0,
                "table {i} not empty after flush"
            );
        }
    }

    #[test]
    fn slots_isolate_base_and_history() {
        let mut tage = Tage::with_slots(TageConfig::paper_scl(), 2);
        let mut c = IdentityCodec::new();
        // Train slot 0 heavily taken on one PC.
        for s in 0..200u64 {
            tage.predict_slot(Addr::new(0x100), 0, &mut c, s);
            tage.update_slot(Addr::new(0x100), 0, true, &mut c, s);
        }
        // Slot 1's base knows nothing: cold prediction is not-taken.
        let p = tage.predict_slot(Addr::new(0x100), 1, &mut c, 1000);
        // The tagged tables are shared, so a provider may exist; but if the
        // base provides (no provider), the prediction must be cold.
        if p.provider.is_none() {
            assert!(!p.taken, "slot 1 base must be cold");
        }
        // Flushing slot 0 must not disturb slot 1's histories.
        tage.flush_slot(0);
        assert_eq!(tage.slot_count(), 2);
    }

    #[test]
    fn paper_storage_is_about_66kb_class() {
        let cfg = TageConfig::paper_scl();
        let kb = cfg.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((35.0..70.0).contains(&kb), "TAGE storage {kb} KB");
    }

    #[test]
    fn scaled_quarters_tables() {
        let cfg = TageConfig::paper_scl();
        let q = cfg.scaled(1, 4);
        assert_eq!(q.base_entries, cfg.base_entries / 4);
        assert_eq!(q.tagged[0].entries, cfg.tagged[0].entries / 4);
        let one_and_half = cfg.scaled(3, 2);
        assert_eq!(
            one_and_half.tagged[0].entries,
            cfg.tagged[0].entries * 3 / 2
        );
    }

    #[test]
    fn update_without_predict_recovers() {
        let mut tage = Tage::paper_scl();
        let mut c = IdentityCodec::new();
        // Must not panic even without a preceding predict.
        tage.update_slot(Addr::new(0x4000), 0, true, &mut c, 0);
    }

    #[test]
    fn smaller_tage_is_not_better_on_big_working_set() {
        let mut big = Tage::paper_scl();
        let mut small = Tage::new(TageConfig::paper_scl().scaled(1, 4));
        let pcs: Vec<u64> = (0..3000u64).map(|i| 0x10_0000 + i * 8).collect();
        let mut rng = Xoshiro256StarStar::seeded(9);
        let biases: Vec<bool> = (0..pcs.len()).map(|_| rng.chance(0.5)).collect();
        let mut c = IdentityCodec::new();
        let (mut big_ok, mut small_ok, mut total) = (0, 0, 0);
        for round in 0..30u64 {
            for (i, &p) in pcs.iter().enumerate() {
                let pc = Addr::new(p);
                let t = biases[i] ^ (rng.chance(0.05));
                if big.predict_slot(pc, 0, &mut c, round).taken == t {
                    big_ok += 1;
                }
                big.update_slot(pc, 0, t, &mut c, round);
                if small.predict_slot(pc, 0, &mut c, round).taken == t {
                    small_ok += 1;
                }
                small.update_slot(pc, 0, t, &mut c, round);
                total += 1;
            }
        }
        let big_acc = big_ok as f64 / total as f64;
        let small_acc = small_ok as f64 / total as f64;
        assert!(
            big_acc >= small_acc - 0.01,
            "full-size TAGE ({big_acc}) must not lose to quarter ({small_acc})"
        );
    }

    #[test]
    fn packed_entry_is_a_tag_a_3_bit_signed_counter_and_a_useful_bit() {
        for tag in [0u16, 1, 0xABC, 0xFFF] {
            for taken in [false, true] {
                let mut e = TaggedEntry::allocated(tag, taken);
                let mut want: i8 = if taken { 0 } else { -1 };
                assert!(e.ctr() == want && e.weak() && !e.useful());
                for step in 0..24 {
                    let t = step % 9 < 5;
                    e.train(t);
                    want = if t {
                        (want + 1).min(3)
                    } else {
                        (want - 1).max(-4)
                    };
                    assert_eq!(e.ctr(), want, "tag {tag:#x} step {step}");
                    assert_eq!(e.taken(), want >= 0);
                    e.set_useful(step % 2 == 0);
                    assert_eq!(e.useful(), step % 2 == 0);
                    assert_eq!(e.ctr(), want, "the useful bit leaves the counter");
                    // Tag 0 with counter 0 and no useful bit is all-zero.
                    assert_eq!(e.matches(tag), e != TaggedEntry::EMPTY);
                    assert!(!e.matches(tag ^ 1));
                }
            }
        }
        // Empty never matches, not even tag 0; a not-taken allocation with
        // tag 0 is non-zero and does.
        assert!(!TaggedEntry::EMPTY.matches(0));
        assert!(TaggedEntry::allocated(0, false).matches(0));
    }

    #[test]
    #[should_panic(expected = "pack into 16 bits")]
    fn geometry_that_does_not_pack_is_rejected() {
        let mut cfg = TageConfig::paper_scl();
        cfg.tagged[3].tag_bits = 13;
        let _ = Tage::new(cfg);
    }

    #[test]
    fn base_replication_counts_in_storage() {
        let one = Tage::with_slots(TageConfig::paper_scl(), 1);
        let four = Tage::with_slots(TageConfig::paper_scl(), 4);
        let delta = four.storage_bits_with_slots() - one.storage_bits_with_slots();
        assert_eq!(delta, 3 * TageConfig::paper_scl().base_storage_bits());
    }
}
