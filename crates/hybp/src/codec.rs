//! The randomizing [`TableCodec`]: HyBP's index and content encryption.
//!
//! Only the *large shared* tables are randomized — the L2 BTB and the TAGE
//! tagged tables. The L0/L1 BTB share the BTB code path, so their accesses
//! reach the codec too and pass through unchanged. The other physically
//! isolated structures (TAGE base, SC, loop predictor) never reach it. Their
//! protection is the per-slot replication, not encryption.
//!
//! Index transformation follows the paper's Figure 3/4 datapath: a slice of
//! the branch PC indexes the per-`(thread, privilege)` randomized keys table
//! (the QARMA-filled "code book"); the retrieved key is XOR-combined with
//! the plaintext index. Content (and the partial tag, which is stored
//! content) is XOR-encrypted with the per-slot content key. The BPU counts
//! one access per predicted branch ([`HybpCodec::count_access`]), and the
//! slot's count reaching the renewal threshold re-keys it (§V-D); keys-table
//! reads are counted apart and renew nothing. A TAGE walk reads one
//! `(slot, PC-slice)` entry for all its tables; [`HybpCodec`]'s
//! `tagged_walk_keys` fetches it once unless a fault injector is attached.

use bp_common::{Addr, Asid, ConfigError, Cycle, Vmid};
use bp_crypto::keys::{KeyManager, KeysTableConfig};
use bp_faults::FaultInjector;
use bp_predictors::codec::{TableCodec, TableId, TableUnit};

use crate::mechanism::HybpConfig;

/// Statistics the codec gathers while interposing accesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Keys-table reads: one per index or tag transform of the L2 BTB or a
    /// TAGE tagged table, which is 30 per TAGE predict (15 tables × index
    /// and tag). A TAGE walk counts its 30 in one step, or one at a time
    /// when a fault injector is attached. Reads do not count toward
    /// renewal.
    pub key_reads: u64,
    /// Key renewals triggered by the access counter, which counts predicted
    /// branches per slot (not context switches).
    pub counter_renewals: u64,
}

/// HyBP's table codec. One instance serves the whole BPU; the owner sets the
/// active security context (slot, ASID) before each branch.
// No `Debug`: contains the [`KeyManager`] and with it every slot's key state.
pub struct HybpCodec {
    key_manager: KeyManager,
    keys_index_bits: u32,
    slot: usize,
    asid: Asid,
    vmid: Vmid,
    stats: CodecStats,
}

impl HybpCodec {
    /// Creates the codec with `slot_count` isolation slots.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the embedded keys-table geometry,
    /// renewal threshold or slot count is invalid.
    pub fn new(config: &HybpConfig, slot_count: usize, seed: u64) -> Result<Self, ConfigError> {
        config.validate()?;
        let keys_index_bits = keys_index_bits(&config.keys_table);
        Ok(HybpCodec {
            key_manager: KeyManager::new(
                config.cipher.build(seed),
                slot_count,
                config.keys_table,
                config.renewal_threshold,
                seed ^ 0x5EED_0001,
            )?,
            keys_index_bits,
            slot: 0,
            asid: Asid::new(0),
            vmid: Vmid::new(0),
            stats: CodecStats::default(),
        })
    }

    /// Attaches (or detaches) a fault injector disturbing the keys table.
    pub fn set_fault_injector(&mut self, faults: Option<FaultInjector>) {
        self.key_manager.set_fault_injector(faults);
    }

    /// Installs the telemetry sink key renewals report refresh spans to.
    pub fn set_telemetry(&mut self, telemetry: bp_common::Telemetry) {
        self.key_manager.set_telemetry(telemetry);
    }

    /// Whether `slot`'s keys-table rewrite is still in flight at `now`.
    ///
    /// Predictions keep flowing during this window (stale keys are served,
    /// §V-C2) — the BPU counts them to make the off-critical-path claim
    /// checkable.
    pub fn refresh_in_flight(&self, slot: usize, now: Cycle) -> bool {
        self.key_manager.slot(slot).table().refresh_in_flight(now)
    }

    /// Sets the security context for subsequent accesses.
    pub fn set_context(&mut self, slot: usize, asid: Asid, vmid: Vmid) {
        self.slot = slot;
        self.asid = asid;
        self.vmid = vmid;
    }

    /// Renews all keys of `slot` (context-switch path). Returns the cycle at
    /// which the keys-table rewrite completes.
    pub fn renew_slot(&mut self, slot: usize, asid: Asid, now: Cycle) -> Cycle {
        self.key_manager.renew(slot, asid, self.vmid, now)
    }

    /// Counts one access (one predicted branch) of the active slot, which
    /// renews its keys when the slot's count reaches the threshold.
    pub fn count_access(&mut self, now: Cycle) {
        let renewed = self
            .key_manager
            .count_access(self.slot, self.asid, self.vmid, now);
        self.stats.counter_renewals += u64::from(renewed);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CodecStats {
        self.stats
    }

    /// The underlying key manager (analysis/attack harness access).
    pub fn key_manager(&self) -> &KeyManager {
        &self.key_manager
    }

    fn is_randomized(table: TableId) -> bool {
        matches!(
            (table.unit, table.level),
            (TableUnit::Btb, 2) | (TableUnit::TageTagged, _)
        )
    }

    /// The keys-table entry selector: PC bits *above* the set-index range,
    /// so that the XOR of key and raw index stays balanced across sets
    /// (keying by the set bits themselves would turn the bijective per-key
    /// XOR into a random function and add conflict misses).
    fn pc_slice(&self, pc: Addr) -> u64 {
        pc.bits(12, self.keys_index_bits)
    }

    fn index_key(&mut self, pc: Addr, now: Cycle) -> u64 {
        self.stats.key_reads += 1;
        let pc_slice = self.pc_slice(pc);
        self.key_manager.index_key(self.slot, pc_slice, now)
    }

    fn content_key(&self) -> u64 {
        self.key_manager.content_key(self.slot)
    }

    /// The tag key: the per-PC index key `k` mixed with the content key, so
    /// a tag never survives either key changing.
    fn tag_key(&self, k: u64, table: TableId) -> u64 {
        mix(k ^ self.content_key() ^ (table.level as u64) << 56)
    }
}

fn keys_index_bits(cfg: &KeysTableConfig) -> u32 {
    (usize::BITS - (cfg.entries - 1).leading_zeros()).max(1)
}

/// Cheap deterministic diffusion for deriving the tag key from the index key
/// and content key (the stored tag is content, so its key material comes
/// from both).
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

impl TableCodec for HybpCodec {
    fn transform_index(&mut self, table: TableId, raw_index: u64, pc: Addr, now: Cycle) -> u64 {
        if Self::is_randomized(table) {
            raw_index ^ self.index_key(pc, now)
        } else {
            raw_index
        }
    }

    fn transform_tag(&mut self, table: TableId, raw_tag: u64, pc: Addr, now: Cycle) -> u64 {
        if Self::is_randomized(table) {
            let k = self.index_key(pc, now);
            raw_tag ^ self.tag_key(k, table)
        } else {
            raw_tag
        }
    }

    fn encode_content(&mut self, table: TableId, raw: u64) -> u64 {
        if Self::is_randomized(table) {
            raw ^ self.content_key()
        } else {
            raw
        }
    }

    fn decode_content(&mut self, table: TableId, stored: u64) -> u64 {
        if Self::is_randomized(table) {
            stored ^ self.content_key()
        } else {
            stored
        }
    }

    /// Every tagged table is randomized, and a walk reads the same
    /// `(slot, PC-slice)` keys-table entry twice per table. No renewal lands
    /// inside a walk (renewal counts branches, not reads), so when no fault
    /// injector is attached one read counted `2·tables` times gives every
    /// key. Otherwise the reads go one at a time, as the per-access
    /// transforms make them, because a fault acts on each read.
    fn tagged_walk_keys(&mut self, pc: Addr, now: Cycle, keys: &mut [(u64, u64)]) {
        let reads = 2 * keys.len() as u64;
        let pc_slice = self.pc_slice(pc);
        if let Some(k) = self
            .key_manager
            .index_key_n(self.slot, pc_slice, reads, now)
        {
            self.stats.key_reads += reads;
            for (i, key) in keys.iter_mut().enumerate() {
                *key = (k, self.tag_key(k, TableId::new(TableUnit::TageTagged, i)));
            }
            return;
        }
        for (i, key) in keys.iter_mut().enumerate() {
            let index_key = self.index_key(pc, now);
            let k = self.index_key(pc, now);
            *key = (
                index_key,
                self.tag_key(k, TableId::new(TableUnit::TageTagged, i)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> HybpCodec {
        let mut c = HybpCodec::new(&HybpConfig::paper_default(), 4, 7).expect("valid config");
        for slot in 0..4 {
            c.renew_slot(slot, Asid::new(slot as u16 + 1), 0);
        }
        c
    }

    fn l2() -> TableId {
        TableId::new(TableUnit::Btb, 2)
    }

    fn l0() -> TableId {
        TableId::new(TableUnit::Btb, 0)
    }

    #[test]
    fn isolated_tables_pass_through() {
        let mut c = codec();
        c.set_context(0, Asid::new(1), Vmid::new(0));
        assert_eq!(c.transform_index(l0(), 42, Addr::new(0x100), 5000), 42);
        assert_eq!(c.encode_content(l0(), 9), 9);
    }

    #[test]
    fn randomized_index_is_stable_within_generation() {
        let mut c = codec();
        c.set_context(1, Asid::new(2), Vmid::new(0));
        let a = c.transform_index(l2(), 100, Addr::new(0x4000), 5000);
        let b = c.transform_index(l2(), 100, Addr::new(0x4000), 6000);
        assert_eq!(a, b);
    }

    #[test]
    fn randomized_index_changes_after_renewal() {
        let mut c = codec();
        c.set_context(1, Asid::new(2), Vmid::new(0));
        // Collect transformed indices over several PCs (single indices can
        // collide; the full vector cannot, w.h.p.).
        let before: Vec<u64> = (0..32u64)
            .map(|i| c.transform_index(l2(), 100, Addr::new(0x4000 + i * 64), 5000))
            .collect();
        c.renew_slot(1, Asid::new(2), 10_000);
        let after: Vec<u64> = (0..32u64)
            .map(|i| c.transform_index(l2(), 100, Addr::new(0x4000 + i * 64), 20_000))
            .collect();
        assert_ne!(before, after);
    }

    #[test]
    fn different_slots_use_different_keys() {
        let mut c = codec();
        c.set_context(0, Asid::new(1), Vmid::new(0));
        let s0: Vec<u64> = (0..32u64)
            .map(|i| c.transform_index(l2(), 0, Addr::new(0x8000 + i * 32), 5000))
            .collect();
        c.set_context(2, Asid::new(3), Vmid::new(0));
        let s2: Vec<u64> = (0..32u64)
            .map(|i| c.transform_index(l2(), 0, Addr::new(0x8000 + i * 32), 5000))
            .collect();
        assert_ne!(s0, s2, "slots must be keyed independently");
    }

    #[test]
    fn content_roundtrips_under_same_key() {
        let mut c = codec();
        c.set_context(0, Asid::new(1), Vmid::new(0));
        let enc = c.encode_content(l2(), 0xDEAD_BEEF);
        assert_eq!(c.decode_content(l2(), enc), 0xDEAD_BEEF);
        assert_ne!(enc, 0xDEAD_BEEF, "content key must be non-trivial");
    }

    #[test]
    fn content_garbles_across_renewal() {
        let mut c = codec();
        c.set_context(0, Asid::new(1), Vmid::new(0));
        let enc = c.encode_content(l2(), 0xDEAD_BEEF);
        c.renew_slot(0, Asid::new(1), 50_000);
        assert_ne!(
            c.decode_content(l2(), enc),
            0xDEAD_BEEF,
            "old content must not decode under the new key"
        );
    }

    #[test]
    fn content_garbles_across_slots() {
        let mut c = codec();
        c.set_context(0, Asid::new(1), Vmid::new(0));
        let enc = c.encode_content(l2(), 0xDEAD_BEEF);
        c.set_context(1, Asid::new(2), Vmid::new(0));
        assert_ne!(c.decode_content(l2(), enc), 0xDEAD_BEEF);
    }

    #[test]
    fn tag_transform_depends_on_pc_and_keys() {
        let mut c = codec();
        c.set_context(0, Asid::new(1), Vmid::new(0));
        let t1 = c.transform_tag(l2(), 0x55, Addr::new(0x1000), 5000);
        let t2 = c.transform_tag(l2(), 0x55, Addr::new(0x1000), 6000);
        assert_eq!(t1, t2, "stable within a generation");
        c.renew_slot(0, Asid::new(1), 10_000);
        let t3 = c.transform_tag(l2(), 0x55, Addr::new(0x1000), 20_000);
        // 64-bit tag keys: accidental equality is negligible.
        assert_ne!(t1, t3, "tag key must change across renewal");
    }

    #[test]
    fn key_reads_are_counted() {
        let mut c = codec();
        c.set_context(0, Asid::new(1), Vmid::new(0));
        let before = c.stats().key_reads;
        let _ = c.transform_index(l2(), 0, Addr::new(0), 5000);
        let _ = c.transform_index(l0(), 0, Addr::new(0), 5000); // not counted
        assert_eq!(c.stats().key_reads, before + 1);
    }

    #[test]
    fn counter_threshold_triggers_renewal() {
        let mut cfg = HybpConfig::paper_default();
        cfg.renewal_threshold = 8;
        let mut c = HybpCodec::new(&cfg, 1, 3).expect("valid config");
        c.renew_slot(0, Asid::new(1), 0);
        c.set_context(0, Asid::new(1), Vmid::new(0));
        for i in 0..40u64 {
            c.count_access(1000 + i);
            // Reads between accesses renew nothing.
            let _ = c.transform_index(l2(), i, Addr::new(0x100 + i * 4), 1000 + i);
        }
        assert_eq!(c.stats().counter_renewals, 5, "renewals: {:?}", c.stats());
    }
}
