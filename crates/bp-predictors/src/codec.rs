//! The security interposition hook for predictor tables.
//!
//! Every access to a table a mechanism can randomize (the BTB levels and the
//! TAGE tagged tables) routes its set index, its tag, and the stored content
//! through a [`TableCodec`]. The small isolated tables (TAGE base, SC, loop
//! predictor) never reach the hook. The baseline uses [`IdentityCodec`]; the
//! `hybp` crate provides a codec that implements the paper's randomization:
//! index transformation through the per-domain keys table and content XOR
//! with the content key.
//!
//! Keeping the hook here (and key management in `bp-crypto`/`hybp`) means
//! the predictor structures stay faithful models of the underlying hardware
//! while mechanisms remain swappable.

use bp_common::{Addr, Cycle};
use std::fmt;

/// Which predictor structure a table access belongs to.
///
/// Codecs use this, with the level, to decide whether a table is randomized
/// (the L2 BTB and the tagged tables under HyBP) or left alone (the
/// physically isolated L0/L1 BTB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TableUnit {
    /// A BTB level (0, 1 or 2).
    Btb,
    /// A TAGE tagged table.
    TageTagged,
}

/// Identifies a concrete table: the unit plus its level/index within the
/// unit (BTB level 0..=2, TAGE tagged table 0..N).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId {
    /// The structure family.
    pub unit: TableUnit,
    /// Level within the family (e.g. BTB level, TAGE table number).
    pub level: usize,
}

impl TableId {
    /// Creates a table id.
    pub const fn new(unit: TableUnit, level: usize) -> Self {
        TableId { unit, level }
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}[{}]", self.unit, self.level)
    }
}

/// Transforms table indices, tags and contents on every access.
///
/// Implementations must be deterministic between key changes: the same
/// `(table, raw value, pc)` must map to the same output while the underlying
/// keys are unchanged, or lookups could never hit.
// Deliberately NOT `fmt::Debug`: the HyBP codec implementation owns key
// material, and a `Debug` supertrait would force it to be printable.
pub trait TableCodec {
    /// Transforms a raw set index for `table`. The result is reduced modulo
    /// the table's set count by the caller, so codecs may return any u64.
    fn transform_index(&mut self, table: TableId, raw_index: u64, pc: Addr, now: Cycle) -> u64;

    /// Transforms a raw tag for `table` before compare/store.
    fn transform_tag(&mut self, table: TableId, raw_tag: u64, pc: Addr, now: Cycle) -> u64;

    /// Encodes content before it is stored (e.g. XOR with the content key).
    fn encode_content(&mut self, table: TableId, raw: u64) -> u64;

    /// Decodes stored content after it is read. Must invert
    /// [`TableCodec::encode_content`] *under the same key*; content written
    /// under an older key decodes to garbage — which is the security
    /// property HyBP relies on.
    fn decode_content(&mut self, table: TableId, stored: u64) -> u64;

    /// The keys of one TAGE walk, one `(index key, tag key)` pair per tagged
    /// table, table 0 first: the walk uses `raw_index ^ keys[i].0` and
    /// `raw_tag ^ keys[i].1` for table *i*.
    ///
    /// The default makes the per-access calls in walk order — table 0's
    /// index, then its tag, then table 1's — with a raw value of 0:
    /// `transform_index(TageTagged i, 0, …)` and
    /// `transform_tag(TageTagged i, 0, …)`. This is exact for any codec
    /// whose tagged-table transforms are `raw ^ key`, with a key that does
    /// not depend on the raw value; a codec must keep that form, or
    /// override this method to match its transforms. An override must
    /// leave the codec's counters and key state as the per-access calls
    /// would.
    fn tagged_walk_keys(&mut self, pc: Addr, now: Cycle, keys: &mut [(u64, u64)]) {
        for (i, k) in keys.iter_mut().enumerate() {
            let table = TableId::new(TableUnit::TageTagged, i);
            let index_key = self.transform_index(table, 0, pc, now);
            *k = (index_key, self.transform_tag(table, 0, pc, now));
        }
    }
}

/// The identity codec: conventional, unprotected table access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityCodec;

impl IdentityCodec {
    /// Creates the identity codec.
    pub const fn new() -> Self {
        IdentityCodec
    }
}

impl TableCodec for IdentityCodec {
    fn transform_index(&mut self, _table: TableId, raw_index: u64, _pc: Addr, _now: Cycle) -> u64 {
        raw_index
    }

    fn transform_tag(&mut self, _table: TableId, raw_tag: u64, _pc: Addr, _now: Cycle) -> u64 {
        raw_tag
    }

    fn encode_content(&mut self, _table: TableId, raw: u64) -> u64 {
        raw
    }

    fn decode_content(&mut self, _table: TableId, stored: u64) -> u64 {
        stored
    }

    fn tagged_walk_keys(&mut self, _pc: Addr, _now: Cycle, keys: &mut [(u64, u64)]) {
        keys.fill((0, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_codec_passes_through() {
        let mut c = IdentityCodec::new();
        let t = TableId::new(TableUnit::Btb, 2);
        assert_eq!(c.transform_index(t, 123, Addr::new(0), 0), 123);
        assert_eq!(c.transform_tag(t, 45, Addr::new(0), 0), 45);
        assert_eq!(c.encode_content(t, 678), 678);
        assert_eq!(c.decode_content(t, 678), 678);
    }

    #[test]
    fn table_id_display() {
        let t = TableId::new(TableUnit::TageTagged, 5);
        assert_eq!(t.to_string(), "TageTagged[5]");
    }

    #[test]
    fn table_ids_hashable_and_distinct() {
        use std::collections::BTreeSet;
        let mut set = BTreeSet::new();
        set.insert(TableId::new(TableUnit::Btb, 0));
        set.insert(TableId::new(TableUnit::Btb, 1));
        set.insert(TableId::new(TableUnit::TageTagged, 0));
        assert_eq!(set.len(), 3);
    }
}
