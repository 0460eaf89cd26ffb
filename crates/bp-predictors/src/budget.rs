//! Storage budgets, bit-exact: the declared total of every paper-scale
//! predictor configuration, the CBP TAGE-SC-L 64KB reference values
//! (SNIPPETS.md), and the 64KB storage tier the paper configuration must
//! fit.
//!
//! The HPCA comparison only means something if every mechanism is held to
//! the same storage budget, so the budget is stated here and checked two
//! ways:
//!
//! * the tests below assert that each configuration's runtime
//!   `storage_bits()` equals its declared total, bit for bit, so a
//!   geometry change fails until the declared total moves with it;
//! * `const` assertions check at compile time that the paper TAGE-SC-L is
//!   the sum of its three components, that the reference components sum
//!   to the reference total, and that both totals fit the 64KB tier.
//!
//! Run the tests with `cargo test -p bp-predictors budget`.

/// Declared storage of `TageConfig::paper_scl()` (bits): an 8K-entry base
/// with 2:1-shared hysteresis, five 2K-entry tables at 12 bits per entry
/// and ten at 15.
pub const BUDGET_TAGE_PAPER_SCL_BITS: u64 = 442_368;
/// Declared storage of `ScConfig::default_scl()` (bits): four 1K-entry
/// tables of 6-bit counters.
pub const BUDGET_SC_DEFAULT_SCL_BITS: u64 = 24_576;
/// Declared storage of `LoopPredictor::default_scl()` (bits): 64 entries
/// of 47 bits.
pub const BUDGET_LOOP_DEFAULT_SCL_BITS: u64 = 3_008;
/// Declared storage of `Bimodal::paper_base()` (bits): 8K prediction bits
/// plus 4K shared hysteresis bits.
pub const BUDGET_BIMODAL_PAPER_BASE_BITS: u64 = 12_288;
/// Declared storage of `BtbHierarchyConfig::zen2()` (bits): 16 + 512 +
/// 7168 entries of 60 bits.
pub const BUDGET_BTB_ZEN2_BITS: u64 = 461_760;
/// Declared storage of `TageScL::paper_default()` (bits): the TAGE, SC and
/// loop totals above.
pub const BUDGET_TAGE_SCL_PAPER_BITS: u64 = 469_952;

/// CBP TAGE-SC-L 64KB reference, TAGE component (bits). Ours is smaller:
/// it trades table count for the isolation-slot replication budget.
pub const REFERENCE_TAGE_64KB_BITS: u64 = 463_917;
/// CBP TAGE-SC-L 64KB reference, SC component (bits).
pub const REFERENCE_SC_64KB_BITS: u64 = 58_190;
/// CBP TAGE-SC-L 64KB reference, loop component (bits).
pub const REFERENCE_LOOP_64KB_BITS: u64 = 1_248;
/// CBP TAGE-SC-L 64KB reference, whole predictor (bits).
pub const REFERENCE_TOTAL_64KB_BITS: u64 = 523_355;
/// The 64KB storage tier cap (bits).
pub const TIER_64KB_BITS: u64 = 524_288;

const _: () = assert!(
    BUDGET_TAGE_PAPER_SCL_BITS + BUDGET_SC_DEFAULT_SCL_BITS + BUDGET_LOOP_DEFAULT_SCL_BITS
        == BUDGET_TAGE_SCL_PAPER_BITS,
    "the paper TAGE-SC-L total must be the sum of its components"
);
const _: () = assert!(
    BUDGET_TAGE_SCL_PAPER_BITS <= TIER_64KB_BITS,
    "the paper TAGE-SC-L must fit the 64KB tier"
);
const _: () = assert!(
    REFERENCE_TAGE_64KB_BITS + REFERENCE_SC_64KB_BITS + REFERENCE_LOOP_64KB_BITS
        == REFERENCE_TOTAL_64KB_BITS,
    "the 64KB reference components must sum to the reference total"
);
const _: () = assert!(
    REFERENCE_TOTAL_64KB_BITS <= TIER_64KB_BITS,
    "the 64KB reference must fit the 64KB tier"
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bimodal::Bimodal;
    use crate::btb::BtbHierarchyConfig;
    use crate::loop_pred::LoopPredictor;
    use crate::sc::ScConfig;
    use crate::tage::TageConfig;
    use crate::tage_scl::TageScL;

    #[test]
    fn tage_storage_matches_the_declared_budget() {
        assert_eq!(
            TageConfig::paper_scl().storage_bits(),
            BUDGET_TAGE_PAPER_SCL_BITS
        );
    }

    #[test]
    fn sc_storage_matches_the_declared_budget() {
        assert_eq!(
            ScConfig::default_scl().storage_bits(),
            BUDGET_SC_DEFAULT_SCL_BITS
        );
    }

    #[test]
    fn loop_storage_matches_the_declared_budget() {
        assert_eq!(
            LoopPredictor::default_scl().storage_bits(),
            BUDGET_LOOP_DEFAULT_SCL_BITS
        );
    }

    #[test]
    fn bimodal_storage_matches_the_declared_budget() {
        assert_eq!(
            Bimodal::paper_base().storage_bits(),
            BUDGET_BIMODAL_PAPER_BASE_BITS
        );
    }

    #[test]
    fn btb_storage_matches_the_declared_budget() {
        assert_eq!(
            BtbHierarchyConfig::zen2().storage_bits(),
            BUDGET_BTB_ZEN2_BITS
        );
    }

    #[test]
    fn tage_scl_storage_matches_the_declared_budget() {
        assert_eq!(
            TageScL::paper_default().storage_bits_with_slots(),
            BUDGET_TAGE_SCL_PAPER_BITS
        );
    }
}
