//! The statistical corrector (the "SC" of TAGE-SC-L).
//!
//! A GEHL-style bank of signed counter tables indexed by the PC hashed with
//! different global-history lengths. The corrector revises TAGE's prediction
//! when the provider is statistically unreliable: it computes a weighted
//! vote and, when its confidence exceeds a dynamic threshold, overrides weak
//! TAGE outputs. This is a faithful simplification of Seznec's CBP-5
//! TAGE-SC-L corrector, scaled to the paper's storage budget. Under HyBP
//! the corrector is physically isolated per slot, so it takes no codec.

use bp_common::history::GlobalHistory;
use bp_common::{fast_mod, Addr};

/// Configuration of the statistical corrector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScConfig {
    /// Entries per component table (power of two).
    pub entries: usize,
    /// History lengths of the component tables (0 = bias table).
    pub history_lens: Vec<usize>,
    /// Counter width in bits (6 ⇒ −32..=31).
    pub ctr_bits: u32,
}

/// Entries per component table of the default corrector. `crate::budget`
/// pins the corrector's storage bit for bit.
pub const SCL_SC_ENTRIES: usize = 1024;
/// Component tables of the default corrector (bias + three histories).
pub const SCL_SC_TABLES: usize = 4;
/// Counter width of the default corrector.
pub const SCL_SC_CTR_BITS: u32 = 6;

impl ScConfig {
    /// The default corrector: bias table + three history components.
    pub fn default_scl() -> Self {
        let lens = vec![0, 4, 10, 21];
        debug_assert_eq!(lens.len(), SCL_SC_TABLES);
        ScConfig {
            entries: SCL_SC_ENTRIES,
            history_lens: lens,
            ctr_bits: SCL_SC_CTR_BITS,
        }
    }

    /// Total modeled storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.entries as u64 * self.history_lens.len() as u64 * u64::from(self.ctr_bits)
    }
}

/// The statistical corrector.
#[derive(Debug, Clone)]
pub struct StatisticalCorrector {
    config: ScConfig,
    tables: Vec<Vec<i8>>,
    /// Dynamic confidence threshold (trained like in the reference SC).
    threshold: i32,
    threshold_ctr: i8,
}

/// The corrector's verdict for one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScVerdict {
    /// Direction the corrector votes for.
    pub taken: bool,
    /// Whether its confidence clears the override threshold.
    pub confident: bool,
    /// The raw summed vote (for diagnostics).
    pub sum: i32,
}

impl StatisticalCorrector {
    /// Creates the corrector.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or no components are given.
    pub fn new(config: ScConfig) -> Self {
        assert!(
            config.entries.is_power_of_two(),
            "entries must be a power of two"
        );
        assert!(
            !config.history_lens.is_empty(),
            "need at least one component"
        );
        StatisticalCorrector {
            tables: vec![vec![0; config.entries]; config.history_lens.len()],
            threshold: 5,
            threshold_ctr: 0,
            config,
        }
    }

    /// The default corrector.
    pub fn default_scl() -> Self {
        Self::new(ScConfig::default_scl())
    }

    fn index(&self, comp: usize, pc: Addr, history: &GlobalHistory) -> usize {
        let hist_len = self.config.history_lens[comp];
        let h = if hist_len == 0 {
            0
        } else {
            history.low_bits(hist_len.min(64))
        };
        let raw = (pc.raw() >> 2) ^ h ^ ((h >> 7) << 1) ^ (comp as u64) << 3;
        fast_mod(raw, self.config.entries as u64) as usize
    }

    /// Computes the corrector's vote for `pc`, biased by the TAGE
    /// prediction (`tage_taken` contributes to the sum as in the reference).
    pub fn consult(&self, pc: Addr, tage_taken: bool, history: &GlobalHistory) -> ScVerdict {
        let mut sum: i32 = if tage_taken { 8 } else { -8 };
        for comp in 0..self.tables.len() {
            let i = self.index(comp, pc, history);
            sum += i32::from(self.tables[comp][i]) * 2 + 1;
        }
        ScVerdict {
            taken: sum >= 0,
            confident: sum.abs() > self.threshold,
            sum,
        }
    }

    /// Trains the corrector with the outcome. Counters are updated whenever
    /// the vote was weak or wrong; the threshold adapts toward the point
    /// where overrides are net-positive.
    pub fn train(&mut self, pc: Addr, taken: bool, verdict: ScVerdict, history: &GlobalHistory) {
        let max = (1i8 << (self.config.ctr_bits - 1)) - 1;
        let min = -(1i8 << (self.config.ctr_bits - 1));
        if verdict.taken != taken || verdict.sum.abs() <= self.threshold * 2 {
            for comp in 0..self.tables.len() {
                let i = self.index(comp, pc, history);
                let c = &mut self.tables[comp][i];
                *c = if taken {
                    (*c + 1).min(max)
                } else {
                    (*c - 1).max(min)
                };
            }
        }
        // Dynamic threshold adaptation (Seznec's scheme, simplified): grow
        // when confident overrides mispredict, shrink when hesitant votes
        // were right.
        if verdict.confident && verdict.taken != taken {
            self.threshold_ctr += 1;
            if self.threshold_ctr >= 4 {
                self.threshold = (self.threshold + 1).min(63);
                self.threshold_ctr = 0;
            }
        } else if !verdict.confident && verdict.taken == taken {
            self.threshold_ctr -= 1;
            if self.threshold_ctr <= -4 {
                self.threshold = (self.threshold - 1).max(1);
                self.threshold_ctr = 0;
            }
        }
    }

    /// Clears all corrector state.
    pub fn flush(&mut self) {
        for t in &mut self.tables {
            t.fill(0);
        }
        self.threshold = 5;
        self.threshold_ctr = 0;
    }

    /// Modeled storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.config.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrector_learns_to_oppose_bad_tage() {
        // TAGE always says taken; the branch is always not-taken. After
        // training, the corrector must vote not-taken confidently.
        let mut sc = StatisticalCorrector::default_scl();
        let h = GlobalHistory::new();
        let pc = Addr::new(0x500);
        for _ in 0..200 {
            let v = sc.consult(pc, true, &h);
            sc.train(pc, false, v, &h);
        }
        let v = sc.consult(pc, true, &h);
        assert!(!v.taken, "corrector should oppose the wrong TAGE output");
        assert!(v.confident);
    }

    #[test]
    fn corrector_agrees_with_good_tage() {
        let mut sc = StatisticalCorrector::default_scl();
        let h = GlobalHistory::new();
        let pc = Addr::new(0x700);
        for _ in 0..100 {
            let v = sc.consult(pc, true, &h);
            sc.train(pc, true, v, &h);
        }
        assert!(sc.consult(pc, true, &h).taken);
    }

    #[test]
    fn flush_resets_votes() {
        let mut sc = StatisticalCorrector::default_scl();
        let h = GlobalHistory::new();
        let pc = Addr::new(0x900);
        for _ in 0..200 {
            let v = sc.consult(pc, true, &h);
            sc.train(pc, false, v, &h);
        }
        sc.flush();
        let v = sc.consult(pc, true, &h);
        assert!(v.taken, "flushed corrector follows TAGE's bias term");
    }

    #[test]
    fn storage_accounting() {
        let cfg = ScConfig::default_scl();
        assert_eq!(cfg.storage_bits(), 1024 * 4 * 6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_entries_rejected() {
        let _ = StatisticalCorrector::new(ScConfig {
            entries: 1000,
            history_lens: vec![0],
            ctr_bits: 6,
        });
    }
}
