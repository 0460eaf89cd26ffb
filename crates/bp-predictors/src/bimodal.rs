//! The bimodal base predictor with shared hysteresis (paper Figure 3b).
//!
//! The TAGE base component: a PC-indexed 2-bit counter table where the
//! hysteresis (strength) bit is shared between pairs of entries — the
//! paper's geometry is 8 Kbit of prediction bits and 4 Kbit of hysteresis.
//! Under HyBP this small table is physically isolated per
//! `(thread, privilege)` slot rather than randomized, so it indexes by PC
//! alone and never goes through a codec.

use bp_common::{fast_mod, Addr};

/// Bimodal predictor with shared hysteresis.
///
/// # Examples
///
/// ```
/// use bp_predictors::bimodal::Bimodal;
/// use bp_common::Addr;
///
/// let mut p = Bimodal::paper_base();
/// let pc = Addr::new(0x1000);
/// for _ in 0..4 {
///     p.update(pc, true);
/// }
/// assert!(p.predict(pc));
/// ```
#[derive(Debug, Clone)]
pub struct Bimodal {
    /// Direction bits, one per entry.
    pred: Vec<bool>,
    /// Hysteresis bits, shared between `1 << hyst_shift` neighbours.
    hyst: Vec<bool>,
    hyst_shift: u32,
}

/// Prediction entries of the paper's base predictor. `crate::budget` pins
/// the base predictor's storage bit for bit.
pub const PAPER_BIMODAL_ENTRIES: usize = 8192;
/// Hysteresis sharing shift of the paper's base predictor (2:1).
pub const PAPER_BIMODAL_HYST_SHIFT: u32 = 1;

impl Bimodal {
    /// Creates a bimodal predictor with `entries` prediction bits and
    /// `entries >> hyst_shift` hysteresis bits.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `hyst_shift` would leave
    /// no hysteresis bits.
    pub fn new(entries: usize, hyst_shift: u32) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        assert!(
            entries >> hyst_shift > 0,
            "hysteresis shift leaves no hysteresis bits"
        );
        Bimodal {
            pred: vec![false; entries],
            hyst: vec![true; entries >> hyst_shift],
            hyst_shift,
        }
    }

    /// The paper's base predictor: 8 Kbit prediction + 4 Kbit hysteresis.
    pub fn paper_base() -> Self {
        Bimodal::new(PAPER_BIMODAL_ENTRIES, PAPER_BIMODAL_HYST_SHIFT)
    }

    /// Number of prediction entries.
    pub fn entries(&self) -> usize {
        self.pred.len()
    }

    fn index(&self, pc: Addr) -> usize {
        fast_mod(pc.bits(2, 32), self.pred.len() as u64) as usize
    }

    /// Predicts the direction at `pc`.
    pub fn predict(&self, pc: Addr) -> bool {
        self.pred[self.index(pc)]
    }

    /// Trains the entry at `pc` toward `taken`.
    pub fn update(&mut self, pc: Addr, taken: bool) {
        let i = self.index(pc);
        let h = i >> self.hyst_shift;
        // 2-bit counter semantics with a shared strength bit: moving against
        // the prediction first weakens (clears hysteresis), then flips.
        if self.pred[i] == taken {
            self.hyst[h] = true;
        } else if self.hyst[h] {
            self.hyst[h] = false;
        } else {
            self.pred[i] = taken;
            self.hyst[h] = false;
        }
    }

    /// Resets every entry to weakly not-taken.
    pub fn flush(&mut self) {
        self.pred.fill(false);
        self.hyst.fill(true);
    }

    /// Modeled storage in bits (prediction plus hysteresis bits).
    pub fn storage_bits(&self) -> u64 {
        (self.pred.len() + self.hyst.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(i: u64) -> Addr {
        Addr::new(0x1000 + i * 4)
    }

    #[test]
    fn learns_a_biased_branch() {
        let mut p = Bimodal::paper_base();
        for _ in 0..4 {
            p.update(pc(0), true);
        }
        assert!(p.predict(pc(0)));
        for _ in 0..4 {
            p.update(pc(0), false);
        }
        assert!(!p.predict(pc(0)));
    }

    #[test]
    fn hysteresis_resists_single_anomaly() {
        let mut p = Bimodal::paper_base();
        for _ in 0..4 {
            p.update(pc(0), true);
        }
        p.update(pc(0), false); // one glitch: weaken, don't flip
        assert!(p.predict(pc(0)));
        p.update(pc(0), false); // second: flip
        assert!(!p.predict(pc(0)));
    }

    #[test]
    fn shared_hysteresis_couples_neighbours() {
        let mut p = Bimodal::new(16, 1);
        // Entries 0 and 1 share hysteresis bit 0. PCs 0x1000 and 0x1004 map
        // to indices 1024.. — build two PCs mapping to entries 0 and 1.
        let a = Addr::new(0 << 2);
        let b = Addr::new(1 << 2);
        for _ in 0..4 {
            p.update(a, true);
        }
        // Strengthened shared bit; one contrary update on b's entry clears
        // the shared hysteresis.
        p.update(b, true);
        assert!(p.predict(a));
    }

    #[test]
    fn flush_resets_to_weakly_not_taken() {
        let mut p = Bimodal::paper_base();
        for _ in 0..4 {
            p.update(pc(3), true);
        }
        p.flush();
        assert!(!p.predict(pc(3)));
    }

    #[test]
    fn storage_matches_paper_geometry() {
        let p = Bimodal::paper_base();
        assert_eq!(p.storage_bits(), 8192 + 4096);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Bimodal::new(1000, 1);
    }
}
