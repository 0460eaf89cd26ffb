//! A classic Alpha 21264-style tournament predictor.
//!
//! The paper uses "the decades-old tournament predictor" as a yardstick:
//! TAGE-SC-L buys ≈ 5.4% performance over it in their setup (§VII-F), which
//! is why single-digit protection overheads matter. This implementation
//! provides that comparison point: a local-history predictor, a gshare-style
//! global predictor, and a chooser. No mechanism randomizes it, so it takes
//! no codec.

use bp_common::{fast_mod, Addr};

fn bump(c: &mut u8, taken: bool, max: u8) {
    if taken {
        *c = (*c + 1).min(max);
    } else {
        *c = c.saturating_sub(1);
    }
}

/// Tournament predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TournamentConfig {
    /// Local history table entries (power of two).
    pub local_entries: usize,
    /// Local history length in bits.
    pub local_history_bits: u32,
    /// Global/gshare predictor entries (power of two).
    pub global_entries: usize,
    /// Chooser entries (power of two).
    pub chooser_entries: usize,
}

impl TournamentConfig {
    /// An Alpha-21264-class configuration (~29 Kbit).
    pub const fn alpha_like() -> Self {
        TournamentConfig {
            local_entries: 1024,
            local_history_bits: 10,
            global_entries: 4096,
            chooser_entries: 4096,
        }
    }
}

/// The tournament predictor.
#[derive(Debug, Clone)]
pub struct Tournament {
    config: TournamentConfig,
    /// Per-branch local histories.
    local_history: Vec<u16>,
    /// Local pattern table: 3-bit counters indexed by local history.
    local_ctr: Vec<u8>,
    /// Global 2-bit counters indexed by pc ^ global history.
    global_ctr: Vec<u8>,
    /// Chooser 2-bit counters: ≥2 selects global.
    chooser: Vec<u8>,
    global_history: u64,
    last: Option<(u64, bool, bool)>,
}

impl Tournament {
    /// Creates a tournament predictor.
    ///
    /// # Panics
    ///
    /// Panics if any table size is not a power of two.
    pub fn new(config: TournamentConfig) -> Self {
        assert!(config.local_entries.is_power_of_two());
        assert!(config.global_entries.is_power_of_two());
        assert!(config.chooser_entries.is_power_of_two());
        assert!(config.local_history_bits <= 16);
        Tournament {
            local_history: vec![0; config.local_entries],
            local_ctr: vec![3; 1 << config.local_history_bits],
            global_ctr: vec![1; config.global_entries],
            chooser: vec![2; config.chooser_entries],
            global_history: 0,
            last: None,
            config,
        }
    }

    /// The Alpha-class default.
    pub fn alpha_like() -> Self {
        Tournament::new(TournamentConfig::alpha_like())
    }

    fn local_index(&self, pc: Addr) -> usize {
        fast_mod(pc.bits(2, 32), self.config.local_entries as u64) as usize
    }

    fn global_index(&self, pc: Addr) -> usize {
        let raw = pc.bits(2, 32) ^ self.global_history;
        fast_mod(raw, self.config.global_entries as u64) as usize
    }

    fn chooser_index(&self) -> usize {
        fast_mod(self.global_history, self.config.chooser_entries as u64) as usize
    }

    /// Predicts the direction at `pc`.
    pub fn predict(&mut self, pc: Addr) -> bool {
        let li = self.local_index(pc);
        let lh = self.local_history[li] as usize & ((1 << self.config.local_history_bits) - 1);
        let local_pred = self.local_ctr[lh] >= 4;
        let gi = self.global_index(pc);
        let global_pred = self.global_ctr[gi] >= 2;
        let use_global = self.chooser[self.chooser_index()] >= 2;
        let pred = if use_global { global_pred } else { local_pred };
        self.last = Some((pc.raw(), local_pred, global_pred));
        pred
    }

    /// Trains toward `taken`; must follow [`Tournament::predict`] for the
    /// same branch (a lost lookup is recomputed).
    pub fn update(&mut self, pc: Addr, taken: bool) {
        let (local_pred, global_pred) = match self.last.take() {
            Some((saved, l, g)) if saved == pc.raw() => (l, g),
            _ => {
                let _ = self.predict(pc);
                match self.last.take() {
                    Some((_, l, g)) => (l, g),
                    // predict() always stores lookup state; stay total and
                    // skip the update rather than aborting the simulation.
                    None => {
                        debug_assert!(false, "predict must store lookup state");
                        return;
                    }
                }
            }
        };
        // Chooser trains toward whichever component was right (when they
        // disagree).
        if local_pred != global_pred {
            let ci = self.chooser_index();
            bump(&mut self.chooser[ci], global_pred == taken, 3);
        }
        let li = self.local_index(pc);
        let lh_mask = (1u16 << self.config.local_history_bits) - 1;
        let lh = (self.local_history[li] & lh_mask) as usize;
        bump(&mut self.local_ctr[lh], taken, 7);
        self.local_history[li] = ((self.local_history[li] << 1) | u16::from(taken)) & lh_mask;
        let gi = self.global_index(pc);
        bump(&mut self.global_ctr[gi], taken, 3);
        self.global_history = (self.global_history << 1) | u64::from(taken);
    }

    /// Clears all prediction state.
    pub fn flush(&mut self) {
        self.local_history.fill(0);
        self.local_ctr.fill(3);
        self.global_ctr.fill(1);
        self.chooser.fill(2);
        self.global_history = 0;
        self.last = None;
    }

    /// Modeled storage in bits.
    pub fn storage_bits(&self) -> u64 {
        let local_hist =
            self.config.local_entries as u64 * u64::from(self.config.local_history_bits);
        let local_ctr = (1u64 << self.config.local_history_bits) * 3;
        let global = self.config.global_entries as u64 * 2;
        let chooser = self.config.chooser_entries as u64 * 2;
        local_hist + local_ctr + global + chooser
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy<F: FnMut(u64) -> bool>(p: &mut Tournament, pc: u64, n: u64, mut f: F) -> f64 {
        let mut ok = 0u64;
        for s in 0..n {
            let t = f(s);
            if p.predict(Addr::new(pc)) == t {
                ok += 1;
            }
            p.update(Addr::new(pc), t);
        }
        ok as f64 / n as f64
    }

    #[test]
    fn learns_bias() {
        let mut p = Tournament::alpha_like();
        assert!(accuracy(&mut p, 0x100, 2000, |_| true) > 0.98);
    }

    #[test]
    fn learns_short_pattern_via_local_history() {
        let mut p = Tournament::alpha_like();
        let pattern = [true, false, false, true];
        let acc = accuracy(&mut p, 0x200, 4000, |s| pattern[(s % 4) as usize]);
        assert!(acc > 0.9, "period-4 accuracy {acc}");
    }

    #[test]
    fn tage_scl_beats_tournament_on_long_patterns() {
        // The §VII-F claim, in miniature: a long-period pattern TAGE's long
        // histories capture but the tournament's 10-bit local history can't.
        use crate::codec::IdentityCodec;
        use crate::tage_scl::TageScL;
        let mut c = IdentityCodec::new();
        let mut tour = Tournament::alpha_like();
        let mut tage = TageScL::paper_default();
        let period = 37u64;
        let (mut tour_ok, mut tage_ok, mut total) = (0u64, 0u64, 0u64);
        for s in 0..30_000u64 {
            let t = s % period < period - 1;
            let pc = Addr::new(0x300);
            if tour.predict(pc) == t {
                tour_ok += 1;
            }
            tour.update(pc, t);
            if tage.predict_slot(pc, 0, &mut c, s) == t {
                tage_ok += 1;
            }
            tage.update_slot(pc, 0, t, &mut c, s);
            total += 1;
        }
        let (ta, to) = (tage_ok as f64 / total as f64, tour_ok as f64 / total as f64);
        assert!(ta > to, "tage {ta} must beat tournament {to}");
    }

    #[test]
    fn flush_resets() {
        let mut p = Tournament::alpha_like();
        let _ = accuracy(&mut p, 0x400, 1000, |_| true);
        p.flush();
        assert_eq!(p.global_history, 0);
    }

    #[test]
    fn storage_is_tens_of_kilobits() {
        let p = Tournament::alpha_like();
        assert!(p.storage_bits() > 20_000 && p.storage_bits() < 60_000);
    }
}
