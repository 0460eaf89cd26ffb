//! TAGE-SC-L: the paper's baseline direction predictor (Figure 3b).
//!
//! Combines [`crate::tage::Tage`] with the statistical corrector and
//! the loop predictor: the loop predictor overrides when confident; the
//! corrector may revise TAGE's output when the provider is weak and the
//! corrector is confident.
//!
//! Like [`Tage`], the predictor supports isolation slots: the small
//! structures (base predictor, corrector, loop table, history registers) are
//! replicated per slot — under HyBP these are the physically isolated
//! components — while the large tagged tables stay shared. Only the tagged
//! tables reach the codec. There is one global history register per history
//! slot, TAGE's: the corrector consults and trains on it, read before TAGE's
//! update pushes the branch's outcome.

use crate::codec::TableCodec;
use crate::loop_pred::LoopPredictor;
use crate::sc::StatisticalCorrector;
use crate::tage::{Tage, TageConfig};
use bp_common::{fast_mod_usize, Addr, Cycle};

/// The combined TAGE-SC-L predictor.
///
/// # Examples
///
/// ```
/// use bp_predictors::tage_scl::TageScL;
/// use bp_predictors::codec::IdentityCodec;
/// use bp_common::Addr;
///
/// let mut p = TageScL::paper_default();
/// let mut c = IdentityCodec::new();
/// let pc = Addr::new(0x4000);
/// for step in 0..100u64 {
///     let _ = p.predict_slot(pc, 0, &mut c, step);
///     p.update_slot(pc, 0, true, &mut c, step);
/// }
/// assert!(p.predict_slot(pc, 0, &mut c, 100));
/// ```
#[derive(Debug, Clone)]
pub struct TageScL {
    tage: Tage,
    sc: Vec<StatisticalCorrector>,
    loop_pred: Vec<LoopPredictor>,
    last_sc: Option<(u64, usize, crate::sc::ScVerdict)>,
}

impl TageScL {
    /// Builds a single-slot TAGE-SC-L.
    pub fn new(config: TageConfig) -> Self {
        TageScL::with_slots(config, 1)
    }

    /// Builds TAGE-SC-L with `slots` isolated copies of the small
    /// structures and shared tagged tables.
    pub fn with_slots(config: TageConfig, slots: usize) -> Self {
        TageScL::with_layout(config, slots, slots)
    }

    /// General layout: `iso_slots` replicas of the small tables (base, SC,
    /// loop) and `history_slots` history banks. Conventional SMT shares the
    /// tables and banks only the histories (`iso_slots = 1`); HyBP
    /// replicates both per `(thread, privilege)` slot. Indices are taken
    /// modulo each count.
    ///
    /// # Panics
    ///
    /// Panics if a slot count is zero.
    pub fn with_layout(config: TageConfig, iso_slots: usize, history_slots: usize) -> Self {
        assert!(iso_slots > 0 && history_slots > 0, "need at least one slot");
        TageScL {
            tage: Tage::with_layout(config, iso_slots, history_slots),
            sc: (0..iso_slots)
                .map(|_| StatisticalCorrector::default_scl())
                .collect(),
            loop_pred: (0..iso_slots)
                .map(|_| LoopPredictor::default_scl())
                .collect(),
            last_sc: None,
        }
    }

    /// The paper-scale predictor (≈ 66 KB class), single slot.
    pub fn paper_default() -> Self {
        TageScL::new(TageConfig::paper_scl())
    }

    /// Number of isolation slots.
    pub fn slot_count(&self) -> usize {
        self.sc.len()
    }

    /// Access to the inner TAGE (attack harnesses inspect occupancy).
    pub fn tage(&self) -> &Tage {
        &self.tage
    }

    /// Predicts for a branch executing in `slot`. Generic over the codec so
    /// concrete codecs inline into the tagged-table walk.
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
    ) -> bool {
        let si = fast_mod_usize(slot, self.sc.len());
        let lv = self.loop_pred[si].consult(pc);
        let tage_pred = self.tage.predict_slot(pc, slot, codec, now);
        let sc = self.sc[si].consult(pc, tage_pred.taken, self.tage.global_history(slot));
        self.last_sc = Some((pc.raw(), slot, sc));
        if lv.confident {
            return lv.taken;
        }
        // The corrector overrides only weak TAGE outputs, and only when its
        // own confidence clears the dynamic threshold.
        if tage_pred.weak && sc.confident {
            sc.taken
        } else {
            tage_pred.taken
        }
    }

    /// Trains all components for a branch in `slot` and advances that slot's
    /// histories.
    pub fn update_slot<C: TableCodec + ?Sized>(
        &mut self,
        pc: Addr,
        slot: usize,
        taken: bool,
        codec: &mut C,
        now: Cycle,
    ) {
        let si = fast_mod_usize(slot, self.sc.len());
        self.loop_pred[si].train(pc, taken);
        if let Some((saved_pc, saved_slot, verdict)) = self.last_sc.take() {
            if saved_pc == pc.raw() && saved_slot == slot {
                self.sc[si].train(pc, taken, verdict, self.tage.global_history(slot));
            }
        }
        // Pushes the outcome into the history the corrector just read.
        self.tage.update_slot(pc, slot, taken, codec, now);
    }

    /// Flushes one slot's physically isolated components: base predictor,
    /// history registers, corrector and loop table. The shared tagged tables
    /// are untouched (they are protected by key changes under HyBP).
    pub fn flush_slot_isolated(&mut self, slot: usize) {
        let si = fast_mod_usize(slot, self.sc.len());
        self.tage.flush_slot(slot);
        self.sc[si].flush();
        self.loop_pred[si].flush();
        self.last_sc = None;
    }

    /// Clears every component of every slot, shared tagged tables included
    /// (the Flush defense, and Partition/Replication's per-slot flush).
    pub fn flush_all(&mut self) {
        self.tage.flush_all();
        for s in &mut self.sc {
            s.flush();
        }
        for l in &mut self.loop_pred {
            l.flush();
        }
        self.last_sc = None;
    }

    /// Storage accounting: shared tagged tables once, small structures per
    /// slot.
    pub fn storage_bits_with_slots(&self) -> u64 {
        self.tage.storage_bits_with_slots()
            + self
                .sc
                .iter()
                .map(StatisticalCorrector::storage_bits)
                .sum::<u64>()
            + self
                .loop_pred
                .iter()
                .map(LoopPredictor::storage_bits)
                .sum::<u64>()
    }

    /// Storage of one slot's isolated small structures, in bits (base +
    /// corrector + loop table). This is the quantity HyBP replicates.
    pub fn isolated_slot_storage_bits(&self) -> u64 {
        self.tage.config().base_storage_bits()
            + self.sc[0].storage_bits()
            + self.loop_pred[0].storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::IdentityCodec;
    use bp_common::history::GlobalHistory;
    use bp_common::rng::Xoshiro256StarStar;

    fn accuracy<F: FnMut(u64) -> bool>(p: &mut TageScL, pc: u64, n: u64, mut f: F) -> f64 {
        let mut c = IdentityCodec::new();
        let mut ok = 0u64;
        for s in 0..n {
            let t = f(s);
            if p.predict_slot(Addr::new(pc), 0, &mut c, s) == t {
                ok += 1;
            }
            p.update_slot(Addr::new(pc), 0, t, &mut c, s);
        }
        ok as f64 / n as f64
    }

    #[test]
    fn long_constant_loop_is_near_perfect_after_warmup() {
        // Trip count 40: beyond the tagged tables' easy range but trivial
        // for the loop predictor.
        let mut p = TageScL::paper_default();
        let _warm = accuracy(&mut p, 0x100, 40 * 8, |s| (s % 40) + 1 < 40);
        let steady = accuracy(&mut p, 0x100, 40 * 20, |s| (s % 40) + 1 < 40);
        assert!(steady > 0.97, "steady-state accuracy {steady}");
    }

    #[test]
    fn mixed_workload_accuracy_is_high() {
        let mut p = TageScL::paper_default();
        let mut c = IdentityCodec::new();
        let mut rng = Xoshiro256StarStar::seeded(17);
        // 200 branches: 60% strongly biased, 30% pattern, 10% random.
        let kinds: Vec<u8> = (0..200)
            .map(|i| {
                if i < 120 {
                    0
                } else if i < 180 {
                    1
                } else {
                    2
                }
            })
            .collect();
        let biases: Vec<bool> = (0..200).map(|_| rng.chance(0.5)).collect();
        let (mut ok, mut total) = (0u64, 0u64);
        for round in 0..120u64 {
            for b in 0..200usize {
                let pc = Addr::new(0x8000 + (b as u64) * 16);
                let t = match kinds[b] {
                    0 => biases[b] != rng.chance(0.02),
                    1 => !(round + b as u64).is_multiple_of(3),
                    _ => rng.chance(0.5),
                };
                if p.predict_slot(pc, 0, &mut c, round) == t {
                    ok += 1;
                }
                p.update_slot(pc, 0, t, &mut c, round);
                total += 1;
            }
        }
        let acc = ok as f64 / total as f64;
        assert!(acc > 0.87, "mixed accuracy {acc}");
    }

    #[test]
    fn flush_loses_warm_state() {
        let mut p = TageScL::paper_default();
        let a1 = accuracy(&mut p, 0x300, 3000, |s| s % 2 == 0);
        assert!(a1 > 0.9);
        p.flush_all();
        let mut c = IdentityCodec::new();
        let cold = p.predict_slot(Addr::new(0x300), 0, &mut c, 0);
        assert!(!cold, "cold bimodal default is not-taken");
    }

    #[test]
    fn slot_flush_keeps_other_slots_warm() {
        let mut p = TageScL::with_slots(TageConfig::paper_scl(), 2);
        let mut c = IdentityCodec::new();
        // Warm both slots on the same always-taken branch.
        for s in 0..500u64 {
            for slot in 0..2 {
                let _ = p.predict_slot(Addr::new(0x900), slot, &mut c, s);
                p.update_slot(Addr::new(0x900), slot, true, &mut c, s);
            }
        }
        p.flush_slot_isolated(0);
        // Slot 1 still predicts taken (its base/hist survive; shared tagged
        // tables also survive).
        assert!(p.predict_slot(Addr::new(0x900), 1, &mut c, 1000));
    }

    #[test]
    fn corrector_reads_the_history_tage_keeps_per_slot() {
        // The history the corrector consults, kept independently: every
        // update pushes its slot's outcome, and every flush that covers a
        // slot clears it.
        let mut p = TageScL::with_slots(TageConfig::paper_scl(), 4);
        let mut mirror = vec![GlobalHistory::new(); 4];
        let mut c = IdentityCodec::new();
        let mut rng = Xoshiro256StarStar::seeded(23);
        let (mut slot_flushes, mut full_flushes) = (0, 0);
        for step in 0..20_000u64 {
            let slot = rng.next_below(4) as usize;
            let pc = Addr::new(0x1000 + (rng.next_below(64) << 2));
            match rng.next_below(500) {
                0 => {
                    p.flush_all();
                    mirror.iter_mut().for_each(GlobalHistory::clear);
                    full_flushes += 1;
                }
                1..=4 => {
                    p.flush_slot_isolated(slot);
                    mirror[slot].clear();
                    slot_flushes += 1;
                }
                _ => {
                    let taken = rng.chance(0.6);
                    // Some updates arrive without a prediction.
                    if step % 7 != 0 {
                        let _ = p.predict_slot(pc, slot, &mut c, step);
                    }
                    p.update_slot(pc, slot, taken, &mut c, step);
                    mirror[slot].push(taken);
                }
            }
            for (s, h) in mirror.iter().enumerate() {
                assert_eq!(p.tage.global_history(s), h, "slot {s} after step {step}");
            }
        }
        assert!(slot_flushes > 0 && full_flushes > 0, "the stream flushes");
    }

    #[test]
    fn storage_includes_all_components() {
        let p = TageScL::paper_default();
        let kb = p.storage_bits_with_slots() as f64 / 8.0 / 1024.0;
        assert!((38.0..75.0).contains(&kb), "TAGE-SC-L storage {kb} KB");
        // Isolated share: base (12 Kbit) + SC + loop ≈ 4.5 KB class.
        let iso_kb = p.isolated_slot_storage_bits() as f64 / 8.0 / 1024.0;
        assert!((1.0..6.0).contains(&iso_kb), "isolated share {iso_kb} KB");
    }
}
