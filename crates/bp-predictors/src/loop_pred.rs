//! The loop predictor (the "L" of TAGE-SC-L).
//!
//! Detects branches that behave as loop exits with a constant trip count
//! (taken N−1 times, then not-taken once, repeatedly) and predicts them
//! perfectly once confident — a pattern global history predictors handle
//! poorly when N is large. Under HyBP the table is physically isolated per
//! slot, so it indexes and tags by PC alone and takes no codec.

use bp_common::{fast_mod, Addr};

/// One loop predictor entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct LoopEntry {
    tag: u16,
    /// Learned trip count (iterations until not-taken).
    trip: u16,
    /// Current iteration counter.
    current: u16,
    /// Confidence: number of consecutive confirmed trips.
    confidence: u8,
    valid: bool,
}

/// Loop predictor: a small direct-mapped table of loop trip counters.
#[derive(Debug, Clone)]
pub struct LoopPredictor {
    entries: Vec<LoopEntry>,
    /// Confidence needed before predictions are used.
    confidence_threshold: u8,
}

/// The loop predictor's verdict for one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopVerdict {
    /// Predicted direction.
    pub taken: bool,
    /// Whether the entry is confident enough to override TAGE.
    pub confident: bool,
}

// Default SC-L loop-predictor geometry. `crate::budget` pins the storage
// these values add up to, bit for bit.

/// Entries of the default SC-L loop predictor.
pub const SCL_LOOP_ENTRIES: usize = 64;
/// Partial tag width per entry.
pub const LOOP_TAG_BITS: u32 = 10;
/// Trained trip-count width per entry.
pub const LOOP_TRIP_BITS: u32 = 16;
/// Current iteration counter width per entry.
pub const LOOP_CURRENT_BITS: u32 = 16;
/// Confidence counter width per entry.
pub const LOOP_CONF_BITS: u32 = 4;
/// Valid bit per entry.
pub const LOOP_VALID_BITS: u32 = 1;

impl LoopPredictor {
    /// Creates a loop predictor with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        LoopPredictor {
            entries: vec![LoopEntry::default(); entries],
            confidence_threshold: 3,
        }
    }

    /// The default 64-entry predictor.
    pub fn default_scl() -> Self {
        LoopPredictor::new(SCL_LOOP_ENTRIES)
    }

    fn slot(&self, pc: Addr) -> (usize, u16) {
        let idx = fast_mod(pc.bits(2, 32), self.entries.len() as u64) as usize;
        let tag = (pc.bits(2, 10) & 0x3FF) as u16;
        (idx, tag)
    }

    /// Consults the predictor. Confident only for learned constant-trip loops.
    pub fn consult(&self, pc: Addr) -> LoopVerdict {
        let (idx, tag) = self.slot(pc);
        let e = &self.entries[idx];
        if e.valid && e.tag == tag && e.confidence >= self.confidence_threshold {
            LoopVerdict {
                taken: e.current + 1 < e.trip,
                confident: true,
            }
        } else {
            LoopVerdict {
                taken: true,
                confident: false,
            }
        }
    }

    /// Trains with the resolved outcome.
    pub fn train(&mut self, pc: Addr, taken: bool) {
        let (idx, tag) = self.slot(pc);
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != tag {
            // (Re)allocate on a not-taken outcome: loop exits are where trip
            // counts become observable.
            if !taken {
                *e = LoopEntry {
                    tag,
                    trip: 0,
                    current: 0,
                    confidence: 0,
                    valid: true,
                };
            }
            return;
        }
        if taken {
            e.current = e.current.saturating_add(1);
            if e.trip != 0 && e.current >= e.trip {
                // Ran longer than the learned trip count: not a fixed loop.
                e.confidence = 0;
                e.trip = 0;
            }
        } else {
            let observed = e.current + 1;
            if e.trip == observed {
                e.confidence = e.confidence.saturating_add(1).min(15);
            } else {
                e.trip = observed;
                e.confidence = 0;
            }
            e.current = 0;
        }
    }

    /// Clears all loop state.
    pub fn flush(&mut self) {
        self.entries.fill(LoopEntry::default());
    }

    /// Modeled storage in bits (tag 10 + trip 16 + current 16 + conf 4 + valid 1).
    pub fn storage_bits(&self) -> u64 {
        let entry_bits = u64::from(
            LOOP_TAG_BITS + LOOP_TRIP_BITS + LOOP_CURRENT_BITS + LOOP_CONF_BITS + LOOP_VALID_BITS,
        );
        self.entries.len() as u64 * entry_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a constant-trip loop: taken `trip-1` times, then not-taken.
    fn run_loop(lp: &mut LoopPredictor, pc: Addr, trip: u16, iterations: usize) -> (usize, usize) {
        let mut correct = 0;
        let mut confident_correct = 0;
        for _ in 0..iterations {
            for i in 0..trip {
                let taken = i + 1 < trip;
                let v = lp.consult(pc);
                if v.confident {
                    if v.taken == taken {
                        confident_correct += 1;
                        correct += 1;
                    }
                } else if taken {
                    correct += 1; // default "taken" guess
                }
                lp.train(pc, taken);
            }
        }
        (correct, confident_correct)
    }

    #[test]
    fn learns_constant_trip_loop_perfectly() {
        let mut lp = LoopPredictor::default_scl();
        let pc = Addr::new(0x100);
        // Warm up enough exits to gain confidence, then measure.
        run_loop(&mut lp, pc, 10, 6);
        let mut mispredicts = 0;
        for _ in 0..20 {
            for i in 0..10u16 {
                let taken = i + 1 < 10;
                let v = lp.consult(pc);
                assert!(v.confident, "must be confident after warmup");
                if v.taken != taken {
                    mispredicts += 1;
                }
                lp.train(pc, taken);
            }
        }
        assert_eq!(mispredicts, 0, "constant loop must be perfect");
    }

    #[test]
    fn changing_trip_count_drops_confidence() {
        let mut lp = LoopPredictor::default_scl();
        let pc = Addr::new(0x200);
        run_loop(&mut lp, pc, 8, 6);
        assert!(lp.consult(pc).confident);
        // Now run trips of a different length.
        run_loop(&mut lp, pc, 13, 1);
        // After a wrong exit the confidence resets; it must not be instantly
        // confident about the old count.
        let v = lp.consult(pc);
        // (may be re-learning; just assert no stale confident-wrong state)
        if v.confident {
            assert!(v.taken, "a confident prediction mid-loop must be taken");
        }
    }

    #[test]
    fn unconfident_by_default() {
        let lp = LoopPredictor::default_scl();
        let v = lp.consult(Addr::new(0x300));
        assert!(!v.confident);
    }

    #[test]
    fn flush_clears_confidence() {
        let mut lp = LoopPredictor::default_scl();
        let pc = Addr::new(0x400);
        run_loop(&mut lp, pc, 6, 8);
        assert!(lp.consult(pc).confident);
        lp.flush();
        assert!(!lp.consult(pc).confident);
    }
}
