//! The synthetic branch-stream generator.
//!
//! Turns a [`BenchmarkProfile`] into an infinite, deterministic stream of
//! [`BranchRecord`]s with the statistical structure branch predictors react
//! to:
//!
//! * a *hot working set* of static branches walked with loop-like locality,
//! * per-branch outcome models (strong bias with rare flips, short periodic
//!   patterns, fixed-trip loops, global-history correlation, biased noise),
//! * indirect branches cycling through per-site target sets,
//! * matched call/return pairs exercising the RAS.
//!
//! Two generators with the same profile and seed produce identical streams;
//! different seeds produce statistically identical but distinct programs
//! (used for distinct software threads in the context-switch experiments).

use bp_common::rng::Xoshiro256StarStar;
use bp_common::{Addr, BranchKind, BranchRecord};

use crate::profile::BenchmarkProfile;

/// Outcome model of one static conditional branch.
#[derive(Debug, Clone)]
enum OutcomeModel {
    /// Nearly always `taken`, flipping with `flip_prob`.
    Biased { taken: bool, flip_prob: f64 },
    /// Deterministic short pattern over its execution count.
    Pattern { bits: u32, period: u32 },
    /// Fixed-trip loop: taken `trip - 1` times, then one not-taken.
    Loop { trip: u32 },
    /// Equal to the XOR of the last two global outcomes (learnable from
    /// history, invisible to a per-branch counter).
    HistoryXor,
    /// Biased coin flip (the unpredictable fraction).
    Noise { p_taken: f64 },
}

/// One static branch site.
#[derive(Debug, Clone)]
struct StaticBranch {
    pc: Addr,
    kind: BranchKind,
    /// For direct branches: the fixed target. For indirect: the target base.
    target: Addr,
    model: OutcomeModel,
    /// Per-branch dynamic execution count (drives Pattern/Loop models).
    executions: u64,
    /// Indirect branches: current target index + number of targets.
    indirect_targets: u32,
}

/// Deterministic branch-stream generator for one software thread.
///
/// # Examples
///
/// ```
/// use bp_workloads::{SpecBenchmark, WorkloadGenerator};
///
/// let mut gen = WorkloadGenerator::new(SpecBenchmark::Mcf.profile(), 42);
/// let a = gen.next_branch();
/// let mut gen2 = WorkloadGenerator::new(SpecBenchmark::Mcf.profile(), 42);
/// assert_eq!(a, gen2.next_branch()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    profile: BenchmarkProfile,
    branches: Vec<StaticBranch>,
    rng: Xoshiro256StarStar,
    /// Inner-loop regions: `(start, len)` slices of the working set. The
    /// walk loops within a region for a number of iterations before moving
    /// on — the nested-loop locality real programs have, and what makes
    /// pattern/history branches learnable at realistic rates.
    regions: Vec<(usize, usize)>,
    region: usize,
    pos: usize,
    iters_left: u32,
    /// Recent global outcomes (for HistoryXor).
    last_two: (bool, bool),
    /// Open call sites awaiting a return (return target = call pc + 4).
    call_stack: Vec<Addr>,
    /// Total instructions represented so far (branches + gaps).
    instructions: u64,
    code_base: u64,
}

impl WorkloadGenerator {
    /// Builds a generator for `profile` with a deterministic `seed`.
    pub fn new(profile: BenchmarkProfile, seed: u64) -> Self {
        let mut rng = Xoshiro256StarStar::seeded(seed ^ 0xB0B0_0001);
        // Distinct software threads (seeds) live in distinct code regions so
        // their PCs do not collide — like different processes' layouts.
        let code_base = 0x10_0000 + (seed % 1024) * 0x40_0000;
        let n = profile.static_branches;
        let mut branches = Vec::with_capacity(n);
        let mut pc_cursor = code_base;
        for i in 0..n {
            // Irregular 4..=32-byte spacing: real branch PCs exercise all
            // low index bits (a fixed stride would leave most sets unused).
            pc_cursor += 4 + 4 * rng.next_below(8);
            let pc = Addr::new(pc_cursor);
            let u = rng.next_f64();
            let is_indirect = rng.chance(
                profile.indirect_frac / profile.branch_fraction.max(1e-9) * profile.branch_fraction,
            );
            // Assign kinds: a sprinkle of calls (paired with returns at run
            // time), indirect jumps per profile, rest conditional.
            let kind = if is_indirect {
                BranchKind::Indirect
            } else if rng.chance(0.04) {
                BranchKind::Call
            } else if rng.chance(0.02) {
                BranchKind::Direct
            } else {
                BranchKind::Conditional
            };
            let model = if u < profile.strongly_biased_frac {
                OutcomeModel::Biased {
                    taken: rng.chance(0.7),
                    flip_prob: profile.bias_flip_prob,
                }
            } else if u < profile.strongly_biased_frac + profile.pattern_frac {
                if rng.chance(0.5) {
                    let period = 2 + rng.next_below(3) as u32;
                    OutcomeModel::Pattern {
                        bits: (rng.next_u64() & ((1 << period) - 1)) as u32,
                        period,
                    }
                } else {
                    OutcomeModel::Loop {
                        trip: 3 + rng.next_below(14) as u32,
                    }
                }
            } else if u < profile.strongly_biased_frac + profile.pattern_frac + profile.history_frac
            {
                OutcomeModel::HistoryXor
            } else {
                OutcomeModel::Noise {
                    p_taken: profile.random_bias,
                }
            };
            let target = Addr::new(code_base + 0x20_0000 + (i as u64 * 64));
            branches.push(StaticBranch {
                pc,
                kind,
                target,
                model,
                executions: 0,
                indirect_targets: profile.indirect_targets as u32,
            });
        }
        // Carve the working set into inner-loop regions of 4..=40 branches.
        let mut regions = Vec::new();
        let mut start = 0usize;
        while start < n {
            let len = (4 + rng.next_below(37) as usize).min(n - start);
            regions.push((start, len));
            start += len;
        }
        let mut gen = WorkloadGenerator {
            profile,
            branches,
            rng,
            regions,
            region: 0,
            pos: 0,
            iters_left: 1,
            last_two: (false, false),
            call_stack: Vec::new(),
            instructions: 0,
            code_base,
        };
        gen.enter_region(0);
        gen
    }

    fn enter_region(&mut self, region: usize) {
        self.region = region % self.regions.len();
        self.pos = 0;
        let (lo, hi) = self.profile.region_iters;
        self.iters_left = lo + self.rng.next_below(u64::from(hi - lo + 1)) as u32;
    }

    /// The profile this generator realizes.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// Instructions represented so far (gaps + branches).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Produces the next dynamic branch.
    pub fn next_branch(&mut self) -> BranchRecord {
        // Pending return? Close the innermost call with some probability.
        // The emptiness check must stay *before* the RNG draw so the
        // branch stream (and with it every CSV) is bit-identical to the
        // pre-refactor generator.
        if !self.call_stack.is_empty() && self.rng.chance(0.3) {
            if let Some(ret_target) = self.call_stack.pop() {
                let gap = self.gap();
                let pc =
                    Addr::new(self.code_base + 0x30_0000 + (self.call_stack.len() as u64 * 32));
                self.instructions += u64::from(gap) + 1;
                return BranchRecord::unconditional(pc, BranchKind::Return, ret_target, gap);
            }
        }

        // Walk: sequential within the current inner-loop region; at the
        // region's end, either iterate again or move to the next region
        // (occasionally a far jump — irregular control flow).
        let (start, len) = self.regions[self.region];
        let i = start + self.pos;
        self.pos += 1;
        if self.pos >= len {
            self.pos = 0;
            self.iters_left = self.iters_left.saturating_sub(1);
            if self.iters_left == 0 {
                if self.rng.chance(0.05) {
                    let far = self.rng.next_below(self.regions.len() as u64) as usize;
                    self.enter_region(far);
                } else {
                    self.enter_region(self.region + 1);
                }
            }
        }

        let gap = self.gap();
        self.instructions += u64::from(gap) + 1;

        let (pc, kind, n_targets) = {
            let b = &self.branches[i];
            (b.pc, b.kind, b.indirect_targets)
        };
        match kind {
            BranchKind::Conditional => {
                let taken = self.outcome(i);
                self.last_two = (taken, self.last_two.0);
                let target = self.branches[i].target;
                BranchRecord::conditional(pc, target, taken, gap)
            }
            BranchKind::Indirect => {
                // Zipf-ish target selection: favourite target 70% of the time.
                let t = if self.rng.chance(0.7) {
                    0
                } else {
                    self.rng.next_below(u64::from(n_targets)) as u32
                };
                let target = Addr::new(self.branches[i].target.raw() + u64::from(t) * 16);
                BranchRecord::unconditional(pc, BranchKind::Indirect, target, gap)
            }
            BranchKind::Call => {
                // Bounded call depth keeps the stream realistic.
                if self.call_stack.len() < 24 {
                    self.call_stack.push(pc.wrapping_add(4));
                }
                let target = self.branches[i].target;
                BranchRecord::unconditional(pc, BranchKind::Call, target, gap)
            }
            BranchKind::Direct => {
                let target = self.branches[i].target;
                BranchRecord::unconditional(pc, BranchKind::Direct, target, gap)
            }
            // Static profiles never contain `Return` rows (returns are
            // synthesized from the call stack above); degrade a buggy one to
            // a direct branch rather than aborting the workload stream.
            BranchKind::Return => {
                debug_assert!(false, "returns are synthesized from the call stack");
                let target = self.branches[i].target;
                BranchRecord::unconditional(pc, BranchKind::Direct, target, gap)
            }
        }
    }

    fn gap(&mut self) -> u32 {
        self.rng.gap(self.profile.mean_gap(), 64)
    }

    fn outcome(&mut self, i: usize) -> bool {
        let execs = self.branches[i].executions;
        self.branches[i].executions += 1;
        match &self.branches[i].model {
            OutcomeModel::Biased { taken, flip_prob } => {
                let (t, f) = (*taken, *flip_prob);
                t != self.rng.chance(f)
            }
            OutcomeModel::Pattern { bits, period } => {
                (bits >> (execs % u64::from(*period))) & 1 == 1
            }
            OutcomeModel::Loop { trip } => (execs % u64::from(*trip)) + 1 < u64::from(*trip),
            OutcomeModel::HistoryXor => self.last_two.0 ^ self.last_two.1,
            OutcomeModel::Noise { p_taken } => {
                let p = *p_taken;
                self.rng.chance(p)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SpecBenchmark;

    #[test]
    fn deterministic_per_seed() {
        let p = SpecBenchmark::Xz.profile();
        let mut a = WorkloadGenerator::new(p, 7);
        let mut b = WorkloadGenerator::new(p, 7);
        for _ in 0..1000 {
            assert_eq!(a.next_branch(), b.next_branch());
        }
    }

    #[test]
    fn different_seeds_use_different_code_regions() {
        let p = SpecBenchmark::Xz.profile();
        let mut a = WorkloadGenerator::new(p, 1);
        let mut b = WorkloadGenerator::new(p, 2);
        let pa = a.next_branch().pc;
        let pb = b.next_branch().pc;
        assert!((pa.raw() as i64 - pb.raw() as i64).unsigned_abs() > 0x10_0000);
    }

    #[test]
    fn branch_fraction_is_respected() {
        let p = SpecBenchmark::Mcf.profile(); // branch fraction 0.19
        let mut g = WorkloadGenerator::new(p, 3);
        let n = 20_000;
        for _ in 0..n {
            g.next_branch();
        }
        let frac = n as f64 / g.instructions() as f64;
        assert!(
            (frac - 0.19).abs() < 0.03,
            "observed branch fraction {frac}"
        );
    }

    #[test]
    fn calls_and_returns_are_matched() {
        let p = SpecBenchmark::Xalancbmk.profile();
        let mut g = WorkloadGenerator::new(p, 5);
        let mut stack = Vec::new();
        let mut returns_checked = 0;
        for _ in 0..50_000 {
            let r = g.next_branch();
            match r.kind {
                BranchKind::Call => stack.push(r.pc.wrapping_add(4)),
                BranchKind::Return => {
                    if let Some(expect) = stack.pop() {
                        assert_eq!(r.target, expect, "return must match call site");
                        returns_checked += 1;
                    }
                }
                _ => {}
            }
        }
        assert!(returns_checked > 50, "saw only {returns_checked} returns");
    }

    #[test]
    fn working_set_size_matches_profile() {
        let p = SpecBenchmark::Lbm.profile(); // 260 static branches
        let mut g = WorkloadGenerator::new(p, 9);
        let mut pcs = std::collections::BTreeSet::new();
        for _ in 0..50_000 {
            pcs.insert(g.next_branch().pc);
        }
        // Returns add a few extra PCs beyond the static set.
        assert!(
            pcs.len() >= 200 && pcs.len() < 400,
            "distinct PCs {}",
            pcs.len()
        );
    }

    #[test]
    fn indirect_branches_have_multiple_targets() {
        let p = SpecBenchmark::Xalancbmk.profile();
        let mut g = WorkloadGenerator::new(p, 11);
        let mut targets: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>> =
            std::collections::BTreeMap::new();
        for _ in 0..200_000 {
            let r = g.next_branch();
            if r.kind == BranchKind::Indirect {
                targets
                    .entry(r.pc.raw())
                    .or_default()
                    .insert(r.target.raw());
            }
        }
        let multi = targets.values().filter(|s| s.len() > 1).count();
        assert!(multi > 0, "some indirect sites must have several targets");
    }

    #[test]
    fn tage_reaches_profile_accuracy_class() {
        // End-to-end calibration: the paper-scale TAGE-SC-L must reach each
        // profile's accuracy ceiling within a few points on conditionals.
        use bp_predictors::codec::IdentityCodec;
        use bp_predictors::tage_scl::TageScL;
        for bench in [SpecBenchmark::Lbm, SpecBenchmark::Mcf, SpecBenchmark::Wrf] {
            let p = bench.profile();
            let mut g = WorkloadGenerator::new(p, 13);
            let mut t = TageScL::paper_default();
            let mut c = IdentityCodec::new();
            let (mut ok, mut total) = (0u64, 0u64);
            let mut step = 0u64;
            let mut warmup = 30_000i64;
            while total < 60_000 {
                let r = g.next_branch();
                step += 1;
                if !r.kind.is_conditional() {
                    continue;
                }
                let pred = t.predict_slot(r.pc, 0, &mut c, step);
                t.update_slot(r.pc, 0, r.taken, &mut c, step);
                if warmup > 0 {
                    warmup -= 1;
                    continue;
                }
                if pred == r.taken {
                    ok += 1;
                }
                total += 1;
            }
            let acc = ok as f64 / total as f64;
            let target = p.target_accuracy;
            assert!(
                (acc - target).abs() < 0.03,
                "{bench}: accuracy {acc:.4} vs calibrated target {target:.4}"
            );
        }
    }
}
