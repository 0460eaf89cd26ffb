//! Algorithm 1: PPP-style eviction-set construction against the
//! hierarchical BTB (paper §VI-A2).
//!
//! The attacker prepares `S` candidate subsets of `W` lines sharing a raw
//! set index, prunes subsets with self-conflicts, then binary-searches for
//! the subset that contends with the victim's target branch `x` — deciding
//! each step from the *expectation* of misprediction-count differences
//! between victim runs with and without `x` (Algorithm 1 lines 9/11).
//!
//! Against HyBP two effects drive the cost up, exactly as the paper argues:
//! the attacker's own lines reach the shared L2 only after being washed
//! through its private L0/L1 (filler accesses), and the victim's `x` is
//! only *sometimes* present in L2 at all (the `m` filtering factor), making
//! the differential signal faint. The run-level success probability and the
//! per-run access count yield the extrapolated cost the paper quotes
//! (≈ 1% success ⇒ ≈ 2²⁷ accesses).

use bp_common::Addr;

use crate::env::AttackEnv;

/// Algorithm 1 parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PppParams {
    /// How many raw-index subsets to build (≤ sets; sampling keeps runs
    /// laptop-sized — the per-access cost scales linearly).
    pub subsets: usize,
    /// Expectation samples per binary-search test.
    pub repeats: u32,
    /// Victim gadget size in branches (washes `x` toward L2).
    pub gadget_branches: usize,
    /// Attacker filler accesses that wash its primes out of L0/L1.
    pub filler_lines: usize,
    /// Mean miss-difference needed to follow a binary-search half.
    pub decision_threshold: f64,
}

impl PppParams {
    /// Laptop-scale defaults.
    pub fn default_scaled() -> Self {
        PppParams {
            subsets: 64,
            repeats: 4,
            gadget_branches: 700,
            filler_lines: 700,
            decision_threshold: 0.12,
        }
    }

    /// Small geometry for unit tests.
    pub fn quick() -> Self {
        PppParams {
            subsets: 8,
            repeats: 12,
            gadget_branches: 650,
            filler_lines: 650,
            decision_threshold: 0.12,
        }
    }
}

/// Result of one Algorithm 1 run.
#[derive(Debug, Clone, PartialEq)]
pub struct PppRun {
    /// The candidate eviction set the algorithm settled on, if any.
    pub found: Option<Vec<Addr>>,
    /// BPU accesses spent in this run.
    pub accesses: u64,
    /// Ground-truth verification: how many of the found lines map to the
    /// victim target's physical L2 set (all `ways` ⇒ a genuine set).
    pub matching_lines: usize,
    /// Whether the run counts as a full success.
    pub genuine: bool,
}

/// Aggregated campaign statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PppCampaign {
    /// Runs attempted.
    pub runs: u32,
    /// Genuine successes.
    pub successes: u32,
    /// Total accesses across runs.
    pub total_accesses: u64,
}

impl PppCampaign {
    /// Per-run success probability.
    pub fn success_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            f64::from(self.successes) / f64::from(self.runs)
        }
    }

    /// Extrapolated accesses to one expected success (`accesses/run ÷ p`).
    pub fn expected_accesses_to_success(&self) -> f64 {
        let per_run = self.total_accesses as f64 / f64::from(self.runs.max(1));
        let p = self.success_rate();
        if p == 0.0 {
            f64::INFINITY
        } else {
            per_run / p
        }
    }
}

/// Attacker line `(subset i, way j)`: raw L2 index = `i`, distinct tags.
fn line(i: usize, j: usize) -> Addr {
    Addr::new(0x6000_0000 + ((j as u64) << 14) + ((i as u64) << 2))
}

/// Filler lines live in raw sets 512..960, away from the candidate
/// subsets' raw sets, so that on the unprotected baseline they do not create
/// false conflicts (under randomization the keys mix everything anyway —
/// that noise is part of the attack's cost).
fn filler_line(k: usize) -> Addr {
    let set = 512 + (k as u64 % 448);
    let tag = k as u64 / 448;
    Addr::new(0x7800_0000 + (tag << 14) + (set << 2))
}

/// Victim gadget lines use raw L2 sets 256..511: they exercise every L1 set
/// (washing the target branch down to the shared L2) without directly
/// contending with the attacker's candidate sets — contention noise there
/// would drown the differential signal the attack measures.
fn gadget_branch(k: usize) -> Addr {
    let set = 256 + (k as u64 % 256);
    let tag = k as u64 / 256;
    Addr::new(0x0090_0000 + (tag << 14) + (set << 2))
}

/// The victim's secret target branch.
pub fn victim_target_pc() -> Addr {
    Addr::new(0x0094_8010)
}

/// Primes every line of `subsets` and washes them through the attacker's
/// upper levels with filler.
fn prime(env: &mut AttackEnv, subsets: &[usize], ways: usize, filler: usize) {
    // Two passes help the probe lines converge to L2 residency despite
    // random replacement; the filler then washes them out of the attacker's
    // private upper levels into the shared L2 where contention with the
    // victim is observable.
    for _ in 0..2 {
        for &i in subsets {
            for j in 0..ways {
                env.attacker_access(line(i, j));
            }
        }
    }
    for k in 0..filler {
        env.attacker_access(filler_line(k));
    }
}

/// Probes every line of `subsets`, returning the number of misses.
fn probe(env: &mut AttackEnv, subsets: &[usize], ways: usize) -> u32 {
    let mut misses = 0;
    for &i in subsets {
        for j in 0..ways {
            if env.attacker_access(line(i, j)).slow {
                misses += 1;
            }
        }
    }
    misses
}

/// The victim executes its gadget (and optionally the target branch `x`).
fn victim_run(env: &mut AttackEnv, gadget_branches: usize, include_x: bool) {
    let x = victim_target_pc();
    let last_x = gadget_branches.saturating_sub(220);
    for k in 0..gadget_branches {
        env.victim_branch(gadget_branch(k), gadget_branch(k).wrapping_add(0x40));
        // The target branch executes a few times, early enough that the
        // remaining gadget traffic washes it down into the shared L2.
        if include_x && k % 41 == 17 && k < last_x {
            env.victim_branch(x, Addr::new(0x00A0_0000));
        }
    }
}

/// `test(G, g)` of Algorithm 1: primes the subsets in `group`, lets the
/// victim run, re-probes, and returns the miss count.
fn test(
    env: &mut AttackEnv,
    group: &[usize],
    ways: usize,
    params: &PppParams,
    include_x: bool,
) -> u32 {
    prime(env, group, ways, params.filler_lines);
    victim_run(env, params.gadget_branches, include_x);
    probe(env, group, ways)
}

/// Mean miss-difference between victim-with-x and victim-without-x over
/// `repeats` samples (the expectation in lines 9/11).
fn expectation_difference(
    env: &mut AttackEnv,
    group: &[usize],
    ways: usize,
    params: &PppParams,
) -> f64 {
    // Smaller groups carry the same absolute signal over less aggregate
    // noise floor but fewer contributing lines; spend proportionally more
    // repeats as the search narrows (cheaper per test, too).
    let scale = (params.subsets / group.len().max(1)).clamp(1, 4) as u32;
    let repeats = params.repeats * scale;
    let mut with_x = 0u32;
    let mut without_x = 0u32;
    for _ in 0..repeats {
        with_x += test(env, group, ways, params, true);
        without_x += test(env, group, ways, params, false);
    }
    (f64::from(with_x) - f64::from(without_x)) / f64::from(repeats)
}

/// Runs Algorithm 1 once. The victim's target branch is
/// [`victim_target_pc`]; ground truth is checked through the evaluation
/// oracle after the search concludes.
pub fn run_algorithm1(env: &mut AttackEnv, params: &PppParams) -> PppRun {
    let start = env.accesses();
    let (_sets, ways) = env.l2_geometry();

    // Step 1: candidate collection C = subsets 0..subsets.
    let mut collection: Vec<usize> = (0..params.subsets).collect();

    // Step 2: eliminate self-conflicting subsets — prime everything, then
    // probe each subset; subsets with internal misses conflict with the
    // rest of C (lines 2-6).
    prime(env, &collection, ways, params.filler_lines);
    collection.retain(|&i| {
        let mut misses = 0;
        for j in 0..ways {
            if env.attacker_access(line(i, j)).slow {
                misses += 1;
            }
        }
        // Random replacement makes single evictions noisy; only subsets
        // with a clear self-conflict signal are discarded.
        misses <= 1
    });
    if collection.is_empty() {
        return PppRun {
            found: None,
            accesses: env.accesses() - start,
            matching_lines: 0,
            genuine: false,
        };
    }

    // Step 3: binary search (lines 7-16).
    while collection.len() > 1 {
        let mid = collection.len() / 2;
        let (g1, g2) = collection.split_at(mid);
        let g1v = g1.to_vec();
        let g2v = g2.to_vec();
        // The decision statistic is the *contrast* |E(test with x) −
        // E(test without x)|: a resident-or-absent target line perturbs the
        // set's observable behaviour in either direction depending on which
        // arm inherits it; groups unrelated to x show no contrast at all.
        if expectation_difference(env, &g1v, ways, params).abs() > params.decision_threshold {
            collection = g1v;
        } else if expectation_difference(env, &g2v, ways, params).abs() > params.decision_threshold
        {
            collection = g2v;
        } else {
            return PppRun {
                found: None,
                accesses: env.accesses() - start,
                matching_lines: 0,
                genuine: false,
            };
        }
    }
    let subset = collection[0];
    let found: Vec<Addr> = (0..ways).map(|j| line(subset, j)).collect();

    // Ground-truth verification (evaluation only).
    let x_set = env.victim_l2_set(victim_target_pc());
    let matching = found
        .iter()
        .filter(|&&pc| env.attacker_l2_set(pc) == x_set)
        .count();
    let genuine = matching == ways;
    PppRun {
        found: Some(found),
        accesses: env.accesses() - start,
        matching_lines: matching,
        genuine,
    }
}

/// Runs a campaign of `runs` Algorithm 1 attempts, re-keying the victim
/// between attempts (fresh contexts, as across context switches).
pub fn campaign(
    mechanism: hybp::Mechanism,
    params: &PppParams,
    runs: u32,
    seed: u64,
) -> PppCampaign {
    let mut successes = 0;
    let mut total_accesses = 0;
    for r in 0..runs {
        let mut env = AttackEnv::new(mechanism, seed ^ u64::from(r) << 8);
        let out = run_algorithm1(&mut env, params);
        if out.genuine {
            successes += 1;
        }
        total_accesses += out.accesses;
    }
    PppCampaign {
        runs,
        successes,
        total_accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybp::Mechanism;

    #[test]
    fn baseline_algorithm_finds_the_target_set() {
        // Without randomization the victim target's raw set is its physical
        // set; when it is covered by the sampled subsets, the search should
        // converge on it with decent probability.
        let mut params = PppParams::quick();
        // Cover the victim's raw set: bits [2,12) of 0x948010 = 0x004.
        params.subsets = 16;
        let c = campaign(Mechanism::Baseline, &params, 6, 11);
        // Even unprotected, the exclusive BTB hierarchy's random replacement
        // makes the differential noisy; a scaled-down campaign lands a
        // genuine eviction set in a fraction of runs (the bench binary runs
        // the full campaign and reports the extrapolated cost).
        assert!(
            c.successes >= 1,
            "baseline PPP should sometimes succeed: {}/{} (cost {:.0})",
            c.successes,
            c.runs,
            c.expected_accesses_to_success()
        );
    }

    #[test]
    fn hybp_collapses_success_rate() {
        let params = PppParams::quick();
        let c = campaign(Mechanism::hybp_default(), &params, 6, 13);
        assert!(
            c.successes <= 1,
            "HyBP PPP success must be rare: {}/{}",
            c.successes,
            c.runs
        );
    }

    #[test]
    fn run_reports_access_count() {
        let mut env = AttackEnv::new(Mechanism::Baseline, 17);
        let out = run_algorithm1(&mut env, &PppParams::quick());
        assert!(out.accesses > 1_000, "accesses {}", out.accesses);
    }

    #[test]
    fn campaign_extrapolation_math() {
        let c = PppCampaign {
            runs: 100,
            successes: 1,
            total_accesses: 100 * 1_000_000,
        };
        assert!((c.success_rate() - 0.01).abs() < 1e-12);
        assert!((c.expected_accesses_to_success() - 1e8).abs() < 1.0);
    }
}
