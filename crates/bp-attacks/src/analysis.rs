//! Security-margin analysis (paper §VI-C): is the key-change policy fast
//! enough that no analyzed attack completes within one key epoch?
//!
//! The paper's argument: the cheapest analyzed attack against the hybrid
//! design needs ≈ 2²⁷ BPU accesses, while keys change at least every context
//! switch (a 2²⁴-cycle Linux time slice at 4 GHz) *and* every
//! `renewal_threshold` accesses. This module assembles the attack-cost
//! inventory and checks the policy against it, including the paper's
//! multi-target degradation (16 simultaneously attacked branches cut the
//! cost to ≈ 2²⁴).

use crate::{blind, gem, pht_analysis};

/// Cost (in BPU accesses) of each analyzed attack family against the
/// hybrid-protected predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackCostInventory {
    /// PPP-style eviction-set construction (§VI-A2): extrapolated accesses.
    pub ppp_accesses: f64,
    /// Blind contention, one target branch (Equation 1 with L0·L1 filter).
    pub blind_accesses: f64,
    /// PHT reuse Prime+Probe (Equation 2).
    pub pht_accesses: f64,
    /// Re-key bound if randomization had no upper-level filter (GEM, §III-C)
    /// — the counterfactual showing why the hybrid matters.
    pub unfiltered_gem_accesses: f64,
}

impl AttackCostInventory {
    /// The paper's configuration: S = 1024, W = 7, L0 = 16, L1 = 512,
    /// TAGE (I = 13, T = 12, C = 2, U = 1), PPP at the measured ≈ 1%
    /// success with ≈ 2²⁰-access runs ⇒ ≈ 2²⁷.
    pub fn paper_default() -> Self {
        AttackCostInventory {
            ppp_accesses: (1u64 << 27) as f64,
            blind_accesses: blind::expected_accesses_hybrid(1140, 1024, 7, 16, 512),
            pht_accesses: pht_analysis::PhtAttackParams::paper().accesses_per_probe(),
            unfiltered_gem_accesses: gem::rekey_interval_estimate(7 * 1024) as f64,
        }
    }

    /// The cheapest attack against the *hybrid* design (the filter applies,
    /// so the GEM counterfactual is excluded).
    pub fn cheapest_hybrid_attack(&self) -> f64 {
        self.ppp_accesses
            .min(self.blind_accesses)
            .min(self.pht_accesses)
    }

    /// Attack cost when the adversary targets `n` victim branches at once
    /// (§VI-C: cost shrinks roughly linearly; 16 targets ≈ 2²⁴).
    pub fn multi_target_cost(&self, n_targets: u32) -> f64 {
        self.cheapest_hybrid_attack() / f64::from(n_targets.max(1))
    }
}

/// A key-change policy: keys change at context switches and at an access
/// counter threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyChangePolicy {
    /// Maximum accesses between renewals (the dedicated counter, §VI-C).
    pub access_threshold: u64,
    /// Context-switch interval in cycles.
    pub time_slice_cycles: u64,
    /// Upper bound on BPU accesses per cycle (the paper's worst case: 1).
    pub accesses_per_cycle: f64,
}

impl KeyChangePolicy {
    /// The paper's policy: 2²⁷ counter threshold, 2²⁴-cycle slice, one
    /// access per cycle worst case.
    pub fn paper_default() -> Self {
        KeyChangePolicy {
            access_threshold: bp_crypto::keys::PAPER_RENEWAL_THRESHOLD,
            time_slice_cycles: 1 << 24,
            accesses_per_cycle: 1.0,
        }
    }

    /// Accesses an attacker can make within one key epoch: the counter cap
    /// or the slice cap, whichever binds first.
    pub fn max_accesses_per_epoch(&self) -> f64 {
        (self.access_threshold as f64).min(self.time_slice_cycles as f64 * self.accesses_per_cycle)
    }

    /// Whether no analyzed attack fits in a key epoch.
    pub fn is_secure_against(&self, inventory: &AttackCostInventory) -> bool {
        inventory.cheapest_hybrid_attack() > self.max_accesses_per_epoch()
    }

    /// The largest simultaneous-target count the policy still covers
    /// (§VI-C: 16 for the paper's numbers).
    pub fn max_covered_targets(&self, inventory: &AttackCostInventory) -> u32 {
        let budget = self.max_accesses_per_epoch();
        let mut n = 1u32;
        while inventory.multi_target_cost(n + 1) > budget && n < 1 << 16 {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_policy_is_secure() {
        let inv = AttackCostInventory::paper_default();
        let pol = KeyChangePolicy::paper_default();
        assert!(pol.is_secure_against(&inv));
    }

    #[test]
    fn cheapest_attack_is_well_above_time_slice() {
        let inv = AttackCostInventory::paper_default();
        // ≈ 2^26+ against a 2^24 slice.
        assert!(inv.cheapest_hybrid_attack() > (1u64 << 25) as f64);
    }

    #[test]
    fn without_the_filter_rekeying_would_be_constant() {
        // The §III-C counterfactual: randomization-only must re-key every
        // ≈ 2^16 accesses — over a hundred times per time slice.
        let inv = AttackCostInventory::paper_default();
        let pol = KeyChangePolicy::paper_default();
        let rekeys_per_slice =
            pol.time_slice_cycles as f64 * pol.accesses_per_cycle / inv.unfiltered_gem_accesses;
        assert!(
            rekeys_per_slice > 100.0,
            "unfiltered randomization re-keys {rekeys_per_slice:.0}x per slice"
        );
    }

    #[test]
    fn multi_target_coverage_is_around_sixteen() {
        // §VI-C: 16 simultaneously attacked branches bring the cost near the
        // slice budget.
        let inv = AttackCostInventory::paper_default();
        let pol = KeyChangePolicy::paper_default();
        let n = pol.max_covered_targets(&inv);
        assert!(
            (2..=64).contains(&n),
            "covered targets {n} should be a small number (paper: ~16)"
        );
    }

    #[test]
    fn slower_attacker_helps_the_defender() {
        let inv = AttackCostInventory::paper_default();
        let fast = KeyChangePolicy::paper_default();
        let slow = KeyChangePolicy {
            accesses_per_cycle: 0.25,
            ..fast
        };
        assert!(slow.max_covered_targets(&inv) >= fast.max_covered_targets(&inv));
    }
}
