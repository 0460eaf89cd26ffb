//! `poc_switch`: the §VI-D proof-of-concept campaigns, single-core, run
//! serially. Every attacker/victim hand-off is a context switch, so HyBP's
//! re-key and isolated-flush path does most of the work.

use bp_attacks::poc::{btb_training_topo, pht_training_topo, CoResidency, PocParams, PocResult};
use bp_common::{Asid, HwThreadId};
use hybp::{Mechanism, SecureBpu};

use crate::golden::Op;
use crate::spans::{traced, Recorder};

pub const NAME: &str = "poc_switch";

/// Protocol of one campaign: the paper's 100 rounds per iteration and
/// 90-round success threshold, over fewer iterations.
pub const PARAMS: PocParams = PocParams {
    iterations: 20,
    rounds_per_iteration: 100,
    success_threshold: 90,
    trainings_per_round: 8,
};

/// One campaign: unit (BTB or PHT) × mechanism, with its seed.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    pub mechanism: Mechanism,
    pub pht: bool,
    pub seed: u64,
}

impl Campaign {
    pub fn label(&self) -> String {
        format!(
            "{}/{}",
            if self.pht { "pht" } else { "btb" },
            self.mechanism.name()
        )
    }

    pub fn is_hybp(&self) -> bool {
        matches!(self.mechanism, Mechanism::HyBp(_))
    }

    pub fn run(&self, params: PocParams) -> PocResult {
        if self.pht {
            pht_training_topo(self.mechanism, CoResidency::SingleCore, params, self.seed)
        } else {
            btb_training_topo(self.mechanism, CoResidency::SingleCore, params, self.seed)
        }
    }
}

/// The campaigns for `seed`, in run order.
pub fn campaigns(seed: u64) -> Vec<Campaign> {
    let mut out = Vec::new();
    for (i, mechanism) in [Mechanism::Baseline, Mechanism::hybp_default()]
        .into_iter()
        .enumerate()
    {
        for pht in [false, true] {
            out.push(Campaign {
                mechanism,
                pht,
                seed: crate::derive_seed(seed, 20 + 2 * i as u64 + u64::from(pht)),
            });
        }
    }
    out
}

/// Set-up: builds each campaign's BPU the way the campaign does before its
/// first round (two hardware threads, attacker announced). The campaign
/// functions build their own, so these are dropped.
pub fn setup(campaigns: &[Campaign]) {
    for c in campaigns {
        let mut bpu =
            SecureBpu::new(c.mechanism, 2, c.seed).expect("campaign mechanisms are valid");
        bpu.on_context_switch(HwThreadId::new(0), Asid::new(100), 0);
        std::hint::black_box(&bpu);
    }
}

/// The operation record of one campaign, with the paper's invariants.
pub fn op(c: &Campaign, r: &PocResult) -> Op {
    let stats = format!(
        "trained={} total={} successes={}",
        r.trained_rounds, r.total_rounds, r.successes
    );
    let mut op = Op::new(NAME, c.label(), stats);
    let want = u64::from(PARAMS.iterations) * u64::from(PARAMS.rounds_per_iteration);
    op.require(r.total_rounds == want, || {
        format!("{}: {} rounds, expected {want}", c.label(), r.total_rounds)
    });
    if c.is_hybp() {
        op.require(r.training_accuracy() < 0.10, || {
            format!(
                "{}: HyBP training accuracy {} not below 10%",
                c.label(),
                r.training_accuracy()
            )
        });
    } else if !c.pht {
        op.require(r.success_rate() > 0.90, || {
            format!(
                "{}: baseline BTB success {} not above 90%",
                c.label(),
                r.success_rate()
            )
        });
    }
    op
}

/// Runs every campaign once, serially; returns the operations and the
/// rounds they ran. Each campaign records a `campaign:<label>` span.
pub fn run(campaigns: &[Campaign], rec: Option<&Recorder>, parent: Option<u64>) -> (Vec<Op>, u64) {
    let mut ops = Vec::new();
    let mut rounds = 0;
    for c in campaigns {
        let r = traced(rec, parent, &format!("campaign:{}", c.label()), 1, |_| {
            c.run(PARAMS)
        });
        rounds += r.total_rounds;
        ops.push(op(c, &r));
    }
    (ops, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::{check, DEFAULT_SEED, GOLDEN};

    #[test]
    fn pinned_campaigns_pass_and_a_perturbed_golden_fails() {
        let (mut ops, _) = run(&campaigns(DEFAULT_SEED), None, None);
        check(&mut ops, DEFAULT_SEED, GOLDEN);
        assert!(ops.iter().all(|o| o.problem.is_none()), "{ops:?}");
        let line = ops[0].golden_line();
        let perturbed = GOLDEN.replace(&line, &line.replace("total=", "total=1"));
        assert_ne!(perturbed, GOLDEN, "the first campaign must be pinned");
        for op in &mut ops {
            op.problem = None;
        }
        check(&mut ops, DEFAULT_SEED, &perturbed);
        assert_eq!(ops.iter().filter(|o| o.problem.is_some()).count(), 1);
    }
}
