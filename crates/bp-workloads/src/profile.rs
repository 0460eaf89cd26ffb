//! Per-benchmark branch-behaviour profiles.
//!
//! Each profile describes a benchmark through the knobs that matter to the
//! paper's experiments: the branch-class mix (how much of the dynamic branch
//! stream is strongly biased / pattern-driven / history-correlated /
//! data-dependent), the static branch working set (pressure on BTB and
//! tagged tables — this is what context switches and partitioning hurt),
//! indirect-branch behaviour, and the intrinsic ILP-limited IPC that the
//! SMT contention model uses.
//!
//! Calibration targets come from the published branch-prediction
//! characteristics of SPEC CPU2017 (and the accuracy figures quoted in the
//! paper's Figure 2): FP codes like `lbm`/`bwaves` predict at 99.9%, while
//! `mcf`/`xz`/`deepsjeng` sit in the 92–95% band.

use crate::mixes::IlpClass;

/// The SPEC CPU2017 benchmarks used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpecBenchmark {
    CactuBssn,
    Imagick,
    Wrf,
    Namd,
    Exchange2,
    Fotonik3d,
    Deepsjeng,
    Xz,
    Cam4,
    Xalancbmk,
    Lbm,
    Bwaves,
    Mcf,
    Roms,
    /// Synthetic OS-kernel code (syscall/interrupt handlers, scheduler):
    /// small hot working set, decent predictability. Not part of
    /// [`SpecBenchmark::ALL`]; used for privilege-change episodes.
    Kernel,
}

impl SpecBenchmark {
    /// All benchmarks, in a stable order.
    pub const ALL: [SpecBenchmark; 14] = [
        SpecBenchmark::CactuBssn,
        SpecBenchmark::Imagick,
        SpecBenchmark::Wrf,
        SpecBenchmark::Namd,
        SpecBenchmark::Exchange2,
        SpecBenchmark::Fotonik3d,
        SpecBenchmark::Deepsjeng,
        SpecBenchmark::Xz,
        SpecBenchmark::Cam4,
        SpecBenchmark::Xalancbmk,
        SpecBenchmark::Lbm,
        SpecBenchmark::Bwaves,
        SpecBenchmark::Mcf,
        SpecBenchmark::Roms,
    ];

    /// SPEC-style name (`_r` suffix as in the paper's tables).
    pub fn name(self) -> &'static str {
        match self {
            SpecBenchmark::CactuBssn => "cactuBSSN_r",
            SpecBenchmark::Imagick => "imagick_r",
            SpecBenchmark::Wrf => "wrf_r",
            SpecBenchmark::Namd => "namd_r",
            SpecBenchmark::Exchange2 => "exchange2_r",
            SpecBenchmark::Fotonik3d => "fotonik3d_r",
            SpecBenchmark::Deepsjeng => "deepsjeng_r",
            SpecBenchmark::Xz => "xz_r",
            SpecBenchmark::Cam4 => "cam4_r",
            SpecBenchmark::Xalancbmk => "xalancbmk_r",
            SpecBenchmark::Lbm => "lbm_r",
            SpecBenchmark::Bwaves => "bwaves_r",
            SpecBenchmark::Mcf => "mcf_r",
            SpecBenchmark::Roms => "roms_r",
            SpecBenchmark::Kernel => "kernel",
        }
    }

    /// The calibrated profile.
    pub fn profile(self) -> BenchmarkProfile {
        use SpecBenchmark::*;
        match self {
            // High-ILP FP codes: few, highly predictable branches.
            CactuBssn => BenchmarkProfile::new(self, IlpClass::High, 3.6, 0.05)
                .classes(0.96, 0.03, 0.005, 0.005, 0.9)
                .working_set(900)
                .indirect(0.002, 4)
                .flip(0.0015)
                .target(0.995),
            Imagick => BenchmarkProfile::new(self, IlpClass::High, 4.4, 0.11)
                .classes(0.97, 0.02, 0.005, 0.005, 0.9)
                .working_set(700)
                .indirect(0.002, 4)
                .flip(0.001)
                .target(0.996),
            Wrf => BenchmarkProfile::new(self, IlpClass::High, 3.2, 0.10)
                .classes(0.965, 0.025, 0.005, 0.005, 0.85)
                .working_set(2400)
                .indirect(0.004, 4)
                .flip(0.002)
                .target(0.988)
                .iters(3, 20),
            Namd => BenchmarkProfile::new(self, IlpClass::High, 4.1, 0.05)
                .classes(0.96, 0.03, 0.005, 0.005, 0.85)
                .working_set(1100)
                .indirect(0.002, 4)
                .flip(0.0015)
                .target(0.990),
            Exchange2 => BenchmarkProfile::new(self, IlpClass::High, 3.7, 0.17)
                .classes(0.88, 0.08, 0.02, 0.02, 0.8)
                .working_set(1400)
                .indirect(0.001, 2)
                .flip(0.003)
                .target(0.982),
            // fotonik3d: predictable but with a *large* instruction/branch
            // footprint — capacity-sensitive (the paper's Partition pain).
            Fotonik3d => BenchmarkProfile::new(self, IlpClass::High, 3.0, 0.06)
                .classes(0.97, 0.02, 0.005, 0.005, 0.9)
                .working_set(5000)
                .indirect(0.003, 4)
                .flip(0.002)
                .target(0.991)
                .iters(2, 4),
            // deepsjeng: deep-history game tree search — very context-switch
            // sensitive (lots of warm predictor state).
            Deepsjeng => BenchmarkProfile::new(self, IlpClass::High, 2.6, 0.15)
                .classes(0.85, 0.06, 0.03, 0.06, 0.72)
                .working_set(3800)
                .indirect(0.015, 8)
                .flip(0.005)
                .target(0.942)
                .iters(2, 10),
            // Low-ILP integer codes with hard branches.
            Xz => BenchmarkProfile::new(self, IlpClass::Low, 1.9, 0.15)
                .classes(0.83, 0.06, 0.04, 0.07, 0.70)
                .working_set(5200)
                .indirect(0.010, 6)
                .flip(0.005)
                .target(0.934)
                .iters(2, 8),
            Cam4 => BenchmarkProfile::new(self, IlpClass::Low, 2.0, 0.12)
                .classes(0.87, 0.08, 0.03, 0.02, 0.75)
                .working_set(3000)
                .indirect(0.006, 4)
                .flip(0.003)
                .target(0.975)
                .iters(3, 16),
            Xalancbmk => BenchmarkProfile::new(self, IlpClass::Low, 1.8, 0.22)
                .classes(0.93, 0.03, 0.02, 0.02, 0.72)
                .working_set(4200)
                .indirect(0.030, 12)
                .flip(0.003)
                .target(0.971)
                .iters(2, 8),
            Lbm => BenchmarkProfile::new(self, IlpClass::Low, 1.4, 0.01)
                .classes(0.97, 0.02, 0.005, 0.005, 0.9)
                .working_set(260)
                .indirect(0.001, 2)
                .flip(0.0005)
                .target(0.997),
            Bwaves => BenchmarkProfile::new(self, IlpClass::Low, 1.5, 0.03)
                .classes(0.97, 0.025, 0.0025, 0.0025, 0.9)
                .working_set(600)
                .indirect(0.001, 2)
                .flip(0.001)
                .target(0.995),
            Mcf => BenchmarkProfile::new(self, IlpClass::Low, 1.1, 0.19)
                .classes(0.66, 0.15, 0.11, 0.08, 0.70)
                .working_set(1900)
                .indirect(0.008, 6)
                .flip(0.006)
                .target(0.928)
                .iters(2, 12),
            Kernel => BenchmarkProfile::new(self, IlpClass::Low, 1.6, 0.18)
                .classes(0.80, 0.12, 0.04, 0.04, 0.75)
                .working_set(420)
                .indirect(0.02, 6)
                .flip(0.004)
                .target(0.965),
            Roms => BenchmarkProfile::new(self, IlpClass::Low, 2.7, 0.06)
                .classes(0.96, 0.03, 0.005, 0.005, 0.85)
                .working_set(1500)
                .indirect(0.002, 4)
                .flip(0.002)
                .target(0.992),
        }
    }
}

impl std::fmt::Display for SpecBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Branch-behaviour and ILP profile of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkProfile {
    /// Which benchmark this profiles.
    pub benchmark: SpecBenchmark,
    /// H-ILP / L-ILP classification (Table V grouping).
    pub ilp_class: IlpClass,
    /// Intrinsic ILP-limited IPC on the modeled 8-wide core with perfect
    /// branch prediction (memory behaviour folded in).
    pub base_ipc: f64,
    /// Fraction of dynamic instructions that are branches.
    pub branch_fraction: f64,
    /// Number of static branches in the hot working set.
    pub static_branches: usize,
    /// Fraction of static branches that are strongly biased.
    pub strongly_biased_frac: f64,
    /// Fraction with short learnable patterns (incl. fixed-trip loops).
    pub pattern_frac: f64,
    /// Fraction correlated with recent global history.
    pub history_frac: f64,
    /// Fraction that are effectively data-dependent noise.
    pub random_frac: f64,
    /// Taken-probability of the noise branches (their accuracy ceiling).
    pub random_bias: f64,
    /// Fraction of dynamic branches that are indirect jumps.
    pub indirect_frac: f64,
    /// Distinct targets per indirect branch.
    pub indirect_targets: usize,
    /// Probability a strongly biased branch deviates from its bias.
    pub bias_flip_prob: f64,
    /// Calibrated steady-state TAGE-SC-L direction accuracy this profile is
    /// tuned to produce (the figures the paper quotes in parentheses in
    /// Figure 2 are this class of number).
    pub target_accuracy: f64,
    /// Range of consecutive iterations an inner-loop region runs before the
    /// phase moves on. Deep counts (the default) give tight loop locality;
    /// shallow counts give the flat, footprint-heavy behaviour of codes
    /// like fotonik3d/xz whose working sets punish partitioned tables.
    pub region_iters: (u32, u32),
}

impl BenchmarkProfile {
    fn new(
        benchmark: SpecBenchmark,
        ilp_class: IlpClass,
        base_ipc: f64,
        branch_fraction: f64,
    ) -> Self {
        BenchmarkProfile {
            benchmark,
            ilp_class,
            base_ipc,
            branch_fraction,
            static_branches: 1000,
            strongly_biased_frac: 0.8,
            pattern_frac: 0.1,
            history_frac: 0.05,
            random_frac: 0.05,
            random_bias: 0.75,
            indirect_frac: 0.005,
            indirect_targets: 4,
            bias_flip_prob: 0.003,
            target_accuracy: 0.97,
            region_iters: (4, 68),
        }
    }

    fn iters(mut self, min: u32, max: u32) -> Self {
        assert!(min >= 1 && max >= min, "invalid iteration range");
        self.region_iters = (min, max);
        self
    }

    fn flip(mut self, prob: f64) -> Self {
        self.bias_flip_prob = prob;
        self
    }

    fn target(mut self, accuracy: f64) -> Self {
        self.target_accuracy = accuracy;
        self
    }

    fn classes(
        mut self,
        strongly_biased: f64,
        pattern: f64,
        history: f64,
        random: f64,
        random_bias: f64,
    ) -> Self {
        let sum = strongly_biased + pattern + history + random;
        assert!((sum - 1.0).abs() < 1e-9, "class fractions must sum to 1");
        self.strongly_biased_frac = strongly_biased;
        self.pattern_frac = pattern;
        self.history_frac = history;
        self.random_frac = random;
        self.random_bias = random_bias;
        self
    }

    fn working_set(mut self, static_branches: usize) -> Self {
        self.static_branches = static_branches;
        self
    }

    fn indirect(mut self, frac: f64, targets: usize) -> Self {
        self.indirect_frac = frac;
        self.indirect_targets = targets.max(1);
        self
    }

    /// Mean non-branch instructions between branches.
    pub fn mean_gap(&self) -> f64 {
        (1.0 / self.branch_fraction - 1.0).max(1.0)
    }

    /// A rough analytic ceiling on direction accuracy: perfect on
    /// biased/pattern/history classes, `max(p, 1-p)` on the noise class.
    pub fn accuracy_ceiling(&self) -> f64 {
        let noise_best = self.random_bias.max(1.0 - self.random_bias);
        self.strongly_biased_frac * 0.995
            + self.pattern_frac * 0.99
            + self.history_frac * 0.98
            + self.random_frac * noise_best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_are_consistent() {
        for b in SpecBenchmark::ALL {
            let p = b.profile();
            let sum = p.strongly_biased_frac + p.pattern_frac + p.history_frac + p.random_frac;
            assert!((sum - 1.0).abs() < 1e-9, "{b}: class sum {sum}");
            assert!(
                p.base_ipc > 0.5 && p.base_ipc < 8.0,
                "{b}: ipc {}",
                p.base_ipc
            );
            assert!(
                p.branch_fraction > 0.0 && p.branch_fraction < 0.5,
                "{b}: branch fraction"
            );
            assert!(p.static_branches >= 100, "{b}: working set");
            assert!(p.indirect_targets >= 1);
        }
    }

    #[test]
    fn names_match_spec_convention() {
        assert_eq!(SpecBenchmark::CactuBssn.name(), "cactuBSSN_r");
        assert_eq!(SpecBenchmark::Xalancbmk.to_string(), "xalancbmk_r");
    }

    #[test]
    fn high_ilp_benchmarks_are_faster() {
        use bp_common::stats::mean;
        let hi: Vec<f64> = SpecBenchmark::ALL
            .iter()
            .map(|b| b.profile())
            .filter(|p| p.ilp_class == IlpClass::High)
            .map(|p| p.base_ipc)
            .collect();
        let lo: Vec<f64> = SpecBenchmark::ALL
            .iter()
            .map(|b| b.profile())
            .filter(|p| p.ilp_class == IlpClass::Low)
            .map(|p| p.base_ipc)
            .collect();
        assert!(mean(&hi).unwrap() > mean(&lo).unwrap() + 1.0);
    }

    #[test]
    fn fp_codes_have_higher_accuracy_targets_than_int() {
        let lbm = SpecBenchmark::Lbm.profile().target_accuracy;
        let mcf = SpecBenchmark::Mcf.profile().target_accuracy;
        assert!(lbm > 0.99, "lbm target {lbm}");
        assert!(mcf < 0.95, "mcf target {mcf}");
        assert!(lbm > mcf);
    }

    #[test]
    fn ceilings_bound_targets_loosely() {
        // The analytic ceiling is optimistic; targets sit at or below it.
        for b in SpecBenchmark::ALL {
            let p = b.profile();
            assert!(
                p.target_accuracy <= p.accuracy_ceiling() + 0.02,
                "{b}: target {} vs ceiling {}",
                p.target_accuracy,
                p.accuracy_ceiling()
            );
        }
    }

    #[test]
    fn mean_gap_matches_branch_fraction() {
        let p = SpecBenchmark::Xalancbmk.profile();
        let g = p.mean_gap();
        assert!((g - (1.0 / 0.22 - 1.0)).abs() < 1e-9);
    }
}
