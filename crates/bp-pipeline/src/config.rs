//! Simulation configuration (paper Table IV, gem5 column).

use bp_common::{ConfigError, Cycle};

/// Core microarchitecture parameters (Sunny Cove-like, Table IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle from the selected thread.
    pub fetch_width: u32,
    /// Total retire/issue bandwidth shared by all SMT threads.
    pub issue_width: u32,
    /// Per-thread in-flight instruction window (ROB share).
    pub window_size: u32,
    /// Cycles from fetch to branch resolution: the misprediction penalty.
    pub mispredict_penalty: u32,
    /// Extra front-end cycles (inline encryption latency, Figure 2). Added
    /// to every redirect penalty.
    pub extra_frontend_cycles: u32,
    /// Fixed pipeline cost of an architectural context switch (drain etc.),
    /// in cycles, independent of predictor effects.
    pub context_switch_cost: u32,
    /// Per-thread ILP derate applied when two hardware threads co-run,
    /// modeling shared cache/ROB/port contention the branch-centric model
    /// does not capture structurally (typical SMT scaling is 1.2-1.4x, not
    /// additive).
    pub smt_ilp_derate: f64,
}

impl CoreConfig {
    /// The paper's Sunny Cove-like configuration: 8-wide, 19-stage pipeline
    /// (≈ 16-cycle redirect), 352-entry ROB shared between threads.
    pub fn sunny_cove() -> Self {
        CoreConfig {
            fetch_width: 8,
            issue_width: 8,
            window_size: 176,
            mispredict_penalty: 16,
            extra_frontend_cycles: 0,
            context_switch_cost: 200,
            smt_ilp_derate: 0.72,
        }
    }

    /// Checks the core parameters for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when a width or the window is zero, or the
    /// SMT ILP derate falls outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.fetch_width == 0 {
            return Err(ConfigError::zero("fetch_width"));
        }
        if self.issue_width == 0 {
            return Err(ConfigError::zero("issue_width"));
        }
        if self.window_size == 0 {
            return Err(ConfigError::zero("window_size"));
        }
        if !(self.smt_ilp_derate > 0.0 && self.smt_ilp_derate <= 1.0) {
            return Err(ConfigError::inconsistent(
                "smt_ilp_derate",
                "must lie in (0, 1]",
            ));
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::sunny_cove()
    }
}

/// Full simulation parameters: core + OS behaviour + run lengths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Core microarchitecture.
    pub core: CoreConfig,
    /// Context-switch interval per hardware thread, in cycles (the paper
    /// sweeps 256K..16M; 16M ≈ the default Linux time slice at 4 GHz).
    pub ctx_switch_interval: Cycle,
    /// Interval of timer/interrupt kernel episodes (privilege changes), in
    /// cycles (stands in for ticks, interrupts and syscalls combined).
    pub kernel_timer_interval: Cycle,
    /// Kernel instructions per timer episode.
    pub kernel_episode_instructions: u64,
    /// Kernel instructions spent in the scheduler around a context switch.
    pub scheduler_instructions: u64,
    /// Instructions retired per hardware thread before measurement starts.
    pub warmup_instructions: u64,
    /// Instructions measured per hardware thread after warmup.
    pub measure_instructions: u64,
    /// Master seed (workloads, replacement, keys).
    pub seed: u64,
    /// SMT capacity of the core (isolation slots = 2x this). Mechanisms
    /// partition/replicate for the core's capability, not for the number of
    /// threads currently running.
    pub smt_capacity: usize,
}

impl SimConfig {
    /// Laptop-scale defaults: the paper's intervals with scaled-down
    /// instruction counts (see `DESIGN.md` §8).
    pub fn default_run() -> Self {
        SimConfig {
            core: CoreConfig::sunny_cove(),
            ctx_switch_interval: 16_000_000,
            kernel_timer_interval: 300_000,
            kernel_episode_instructions: 1_500,
            scheduler_instructions: 4_000,
            warmup_instructions: 1_000_000,
            measure_instructions: 2_000_000,
            seed: 0x5EED,
            smt_capacity: 2,
        }
    }

    /// Short runs for unit/integration tests.
    pub fn quick_test() -> Self {
        SimConfig {
            warmup_instructions: 50_000,
            measure_instructions: 150_000,
            ..Self::default_run()
        }
    }

    /// Checks the full configuration for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the core parameters are invalid, an
    /// OS-event interval is zero, there is nothing to measure, or the SMT
    /// capacity is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.core.validate()?;
        if self.ctx_switch_interval == 0 {
            return Err(ConfigError::zero("ctx_switch_interval"));
        }
        if self.kernel_timer_interval == 0 {
            return Err(ConfigError::zero("kernel_timer_interval"));
        }
        if self.measure_instructions == 0 {
            return Err(ConfigError::zero("measure_instructions"));
        }
        if self.smt_capacity == 0 {
            return Err(ConfigError::zero("smt_capacity"));
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::default_run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sunny_cove_matches_table_iv_shape() {
        let c = CoreConfig::sunny_cove();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.issue_width, 8);
        assert!(c.mispredict_penalty >= 12, "19-stage pipeline class");
    }

    #[test]
    fn default_interval_is_16m() {
        assert_eq!(SimConfig::default_run().ctx_switch_interval, 16_000_000);
    }

    #[test]
    fn stock_configs_validate() {
        assert_eq!(SimConfig::default_run().validate(), Ok(()));
        assert_eq!(SimConfig::quick_test().validate(), Ok(()));
        assert_eq!(CoreConfig::sunny_cove().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_degenerate_values() {
        let mut c = SimConfig::default_run();
        c.measure_instructions = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default_run();
        c.ctx_switch_interval = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default_run();
        c.smt_capacity = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default_run();
        c.core.fetch_width = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default_run();
        c.core.smt_ilp_derate = 0.0;
        assert!(c.validate().is_err());
        c.core.smt_ilp_derate = f64::NAN;
        assert!(c.validate().is_err());
    }
}
