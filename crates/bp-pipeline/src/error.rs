//! Typed errors for simulation construction and execution.

use bp_common::{ConfigError, Cycle};
use std::error::Error;
use std::fmt;

/// A simulation that could not be built or did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The configuration was rejected before any cycle ran.
    Config(ConfigError),
    /// The run hit its runaway deadline before every thread finished its
    /// measurement quota — the model stopped making forward progress.
    Runaway {
        /// The cycle at which the run was abandoned.
        cycle: Cycle,
        /// The deadline that was exceeded.
        deadline: Cycle,
    },
    /// A sampled replay's phase plan does not match the trace it was asked
    /// to replay: a selected window's seek target is not a chunk boundary
    /// any more, or the window ran out of records mid-measurement. The plan
    /// is stale — sample the current trace again.
    StalePlan {
        /// The window index whose replay failed.
        window: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid simulation config: {e}"),
            SimError::Runaway { cycle, deadline } => write!(
                f,
                "simulation hit the runaway deadline ({cycle} >= {deadline} cycles) \
                 before all threads finished measuring"
            ),
            SimError::StalePlan { window } => write!(
                f,
                "phase plan is stale for this trace (window {window} failed to \
                 seek or measure); sample the trace again"
            ),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Runaway { .. } | SimError::StalePlan { .. } => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// A metrics query whose inputs do not line up with the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsError {
    /// A per-thread reference vector has the wrong length (or the run has no
    /// threads at all).
    ShapeMismatch {
        /// Hardware threads in the run.
        threads: usize,
        /// Entries supplied by the caller.
        supplied: usize,
    },
    /// The run has no per-thread metrics at all, so per-thread queries have
    /// nothing to compare against (distinct from a caller-side shape error).
    EmptyRun,
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::ShapeMismatch { threads, supplied } => write!(
                f,
                "per-thread reference vector has {supplied} entries for {threads} threads"
            ),
            MetricsError::EmptyRun => write!(f, "run produced no per-thread metrics"),
        }
    }
}

impl Error for MetricsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_errors_convert_and_chain() {
        let e: SimError = ConfigError::zero("measure_instructions").into();
        assert!(e.to_string().contains("measure_instructions"));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn runaway_names_both_cycles() {
        let e = SimError::Runaway {
            cycle: 10,
            deadline: 5,
        };
        let s = e.to_string();
        assert!(s.contains("10") && s.contains('5'));
    }

    #[test]
    fn shape_mismatch_is_descriptive() {
        let e = MetricsError::ShapeMismatch {
            threads: 2,
            supplied: 3,
        };
        assert!(e.to_string().contains("3 entries for 2 threads"));
    }

    #[test]
    fn empty_run_is_descriptive() {
        assert!(MetricsError::EmptyRun
            .to_string()
            .contains("no per-thread metrics"));
    }
}
