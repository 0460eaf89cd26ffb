//! Sweep supervision: per-experiment bookkeeping of failed, retried and
//! recovered sweep points.
//!
//! The supervised executor ([`crate::Ctx::sweep`]) runs every sweep through
//! [`bp_common::pool::Pool::try_par_map`] in fail-soft mode: one panicking
//! or erroring point costs *that point*, never the experiment, and never
//! the suite. Whatever is lost is recorded here as a [`SweepReport`] so
//! that
//!
//! * [`crate::Ctx::finish_experiment`] can mark the experiment's CSV
//!   partial (`# partial: N/M points`) and fail the experiment *visibly*
//!   (a degraded run exits non-zero even though it ran to completion), and
//! * `bench_all` can journal exactly which points died, after how many
//!   attempts, into `results/run_report.json`.
//!
//! Reports accumulate until [`Supervisor::drain`] — `bench_all` drains
//! once per experiment.

use std::sync::Mutex;

use bp_common::pool::{FailureKind, TaskFailure};

/// One lost sweep point, in journal-ready form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointFailure {
    /// Input-order index within the sweep.
    pub index: usize,
    /// Attempts made before giving up (0 = never attempted).
    pub attempts: u32,
    /// Whether the terminal failure was a panic (vs a typed error or a
    /// skip).
    pub panicked: bool,
    /// Human-readable cause.
    pub message: String,
}

impl PointFailure {
    /// Converts a pool-level failure record.
    pub fn from_task(f: &TaskFailure) -> PointFailure {
        PointFailure {
            index: f.index,
            attempts: f.attempts,
            panicked: matches!(f.kind, FailureKind::Panic(_)),
            message: f.kind.to_string(),
        }
    }
}

/// Outcome of one supervised sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport {
    /// Sweep label (`"<experiment>:<stage>"`, e.g. `"fig5:benches"`).
    pub label: String,
    /// Points in the sweep.
    pub total: usize,
    /// Points that produced a value.
    pub completed: usize,
    /// Extra attempts spent across all points (sum of `attempts − 1`).
    pub retried_attempts: u32,
    /// Points that succeeded only after at least one retry.
    pub recovered: usize,
    /// Points that produced no value.
    pub failures: Vec<PointFailure>,
}

impl SweepReport {
    /// Points lost.
    pub fn lost(&self) -> usize {
        self.total - self.completed
    }
}

/// Thread-safe accumulator of [`SweepReport`]s for one experiment run.
#[derive(Debug, Default)]
pub struct Supervisor {
    reports: Mutex<Vec<SweepReport>>,
}

impl Supervisor {
    /// An empty supervisor.
    pub fn new() -> Supervisor {
        Supervisor::default()
    }

    /// Records one finished sweep.
    pub fn record(&self, report: SweepReport) {
        if let Ok(mut reports) = self.reports.lock() {
            reports.push(report);
        }
    }

    /// Takes every report recorded since the last drain, oldest first.
    pub fn drain(&self) -> Vec<SweepReport> {
        match self.reports.lock() {
            Ok(mut reports) => std::mem::take(&mut *reports),
            Err(_) => Vec::new(),
        }
    }

    /// `(lost points, total points)` over the undrained reports — what
    /// [`crate::Ctx::finish_experiment`] uses to decide whether the
    /// experiment degraded.
    pub fn pending_losses(&self) -> (usize, usize) {
        match self.reports.lock() {
            Ok(reports) => reports.iter().fold((0, 0), |(lost, total), r| {
                (lost + r.lost(), total + r.total)
            }),
            Err(_) => (0, 0),
        }
    }

    /// Undrained failures, flattened as `(sweep label, failure)` pairs.
    pub fn pending_failures(&self) -> Vec<(String, PointFailure)> {
        match self.reports.lock() {
            Ok(reports) => reports
                .iter()
                .flat_map(|r| r.failures.iter().map(|f| (r.label.clone(), f.clone())))
                .collect(),
            Err(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(label: &str, total: usize, completed: usize) -> SweepReport {
        SweepReport {
            label: label.to_string(),
            total,
            completed,
            retried_attempts: 0,
            recovered: 0,
            failures: (completed..total)
                .map(|index| PointFailure {
                    index,
                    attempts: 1,
                    panicked: false,
                    message: "x".to_string(),
                })
                .collect(),
        }
    }

    #[test]
    fn pending_losses_sum_and_drain_resets() {
        let s = Supervisor::new();
        s.record(lossy("a", 4, 4));
        s.record(lossy("b", 6, 4));
        assert_eq!(s.pending_losses(), (2, 10));
        assert_eq!(s.pending_failures().len(), 2);
        let drained = s.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[1].lost(), 2);
        assert_eq!(s.pending_losses(), (0, 0));
        assert!(s.drain().is_empty());
    }
}
