//! Bounded-error sampled replay: drive only a phase plan's representative
//! windows through the BPU and recombine by cluster weight.
//!
//! This is the replay half of the SimPoint-style pipeline whose analysis
//! half lives in `bp_trace::sampling`. A [`PhasePlan`] names k
//! representative windows; [`SampledReplay`] seeks the trace cursor to
//! each one (per-chunk delta reset makes mid-file seeks exact), warms the
//! predictor over the plan's warmup prefix, measures exactly the window's
//! instructions, and weights each window's MPKI/IPC by the number of
//! windows its cluster stands for. [`FullReplay`] drives the whole trace
//! under the identical cycle model, so the two estimates are directly
//! comparable.
//!
//! Both drivers share one cost model, `drive_one`'s: each record costs
//! its gap plus one cycle, plus the charged BTB latency, plus
//! [`MISPREDICT_REDIRECT_CYCLES`] on a miss. The sampled estimate is
//! therefore an estimator *of the full replay under this model*, and the
//! reported [`SampledEstimate::error_bound_mpki`] bounds that gap — see
//! `DESIGN.md` §6h for the derivation.

use bp_common::{Asid, ConfigError, Cycle, HwThreadId};
use bp_trace::{PhasePlan, RecordCursor};
use hybp::SecureBpu;

use crate::error::SimError;
use crate::sim::{stream_name, stream_seed, SimulationBuilder};

/// Redirect penalty charged per misprediction under the shared cycle
/// model.
pub const MISPREDICT_REDIRECT_CYCLES: u64 = 8;

/// Relative slack in the error bound: covers warmup truncation bias (the
/// first window of a phase is measured with at most `warmup` windows of
/// predictor history, where the full replay has the whole prefix).
pub const MPKI_REL_MARGIN: f64 = 0.02;

/// Absolute slack in the error bound (MPKI): floors the bound for
/// near-zero-MPKI traces where the relative terms vanish.
pub const MPKI_ABS_MARGIN: f64 = 0.35;

/// Measured cost of one replayed region: instruction, branch, misprediction
/// and cycle totals under the shared cycle model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayEstimate {
    /// Instructions replayed (Σ gap+1 over the region's records).
    pub instructions: u64,
    /// Branch records driven through the BPU.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Cycles charged under the shared cost model.
    pub cycles: u64,
}

impl ReplayEstimate {
    /// Mispredictions per thousand instructions.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.mispredicts as f64 * 1000.0 / self.instructions as f64
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.instructions as f64 / self.cycles as f64
    }
}

/// A sampled replay's result: the weighted estimate, the per-selection
/// measurements behind it, and the bound the estimate is honest to.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledEstimate {
    /// Cluster-weight-combined totals. `instructions`/`cycles`/... are the
    /// *extrapolated* totals (each window's counts times its weight), so
    /// [`ReplayEstimate::mpki`]/[`ReplayEstimate::ipc`] on this value are
    /// the instruction-weighted estimates for the whole trace.
    pub estimate: ReplayEstimate,
    /// One measurement per plan selection, in plan order.
    pub windows: Vec<ReplayEstimate>,
    /// Instructions actually driven through the BPU (warmup + measured),
    /// the numerator of the replay-cost reduction.
    pub replayed_instructions: u64,
    /// Bound on `|sampled MPKI - full-replay MPKI|` under the shared cycle
    /// model; see `DESIGN.md` §6h.
    pub error_bound_mpki: f64,
}

/// Drives one branch through the BPU and returns `(cycles, mispredicted)`
/// under the shared cycle model.
fn drive_one(
    bpu: &mut SecureBpu,
    hw: HwThreadId,
    rec: &bp_common::BranchRecord,
    now: Cycle,
) -> (u64, bool) {
    let outcome = bpu.process_branch(hw, rec, now);
    let miss = outcome.mispredicted();
    let cost = u64::from(rec.gap)
        + 1
        + u64::from(outcome.btb_latency)
        + if miss { MISPREDICT_REDIRECT_CYCLES } else { 0 };
    (cost, miss)
}

/// Whole-trace replay under the shared cycle model: the ground truth a
/// [`SampledReplay`] estimate is compared against.
// No `Debug`: owns the [`SecureBpu`] and with it the key material
// (secret-hygiene).
pub struct FullReplay {
    bpu: SecureBpu,
    cursor: RecordCursor,
    hw: HwThreadId,
}

impl FullReplay {
    /// Replays every record in the trace once and returns the exact totals.
    pub fn run(mut self) -> ReplayEstimate {
        let mut est = ReplayEstimate::default();
        let mut now: Cycle = 1;
        for rec in self.cursor.by_ref() {
            let (cost, miss) = drive_one(&mut self.bpu, self.hw, &rec, now);
            now += cost;
            est.instructions += u64::from(rec.gap) + 1;
            est.branches += 1;
            est.mispredicts += u64::from(miss);
            est.cycles += cost;
        }
        est
    }
}

/// Phase-plan-guided replay: seek, warm, measure, recombine.
// No `Debug`: owns the [`SecureBpu`] and with it the key material
// (secret-hygiene).
pub struct SampledReplay {
    bpu: SecureBpu,
    cursor: RecordCursor,
    hw: HwThreadId,
    plan: PhasePlan,
}

impl SampledReplay {
    /// Replays the plan's representative windows and returns the weighted
    /// estimate.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StalePlan`] when a selection's seek target is no
    /// longer a valid chunk boundary or a window runs out of records — the
    /// plan was computed over different bytes than the store now holds.
    pub fn run(mut self) -> Result<SampledEstimate, SimError> {
        let mut windows = Vec::with_capacity(self.plan.selections.len());
        let mut replayed = 0u64;
        let mut now: Cycle = 1;
        for sel in &self.plan.selections {
            let stale = SimError::StalePlan {
                window: sel.window_index,
            };
            if !self.cursor.seek(sel.seek_offset, sel.seek_skip) {
                return Err(stale);
            }
            // Warmup: train the predictor, measure nothing. Warmup spans
            // whole record-aligned windows, so the count lands exactly.
            let mut warmed = 0u64;
            while warmed < sel.warmup_instructions {
                let Some(rec) = self.cursor.next() else {
                    return Err(stale);
                };
                let (cost, _) = drive_one(&mut self.bpu, self.hw, &rec, now);
                now += cost;
                warmed += u64::from(rec.gap) + 1;
            }
            if warmed != sel.warmup_instructions {
                return Err(stale);
            }
            // Measurement: exactly the window's instructions (windows close
            // on record boundaries, so equality is an invariant, not luck).
            let mut est = ReplayEstimate::default();
            while est.instructions < sel.window_instructions {
                let Some(rec) = self.cursor.next() else {
                    return Err(stale);
                };
                let (cost, miss) = drive_one(&mut self.bpu, self.hw, &rec, now);
                now += cost;
                est.instructions += u64::from(rec.gap) + 1;
                est.branches += 1;
                est.mispredicts += u64::from(miss);
                est.cycles += cost;
            }
            if est.instructions != sel.window_instructions {
                return Err(stale);
            }
            replayed += warmed + est.instructions;
            windows.push(est);
        }

        let mut combined = ReplayEstimate::default();
        let mut min_mpki = f64::INFINITY;
        let mut max_mpki = 0.0f64;
        for (sel, w) in self.plan.selections.iter().zip(&windows) {
            combined.instructions += sel.weight_windows * w.instructions;
            combined.branches += sel.weight_windows * w.branches;
            combined.mispredicts += sel.weight_windows * w.mispredicts;
            combined.cycles += sel.weight_windows * w.cycles;
            min_mpki = min_mpki.min(w.mpki());
            max_mpki = max_mpki.max(w.mpki());
        }
        let spread = (max_mpki - min_mpki).max(0.0);
        let error_bound_mpki =
            self.plan.dispersion() * spread + MPKI_REL_MARGIN * combined.mpki() + MPKI_ABS_MARGIN;
        Ok(SampledEstimate {
            estimate: combined,
            windows,
            replayed_instructions: replayed,
            error_bound_mpki,
        })
    }
}

impl SimulationBuilder {
    /// The shared replay substrate: the first configured benchmark's first
    /// user stream, loaded from the builder's trace store, plus a BPU
    /// announced on hardware thread 0.
    fn replay_parts(self) -> Result<(SecureBpu, RecordCursor, HwThreadId), ConfigError> {
        self.cfg.validate()?;
        let bench = self
            .threads
            .first()
            .and_then(|sw| sw.first())
            .copied()
            .ok_or_else(|| ConfigError::zero("hardware threads"))?;
        let store = self.trace_store.as_ref().ok_or_else(|| {
            ConfigError::inconsistent("sampled replay", "replay requires a trace store")
        })?;
        let loaded = store
            .load(&stream_name(0, 0, bench), stream_seed(self.cfg.seed, 0, 0))
            .map_err(|_| {
                ConfigError::inconsistent(
                    "trace replay",
                    "stream missing or undecodable in the trace store",
                )
            })?;
        if loaded.is_empty() {
            return Err(ConfigError::inconsistent(
                "trace replay",
                "trace stream holds no records",
            ));
        }
        let cursor = loaded.records();
        let mut bpu = SecureBpu::new(
            self.mechanism,
            self.cfg.smt_capacity.max(self.threads.len()),
            self.cfg.seed,
        )?;
        bpu.set_fault_injector(self.faults.clone());
        bpu.set_telemetry(self.telemetry.clone());
        let hw = HwThreadId::new(0);
        bpu.on_context_switch(hw, Asid::new(1), 0);
        Ok((bpu, cursor, hw))
    }

    /// Builds a [`FullReplay`] over the first configured stream: the exact
    /// whole-trace baseline a sampled estimate is compared against.
    ///
    /// # Errors
    ///
    /// Same conditions as [`sampled_replay`](SimulationBuilder::sampled_replay).
    pub fn full_replay(self) -> Result<FullReplay, ConfigError> {
        let (bpu, cursor, hw) = self.replay_parts()?;
        Ok(FullReplay { bpu, cursor, hw })
    }

    /// Builds a [`SampledReplay`] that replays only `plan`'s representative
    /// windows of the first configured stream.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when no workload was chosen, no trace
    /// store is attached, or the stream is missing, undecodable, or empty.
    /// A plan/trace mismatch surfaces later, as [`SimError::StalePlan`]
    /// from [`SampledReplay::run`].
    pub fn sampled_replay(self, plan: PhasePlan) -> Result<SampledReplay, ConfigError> {
        let (bpu, cursor, hw) = self.replay_parts()?;
        Ok(SampledReplay {
            bpu,
            cursor,
            hw,
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::Simulation;
    use bp_trace::{SamplingSpec, TraceSession, TraceStore};
    use bp_workloads::profile::SpecBenchmark;
    use bp_workloads::WorkloadGenerator;
    use hybp::Mechanism;
    use std::sync::Arc;

    /// Records a two-phase stream (easy then hard branches) for `bench`'s
    /// canonical slot and returns the store.
    fn phased_store(tag: &str, windows: u64, window: u64) -> (Arc<TraceStore>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("hybp-sampled-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::clone(
            TraceSession::open(&dir)
                .build()
                .expect("session opens")
                .store(),
        );
        let cfg = SimConfig::default_run();
        let seed = stream_seed(cfg.seed, 0, 0);
        let mut easy = WorkloadGenerator::new(SpecBenchmark::Lbm.profile(), seed);
        let mut hard = WorkloadGenerator::new(SpecBenchmark::Mcf.profile(), seed ^ 1);
        let mut records = Vec::new();
        let budget = windows * window;
        let mut instructions = 0u64;
        while instructions < budget {
            // Alternate phases every ~8 windows of instructions.
            let phase = (instructions / (window * 8)) % 2;
            let r = if phase == 0 {
                easy.next_branch()
            } else {
                hard.next_branch()
            };
            instructions += u64::from(r.gap) + 1;
            records.push(r);
        }
        store
            .save(&stream_name(0, 0, SpecBenchmark::Mcf), seed, &records, 256)
            .expect("stream saved");
        (store, dir)
    }

    fn builder(store: &Arc<TraceStore>) -> SimulationBuilder {
        Simulation::builder(Mechanism::Baseline, SimConfig::default_run())
            .single_thread(SpecBenchmark::Mcf)
            .trace_store(Some(Arc::clone(store)))
    }

    #[test]
    fn sampled_replay_tracks_full_replay_within_bound() {
        let (store, dir) = phased_store("bound", 64, 20_000);
        let cfg = SimConfig::default_run();
        let loaded = store
            .load(
                &stream_name(0, 0, SpecBenchmark::Mcf),
                stream_seed(cfg.seed, 0, 0),
            )
            .expect("stream loads");
        let spec = SamplingSpec {
            k: 4,
            window: 20_000,
            warmup: 4,
            ..SamplingSpec::default()
        };
        let (plan, _) = loaded.sample(&spec).expect("samples");
        let coverage = plan.coverage();

        let full = builder(&store).full_replay().expect("builds").run();
        let sampled = builder(&store)
            .sampled_replay(plan)
            .expect("builds")
            .run()
            .expect("plan matches trace");

        let err = (sampled.estimate.mpki() - full.mpki()).abs();
        eprintln!(
            "sampled {} vs full {}: error {err}, bound {}",
            sampled.estimate.mpki(),
            full.mpki(),
            sampled.error_bound_mpki
        );
        assert!(
            err <= sampled.error_bound_mpki,
            "sampled {} vs full {}: error {err} exceeds bound {}",
            sampled.estimate.mpki(),
            full.mpki(),
            sampled.error_bound_mpki
        );
        // The whole point: replay touches a small fraction of the trace.
        assert!(
            sampled.replayed_instructions * 4 < full.instructions,
            "sampled replay must touch <25% of the trace ({} of {})",
            sampled.replayed_instructions,
            full.instructions
        );
        assert!(coverage > 0.0 && coverage < 0.5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_plan_fails_loudly_not_silently() {
        let (store, dir) = phased_store("stale", 16, 10_000);
        let cfg = SimConfig::default_run();
        let loaded = store
            .load(
                &stream_name(0, 0, SpecBenchmark::Mcf),
                stream_seed(cfg.seed, 0, 0),
            )
            .expect("stream loads");
        let spec = SamplingSpec {
            k: 2,
            window: 10_000,
            ..SamplingSpec::default()
        };
        let (mut plan, _) = loaded.sample(&spec).expect("samples");
        // Poison one selection's seek target: mid-payload is never a chunk
        // boundary, so the cursor must fuse and the replay must error.
        plan.selections[0].seek_offset += 3;
        let err = match builder(&store).sampled_replay(plan).expect("builds").run() {
            Ok(_) => panic!("a stale plan must not produce an estimate"),
            Err(e) => e,
        };
        assert!(matches!(err, SimError::StalePlan { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_without_a_store_is_a_config_error() {
        let b = Simulation::builder(Mechanism::Baseline, SimConfig::default_run())
            .single_thread(SpecBenchmark::Mcf);
        let err = match b.full_replay() {
            Ok(_) => panic!("replay without a store must be rejected"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("trace store"), "{err}");
    }
}
