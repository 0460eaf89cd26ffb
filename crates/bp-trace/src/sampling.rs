//! SimPoint-style phase sampling over `.bpt` traces.
//!
//! Long traces are dominated by repeating *phases*: stretches of execution
//! whose branch-PC mix barely changes. Replaying one representative window
//! per phase, weighted by how many windows that phase covers, estimates
//! whole-trace MPKI/IPC at a small fraction of the replay cost. This
//! module is the capture side of that bargain:
//!
//! 1. **BBV extraction** — one streaming pass over the trace (through the
//!    same incremental chunk decoder replay uses, so peak decoded-record
//!    residency stays O(chunk)) buckets each branch PC into a
//!    fixed-dimension basic-block vector per fixed-instruction window.
//!    Each window also records its *seek anchor*: the byte offset of the
//!    chunk its first record lives in plus the record's index within that
//!    chunk. Chunks encode independently (deltas reset at each flush), so
//!    a later replay can resume exactly there via [`RecordCursor::seek`](crate::RecordCursor::seek).
//! 2. **Deterministic k-means** — k-means++ seeding off a [`SplitMix64`]
//!    stream, Lloyd iterations with a fixed cap, strict lowest-index tie
//!    breaking everywhere, no wall-clock and no ambient randomness: the
//!    same trace and spec produce the same [`PhasePlan`] bit for bit, on
//!    any thread count.
//!
//! [`LoadedTrace::sample`] is the one entry point. The replay half
//! (warmup, measurement, weighted recombination and the reported error
//! bound) lives in `bp-pipeline`; see `DESIGN.md` §6h. No experiment of
//! the suite samples: every committed result comes from full replay.

use bp_common::rng::SplitMix64;

use crate::reader::{DecodeState, Step};
use crate::store::LoadedTrace;
use crate::{ReadMode, TraceError};

/// Default number of clusters (phases).
pub const DEFAULT_K: u32 = 8;

/// Default window length in instructions.
pub const DEFAULT_WINDOW: u64 = 100_000;

/// Default BBV dimension (PC hash buckets per window).
pub const DEFAULT_DIMS: u32 = 64;

/// Default warmup prefix, in *windows*, replayed unmeasured before each
/// representative window to heat predictor state.
pub const DEFAULT_WARMUP_WINDOWS: u32 = 1;

/// Default k-means seed (arbitrary fixed constant; determinism is the
/// point, not the value).
pub const DEFAULT_SEED: u64 = 0x5EED_00BB_0000_0001;

/// Default Lloyd-iteration cap.
pub const DEFAULT_ITERS: u32 = 32;

/// How a trace is sampled: the full parameterization of BBV extraction
/// and clustering. Echoed into the [`PhasePlan`] it produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingSpec {
    /// Number of clusters (phases) to find; clamped to the window count.
    pub k: u32,
    /// Window length in instructions (each window may run slightly over:
    /// windows close on the first record that reaches the target, so they
    /// stay record-aligned and exactly replayable).
    pub window: u64,
    /// BBV dimension: branch PCs hash into this many buckets.
    pub dims: u32,
    /// Unmeasured warmup prefix before each representative, in windows.
    pub warmup: u32,
    /// Seed of the k-means++ random stream.
    pub seed: u64,
    /// Lloyd-iteration cap (clustering stops earlier on convergence).
    pub iters: u32,
}

impl Default for SamplingSpec {
    fn default() -> SamplingSpec {
        SamplingSpec {
            k: DEFAULT_K,
            window: DEFAULT_WINDOW,
            dims: DEFAULT_DIMS,
            warmup: DEFAULT_WARMUP_WINDOWS,
            seed: DEFAULT_SEED,
            iters: DEFAULT_ITERS,
        }
    }
}

/// Why sampling failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplingError {
    /// The underlying trace failed to decode (should not happen for bytes
    /// already verified by the store, but the type is total).
    Trace(TraceError),
    /// The trace holds no complete window — nothing to cluster. Sample a
    /// longer trace or shrink the window.
    EmptyTrace {
        /// Instructions the trace actually covers.
        instructions: u64,
        /// The window length that could not be filled once.
        window: u64,
    },
}

impl std::fmt::Display for SamplingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplingError::Trace(e) => write!(f, "trace decode failed while sampling: {e}"),
            SamplingError::EmptyTrace {
                instructions,
                window,
            } => write!(
                f,
                "trace covers {instructions} instructions, fewer than one {window}-instruction window"
            ),
        }
    }
}

impl std::error::Error for SamplingError {}

impl From<TraceError> for SamplingError {
    fn from(e: TraceError) -> SamplingError {
        SamplingError::Trace(e)
    }
}

/// One representative window chosen by clustering: everything replay needs
/// to reproduce it (where to seek, how much to warm, how much to measure)
/// and how much of the trace it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// Index of the representative window in trace order.
    pub window_index: u64,
    /// Cluster (phase) this window represents.
    pub cluster: u32,
    /// Windows in the cluster — the selection's weight in the estimate.
    pub weight_windows: u64,
    /// Byte offset of the chunk where replay resumes (the chunk holding
    /// the first record of the warmup prefix, or of the window itself when
    /// warmup is zero or clipped at the trace start).
    pub seek_offset: u64,
    /// Records to discard after seeking, landing on that first record.
    pub seek_skip: u64,
    /// Instructions replayed unmeasured before measurement starts. Exact:
    /// warmup covers whole record-aligned windows.
    pub warmup_instructions: u64,
    /// Instructions measured for this representative window.
    pub window_instructions: u64,
}

/// The complete output of sampling one trace: the spec it was sampled
/// under, per-window cluster assignments, and the weighted selections.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePlan {
    /// The spec the plan was computed under.
    pub spec: SamplingSpec,
    /// Complete windows the trace yielded (a trailing partial window is
    /// excluded from clustering and from `total_instructions`).
    pub total_windows: u64,
    /// Instructions covered by the complete windows.
    pub total_instructions: u64,
    /// Representative windows, sorted by `window_index`.
    pub selections: Vec<Selection>,
    /// Final cluster of every complete window, in trace order.
    pub assignments: Vec<u32>,
    /// Clustering dispersion in parts-per-million: the weighted mean
    /// total-variation distance between each window's normalized BBV and
    /// its representative's, in `[0, 1e6]`. Feeds the replay error bound.
    pub dispersion_ppm: u32,
}

impl PhasePlan {
    /// Dispersion as a fraction in `[0, 1]`.
    pub fn dispersion(&self) -> f64 {
        f64::from(self.dispersion_ppm) / 1e6
    }

    /// Fraction of the trace's instructions replay actually touches
    /// (warmup plus measured windows, over all complete windows).
    pub fn coverage(&self) -> f64 {
        if self.total_instructions == 0 {
            return 0.0;
        }
        let touched: u64 = self
            .selections
            .iter()
            .map(|s| s.warmup_instructions + s.window_instructions)
            .sum();
        touched as f64 / self.total_instructions as f64
    }
}

/// Observability of one sampling pass, asserted in tests (the O(chunk)
/// streaming bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleStats {
    /// Largest number of decoded records resident at once during BBV
    /// extraction — must stay bounded by the chunk size.
    pub peak_buffered: usize,
    /// Instructions in the dropped trailing partial window (zero when the
    /// trace length is a multiple of the window).
    pub tail_instructions: u64,
}

/// One complete window's extraction output.
struct Window {
    bbv: Vec<u64>,
    instructions: u64,
    seek_offset: u64,
    seek_skip: u64,
}

/// Hashes a branch PC into a BBV bucket (SplitMix64 finalizer: cheap,
/// seedless, and stable across platforms).
fn bucket(pc: u64, dims: u32) -> usize {
    let mut z = pc.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % u64::from(dims)) as usize
}

/// Streams the trace once, bucketing instruction weight (each record is
/// one branch plus `gap` non-branches) into per-window BBVs. Returns the
/// complete windows plus the peak decoded-record residency and the size of
/// the dropped partial tail.
fn extract_windows(
    bytes: &[u8],
    mode: ReadMode,
    spec: &SamplingSpec,
) -> Result<(Vec<Window>, SampleStats), SamplingError> {
    let mut state = DecodeState::new(bytes, mode)?;
    let mut windows = Vec::new();
    let dims = spec.dims as usize;
    let mut cur_bbv = vec![0u64; dims];
    let mut cur_instructions = 0u64;
    let mut cur_anchor: Option<(u64, u64)> = None;
    let mut peak = 0usize;
    loop {
        match state.step(bytes)? {
            Step::Records { recs, offset } => {
                peak = peak.max(recs.len());
                for (i, r) in recs.iter().enumerate() {
                    if cur_anchor.is_none() {
                        cur_anchor = Some((offset, i as u64));
                    }
                    let weight = u64::from(r.gap) + 1;
                    cur_bbv[bucket(r.pc.raw(), spec.dims)] += weight;
                    cur_instructions += weight;
                    if cur_instructions >= spec.window {
                        let (seek_offset, seek_skip) = cur_anchor.unwrap_or((0, 0));
                        windows.push(Window {
                            bbv: std::mem::replace(&mut cur_bbv, vec![0u64; dims]),
                            instructions: cur_instructions,
                            seek_offset,
                            seek_skip,
                        });
                        cur_instructions = 0;
                        cur_anchor = None;
                    }
                }
            }
            Step::Meta => {}
            Step::End => break,
        }
    }
    let stats = SampleStats {
        peak_buffered: peak,
        tail_instructions: cur_instructions,
    };
    Ok((windows, stats))
}

/// L2 distance squared between two normalized BBVs.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// L1 distance between two normalized BBVs.
fn dist1(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum()
}

/// Deterministic k-means: k-means++ seeding off `seed`, Lloyd iterations
/// capped at `iters`, lowest-index tie breaking throughout. Returns the
/// final per-point assignment.
fn kmeans(points: &[Vec<f64>], k_eff: usize, spec: &SamplingSpec) -> Vec<u32> {
    let n = points.len();
    let dims = spec.dims as usize;
    let mut rng = SplitMix64::new(spec.seed);
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k_eff);
    centroids.push(points[rng.next_below(n as u64) as usize].clone());
    while centroids.len() < k_eff {
        let d2: Vec<f64> = points
            .iter()
            .map(|p| {
                centroids
                    .iter()
                    .map(|c| dist2(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = d2.iter().sum();
        let idx = if total <= 0.0 {
            // Every point coincides with a centroid: duplicate windows.
            // Take the lowest index; the extra clusters will end up empty
            // and produce no selection.
            0
        } else {
            // Weighted pick over strictly positive distances only, so a
            // draw of exactly 0.0 can never re-pick an existing centroid.
            let r = rng.next_f64() * total;
            let mut acc = 0.0;
            let mut pick = None;
            for (i, &d) in d2.iter().enumerate() {
                if d <= 0.0 {
                    continue;
                }
                acc += d;
                pick = Some(i);
                if acc >= r {
                    break;
                }
            }
            pick.unwrap_or(0)
        };
        centroids.push(points[idx].clone());
    }
    let mut assign = vec![0u32; n];
    let reassign = |centroids: &[Vec<f64>], assign: &mut [u32]| -> bool {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            // Strict `<` keeps the lowest-index centroid on ties.
            for (c, cent) in centroids.iter().enumerate() {
                let d = dist2(p, cent);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assign[i] != best as u32 {
                assign[i] = best as u32;
                changed = true;
            }
        }
        changed
    };
    reassign(&centroids, &mut assign);
    for _ in 0..spec.iters {
        // Recompute centroids as member means; reseed empty clusters with
        // the point farthest from its current centroid (lowest index on
        // ties) so k stays effective where the data allows it.
        let mut sums = vec![vec![0.0f64; dims]; k_eff];
        let mut counts = vec![0u64; k_eff];
        for (i, p) in points.iter().enumerate() {
            let c = assign[i] as usize;
            counts[c] += 1;
            for (j, v) in p.iter().enumerate() {
                sums[c][j] += v;
            }
        }
        for c in 0..k_eff {
            if counts[c] == 0 {
                let mut far = 0usize;
                let mut far_d = -1.0;
                for (i, p) in points.iter().enumerate() {
                    let d = dist2(p, &centroids[assign[i] as usize]);
                    if d > far_d {
                        far_d = d;
                        far = i;
                    }
                }
                centroids[c] = points[far].clone();
            } else {
                for j in 0..dims {
                    centroids[c][j] = sums[c][j] / counts[c] as f64;
                }
            }
        }
        if !reassign(&centroids, &mut assign) {
            break;
        }
    }
    assign
}

impl LoadedTrace {
    /// Samples this trace into a [`PhasePlan`]: one streaming BBV pass
    /// (decoding in the mode the trace was loaded under, so window
    /// boundaries line up with replay), deterministic clustering, one
    /// weighted representative per non-empty cluster. Also returns the
    /// pass's [`SampleStats`].
    ///
    /// # Errors
    ///
    /// [`SamplingError::EmptyTrace`] when the trace holds no complete
    /// window; [`SamplingError::Trace`] if the bytes fail to decode.
    pub fn sample(&self, spec: &SamplingSpec) -> Result<(PhasePlan, SampleStats), SamplingError> {
        let (windows, stats) = extract_windows(self.raw_bytes(), self.read_mode(), spec)?;
        if windows.is_empty() {
            return Err(SamplingError::EmptyTrace {
                instructions: stats.tail_instructions,
                window: spec.window,
            });
        }
        let n = windows.len();
        let points: Vec<Vec<f64>> = windows
            .iter()
            .map(|w| {
                let total = w.instructions.max(1) as f64;
                w.bbv.iter().map(|&b| b as f64 / total).collect()
            })
            .collect();
        let k_eff = (spec.k as usize).min(n).max(1);
        let assign = kmeans(&points, k_eff, spec);

        // Representative of each non-empty cluster: the member closest to the
        // cluster mean (lowest index on ties).
        let dims = spec.dims as usize;
        let mut sums = vec![vec![0.0f64; dims]; k_eff];
        let mut counts = vec![0u64; k_eff];
        for (i, p) in points.iter().enumerate() {
            let c = assign[i] as usize;
            counts[c] += 1;
            for (j, v) in p.iter().enumerate() {
                sums[c][j] += v;
            }
        }
        let mut reps: Vec<Option<usize>> = vec![None; k_eff];
        for c in 0..k_eff {
            if counts[c] == 0 {
                continue;
            }
            let mean: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
            let mut best = None;
            let mut best_d = f64::INFINITY;
            for (i, p) in points.iter().enumerate() {
                if assign[i] as usize != c {
                    continue;
                }
                let d = dist2(p, &mean);
                if d < best_d {
                    best_d = d;
                    best = Some(i);
                }
            }
            reps[c] = best;
        }

        // Dispersion: weighted mean total-variation distance (L1 / 2) between
        // each window and its representative, in [0, 1].
        let mut total_l1 = 0.0;
        for (i, p) in points.iter().enumerate() {
            if let Some(r) = reps[assign[i] as usize] {
                total_l1 += dist1(p, &points[r]);
            }
        }
        let dispersion = total_l1 / (2.0 * n as f64);
        let dispersion_ppm = (dispersion * 1e6).round().clamp(0.0, 1e6) as u32;

        let mut selections = Vec::new();
        for (c, rep) in reps.iter().enumerate() {
            let Some(r) = *rep else { continue };
            let start = r.saturating_sub(spec.warmup as usize);
            let warmup_instructions: u64 = windows[start..r].iter().map(|w| w.instructions).sum();
            selections.push(Selection {
                window_index: r as u64,
                cluster: c as u32,
                weight_windows: counts[c],
                seek_offset: windows[start].seek_offset,
                seek_skip: windows[start].seek_skip,
                warmup_instructions,
                window_instructions: windows[r].instructions,
            });
        }
        selections.sort_by_key(|s| s.window_index);

        let plan = PhasePlan {
            spec: *spec,
            total_windows: n as u64,
            total_instructions: windows.iter().map(|w| w.instructions).sum(),
            selections,
            assignments: assign,
            dispersion_ppm,
        };
        Ok((plan, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::TraceSession;
    use crate::store::TraceStore;
    use crate::ReadMode;
    use bp_common::{Addr, BranchRecord};
    use std::sync::Arc;

    /// A trace alternating between two synthetic phases with disjoint PC
    /// sets: `phase_len` instructions of phase A, then of phase B, etc.
    fn phased_records(phases: usize, phase_len: u64) -> Vec<BranchRecord> {
        let mut out = Vec::new();
        for ph in 0..phases {
            let base = if ph % 2 == 0 {
                0x0040_0000
            } else {
                0x0080_0000
            };
            let mut inst = 0u64;
            let mut i = 0u64;
            while inst < phase_len {
                let pc = Addr::new(base + 8 * (i % 50));
                out.push(BranchRecord::conditional(
                    pc,
                    Addr::new(base + 0x1000),
                    i.is_multiple_of(3),
                    9,
                ));
                inst += 10;
                i += 1;
            }
        }
        out
    }

    fn store_with(tag: &str, recs: &[BranchRecord], chunk: usize) -> (Arc<TraceStore>, String) {
        let dir = std::env::temp_dir().join(format!("bp-sampling-{tag}-{}", std::process::id()));
        let store = Arc::clone(
            TraceSession::open(dir)
                .mode(ReadMode::Strict)
                .build()
                .unwrap()
                .store(),
        );
        store.save("s", 1, recs, chunk).unwrap();
        (store, "s".to_string())
    }

    #[test]
    fn two_phase_trace_clusters_into_two_phases() {
        // 8 alternating phases of 40_000 instructions, window 10_000:
        // 32 windows, alternating in blocks of 4.
        let recs = phased_records(8, 40_000);
        let (store, name) = store_with("twophase", &recs, 256);
        let trace = store.load(&name, 1).unwrap();
        let spec = SamplingSpec {
            k: 2,
            window: 10_000,
            warmup: 1,
            ..SamplingSpec::default()
        };
        let (plan, stats) = trace.sample(&spec).unwrap();
        assert_eq!(plan.total_windows, 32);
        assert_eq!(plan.selections.len(), 2);
        // Perfectly separable phases: dispersion ~0, equal weights.
        assert_eq!(plan.dispersion_ppm, 0);
        assert_eq!(
            plan.selections
                .iter()
                .map(|s| s.weight_windows)
                .sum::<u64>(),
            32
        );
        for s in &plan.selections {
            assert_eq!(s.weight_windows, 16);
        }
        // Streaming bound: never more than one chunk decoded at once.
        assert!(stats.peak_buffered <= 256, "saw {}", stats.peak_buffered);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn sampling_is_deterministic_and_seed_sensitive() {
        let recs = phased_records(6, 30_000);
        let (store, name) = store_with("determinism", &recs, 128);
        let trace = store.load(&name, 1).unwrap();
        let spec = SamplingSpec {
            k: 3,
            window: 5_000,
            ..SamplingSpec::default()
        };
        let (a, _) = trace.sample(&spec).unwrap();
        let (b, _) = trace.sample(&spec).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn selections_seek_back_to_their_exact_windows() {
        let recs = phased_records(4, 25_000);
        let (store, name) = store_with("seek", &recs, 100);
        let trace = store.load(&name, 1).unwrap();
        let spec = SamplingSpec {
            k: 2,
            window: 10_000,
            warmup: 1,
            ..SamplingSpec::default()
        };
        let (plan, _) = trace.sample(&spec).unwrap();
        // Eagerly compute the record index where each window starts, the
        // same way the extractor closes windows (record-aligned).
        let mut starts = vec![0usize];
        let mut inst = 0u64;
        for (i, r) in recs.iter().enumerate() {
            inst += u64::from(r.gap) + 1;
            if inst >= spec.window {
                starts.push(i + 1);
                inst = 0;
            }
        }
        // A seeked cursor must deliver the identical records the eager
        // stream holds at the warmup start, for warmup + window.
        for s in &plan.selections {
            let start_window = (s.window_index as usize).saturating_sub(spec.warmup as usize);
            let mut eager_pos = starts[start_window];
            let mut cursor = trace.records();
            assert!(
                cursor.seek(s.seek_offset, s.seek_skip),
                "seek must land for {s:?}"
            );
            let mut seen = 0u64;
            while seen < s.warmup_instructions + s.window_instructions {
                let r = cursor.next().expect("cursor ended early");
                assert_eq!(r, recs[eager_pos], "divergence at record {eager_pos}");
                seen += u64::from(r.gap) + 1;
                eager_pos += 1;
            }
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn short_trace_is_an_empty_trace_error() {
        let recs = phased_records(1, 500);
        let (store, name) = store_with("short", &recs, 64);
        let trace = store.load(&name, 1).unwrap();
        let err = trace
            .sample(&SamplingSpec {
                window: 1_000_000,
                ..SamplingSpec::default()
            })
            .unwrap_err();
        assert!(matches!(err, SamplingError::EmptyTrace { .. }), "{err}");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn coverage_reflects_warmup_and_windows() {
        let recs = phased_records(6, 30_000);
        let (store, name) = store_with("coverage", &recs, 128);
        let trace = store.load(&name, 1).unwrap();
        let (plan, _) = trace
            .sample(&SamplingSpec {
                k: 2,
                window: 6_000,
                warmup: 1,
                ..SamplingSpec::default()
            })
            .unwrap();
        let cov = plan.coverage();
        assert!(cov > 0.0 && cov < 1.0, "coverage {cov}");
        // 2 selections × (warmup + window) ≈ 4 windows of 30.
        assert!(cov < 0.2, "expected small coverage, got {cov}");
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
