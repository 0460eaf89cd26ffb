//! Cycle-level SMT-2 out-of-order core model for the HyBP reproduction.
//!
//! This is the substitute for the paper's gem5 setup (see `DESIGN.md` §2).
//! It models the mechanisms through which branch predictor behaviour reaches
//! IPC:
//!
//! * a shared front end with ICOUNT fetch arbitration, charged fetch bubbles
//!   for slow BTB levels and full redirect penalties for mispredictions
//!   (misprediction penalty grows with any extra front-end encryption
//!   latency — the Figure-2 knob),
//! * per-thread instruction windows with ILP-limited retirement sharing the
//!   issue width (SMT contention and fairness),
//! * an OS model: periodic timer/kernel episodes (privilege changes) and
//!   context switches at a configurable interval, both of which drive the
//!   protection mechanisms' events.
//!
//! The entry point is [`Simulation`]; experiment harnesses in the `bench`
//! crate build one per (mechanism, workload, interval) point.

pub mod config;
pub mod error;
pub mod metrics;
mod sampled;
mod sim;

pub use config::{CoreConfig, SimConfig};
pub use error::{MetricsError, SimError};
pub use metrics::{RunMetrics, StageCycles, StreamDigest, ThreadMetrics};
pub use sampled::{
    FullReplay, ReplayEstimate, SampledEstimate, SampledReplay, MISPREDICT_REDIRECT_CYCLES,
    MPKI_ABS_MARGIN, MPKI_REL_MARGIN,
};
pub use sim::{
    kernel_stream_name, kernel_stream_seed, stream_name, stream_seed, Simulation, SimulationBuilder,
};
