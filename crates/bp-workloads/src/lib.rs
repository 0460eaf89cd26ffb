//! Synthetic SPEC CPU2017-like branch workloads for the HyBP reproduction.
//!
//! The paper evaluates on SPEC CPU2017 with reference inputs under gem5.
//! That environment consumes two things from each benchmark: its *branch
//! behaviour* (how predictable its branches are, how large its branch
//! working set is, how much state the predictor must keep warm) and its
//! *intrinsic ILP* (how fast it runs when branches are free). This crate
//! synthesizes both:
//!
//! * [`profile`] — one calibrated [`profile::BenchmarkProfile`] per SPEC
//!   benchmark the paper names, with the branch-class mix chosen so the
//!   paper-scale TAGE-SC-L reaches each benchmark's published accuracy
//!   class, plus an intrinsic-IPC figure for the SMT model;
//! * [`generator`] — a deterministic, seedable [`generator::WorkloadGenerator`]
//!   that turns a profile into an infinite [`bp_common::BranchRecord`]
//!   stream (loops, biased branches, history-correlated branches, indirect
//!   branches with target sets, matched call/return pairs);
//! * [`mixes`] — the paper's Table V SMT-2 pairings (mix1..mix12) with
//!   their H-ILP / MIX / L-ILP classification.
//!
//! See `DESIGN.md` §2 for why this substitution preserves the evaluated
//! behaviour.

pub mod generator;
pub mod mixes;
pub mod profile;

pub use generator::WorkloadGenerator;
pub use mixes::{IlpClass, Mix, TABLE_V_MIXES};
pub use profile::{BenchmarkProfile, SpecBenchmark};
