//! Every paper experiment as a callable library function.
//!
//! Each submodule holds the body of one experiment; the [`all`] registry
//! is what `bench_all`, the one entry point, iterates — the whole suite by
//! default, or the experiments `--only` names — so everything runs in one
//! process with a shared worker pool and a shared in-process memo of
//! simulated points.
//!
//! Every body reads its simulated runs as [`crate::Point`]s through
//! [`Ctx::point`] (or [`Ctx::ipc`] for a single-thread IPC), so a run
//! shared by several experiments is one memo entry. Every body follows the
//! same determinism discipline: the sweep grid is fanned out with the
//! context's order-preserving supervised sweep ([`Ctx::sweep`]), and all
//! aggregation and CSV/stdout emission happens serially afterwards in
//! input order — so output is byte-identical for any `--threads` value.

pub mod ablation_ciphers;
pub mod ablation_filtering;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod sec6_attack_costs;
pub mod sec6_poc_training;
pub mod sec7f;
pub mod sec_fault_matrix;
pub mod serve_soak;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table6;

use crate::{Ctx, ExpResult};

/// One registered experiment.
pub struct Experiment {
    /// Registry name (what `bench_all --only` selects).
    pub name: &'static str,
    /// CSV the experiment must produce under `results/`, when it has one.
    pub csv: Option<&'static str>,
    /// The experiment body.
    pub run: fn(&Ctx) -> ExpResult,
}

/// The full suite, in the order `bench_all` runs it (an `--only`
/// selection keeps this order). Cheap experiments that seed the memo with
/// widely shared points (no-switch and calibration runs) come first so
/// later experiments hit them instead of simulating them again.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "table1_comparison",
            csv: Some("table1_comparison.csv"),
            run: table1::run,
        },
        Experiment {
            name: "table2_threat_model",
            csv: None,
            run: table2::run,
        },
        Experiment {
            name: "table3_security_matrix",
            csv: Some("table3_security_matrix.csv"),
            run: table3::run,
        },
        Experiment {
            name: "table6_keys_table_sensitivity",
            csv: Some("table6_keys_table_sensitivity.csv"),
            run: table6::run,
        },
        Experiment {
            name: "fig2_pipeline_latency",
            csv: Some("fig2_pipeline_latency.csv"),
            run: fig2::run,
        },
        Experiment {
            name: "fig5_hybp_per_app",
            csv: Some("fig5_hybp_per_app.csv"),
            run: fig5::run,
        },
        Experiment {
            name: "fig6_switch_interval_sweep",
            csv: Some("fig6_switch_interval_sweep.csv"),
            run: fig6::run,
        },
        Experiment {
            name: "fig7_smt_mixes",
            csv: Some("fig7_smt_mixes.csv"),
            run: fig7::run,
        },
        Experiment {
            name: "fig8_replication_sweep",
            csv: Some("fig8_replication_sweep.csv"),
            run: fig8::run,
        },
        Experiment {
            name: "ablation_ciphers",
            csv: Some("ablation_ciphers.csv"),
            run: ablation_ciphers::run,
        },
        Experiment {
            name: "ablation_filtering",
            csv: Some("ablation_filtering.csv"),
            run: ablation_filtering::run,
        },
        Experiment {
            name: "sec6_attack_costs",
            csv: Some("sec6_attack_costs.csv"),
            run: sec6_attack_costs::run,
        },
        Experiment {
            name: "sec6_poc_training",
            csv: Some("sec6_poc_training.csv"),
            run: sec6_poc_training::run,
        },
        Experiment {
            name: "sec7f_tage_vs_tournament",
            csv: Some("sec7f_tage_vs_tournament.csv"),
            run: sec7f::run,
        },
        Experiment {
            name: "sec_fault_matrix",
            csv: Some("sec_fault_matrix.csv"),
            run: sec_fault_matrix::run,
        },
        Experiment {
            name: "serve_soak",
            csv: Some("serve_soak.csv"),
            run: serve_soak::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let exps = all();
        let mut names: Vec<_> = exps.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), exps.len());
    }

    #[test]
    fn registry_covers_the_whole_suite() {
        assert_eq!(all().len(), 16);
    }
}
