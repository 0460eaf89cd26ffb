//! Ablation: the cipher behind the code book, and code book vs inline.
//!
//! Three design questions the paper answers qualitatively, quantified here:
//!
//! 1. With the code book, does the cipher choice cost performance? (No —
//!    the fill happens off the critical path.)
//! 2. What would inlining each cipher cost? (Its latency, per redirect —
//!    ruinous for QARMA/PRINCE, cheap for LLBC/XOR.)
//! 3. Which ciphers survive cryptanalysis? (Only the non-linear ones.)

use crate::{degradation, no_switch_config, Ctx, ExpResult};
use bp_attacks::linear::break_affine;
use bp_workloads::profile::SpecBenchmark;
use hybp::{CipherKind, HybpConfig, Mechanism};

pub fn run(ctx: &Ctx) -> ExpResult {
    let mut csv = ctx.csv(
        "ablation_ciphers.csv",
        "cipher,codebook_loss,inline_loss,linear_break",
    );
    let bench = SpecBenchmark::Deepsjeng;
    let base = ctx.ipc(Mechanism::Baseline, bench, no_switch_config(ctx.scale));
    println!(
        "Cipher ablation on {} (vs baseline IPC {:.3})",
        bench.name(),
        base
    );
    println!(
        "{:<10} {:>15} {:>13} {:>14}",
        "cipher", "code-book loss", "inline loss", "cryptanalysis"
    );
    let ciphers = [
        CipherKind::Qarma,
        CipherKind::Prince,
        CipherKind::Llbc,
        CipherKind::Xor,
    ];
    // Supervised sweep: each cipher's code-book run, inline run and
    // cryptanalysis is one independent point.
    let rows: Vec<Option<(f64, f64, bool)>> =
        ctx.sweep("ablation_ciphers:ciphers", &ciphers, |&cipher| {
            let mut cfg = HybpConfig::paper_default();
            cfg.cipher = cipher;
            let codebook = ctx.ipc(Mechanism::HyBp(cfg), bench, no_switch_config(ctx.scale));
            cfg.inline_cipher = true;
            let inline = ctx.ipc(Mechanism::HyBp(cfg), bench, no_switch_config(ctx.scale));
            let broken = break_affine(cipher.build(7).as_ref(), 0, 100, 1).is_some();
            (codebook, inline, broken)
        });
    for (&cipher, slot) in ciphers.iter().zip(&rows) {
        let Some((codebook, inline, broken)) = *slot else {
            continue;
        };
        println!(
            "{:<10} {:>14.2}% {:>12.2}% {:>14}",
            cipher.to_string(),
            degradation(codebook, base) * 100.0,
            degradation(inline, base) * 100.0,
            if broken { "BROKEN (affine)" } else { "resists" }
        );
        csv.row(format_args!(
            "{},{:.5},{:.5},{}",
            cipher,
            degradation(codebook, base),
            degradation(inline, base),
            broken
        ));
    }
    println!();
    println!("The design point: only the code book lets a *strong* cipher ride along at");
    println!("zero front-end cost; every inline option either costs cycles or security.");
    ctx.finish_experiment(csv)
}
