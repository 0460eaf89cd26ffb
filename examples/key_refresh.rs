//! Code-book mechanics: watch the randomized index keys table refresh —
//! the paper's 263-cycle non-stalling rewrite — and the stale-key window.
//!
//! ```sh
//! cargo run --release --example key_refresh
//! ```

#![allow(
    clippy::expect_used,
    reason = "an example aborts on a broken preset: it shows the happy path, not error handling"
)]

use hybp_repro::bp_common::{Asid, Vmid};
use hybp_repro::bp_crypto::keys::{IndexSeed, KeysTable, KeysTableConfig};
use hybp_repro::bp_crypto::{Qarma64, TweakableBlockCipher};

fn main() {
    let cipher = Qarma64::from_seed(0xC0DE_B00C);
    println!(
        "cipher: {} (modeled inline latency {} cycles — kept off the critical path)",
        cipher.name(),
        cipher.latency_cycles()
    );

    for entries in [1024usize, 4096, 32 * 1024] {
        let cfg = KeysTableConfig::with_entries(entries);
        let t = KeysTable::new(cfg).expect("valid config");
        println!(
            "{:>6}-entry table: {:>4} words of {} bits, refresh in {} cycles, {:.2} KB",
            entries,
            cfg.words(),
            cfg.word_bits,
            t.refresh_duration(),
            cfg.storage_bytes() as f64 / 1024.0
        );
    }

    // Demonstrate the non-stalling refresh: start one and sample a key early
    // and late in the rewrite.
    println!();
    let mut t = KeysTable::new(KeysTableConfig::paper_default()).expect("paper default");
    let seed1 = IndexSeed::derive(Asid::new(1), Vmid::new(0), 111);
    let seed2 = IndexSeed::derive(Asid::new(2), Vmid::new(0), 222);
    t.begin_refresh(&cipher, seed1, 0, 0);
    let old_first = t.key_at(0, 100_000);
    let old_last = t.key_at(1023, 100_000);
    t.begin_refresh(&cipher, seed2, 4096, 200_000);
    println!("refresh started at cycle 200000 (completes at 200263)");
    for (cycle, label) in [(200_010u64, "early"), (200_150, "mid"), (200_263, "done")] {
        let first = t.key_at(0, cycle);
        let last = t.key_at(1023, cycle);
        println!(
            "  cycle {cycle} ({label}): entry 0 {} | entry 1023 {}",
            if first == old_first { "stale" } else { "fresh" },
            if last == old_last { "stale" } else { "fresh" },
        );
    }
    println!(
        "stale lookups so far: {} (cost accuracy only, never correctness)",
        t.stale_hits()
    );
}
