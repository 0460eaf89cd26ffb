//! The protection mechanisms compared in the paper's evaluation (Table I).

use bp_common::ConfigError;
use bp_crypto::keys::KeysTableConfig;
use std::fmt;

/// Largest accepted `extra_storage_pct` for [`Mechanism::Replication`]
/// (Figure 8 sweeps 0..=300; anything beyond 1000% is a configuration
/// mistake, not an experiment).
pub const MAX_REPLICATION_EXTRA_PCT: u32 = 1000;

/// Which strong cipher fills the randomized index keys table (or sits inline
/// on the critical path for the Figure-2 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CipherKind {
    /// QARMA-64 (the paper's choice, ~8-cycle inline latency).
    #[default]
    Qarma,
    /// PRINCE (~8-cycle inline latency).
    Prince,
    /// The CEASER-style linear cipher (2 cycles, cryptographically broken —
    /// kept for the security ablation).
    Llbc,
    /// Bare XOR with a secret key (1 cycle, trivially linear).
    Xor,
}

impl CipherKind {
    /// Instantiates the cipher from a seed.
    pub fn build(self, seed: u64) -> Box<dyn bp_crypto::TweakableBlockCipher> {
        match self {
            CipherKind::Qarma => Box::new(bp_crypto::Qarma64::from_seed(seed)),
            CipherKind::Prince => Box::new(bp_crypto::Prince::from_seed(seed)),
            CipherKind::Llbc => Box::new(bp_crypto::Llbc::from_seed(seed)),
            CipherKind::Xor => Box::new(bp_crypto::XorCipher::new(seed)),
        }
    }

    /// Modeled inline latency (cycles) if the cipher were on the critical
    /// path instead of behind the code book.
    pub fn inline_latency(self) -> u32 {
        match self {
            CipherKind::Qarma | CipherKind::Prince => 8,
            CipherKind::Llbc => 2,
            CipherKind::Xor => 1,
        }
    }
}

impl fmt::Display for CipherKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CipherKind::Qarma => "qarma-64",
            CipherKind::Prince => "prince",
            CipherKind::Llbc => "llbc",
            CipherKind::Xor => "xor",
        };
        f.write_str(s)
    }
}

/// Configuration of the HyBP mechanism itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybpConfig {
    /// Geometry of each per-slot randomized index keys table.
    pub keys_table: KeysTableConfig,
    /// Predicted branches per slot that force a key renewal (paper: ≈ 2²⁷
    /// BPU accesses).
    pub renewal_threshold: u64,
    /// The cipher filling the code book.
    pub cipher: CipherKind,
    /// If `true`, model the cipher *inline* on the prediction critical path
    /// instead of using the code book: the BPU then reports the cipher's
    /// latency as extra front-end cycles (the Figure-2 ablation).
    pub inline_cipher: bool,
    /// Whether the small upper-level structures are physically isolated per
    /// `(thread, privilege)` slot. `false` gives the *randomization-only*
    /// ablation (§V-B's counterfactual): the shared L2/tagged tables keep
    /// their keys but lose the L0/L1 access filtering.
    pub isolate_upper: bool,
}

impl HybpConfig {
    /// The paper's default: 1K-entry 10-bit keys tables, QARMA, 2²⁷
    /// renewal threshold, latency hidden behind the code book.
    pub fn paper_default() -> Self {
        HybpConfig {
            keys_table: KeysTableConfig::paper_default(),
            renewal_threshold: bp_crypto::keys::PAPER_RENEWAL_THRESHOLD,
            cipher: CipherKind::Qarma,
            inline_cipher: false,
            isolate_upper: true,
        }
    }

    /// The randomization-only ablation: no physical isolation of the upper
    /// levels, randomized last-level tables only.
    pub fn randomization_only() -> Self {
        HybpConfig {
            isolate_upper: false,
            ..Self::paper_default()
        }
    }

    /// Same defaults with a different keys-table entry count (Table VI).
    pub fn with_keys_entries(entries: usize) -> Self {
        HybpConfig {
            keys_table: KeysTableConfig::with_entries(entries),
            ..Self::paper_default()
        }
    }

    /// Checks the configuration for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the keys-table geometry is invalid or
    /// the renewal threshold is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.keys_table.validate()?;
        if self.renewal_threshold == 0 {
            return Err(ConfigError::zero("renewal_threshold"));
        }
        Ok(())
    }
}

impl Default for HybpConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A branch predictor protection mechanism (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Unprotected shared predictor.
    Baseline,
    /// Flush all predictor state on context switches and privilege changes.
    Flush,
    /// Statically partition every table per `(thread, privilege)`; each
    /// partition is also flushed when its thread is switched out.
    Partition,
    /// Scale total predictor storage by `(100 + extra_storage_pct) / 100`,
    /// then divide among `(thread, privilege)` slots. The paper's
    /// "Replication" row is `extra_storage_pct = 100`; Figure 8 sweeps
    /// 0..=300.
    Replication {
        /// Extra storage beyond the baseline, in percent (0..=300).
        extra_storage_pct: u32,
    },
    /// Run only one hardware thread (the pipeline enforces this); the BPU
    /// behaves like the baseline.
    DisableSmt,
    /// The hybrid isolation-randomization mechanism.
    HyBp(HybpConfig),
    /// Unprotected baseline with a decades-old tournament predictor instead
    /// of TAGE-SC-L — the paper's §VII-F yardstick for how much performance
    /// modern prediction is worth (≈ 5.4%).
    TournamentBaseline,
}

impl Mechanism {
    /// HyBP with the paper's default parameters.
    pub fn hybp_default() -> Self {
        Mechanism::HyBp(HybpConfig::paper_default())
    }

    /// The paper's "Replication" row (100% extra storage).
    pub fn replication_default() -> Self {
        Mechanism::Replication {
            extra_storage_pct: 100,
        }
    }

    /// Short name used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            Mechanism::Baseline => "Baseline",
            Mechanism::Flush => "Flush",
            Mechanism::Partition => "Partition",
            Mechanism::Replication { .. } => "Replication",
            Mechanism::DisableSmt => "DisableSMT",
            Mechanism::HyBp(_) => "HyBP",
            Mechanism::TournamentBaseline => "Tournament",
        }
    }

    /// Checks the mechanism's parameters for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when a Replication storage factor exceeds
    /// `MAX_REPLICATION_EXTRA_PCT` (1000) or an embedded [`HybpConfig`] is
    /// invalid.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            Mechanism::Replication { extra_storage_pct } => {
                if *extra_storage_pct > MAX_REPLICATION_EXTRA_PCT {
                    return Err(ConfigError::too_large(
                        "extra_storage_pct",
                        u64::from(*extra_storage_pct),
                        u64::from(MAX_REPLICATION_EXTRA_PCT),
                    ));
                }
                Ok(())
            }
            Mechanism::HyBp(cfg) => cfg.validate(),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mechanism::Replication { extra_storage_pct } => {
                write!(f, "Replication(+{extra_storage_pct}%)")
            }
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cipher_latencies_match_paper() {
        assert_eq!(CipherKind::Qarma.inline_latency(), 8);
        assert_eq!(CipherKind::Prince.inline_latency(), 8);
        assert_eq!(CipherKind::Llbc.inline_latency(), 2);
    }

    #[test]
    fn cipher_build_roundtrip() {
        for kind in [
            CipherKind::Qarma,
            CipherKind::Prince,
            CipherKind::Llbc,
            CipherKind::Xor,
        ] {
            let c = kind.build(99);
            assert_eq!(c.decrypt(c.encrypt(123, 7), 7), 123, "{kind}");
        }
    }

    #[test]
    fn mechanism_names() {
        assert_eq!(Mechanism::Baseline.name(), "Baseline");
        assert_eq!(Mechanism::hybp_default().name(), "HyBP");
        assert_eq!(
            Mechanism::Replication {
                extra_storage_pct: 240
            }
            .to_string(),
            "Replication(+240%)"
        );
    }

    #[test]
    fn validate_accepts_all_paper_mechanisms() {
        for mech in [
            Mechanism::Baseline,
            Mechanism::Flush,
            Mechanism::Partition,
            Mechanism::replication_default(),
            Mechanism::DisableSmt,
            Mechanism::hybp_default(),
            Mechanism::TournamentBaseline,
        ] {
            assert_eq!(mech.validate(), Ok(()), "{mech}");
        }
    }

    #[test]
    fn validate_rejects_absurd_replication() {
        let m = Mechanism::Replication {
            extra_storage_pct: MAX_REPLICATION_EXTRA_PCT + 1,
        };
        assert!(m.validate().is_err());
        let ok = Mechanism::Replication {
            extra_storage_pct: MAX_REPLICATION_EXTRA_PCT,
        };
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_hybp_configs() {
        let mut zero_threshold = HybpConfig::paper_default();
        zero_threshold.renewal_threshold = 0;
        assert!(Mechanism::HyBp(zero_threshold).validate().is_err());

        let mut bad_geometry = HybpConfig::paper_default();
        bad_geometry.keys_table.entries = 0;
        assert!(Mechanism::HyBp(bad_geometry).validate().is_err());
    }

    #[test]
    fn default_config_matches_paper() {
        let c = HybpConfig::paper_default();
        assert_eq!(c.keys_table.entries, 1024);
        assert_eq!(c.renewal_threshold, 1 << 27);
        assert_eq!(c.cipher, CipherKind::Qarma);
        assert!(!c.inline_cipher);
        assert!(c.isolate_upper);
        assert!(!HybpConfig::randomization_only().isolate_upper);
    }
}
