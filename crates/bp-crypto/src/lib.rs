//! Cryptographic components of the HyBP reproduction.
//!
//! HyBP randomizes the *large* predictor tables by encrypting their set
//! indices (through a precomputed keys table, the "code book") and their
//! contents (XOR with a per-domain content key). This crate provides:
//!
//! * [`TweakableBlockCipher`] — the common 64-bit tweakable cipher interface,
//! * [`Qarma64`] — a full implementation of the QARMA-64 tweakable block
//!   cipher (Avanzi, 2017), the cipher HyBP uses to fill the code book,
//!   validated against the published test vectors,
//! * [`Prince`] — the PRINCE low-latency cipher (Borghoff et al., 2012),
//!   validated against the published test vectors,
//! * [`Llbc`] — a CEASER-style *linear* low-latency cipher, kept as a
//!   deliberately weak comparison point (its linearity is exploited in
//!   `bp-attacks`),
//! * [`XorCipher`] / [`IdentityCipher`] — trivial codecs for baselines,
//! * [`keys`] — the randomized index keys table ([`keys::KeysTable`]) with its
//!   non-stalling refresh timing model, [`keys::IndexSeed`] derivation and the
//!   per-domain [`keys::KeyManager`].
//!
//! # Examples
//!
//! ```
//! use bp_crypto::{Qarma64, TweakableBlockCipher};
//!
//! let cipher = Qarma64::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9);
//! let ct = cipher.encrypt(0xfb623599da6e8127, 0x477d469dec0b8762);
//! assert_eq!(cipher.decrypt(ct, 0x477d469dec0b8762), 0xfb623599da6e8127);
//! ```

pub mod keys;
mod llbc;
mod prince;
mod qarma;

pub use llbc::Llbc;
pub use prince::Prince;
pub use qarma::{Qarma64, QarmaSbox};

/// A 64-bit tweakable block cipher as used by the randomization layer.
///
/// Implementations must be deterministic permutations of the 64-bit block for
/// every fixed tweak, with [`TweakableBlockCipher::decrypt`] the exact
/// inverse of [`TweakableBlockCipher::encrypt`].
///
/// The [`latency_cycles`](TweakableBlockCipher::latency_cycles) method reports
/// the *modeled hardware latency* of the cipher at the paper's 4 GHz design
/// point; the pipeline model charges this many extra front-end cycles when a
/// cipher is placed on the prediction critical path (which HyBP avoids via
/// the precomputed code book).
// Deliberately NOT `fmt::Debug`: implementors hold key material, and a
// `Debug` supertrait would force every cipher to be printable. Identify
// ciphers by `name()` instead.
pub trait TweakableBlockCipher: Send + Sync {
    /// Encrypts one 64-bit block under the given tweak.
    fn encrypt(&self, plaintext: u64, tweak: u64) -> u64;

    /// Decrypts one 64-bit block under the given tweak.
    fn decrypt(&self, ciphertext: u64, tweak: u64) -> u64;

    /// Encrypts every block in place under one shared tweak. Equivalent to
    /// calling [`encrypt`](TweakableBlockCipher::encrypt) per block — the
    /// default does exactly that — but ciphers with per-tweak key-schedule
    /// work (QARMA) override it to amortize the schedule across the batch.
    /// The key-table refresh encrypts its whole code book this way.
    fn encrypt_batch(&self, blocks: &mut [u64], tweak: u64) {
        for b in blocks.iter_mut() {
            *b = self.encrypt(*b, tweak);
        }
    }

    /// Modeled hardware latency in cycles when used inline in a pipeline.
    fn latency_cycles(&self) -> u32;

    /// Short human-readable cipher name.
    fn name(&self) -> &'static str;

    /// Whether the cipher is GF(2)-affine in its plaintext for a fixed
    /// (key, tweak) — i.e. `E(x) = A·x ⊕ b`. Linear ciphers (LLBC, XOR) are
    /// vulnerable to the cryptanalytic shortcuts of Purnal et al.; strong
    /// ciphers (QARMA, PRINCE) are not.
    fn is_linear(&self) -> bool {
        false
    }
}

/// Trivial XOR "cipher": `E(x) = x ⊕ key ⊕ tweak`.
///
/// This is the content-encoding primitive HyBP uses for table *contents*
/// (where linearity is acceptable because contents are never used for
/// indexing), and the strawman index cipher that `bp-attacks` breaks.
// No `Debug`: `key` is key material (secret-hygiene, bp-lint secret-debug).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct XorCipher {
    key: u64,
}

impl XorCipher {
    /// Creates an XOR cipher with the given key.
    pub const fn new(key: u64) -> Self {
        XorCipher { key }
    }

    /// Returns the key.
    pub const fn key(&self) -> u64 {
        self.key
    }
}

impl TweakableBlockCipher for XorCipher {
    fn encrypt(&self, plaintext: u64, tweak: u64) -> u64 {
        plaintext ^ self.key ^ tweak
    }

    fn decrypt(&self, ciphertext: u64, tweak: u64) -> u64 {
        ciphertext ^ self.key ^ tweak
    }

    fn latency_cycles(&self) -> u32 {
        1
    }

    fn name(&self) -> &'static str {
        "xor"
    }

    fn is_linear(&self) -> bool {
        true
    }
}

/// The do-nothing cipher, used by the unprotected baseline configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityCipher;

impl IdentityCipher {
    /// Creates the identity cipher.
    pub const fn new() -> Self {
        IdentityCipher
    }
}

impl TweakableBlockCipher for IdentityCipher {
    fn encrypt(&self, plaintext: u64, _tweak: u64) -> u64 {
        plaintext
    }

    fn decrypt(&self, ciphertext: u64, _tweak: u64) -> u64 {
        ciphertext
    }

    fn latency_cycles(&self) -> u32 {
        0
    }

    fn name(&self) -> &'static str {
        "identity"
    }

    fn is_linear(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_roundtrip() {
        let c = XorCipher::new(0xdead_beef_cafe_f00d);
        for x in [0u64, 1, u64::MAX, 0x1234_5678] {
            assert_eq!(c.decrypt(c.encrypt(x, 7), 7), x);
        }
    }

    #[test]
    fn xor_is_linear_flagged() {
        assert!(XorCipher::new(1).is_linear());
        assert!(IdentityCipher::new().is_linear());
    }

    #[test]
    fn identity_passes_through() {
        let c = IdentityCipher::new();
        assert_eq!(c.encrypt(42, 9), 42);
        assert_eq!(c.decrypt(42, 9), 42);
        assert_eq!(c.latency_cycles(), 0);
    }

    #[test]
    fn ciphers_are_object_safe() {
        let ciphers: Vec<Box<dyn TweakableBlockCipher>> =
            vec![Box::new(XorCipher::new(3)), Box::new(IdentityCipher::new())];
        for c in &ciphers {
            assert_eq!(c.decrypt(c.encrypt(5, 0), 0), 5);
        }
    }
}
