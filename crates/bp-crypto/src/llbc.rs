//! A CEASER-style Low-Latency Block Cipher (LLBC).
//!
//! CEASER (Qureshi, MICRO 2018) proposed a 2-cycle Feistel-like cipher whose
//! round function is composed *only* of XORs and bit shuffles — making the
//! whole cipher GF(2)-affine. Purnal et al. (S&P 2021) and Bodduna et al.
//! (CAL 2020) showed this linearity collapses its security: an attacker can
//! recover the full affine map with 64 chosen queries and then construct
//! eviction sets as if no randomization were present. The HyBP paper cites
//! exactly this result as the reason simple low-latency ciphers are
//! insufficient (§III-A).
//!
//! This module implements such a cipher faithfully to its *structure*
//! (L rounds of bit-permutation + XOR-fold + round-key addition) so that
//! `bp-attacks::linear` can demonstrate the break against a running
//! predictor, and so the evaluation can quote its 2-cycle latency.

use crate::TweakableBlockCipher;
use bp_common::rng::SplitMix64;

/// Number of rounds; CEASER's LLBC uses 4 stages folded into 2 cycles.
const ROUNDS: usize = 4;

/// A linear (GF(2)-affine) low-latency block cipher in the style of CEASER.
///
/// Every round applies a fixed bit rotation/interleave (a linear map), an
/// XOR-fold of the high half into the low half (linear), and a round-key XOR
/// (affine). The composition is therefore `E(x) = A·x ⊕ b(key, tweak)` for a
/// fixed invertible matrix `A` — exactly the weakness the attacks exploit.
///
/// # Examples
///
/// ```
/// use bp_crypto::{Llbc, TweakableBlockCipher};
/// let c = Llbc::from_seed(3);
/// let ct = c.encrypt(0x1234, 7);
/// assert_eq!(c.decrypt(ct, 7), 0x1234);
/// // Linearity: E(x) ⊕ E(y) ⊕ E(z) = E(x ⊕ y ⊕ z)
/// let (x, y, z) = (5u64, 99u64, 0xabcdu64);
/// assert_eq!(
///     c.encrypt(x, 7) ^ c.encrypt(y, 7) ^ c.encrypt(z, 7),
///     c.encrypt(x ^ y ^ z, 7)
/// );
/// ```
// No `Debug`: round keys are key material.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Llbc {
    round_keys: [u64; ROUNDS],
}

/// The fixed linear diffusion step: rotate and fold. Invertible because the
/// fold `x ^= (x & HI_MASK) >> 32` is triangular.
fn diffuse(x: u64) -> u64 {
    let r = x.rotate_left(19);
    r ^ ((r & 0xFFFF_FFFF_0000_0000) >> 32)
}

fn diffuse_inv(x: u64) -> u64 {
    // Undo the fold first (the high half was untouched), then the rotation.
    let unfolded = x ^ ((x & 0xFFFF_FFFF_0000_0000) >> 32);
    unfolded.rotate_right(19)
}

impl Llbc {
    /// Creates the cipher from explicit round keys.
    pub const fn new(round_keys: [u64; ROUNDS]) -> Self {
        Llbc { round_keys }
    }

    /// Creates the cipher with round keys derived from a seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Llbc {
            round_keys: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

impl TweakableBlockCipher for Llbc {
    fn encrypt(&self, plaintext: u64, tweak: u64) -> u64 {
        let mut s = plaintext;
        for (i, &rk) in self.round_keys.iter().enumerate() {
            s = diffuse(s);
            // Tweak enters each round rotated so it diffuses like a key.
            s ^= rk ^ tweak.rotate_left(i as u32 * 13);
        }
        s
    }

    fn decrypt(&self, ciphertext: u64, tweak: u64) -> u64 {
        let mut s = ciphertext;
        for (i, &rk) in self.round_keys.iter().enumerate().rev() {
            s ^= rk ^ tweak.rotate_left(i as u32 * 13);
            s = diffuse_inv(s);
        }
        s
    }

    fn boxed_copy(&self) -> Box<dyn TweakableBlockCipher> {
        Box::new(*self)
    }

    fn latency_cycles(&self) -> u32 {
        // CEASER's LLBC produces a ciphertext in 2 cycles (§III-A).
        2
    }

    fn name(&self) -> &'static str {
        "llbc"
    }

    fn is_linear(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diffuse_roundtrip() {
        let mut sm = SplitMix64::new(1);
        for _ in 0..500 {
            let x = sm.next_u64();
            assert_eq!(diffuse_inv(diffuse(x)), x);
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let c = Llbc::from_seed(42);
        let mut sm = SplitMix64::new(2);
        for _ in 0..500 {
            let pt = sm.next_u64();
            let tw = sm.next_u64();
            assert_eq!(c.decrypt(c.encrypt(pt, tw), tw), pt);
        }
    }

    #[test]
    fn is_affine_in_plaintext() {
        // E(x ⊕ y ⊕ z) = E(x) ⊕ E(y) ⊕ E(z) for fixed tweak: the defining
        // affine identity (constants cancel in the triple XOR).
        let c = Llbc::from_seed(9);
        let mut sm = SplitMix64::new(3);
        for _ in 0..200 {
            let (x, y, z) = (sm.next_u64(), sm.next_u64(), sm.next_u64());
            let tw = sm.next_u64();
            assert_eq!(
                c.encrypt(x, tw) ^ c.encrypt(y, tw) ^ c.encrypt(z, tw),
                c.encrypt(x ^ y ^ z, tw)
            );
        }
    }

    #[test]
    fn qarma_is_not_affine() {
        // Sanity contrast: the strong cipher must violate the affine identity.
        use crate::Qarma64;
        let c = Qarma64::from_seed(5);
        let (x, y, z) = (1u64, 2u64, 4u64);
        assert_ne!(
            c.encrypt(x, 0) ^ c.encrypt(y, 0) ^ c.encrypt(z, 0),
            c.encrypt(x ^ y ^ z, 0)
        );
    }

    #[test]
    fn affine_map_recoverable_with_64_queries() {
        // The practical break: query E(0) and E(e_i) for all unit vectors,
        // then predict E(x) for arbitrary x without the key.
        let c = Llbc::from_seed(77);
        let tw = 0xdead_beef;
        let b = c.encrypt(0, tw);
        let mut cols = [0u64; 64];
        for (i, col) in cols.iter_mut().enumerate() {
            *col = c.encrypt(1u64 << i, tw) ^ b;
        }
        let predict = |x: u64| {
            let mut acc = b;
            for (i, col) in cols.iter().enumerate() {
                if (x >> i) & 1 == 1 {
                    acc ^= col;
                }
            }
            acc
        };
        let mut sm = SplitMix64::new(4);
        for _ in 0..200 {
            let x = sm.next_u64();
            assert_eq!(predict(x), c.encrypt(x, tw), "affine model must predict E");
        }
    }

    #[test]
    fn latency_is_two_cycles() {
        assert_eq!(Llbc::from_seed(0).latency_cycles(), 2);
    }
}
