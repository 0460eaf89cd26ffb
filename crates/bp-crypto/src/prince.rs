//! PRINCE: a low-latency block cipher (Borghoff et al., ASIACRYPT 2012).
//!
//! PRINCE is the other "strong, but still ~8-cycle" cipher the paper cites as
//! a candidate for branch predictor randomization. It is included both as an
//! alternative code-book filler and as a latency reference point for the
//! Figure-2 experiment.
//!
//! PRINCE is *not* tweakable; the [`crate::TweakableBlockCipher`] impl folds
//! the tweak into the plaintext whitening (`E(x ⊕ t) ⊕ t`), which is the
//! standard LRW-lite trick used when a tweak is needed from a plain block
//! cipher in simulation contexts.
//!
//! Validated against the five published test vectors of the PRINCE paper.

use crate::TweakableBlockCipher;

/// PRINCE round constants. `RC[i] ^ RC[11 - i] = α` for all i.
const RC: [u64; 12] = [
    0x0000000000000000,
    0x13198a2e03707344,
    0xa4093822299f31d0,
    0x082efa98ec4e6c89,
    0x452821e638d01377,
    0xbe5466cf34e90c6c,
    0x7ef84f78fd955cb1,
    0x85840851f1ac43aa,
    0xc882d32f25323c54,
    0x64a51195e0e3610d,
    0xd3b5a399ca0c2399,
    0xc0ac29b7c97c50dd,
];

/// The PRINCE S-box and its inverse.
const SBOX: [u8; 16] = [
    0xB, 0xF, 0x3, 0x2, 0xA, 0xC, 0x9, 0x1, 0x6, 0x7, 0x8, 0x0, 0xE, 0x5, 0xD, 0x4,
];
const SBOX_INV: [u8; 16] = [
    0xB, 0x7, 0x3, 0x2, 0xF, 0xD, 0x8, 0x9, 0xA, 0x6, 0x4, 0x0, 0x5, 0xE, 0xC, 0x1,
];

/// ShiftRows nibble permutation (output nibble i comes from input SR[i],
/// nibble 0 being the most significant).
const SR: [usize; 16] = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11];
const SR_INV: [usize; 16] = [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3];

fn sub_nibbles(x: u64, sbox: &[u8; 16]) -> u64 {
    let mut out = 0u64;
    for i in 0..16 {
        let n = ((x >> (60 - 4 * i)) & 0xF) as usize;
        out |= u64::from(sbox[n]) << (60 - 4 * i);
    }
    out
}

fn shift_rows(x: u64, perm: &[usize; 16]) -> u64 {
    let mut out = 0u64;
    for (i, &src) in perm.iter().enumerate() {
        let n = (x >> (60 - 4 * src)) & 0xF;
        out |= n << (60 - 4 * i);
    }
    out
}

/// One of the four 4x4 binary blocks `M0..M3`: `M_i` zeroes input bit `i`
/// of the nibble (bit 0 = most significant bit of the nibble).
fn m_block(n: u64, i: usize) -> u64 {
    n & !(1u64 << (3 - i))
}

/// Applies M̂0 or M̂1 to one 16-bit group (4 nibbles, nibble 0 most
/// significant). `offset` is 0 for M̂0 and 1 for M̂1.
fn m_hat(group: u64, offset: usize) -> u64 {
    let n = [
        (group >> 12) & 0xF,
        (group >> 8) & 0xF,
        (group >> 4) & 0xF,
        group & 0xF,
    ];
    let mut out = 0u64;
    for (row, out_shift) in (0..4).zip([12u32, 8, 4, 0]) {
        let mut acc = 0u64;
        for (k, &nk) in n.iter().enumerate() {
            acc ^= m_block(nk, (row + k + offset) % 4);
        }
        out |= acc << out_shift;
    }
    out
}

/// The involutory M' layer: diag(M̂0, M̂1, M̂1, M̂0) over the four 16-bit
/// groups of the state.
fn m_prime(x: u64) -> u64 {
    let g0 = m_hat((x >> 48) & 0xFFFF, 0);
    let g1 = m_hat((x >> 32) & 0xFFFF, 1);
    let g2 = m_hat((x >> 16) & 0xFFFF, 1);
    let g3 = m_hat(x & 0xFFFF, 0);
    (g0 << 48) | (g1 << 32) | (g2 << 16) | g3
}

/// The PRINCE block cipher with its 128-bit key `k0 ‖ k1`.
///
/// # Examples
///
/// ```
/// use bp_crypto::Prince;
/// let c = Prince::new(0, 0);
/// assert_eq!(c.encrypt_block(0), 0x818665aa0d02dfda);
/// assert_eq!(c.decrypt_block(0x818665aa0d02dfda), 0);
/// ```
// No `Debug`: key halves are key material.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Prince {
    k0: u64,
    k1: u64,
}

impl Prince {
    /// Creates PRINCE from the two 64-bit key halves.
    pub const fn new(k0: u64, k1: u64) -> Self {
        Prince { k0, k1 }
    }

    /// Creates a cipher with both key halves derived from a seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = bp_common::rng::SplitMix64::new(seed);
        Prince::new(sm.next_u64(), sm.next_u64())
    }

    /// `k0' = (k0 ⋙ 1) ⊕ (k0 ≫ 63)`, the FX-construction output whitening key.
    fn k0_prime(&self) -> u64 {
        self.k0.rotate_right(1) ^ (self.k0 >> 63)
    }

    /// Encrypts one block (no tweak).
    pub fn encrypt_block(&self, plaintext: u64) -> u64 {
        let core_in = plaintext ^ self.k0;
        let core_out = self.core(core_in, self.k1);
        core_out ^ self.k0_prime()
    }

    /// Decrypts one block (no tweak).
    pub fn decrypt_block(&self, ciphertext: u64) -> u64 {
        // The α-reflection property: D_{(k0, k0', k1)} = E_{(k0', k0, k1 ⊕ α)}.
        let core_in = ciphertext ^ self.k0_prime();
        let core_out = self.core(core_in, self.k1 ^ RC[11]);
        core_out ^ self.k0
    }

    /// PRINCE-core: 12 rounds around the involutive middle layer.
    fn core(&self, input: u64, k1: u64) -> u64 {
        let mut s = input ^ k1 ^ RC[0];
        // Rounds 1..=5: S, M (= SR ∘ M'), add RC ⊕ k1.
        for rc in &RC[1..6] {
            s = sub_nibbles(s, &SBOX);
            s = m_prime(s);
            s = shift_rows(s, &SR);
            s ^= rc ^ k1;
        }
        // Middle: S, M', S⁻¹.
        s = sub_nibbles(s, &SBOX);
        s = m_prime(s);
        s = sub_nibbles(s, &SBOX_INV);
        // Rounds 6..=11: add RC ⊕ k1, M⁻¹ (= M'⁻¹ ∘ SR⁻¹), S⁻¹.
        for rc in &RC[6..11] {
            s ^= rc ^ k1;
            s = shift_rows(s, &SR_INV);
            s = m_prime(s);
            s = sub_nibbles(s, &SBOX_INV);
        }
        s ^ k1 ^ RC[11]
    }
}

impl TweakableBlockCipher for Prince {
    fn encrypt(&self, plaintext: u64, tweak: u64) -> u64 {
        self.encrypt_block(plaintext ^ tweak) ^ tweak
    }

    fn decrypt(&self, ciphertext: u64, tweak: u64) -> u64 {
        self.decrypt_block(ciphertext ^ tweak) ^ tweak
    }

    fn boxed_copy(&self) -> Box<dyn TweakableBlockCipher> {
        Box::new(*self)
    }

    fn latency_cycles(&self) -> u32 {
        // Paper §I: ~8 cycles on a 4 GHz processor.
        8
    }

    fn name(&self) -> &'static str {
        "prince"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_inverse_consistent() {
        for x in 0..16u8 {
            assert_eq!(SBOX_INV[SBOX[x as usize] as usize], x);
        }
    }

    #[test]
    fn shift_rows_inverse_consistent() {
        for i in 0..16 {
            assert_eq!(SR[SR_INV[i]], i);
            assert_eq!(SR_INV[SR[i]], i);
        }
    }

    #[test]
    fn m_prime_is_involutory() {
        let mut sm = bp_common::rng::SplitMix64::new(9);
        for _ in 0..200 {
            let x = sm.next_u64();
            assert_eq!(m_prime(m_prime(x)), x);
        }
    }

    #[test]
    fn alpha_reflection_constant_property() {
        for i in 0..12 {
            assert_eq!(RC[i] ^ RC[11 - i], RC[11] ^ RC[0]);
        }
    }

    #[test]
    fn published_test_vectors() {
        // The five test vectors from the PRINCE paper (plaintext, k0, k1, ct).
        let vectors = [
            (0x0000000000000000u64, 0u64, 0u64, 0x818665aa0d02dfdau64),
            (0xffffffffffffffff, 0, 0, 0x604ae6ca03c20ada),
            (
                0x0000000000000000,
                0xffffffffffffffff,
                0,
                0x9fb51935fc3df524,
            ),
            (
                0x0000000000000000,
                0,
                0xffffffffffffffff,
                0x78a54cbe737bb7ef,
            ),
            (
                0x0123456789abcdef,
                0x0000000000000000,
                0xfedcba9876543210,
                0xae25ad3ca8fa9ccf,
            ),
        ];
        for (pt, k0, k1, ct) in vectors {
            let c = Prince::new(k0, k1);
            assert_eq!(
                c.encrypt_block(pt),
                ct,
                "pt={pt:016x} k0={k0:016x} k1={k1:016x}"
            );
            assert_eq!(c.decrypt_block(ct), pt, "decrypt of {ct:016x}");
        }
    }

    #[test]
    fn roundtrip_random() {
        let mut sm = bp_common::rng::SplitMix64::new(21);
        let c = Prince::from_seed(7);
        for _ in 0..500 {
            let pt = sm.next_u64();
            assert_eq!(c.decrypt_block(c.encrypt_block(pt)), pt);
        }
    }

    #[test]
    fn tweaked_roundtrip() {
        let mut sm = bp_common::rng::SplitMix64::new(22);
        let c = Prince::from_seed(8);
        for _ in 0..200 {
            let pt = sm.next_u64();
            let tw = sm.next_u64();
            assert_eq!(c.decrypt(c.encrypt(pt, tw), tw), pt);
        }
    }

    #[test]
    fn tweak_changes_output() {
        let c = Prince::from_seed(1);
        assert_ne!(c.encrypt(5, 1), c.encrypt(5, 2));
    }

    #[test]
    fn avalanche() {
        let c = Prince::from_seed(33);
        let mut sm = bp_common::rng::SplitMix64::new(4);
        let mut total = 0u32;
        let n = 200;
        for _ in 0..n {
            let pt = sm.next_u64();
            let bit = 1u64 << sm.next_below(64);
            total += (c.encrypt_block(pt) ^ c.encrypt_block(pt ^ bit)).count_ones();
        }
        let avg = f64::from(total) / f64::from(n);
        assert!(avg > 24.0 && avg < 40.0, "avalanche average {avg}");
    }
}
