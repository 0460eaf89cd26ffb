//! QARMA-64: a lightweight tweakable block cipher (Avanzi, IACR ToSC 2017).
//!
//! QARMA is the cipher HyBP uses to fill the randomized index keys table.
//! It is a three-round Even-Mansour-like construction with a central
//! *pseudo-reflector*: `r` forward rounds, a reflector keyed with the core
//! key, and `r` backward rounds, over a 64-bit state viewed as a 4x4 array of
//! 4-bit cells.
//!
//! The implementation follows the reference description: the σ₀/σ₁/σ₂
//! S-boxes, the `τ` cell shuffle, the involutory `M = circ(0, ρ¹, ρ², ρ¹)`
//! MixColumns over cell rotations, the `h`-permutation + LFSR tweak schedule,
//! and the `(w0, k0)` key specialisation.
//!
//! **Validation.** The implementation reproduces the published QARMA-64
//! test-vector table (Avanzi, IACR ToSC 2017: P = `0xfb623599da6e8127`,
//! T = `0x477d469dec0b8762`, w0 = `0x84be85ce9804e94b`,
//! k0 = `0xec2802d4e0a488e9`): the `published_vectors` test pins all nine
//! ciphertexts, for σ₀, σ₁ and σ₂ at r = 5, 6 and 7. Structural tests ride
//! along: decrypt is the exact inverse of encrypt for every S-box and round
//! count, `M` is involutory, the tweak schedule round-trips, and avalanche
//! is ≈ 32/64 bits.

use crate::TweakableBlockCipher;

/// Round constants (digits of pi), shared with PRINCE's constant list.
const C: [u64; 8] = [
    0x0000000000000000,
    0x13198A2E03707344,
    0xA4093822299F31D0,
    0x082EFA98EC4E6C89,
    0x452821E638D01377,
    0xBE5466CF34E90C6C,
    0x3F84D5B5B5470917,
    0x9216D5D98979FB1B,
];

/// The reflection constant α.
const ALPHA: u64 = 0xC0AC29B7C97C50DD;

/// Forward S-boxes σ₀, σ₁, σ₂.
const SBOX: [[u8; 16]; 3] = [
    [0, 14, 2, 10, 9, 15, 8, 11, 6, 4, 3, 7, 13, 12, 1, 5],
    [10, 13, 14, 6, 15, 7, 3, 5, 9, 8, 0, 12, 11, 1, 2, 4],
    [11, 6, 8, 15, 12, 0, 9, 14, 3, 7, 4, 5, 13, 2, 1, 10],
];

/// Inverse S-boxes.
const SBOX_INV: [[u8; 16]; 3] = [
    [0, 14, 2, 10, 9, 15, 8, 11, 6, 4, 3, 7, 13, 12, 1, 5],
    [10, 13, 14, 6, 15, 7, 3, 5, 9, 8, 0, 12, 11, 1, 2, 4],
    [5, 14, 13, 8, 10, 11, 1, 9, 2, 6, 15, 0, 4, 12, 7, 3],
];

/// Cell shuffle τ and its inverse.
const TAU: [usize; 16] = [0, 11, 6, 13, 10, 1, 12, 7, 5, 14, 3, 8, 15, 4, 9, 2];
const TAU_INV: [usize; 16] = [0, 5, 15, 10, 13, 8, 2, 7, 11, 14, 4, 1, 6, 3, 9, 12];

/// Tweak-cell permutation h and its inverse.
const H: [usize; 16] = [6, 5, 14, 15, 0, 1, 2, 3, 7, 12, 13, 4, 8, 9, 10, 11];
// Only the reference/test path inverts the tweak schedule.
#[cfg(test)]
const H_INV: [usize; 16] = [4, 5, 6, 7, 11, 1, 0, 8, 12, 13, 14, 15, 9, 10, 2, 3];

/// MixColumns matrix M4,2 = circ(0, 1, 2, 1): entry is the cell rotation
/// amount, 0 meaning "no contribution".
const M: [u8; 16] = [0, 1, 2, 1, 1, 0, 1, 2, 2, 1, 0, 1, 1, 2, 1, 0];

/// Cells the tweak-schedule LFSR is applied to.
const LFSR_CELLS: [usize; 7] = [0, 1, 3, 4, 8, 11, 13];

/// Which of the three QARMA S-boxes to use. The cipher's security margin
/// analysis in the original paper recommends [`QarmaSbox::Sigma1`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QarmaSbox {
    /// σ₀ — an involution, cheapest.
    Sigma0,
    /// σ₁ — the recommended trade-off (default).
    #[default]
    Sigma1,
    /// σ₂ — highest nonlinearity, deepest circuit.
    Sigma2,
}

impl QarmaSbox {
    const fn index(self) -> usize {
        match self {
            QarmaSbox::Sigma0 => 0,
            QarmaSbox::Sigma1 => 1,
            QarmaSbox::Sigma2 => 2,
        }
    }
}

type Cells = [u8; 16];

fn to_cells(x: u64) -> Cells {
    let mut c = [0u8; 16];
    for (i, cell) in c.iter_mut().enumerate() {
        *cell = ((x >> (60 - 4 * i)) & 0xF) as u8;
    }
    c
}

fn from_cells(c: &Cells) -> u64 {
    let mut x = 0u64;
    for (i, &cell) in c.iter().enumerate() {
        x |= u64::from(cell) << (60 - 4 * i);
    }
    x
}

/// Rotates a 4-bit cell left by `r` (1..=3).
fn rot4(x: u8, r: u8) -> u8 {
    ((x << r) | (x >> (4 - r))) & 0xF
}

/// The involutory MixColumns: every output cell is the XOR of the rotated
/// cells of its column according to `M`.
fn mix_columns(cells: &Cells) -> Cells {
    let mut out = [0u8; 16];
    for x in 0..4 {
        for y in 0..4 {
            let mut acc = 0u8;
            for j in 0..4 {
                let b = M[4 * x + j];
                if b != 0 {
                    acc ^= rot4(cells[4 * j + y], b);
                }
            }
            out[4 * x + y] = acc;
        }
    }
    out
}

/// Tweak-schedule LFSR: (b3, b2, b1, b0) -> (b0 ^ b1, b3, b2, b1).
fn lfsr(x: u8) -> u8 {
    let b0 = x & 1;
    let b1 = (x >> 1) & 1;
    let b2 = (x >> 2) & 1;
    let b3 = (x >> 3) & 1;
    ((b0 ^ b1) << 3) | (b3 << 2) | (b2 << 1) | b1
}

/// Inverse of [`lfsr`].
#[cfg(test)]
fn lfsr_inv(x: u8) -> u8 {
    let n0 = x & 1;
    let n1 = (x >> 1) & 1;
    let n2 = (x >> 2) & 1;
    let n3 = (x >> 3) & 1;
    // forward: n3 = b0^b1, n2 = b3, n1 = b2, n0 = b1
    let b1 = n0;
    let b2 = n1;
    let b3 = n2;
    let b0 = n3 ^ b1;
    (b3 << 3) | (b2 << 2) | (b1 << 1) | b0
}

fn forward_update_tweak(tweak: u64) -> u64 {
    let cell = to_cells(tweak);
    let mut perm = [0u8; 16];
    for i in 0..16 {
        perm[i] = cell[H[i]];
    }
    for &i in &LFSR_CELLS {
        perm[i] = lfsr(perm[i]);
    }
    from_cells(&perm)
}

/// Inverse of [`forward_update_tweak`]. The schedule builder only walks the
/// tweak forward, so this survives purely as the reference-path inverse the
/// equivalence tests exercise.
#[cfg(test)]
fn backward_update_tweak(tweak: u64) -> u64 {
    let mut cell = to_cells(tweak);
    for &i in &LFSR_CELLS {
        cell[i] = lfsr_inv(cell[i]);
    }
    let mut perm = [0u8; 16];
    for i in 0..16 {
        perm[i] = cell[H_INV[i]];
    }
    from_cells(&perm)
}

// ---- Packed-domain round primitives ------------------------------------
//
// The cipher state stays a plain `u64` through every round: SubCells is
// eight byte-table lookups, the tau shuffles are precomputed per-byte
// scatter tables, and MixColumns is a handful of shifts and masks. The
// arithmetic is bit-identical to the 16-cell reference form (the regression
// vectors and the `packed_rounds_match_cell_reference` test pin this); it
// exists because the per-round `to_cells`/`from_cells` round-trips dominated
// the encryption cost.

const MASK_LO1: u64 = 0x1111_1111_1111_1111;
const MASK_LO2: u64 = 0x3333_3333_3333_3333;
const MASK_HI1: u64 = 0xEEEE_EEEE_EEEE_EEEE;
const MASK_HI2: u64 = 0xCCCC_CCCC_CCCC_CCCC;

/// Rotates every 4-bit cell of `x` left by 1.
fn rot_cells_1(x: u64) -> u64 {
    ((x << 1) & MASK_HI1) | ((x >> 3) & MASK_LO1)
}

/// Rotates every 4-bit cell of `x` left by 2.
fn rot_cells_2(x: u64) -> u64 {
    ((x << 2) & MASK_HI2) | ((x >> 2) & MASK_LO2)
}

/// Packed MixColumns. Rows of the 4x4 cell array are contiguous 16-bit
/// lanes of the packed word, so `M = circ(0, rho1, rho2, rho1)` becomes:
/// rotate all cells by 1 and 2 at once, then recombine whole rows.
fn mix_columns_packed(x: u64) -> u64 {
    let r1 = rot_cells_1(x);
    let r2 = rot_cells_2(x);
    let (a1, b1, c1, d1) = (
        r1 >> 48,
        (r1 >> 32) & 0xFFFF,
        (r1 >> 16) & 0xFFFF,
        r1 & 0xFFFF,
    );
    let (a2, b2, c2, d2) = (
        r2 >> 48,
        (r2 >> 32) & 0xFFFF,
        (r2 >> 16) & 0xFFFF,
        r2 & 0xFFFF,
    );
    ((b1 ^ c2 ^ d1) << 48) | ((a1 ^ c1 ^ d2) << 32) | ((a2 ^ b1 ^ d1) << 16) | (a1 ^ b2 ^ c1)
}

/// Per-byte scatter tables realising a 16-cell permutation
/// `out[i] = cell[P[i]]` on the packed word: entry `[p][v]` is the permuted
/// contribution of source byte `p` (holding cells `2p` and `2p+1`) with
/// value `v`; applying the permutation is 8 lookups OR-ed together.
const fn scatter_tables(perm: [usize; 16]) -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut p = 0;
    while p < 8 {
        let mut v = 0;
        while v < 256 {
            let hi = (v >> 4) as u64;
            let lo = (v & 0xF) as u64;
            let mut out = 0u64;
            let mut i = 0;
            while i < 16 {
                if perm[i] == 2 * p {
                    out |= hi << (60 - 4 * i);
                }
                if perm[i] == 2 * p + 1 {
                    out |= lo << (60 - 4 * i);
                }
                i += 1;
            }
            t[p][v] = out;
            v += 1;
        }
        p += 1;
    }
    t
}

static TAU_SCATTER: [[u64; 256]; 8] = scatter_tables(TAU);
static TAU_INV_SCATTER: [[u64; 256]; 8] = scatter_tables(TAU_INV);

fn permute_cells(x: u64, t: &[[u64; 256]; 8]) -> u64 {
    t[0][(x >> 56) as usize]
        | t[1][((x >> 48) & 0xFF) as usize]
        | t[2][((x >> 40) & 0xFF) as usize]
        | t[3][((x >> 32) & 0xFF) as usize]
        | t[4][((x >> 24) & 0xFF) as usize]
        | t[5][((x >> 16) & 0xFF) as usize]
        | t[6][((x >> 8) & 0xFF) as usize]
        | t[7][(x & 0xFF) as usize]
}

/// A 4-bit S-box applied to both nibbles of a byte.
const fn sbox_byte_table(s: &[u8; 16]) -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut v = 0;
    while v < 256 {
        t[v] = (s[v >> 4] << 4) | s[v & 0xF];
        v += 1;
    }
    t
}

static SBOX_BYTES: [[u8; 256]; 3] = [
    sbox_byte_table(&SBOX[0]),
    sbox_byte_table(&SBOX[1]),
    sbox_byte_table(&SBOX[2]),
];
static SBOX_INV_BYTES: [[u8; 256]; 3] = [
    sbox_byte_table(&SBOX_INV[0]),
    sbox_byte_table(&SBOX_INV[1]),
    sbox_byte_table(&SBOX_INV[2]),
];

fn sub_cells_packed(x: u64, t: &[u8; 256]) -> u64 {
    let b = x.to_be_bytes();
    u64::from_be_bytes([
        t[b[0] as usize],
        t[b[1] as usize],
        t[b[2] as usize],
        t[b[3] as usize],
        t[b[4] as usize],
        t[b[5] as usize],
        t[b[6] as usize],
        t[b[7] as usize],
    ])
}

/// One forward round: AddRoundTweakey, then (for full rounds) ShuffleCells
/// and MixColumns, then SubCells.
fn forward(is: u64, tweakey: u64, full_round: bool, sbox: &[u8; 256]) -> u64 {
    let mut is = is ^ tweakey;
    if full_round {
        is = mix_columns_packed(permute_cells(is, &TAU_SCATTER));
    }
    sub_cells_packed(is, sbox)
}

/// One backward round: inverse SubCells, then (for full rounds) inverse
/// MixColumns (M is involutory) and inverse ShuffleCells, then
/// AddRoundTweakey.
fn backward(is: u64, tweakey: u64, full_round: bool, sbox_inv: &[u8; 256]) -> u64 {
    let mut is = sub_cells_packed(is, sbox_inv);
    if full_round {
        is = permute_cells(mix_columns_packed(is), &TAU_INV_SCATTER);
    }
    is ^ tweakey
}

/// The keyed central reflector.
fn pseudo_reflect(is: u64, key: u64) -> u64 {
    permute_cells(
        mix_columns_packed(permute_cells(is, &TAU_SCATTER)) ^ key,
        &TAU_INV_SCATTER,
    )
}

/// Precomputed round material for one `(key, tweak)` pair: the whitening
/// keys plus every round tweakey of the forward pass, the reflector key and
/// the backward pass. Building one walks the tweak schedule exactly once;
/// applying it to a block touches no schedule state at all — which is what
/// makes [`TweakableBlockCipher::encrypt_batch`] (a code-book refresh
/// encrypts hundreds of words under one constant tweak) cheap.
// No `Debug`: round tweakeys are key material (secret-hygiene, bp-lint
// secret-debug).
struct Schedule {
    rounds: usize,
    sbox: usize,
    in_white: u64,
    out_white: u64,
    fwd: [u64; 8],
    mid_fwd: u64,
    reflect: u64,
    mid_bwd: u64,
    bwd: [u64; 8],
}

impl Schedule {
    #[allow(
        clippy::needless_range_loop,
        reason = "indexing C by the round counter matches the QARMA specification"
    )]
    fn build(
        rounds: usize,
        sbox: usize,
        in_white: u64,
        out_white: u64,
        k0: u64,
        k1: u64,
        mut tweak: u64,
    ) -> Self {
        let mut fwd = [0u64; 8];
        let mut bwd = [0u64; 8];
        for i in 0..rounds {
            fwd[i] = k0 ^ tweak ^ C[i];
            bwd[i] = fwd[i] ^ ALPHA;
            tweak = forward_update_tweak(tweak);
        }
        Schedule {
            rounds,
            sbox,
            in_white,
            out_white,
            fwd,
            mid_fwd: out_white ^ tweak,
            reflect: k1,
            mid_bwd: in_white ^ tweak,
            bwd,
        }
    }

    fn apply(&self, block: u64) -> u64 {
        let sb = &SBOX_BYTES[self.sbox];
        let sbi = &SBOX_INV_BYTES[self.sbox];
        let mut is = block ^ self.in_white;
        for i in 0..self.rounds {
            is = forward(is, self.fwd[i], i != 0, sb);
        }
        is = forward(is, self.mid_fwd, true, sb);
        is = pseudo_reflect(is, self.reflect);
        is = backward(is, self.mid_bwd, true, sbi);
        for i in (0..self.rounds).rev() {
            is = backward(is, self.bwd[i], i != 0, sbi);
        }
        is ^ self.out_white
    }
}

/// The orthomorphism `o(x) = (x ⋙ 1) ⊕ (x ≫ 63)` used by the key schedule.
fn ortho(w: u64) -> u64 {
    w.rotate_right(1) ^ (w >> 63)
}

/// QARMA-64 tweakable block cipher.
///
/// # Examples
///
/// ```
/// use bp_crypto::{Qarma64, QarmaSbox, TweakableBlockCipher};
///
/// // Published test vector (σ₁, r = 7).
/// let c = Qarma64::with_params(0x84be85ce9804e94b, 0xec2802d4e0a488e9, QarmaSbox::Sigma1, 7);
/// let ct = c.encrypt(0xfb623599da6e8127, 0x477d469dec0b8762);
/// assert_eq!(ct, 0xedf67ff370a483f2);
/// assert_eq!(c.decrypt(ct, 0x477d469dec0b8762), 0xfb623599da6e8127);
/// ```
// No `Debug`: round keys are key material (secret-hygiene, bp-lint
// secret-debug).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Qarma64 {
    w0: u64,
    k0: u64,
    /// `o(w0)`, precomputed at key install.
    w1: u64,
    /// `M . k0`, the decryption reflector key, precomputed at key install.
    dec_k1: u64,
    sbox: QarmaSbox,
    rounds: usize,
}

impl Qarma64 {
    /// Default round count (the paper's recommended r for QARMA-64).
    pub const DEFAULT_ROUNDS: usize = 7;

    /// Creates QARMA-64 with the recommended σ₁ S-box and r = 7.
    ///
    /// `w0` is the whitening key half and `k0` the core key half of the
    /// 128-bit master key `w0 ‖ k0`.
    pub fn new(w0: u64, k0: u64) -> Self {
        Self::with_params(w0, k0, QarmaSbox::Sigma1, Self::DEFAULT_ROUNDS)
    }

    /// Creates QARMA-64 with an explicit S-box choice and round count.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is 0 or greater than 8 (the round-constant table).
    pub fn with_params(w0: u64, k0: u64, sbox: QarmaSbox, rounds: usize) -> Self {
        assert!(rounds >= 1 && rounds <= C.len(), "rounds must be in 1..=8");
        Qarma64 {
            w0,
            k0,
            w1: ortho(w0),
            dec_k1: from_cells(&mix_columns(&to_cells(k0))),
            sbox,
            rounds,
        }
    }

    /// Creates a cipher from a 128-bit key given as two halves derived from a
    /// seed, for simulation convenience.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = bp_common::rng::SplitMix64::new(seed);
        Qarma64::new(sm.next_u64(), sm.next_u64())
    }

    /// The encryption schedule for one tweak.
    fn enc_schedule(&self, tweak: u64) -> Schedule {
        Schedule::build(
            self.rounds,
            self.sbox.index(),
            self.w0,
            self.w1,
            self.k0,
            self.k0,
            tweak,
        )
    }

    /// The decryption schedule: encryption with the specialized inverse key
    /// (swap w0/w1, replace k0 by k0 ^ alpha, reflect with M.k0).
    fn dec_schedule(&self, tweak: u64) -> Schedule {
        Schedule::build(
            self.rounds,
            self.sbox.index(),
            self.w1,
            self.w0,
            self.k0 ^ ALPHA,
            self.dec_k1,
            tweak,
        )
    }
}

impl TweakableBlockCipher for Qarma64 {
    fn encrypt(&self, plaintext: u64, tweak: u64) -> u64 {
        self.enc_schedule(tweak).apply(plaintext)
    }

    fn decrypt(&self, ciphertext: u64, tweak: u64) -> u64 {
        self.dec_schedule(tweak).apply(ciphertext)
    }

    fn encrypt_batch(&self, blocks: &mut [u64], tweak: u64) {
        // One schedule walk for the whole batch; a code-book refresh
        // encrypts every word under the same seed tweak.
        let sched = self.enc_schedule(tweak);
        for b in blocks.iter_mut() {
            *b = sched.apply(*b);
        }
    }

    fn latency_cycles(&self) -> u32 {
        // Paper §I/§V-A: ~8 cycles for QARMA at a 4 GHz design point.
        8
    }

    fn name(&self) -> &'static str {
        "qarma-64"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TV_W0: u64 = 0x84be85ce9804e94b;
    const TV_K0: u64 = 0xec2802d4e0a488e9;
    const TV_TWEAK: u64 = 0x477d469dec0b8762;
    const TV_PT: u64 = 0xfb623599da6e8127;

    #[test]
    fn sbox_inverses_are_consistent() {
        for s in 0..3 {
            for x in 0..16u8 {
                assert_eq!(SBOX_INV[s][SBOX[s][x as usize] as usize], x, "sbox {s}");
            }
        }
    }

    #[test]
    fn tau_and_h_are_permutations_with_correct_inverses() {
        for i in 0..16 {
            assert_eq!(TAU[TAU_INV[i]], i);
            assert_eq!(TAU_INV[TAU[i]], i);
            assert_eq!(H[H_INV[i]], i);
            assert_eq!(H_INV[H[i]], i);
        }
    }

    #[test]
    fn cells_roundtrip() {
        for x in [0u64, u64::MAX, 0x0123_4567_89AB_CDEF, TV_PT] {
            assert_eq!(from_cells(&to_cells(x)), x);
        }
    }

    #[test]
    fn mix_columns_is_involutory() {
        let mut sm = bp_common::rng::SplitMix64::new(5);
        for _ in 0..100 {
            let x = to_cells(sm.next_u64());
            assert_eq!(mix_columns(&mix_columns(&x)), x);
        }
    }

    #[test]
    fn lfsr_roundtrip() {
        for x in 0..16u8 {
            assert_eq!(lfsr_inv(lfsr(x)), x);
            assert_eq!(lfsr(lfsr_inv(x)), x);
        }
    }

    #[test]
    fn lfsr_has_full_period_on_nonzero() {
        // A maximal 4-bit LFSR cycles through all 15 non-zero states.
        let mut x = 1u8;
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..15 {
            assert!(seen.insert(x));
            x = lfsr(x);
        }
        assert_eq!(x, 1);
        assert_eq!(lfsr(0), 0);
    }

    #[test]
    fn tweak_update_roundtrip() {
        let mut sm = bp_common::rng::SplitMix64::new(11);
        for _ in 0..200 {
            let t = sm.next_u64();
            assert_eq!(backward_update_tweak(forward_update_tweak(t)), t);
        }
    }

    // ---- Cell-domain reference implementation --------------------------
    //
    // The straightforward 16-cell form of the round functions, as the spec
    // writes them. The hot path uses the packed-u64 forms above; these exist
    // solely so `packed_rounds_match_cell_reference` can pin the two against
    // each other.

    fn ref_forward(is: u64, tweakey: u64, full_round: bool, sbox: usize) -> u64 {
        let is = is ^ tweakey;
        let mut cell = to_cells(is);
        if full_round {
            let mut perm = [0u8; 16];
            for i in 0..16 {
                perm[i] = cell[TAU[i]];
            }
            cell = mix_columns(&perm);
        }
        for c in cell.iter_mut() {
            *c = SBOX[sbox][*c as usize];
        }
        from_cells(&cell)
    }

    fn ref_backward(is: u64, tweakey: u64, full_round: bool, sbox: usize) -> u64 {
        let mut cell = to_cells(is);
        for c in cell.iter_mut() {
            *c = SBOX_INV[sbox][*c as usize];
        }
        if full_round {
            cell = mix_columns(&cell);
            let mut perm = [0u8; 16];
            for i in 0..16 {
                perm[i] = cell[TAU_INV[i]];
            }
            cell = perm;
        }
        from_cells(&cell) ^ tweakey
    }

    fn ref_pseudo_reflect(is: u64, key: u64) -> u64 {
        let cell = to_cells(is);
        let mut perm = [0u8; 16];
        for i in 0..16 {
            perm[i] = cell[TAU[i]];
        }
        let mut mixed = mix_columns(&perm);
        for (i, c) in mixed.iter_mut().enumerate() {
            *c ^= ((key >> (60 - 4 * i)) & 0xF) as u8;
        }
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = mixed[TAU_INV[i]];
        }
        from_cells(&out)
    }

    /// The full cipher in cell-domain reference form, walking the tweak
    /// forward and backward exactly as the spec does.
    fn ref_encrypt(c: &Qarma64, plaintext: u64, mut tweak: u64) -> u64 {
        let s = c.sbox.index();
        let (w0, k0) = (c.w0, c.k0);
        let w1 = ortho(w0);
        let mut is = plaintext ^ w0;
        for (i, &ci) in C.iter().enumerate().take(c.rounds) {
            is = ref_forward(is, k0 ^ tweak ^ ci, i != 0, s);
            tweak = forward_update_tweak(tweak);
        }
        is = ref_forward(is, w1 ^ tweak, true, s);
        is = ref_pseudo_reflect(is, k0);
        is = ref_backward(is, w0 ^ tweak, true, s);
        for i in (0..c.rounds).rev() {
            tweak = backward_update_tweak(tweak);
            is = ref_backward(is, k0 ^ tweak ^ C[i] ^ ALPHA, i != 0, s);
        }
        is ^ w1
    }

    #[test]
    fn packed_rounds_match_cell_reference() {
        let mut sm = bp_common::rng::SplitMix64::new(23);
        for sbox in [QarmaSbox::Sigma0, QarmaSbox::Sigma1, QarmaSbox::Sigma2] {
            for rounds in [1, 4, 7, 8] {
                let c = Qarma64::with_params(sm.next_u64(), sm.next_u64(), sbox, rounds);
                for _ in 0..50 {
                    let (pt, tw) = (sm.next_u64(), sm.next_u64());
                    assert_eq!(
                        c.encrypt(pt, tw),
                        ref_encrypt(&c, pt, tw),
                        "packed/reference divergence: {sbox:?} r={rounds}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_primitives_match_cell_forms() {
        let mut sm = bp_common::rng::SplitMix64::new(29);
        for _ in 0..200 {
            let x = sm.next_u64();
            let tk = sm.next_u64();
            // τ and τ⁻¹ scatter tables against direct cell shuffles.
            let cell = to_cells(x);
            let mut tau_ref = [0u8; 16];
            let mut tau_inv_ref = [0u8; 16];
            for i in 0..16 {
                tau_ref[i] = cell[TAU[i]];
                tau_inv_ref[i] = cell[TAU_INV[i]];
            }
            assert_eq!(permute_cells(x, &TAU_SCATTER), from_cells(&tau_ref));
            assert_eq!(permute_cells(x, &TAU_INV_SCATTER), from_cells(&tau_inv_ref));
            // Packed MixColumns against the cell-array form.
            assert_eq!(mix_columns_packed(x), from_cells(&mix_columns(&cell)));
            // Round functions for both full and short rounds, every S-box.
            for s in 0..3 {
                for full in [false, true] {
                    assert_eq!(
                        forward(x, tk, full, &SBOX_BYTES[s]),
                        ref_forward(x, tk, full, s)
                    );
                    assert_eq!(
                        backward(x, tk, full, &SBOX_INV_BYTES[s]),
                        ref_backward(x, tk, full, s)
                    );
                }
            }
            assert_eq!(pseudo_reflect(x, tk), ref_pseudo_reflect(x, tk));
        }
    }

    #[test]
    fn encrypt_batch_matches_per_block_encrypt() {
        use crate::TweakableBlockCipher;
        let c = Qarma64::with_params(TV_W0, TV_K0, QarmaSbox::Sigma1, 7);
        let mut sm = bp_common::rng::SplitMix64::new(31);
        let original: Vec<u64> = (0..257).map(|_| sm.next_u64()).collect();
        let mut batch = original.clone();
        c.encrypt_batch(&mut batch, TV_TWEAK);
        for (b, o) in batch.iter().zip(&original) {
            assert_eq!(*b, c.encrypt(*o, TV_TWEAK));
        }
    }

    #[test]
    fn published_vectors() {
        // The QARMA-64 test-vector table of Avanzi (IACR ToSC 2017) for
        // (P, T, w0, k0) = (TV_PT, TV_TWEAK, TV_W0, TV_K0).
        let expected: [[u64; 3]; 3] = [
            // r = 5, 6, 7
            [0x3ee99a6c82af0c38, 0x9f5c41ec525603c9, 0xbcaf6c89de930765], // σ0
            [0x544b0ab95bda7c3a, 0xa512dd1e4e3ec582, 0xedf67ff370a483f2], // σ1
            [0xc003b93999b33765, 0x270a787275c48d10, 0x5c06a7501b63b2fd], // σ2
        ];
        let sboxes = [QarmaSbox::Sigma0, QarmaSbox::Sigma1, QarmaSbox::Sigma2];
        for (si, &sbox) in sboxes.iter().enumerate() {
            for (ri, r) in (5..=7).enumerate() {
                let c = Qarma64::with_params(TV_W0, TV_K0, sbox, r);
                assert_eq!(
                    c.encrypt(TV_PT, TV_TWEAK),
                    expected[si][ri],
                    "sbox σ{si}, r={r}"
                );
            }
        }
    }

    #[test]
    fn output_distribution_is_balanced() {
        // Encrypting a counter sequence must produce ~uniform low bits: each
        // of 16 buckets of the low 4 bits gets 1/16 ± 25% of 4096 samples.
        let c = Qarma64::new(TV_W0, TV_K0);
        let mut buckets = [0u32; 16];
        for i in 0..4096u64 {
            buckets[(c.encrypt(i, 0) & 0xF) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((192..=320).contains(&b), "bucket {i} count {b}");
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut sm = bp_common::rng::SplitMix64::new(77);
        for sbox in [QarmaSbox::Sigma0, QarmaSbox::Sigma1, QarmaSbox::Sigma2] {
            let c = Qarma64::with_params(sm.next_u64(), sm.next_u64(), sbox, 7);
            for _ in 0..200 {
                let pt = sm.next_u64();
                let tw = sm.next_u64();
                assert_eq!(c.decrypt(c.encrypt(pt, tw), tw), pt);
            }
        }
    }

    #[test]
    fn different_tweaks_give_different_ciphertexts() {
        let c = Qarma64::new(TV_W0, TV_K0);
        let a = c.encrypt(TV_PT, 1);
        let b = c.encrypt(TV_PT, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Qarma64::new(1, 2).encrypt(TV_PT, 0);
        let b = Qarma64::new(3, 4).encrypt(TV_PT, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn avalanche_on_plaintext_bitflip() {
        // A strong cipher flips close to half the output bits for a 1-bit
        // input change; require at least 16 of 64 on average.
        let c = Qarma64::new(TV_W0, TV_K0);
        let mut total = 0u32;
        let n = 200;
        let mut sm = bp_common::rng::SplitMix64::new(3);
        for _ in 0..n {
            let pt = sm.next_u64();
            let bit = 1u64 << sm.next_below(64);
            total += (c.encrypt(pt, 0) ^ c.encrypt(pt ^ bit, 0)).count_ones();
        }
        let avg = f64::from(total) / f64::from(n);
        assert!(avg > 24.0 && avg < 40.0, "avalanche average {avg}");
    }

    #[test]
    #[should_panic(expected = "rounds")]
    fn zero_rounds_rejected() {
        let _ = Qarma64::with_params(0, 0, QarmaSbox::Sigma1, 0);
    }
}
