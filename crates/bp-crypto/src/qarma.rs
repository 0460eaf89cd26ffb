//! QARMA-64: a lightweight tweakable block cipher (Avanzi, IACR ToSC 2017).
//!
//! QARMA is the cipher HyBP uses to fill the randomized index keys table.
//! It is a three-round Even-Mansour-like construction with a central
//! *pseudo-reflector*: `r` forward rounds, a reflector keyed with the core
//! key, and `r` backward rounds, over a 64-bit state viewed as a 4x4 array of
//! 4-bit cells.
//!
//! The cipher follows the reference description: the σ₀/σ₁/σ₂ S-boxes, the
//! `τ` cell shuffle, the involutory `M = circ(0, ρ¹, ρ², ρ¹)` MixColumns
//! over cell rotations, the `h`-permutation + LFSR tweak schedule, and the
//! `(w0, k0)` key specialisation.
//!
//! **Fused round tables.** SubCells acts cell by cell and τ/MixColumns are
//! GF(2)-linear, so a round `L∘σ` (with `L` linear) is the XOR of eight
//! table lookups, one per byte of the state: `T(z) = ⊕ₚ T[p][byteₚ(z)]`.
//! Each S-box has three such tables, built once per process on first use:
//! `T_f = MC∘τ∘σ` (a forward round), `T_r = τ⁻¹∘MC∘τ∘σ` (the last forward
//! S-box layer and the reflector) and `T_b = τ⁻¹∘MC∘σ⁻¹` (a backward
//! round). The state between rounds is the value *before* an S-box layer,
//! so a forward round tweakey `k` enters as `L(k)` with `L = MC∘τ`, and the
//! reflector key as `τ⁻¹(k1)`. `encrypt`, `decrypt` and `encrypt_batch` run
//! one lane loop; a batch steps [`LANES`] independent blocks per round so
//! their table loads overlap.
//!
//! **Validation.** The implementation reproduces the published QARMA-64
//! test-vector table (Avanzi, IACR ToSC 2017: P = `0xfb623599da6e8127`,
//! T = `0x477d469dec0b8762`, w0 = `0x84be85ce9804e94b`,
//! k0 = `0xec2802d4e0a488e9`): the `published_vectors` test pins all nine
//! ciphertexts, for σ₀, σ₁ and σ₂ at r = 5, 6 and 7. A cell-form reference
//! cipher in the test module pins the fused tables, the packed tweak
//! schedule and whole encryptions. Structural tests ride along: decrypt is
//! the exact inverse of encrypt for every S-box and round count, `M` is
//! involutory, the tweak schedule round-trips, and avalanche is ≈ 32/64
//! bits.

use std::sync::OnceLock;

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

/// MixColumns matrix M4,2 = circ(0, 1, 2, 1): entry is the cell rotation
/// amount, 0 meaning "no contribution".
const M: [u8; 16] = [0, 1, 2, 1, 1, 0, 1, 2, 2, 1, 0, 1, 1, 2, 1, 0];

/// Blocks `encrypt_batch` steps through each round together. Measured on
/// 256-block batches, as a keys-table refresh encrypts them (one core of a
/// 2-vCPU Xeon, median of five alternating runs): 1, 2, 4 and 8 lanes took
/// 78, 58, 35 and 33 ns per block; a second set read 35, 31 and 33 ns for
/// 4, 8 and 16.
const LANES: usize = 8;

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

    /// This S-box's fused round tables, built on first use, on the heap,
    /// and only for the S-boxes a process uses (every experiment uses σ₁
    /// alone). `const` tables of all three would sit in the binary's
    /// read-only data, where page fault-around maps their neighbours too.
    fn tables(self) -> &'static RoundTables {
        static TABLES: [OnceLock<RoundTables>; 3] = [const { OnceLock::new() }; 3];
        TABLES[self.index()].get_or_init(|| RoundTables::build(self.index()))
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

/// The cell permutation `out[i] = cells[perm[i]]`.
fn shuffle(cells: &Cells, perm: &[usize; 16]) -> Cells {
    std::array::from_fn(|i| cells[perm[i]])
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

/// `L = MC∘τ`, the linear layer of a full forward round.
fn mc_tau(x: u64) -> u64 {
    from_cells(&mix_columns(&shuffle(&to_cells(x), &TAU)))
}

/// `τ⁻¹`.
fn tau_inv(x: u64) -> u64 {
    from_cells(&shuffle(&to_cells(x), &TAU_INV))
}

/// `τ⁻¹∘MC`, the linear layer of a full backward round.
fn tau_inv_mc(x: u64) -> u64 {
    tau_inv(from_cells(&mix_columns(&to_cells(x))))
}

/// One step of the tweak schedule on the packed word: the cell permutation
/// `h` (`out[i] = in[h[i]]`, h = 6 5 14 15 0 1 2 3 7 12 13 4 8 9 10 11),
/// then the LFSR `(b3, b2, b1, b0) → (b0 ⊕ b1, b3, b2, b1)` on cells
/// 0, 1, 3, 4, 8, 11 and 13. Cell 0 is the most significant nibble.
fn update_tweak(t: u64) -> u64 {
    // h moves whole cells; the cells moving the same distance share a mask.
    let h = ((t & 0xFFFF_0000_FFFF_0000) >> 16) // cells 0-3 → 4-7, 8-11 → 12-15
        | ((t & 0x0000_00F0_0000_0000) << 24) // 6 → 0
        | ((t & 0x0000_0F00_0000_0000) << 16) // 5 → 1
        | ((t & 0x0000_0000_0000_00FF) << 48) // 14, 15 → 2, 3
        | ((t & 0x0000_000F_0000_0000) >> 4) // 7 → 8
        | ((t & 0x0000_0000_0000_FF00) << 12) // 12, 13 → 9, 10
        | ((t & 0x0000_F000_0000_0000) >> 28); // 4 → 11
    const LFSR: u64 = 0xFF0F_F000_F00F_0F00;
    let s = h & LFSR;
    let shifted = (s >> 1) & LFSR & 0x7777_7777_7777_7777;
    let feedback = ((s ^ (s >> 1)) & LFSR & 0x1111_1111_1111_1111) << 3;
    (h & !LFSR) | shifted | feedback
}

/// One σ applied to both nibbles of a byte.
fn sbox_byte(s: &[u8; 16], v: usize) -> u8 {
    (s[v >> 4] << 4) | s[v & 0xF]
}

/// Eight tables, one per state byte (byte 0 the most significant): entry
/// `[p][v]` is `linear(σ(v))` with `σ(v)` placed in byte `p` and zeros
/// elsewhere. The XOR of a state's eight entries is `linear∘σ` of it: σ
/// acts cell by cell and `linear` is GF(2)-linear.
type ByteTables = [[u64; 256]; 8];

fn fused(linear: impl Fn(u64) -> u64, sbox: &[u8; 16]) -> Box<ByteTables> {
    let mut t = Box::new([[0u64; 256]; 8]);
    for (p, row) in t.iter_mut().enumerate() {
        for (v, entry) in row.iter_mut().enumerate() {
            *entry = linear(u64::from(sbox_byte(sbox, v)) << (56 - 8 * p));
        }
    }
    t
}

/// `⊕ₚ t[p][byteₚ(z)]`: one fused round.
fn round(t: &ByteTables, z: u64) -> u64 {
    let b = z.to_be_bytes();
    t[0][usize::from(b[0])]
        ^ t[1][usize::from(b[1])]
        ^ t[2][usize::from(b[2])]
        ^ t[3][usize::from(b[3])]
        ^ t[4][usize::from(b[4])]
        ^ t[5][usize::from(b[5])]
        ^ t[6][usize::from(b[6])]
        ^ t[7][usize::from(b[7])]
}

/// SubCells on the packed word, a byte table per byte.
fn sub_cells(x: u64, t: &[u8; 256]) -> u64 {
    u64::from_be_bytes(x.to_be_bytes().map(|b| t[usize::from(b)]))
}

/// One S-box's fused round tables, 48 KiB on the heap.
struct RoundTables {
    /// `T_f = MC∘τ∘σ`.
    fwd: Box<ByteTables>,
    /// `T_r = τ⁻¹∘MC∘τ∘σ`.
    refl: Box<ByteTables>,
    /// `T_b = τ⁻¹∘MC∘σ⁻¹`.
    bwd: Box<ByteTables>,
    /// σ⁻¹ on both nibbles of a byte: the last S-box layer.
    sbox_inv: [u8; 256],
}

impl RoundTables {
    fn build(s: usize) -> Self {
        RoundTables {
            fwd: fused(mc_tau, &SBOX[s]),
            refl: fused(|x| tau_inv(mc_tau(x)), &SBOX[s]),
            bwd: fused(tau_inv_mc, &SBOX_INV[s]),
            sbox_inv: std::array::from_fn(|v| sbox_byte(&SBOX_INV[s], v)),
        }
    }

    /// `L = MC∘τ`, as `T_f∘σ⁻¹`.
    fn linear(&self, x: u64) -> u64 {
        round(&self.fwd, sub_cells(x, &self.sbox_inv))
    }
}

/// Precomputed round material for one `(key, tweak)` pair, in the form the
/// fused rounds add it. With `kᵢ = k⊕tᵢ⊕cᵢ` (`k` the core key, `tᵢ` the
/// i-th tweak), a block runs:
///
/// 1. `z = P⊕w_in⊕k₀`
/// 2. `z ← T_f(z)⊕L(kᵢ)` for i = 1..r−1
/// 3. `z ← T_f(z)⊕L(w_out⊕t_r)`
/// 4. `y = T_r(z)⊕τ⁻¹(k1)`
/// 5. `y ← T_b(y)⊕w_in⊕t_r`
/// 6. `y ← T_b(y)⊕kᵢ⊕α` for i = r−1..1
/// 7. `C = σ⁻¹(y)⊕k₀⊕α⊕w_out`
///
/// Building one walks the tweak schedule once; applying it touches no
/// schedule state, which is what makes
/// [`TweakableBlockCipher::encrypt_batch`] cheap.
// No `Debug`: round tweakeys are key material.
struct Schedule {
    tables: &'static RoundTables,
    rounds: usize,
    first: u64,
    /// Steps 2 and 3: the key added after each `T_f`.
    fwd: [u64; 8],
    reflect: u64,
    /// Steps 5 and 6: the key added after each `T_b`.
    bwd: [u64; 8],
    last: u64,
}

impl Schedule {
    /// `w_in`/`w_out` are the input and output whitening keys, `core` the
    /// core key and `reflect` the reflector key as step 4 adds it.
    fn build(
        sbox: QarmaSbox,
        rounds: usize,
        w_in: u64,
        w_out: u64,
        core: u64,
        reflect: u64,
        tweak: u64,
    ) -> Self {
        let tables = sbox.tables();
        let mut fwd = [0u64; 8];
        let mut bwd = [0u64; 8];
        let mut t = tweak;
        for i in 1..rounds {
            t = update_tweak(t);
            let k = core ^ t ^ C[i];
            fwd[i - 1] = tables.linear(k);
            bwd[rounds - i] = k ^ ALPHA;
        }
        t = update_tweak(t);
        fwd[rounds - 1] = tables.linear(w_out ^ t);
        bwd[0] = w_in ^ t;
        let k0 = core ^ tweak ^ C[0];
        Schedule {
            tables,
            rounds,
            first: w_in ^ k0,
            fwd,
            reflect,
            bwd,
            last: k0 ^ ALPHA ^ w_out,
        }
    }

    /// Runs every block of `z` through the cipher, round by round across
    /// the blocks.
    fn apply<const N: usize>(&self, z: &mut [u64; N]) {
        let t = self.tables;
        for v in z.iter_mut() {
            *v ^= self.first;
        }
        for &k in &self.fwd[..self.rounds] {
            for v in z.iter_mut() {
                *v = round(&t.fwd, *v) ^ k;
            }
        }
        for v in z.iter_mut() {
            *v = round(&t.refl, *v) ^ self.reflect;
        }
        for &k in &self.bwd[..self.rounds] {
            for v in z.iter_mut() {
                *v = round(&t.bwd, *v) ^ k;
            }
        }
        for v in z.iter_mut() {
            *v = sub_cells(*v, &t.sbox_inv) ^ self.last;
        }
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
// No `Debug`: round keys are key material.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Qarma64 {
    w0: u64,
    k0: u64,
    /// `o(w0)`, precomputed at key install.
    w1: u64,
    /// `τ⁻¹(k0)`, the encryption reflector key as the fused rounds add it.
    enc_reflect: u64,
    /// `τ⁻¹(M·k0)`, the decryption reflector key likewise.
    dec_reflect: u64,
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
            enc_reflect: tau_inv(k0),
            dec_reflect: tau_inv_mc(k0),
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
            self.sbox,
            self.rounds,
            self.w0,
            self.w1,
            self.k0,
            self.enc_reflect,
            tweak,
        )
    }

    /// The decryption schedule: encryption with the specialized inverse key
    /// (swap w0/w1, replace k0 by k0 ^ alpha, reflect with M.k0).
    fn dec_schedule(&self, tweak: u64) -> Schedule {
        Schedule::build(
            self.sbox,
            self.rounds,
            self.w1,
            self.w0,
            self.k0 ^ ALPHA,
            self.dec_reflect,
            tweak,
        )
    }
}

impl TweakableBlockCipher for Qarma64 {
    fn encrypt(&self, plaintext: u64, tweak: u64) -> u64 {
        let mut z = [plaintext];
        self.enc_schedule(tweak).apply(&mut z);
        z[0]
    }

    fn decrypt(&self, ciphertext: u64, tweak: u64) -> u64 {
        let mut z = [ciphertext];
        self.dec_schedule(tweak).apply(&mut z);
        z[0]
    }

    fn encrypt_batch(&self, blocks: &mut [u64], tweak: u64) {
        // One schedule walk for the whole batch; a code-book fill encrypts
        // a group of words under its generation's seed tweak.
        let sched = self.enc_schedule(tweak);
        let (lanes, rest) = blocks.as_chunks_mut::<LANES>();
        for z in lanes {
            sched.apply(z);
        }
        for b in rest {
            sched.apply(std::array::from_mut(b));
        }
    }

    fn boxed_copy(&self) -> Box<dyn TweakableBlockCipher> {
        Box::new(*self)
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

    const SBOXES: [QarmaSbox; 3] = [QarmaSbox::Sigma0, QarmaSbox::Sigma1, QarmaSbox::Sigma2];

    // ---- Cell-domain reference implementation --------------------------
    //
    // The straightforward 16-cell form of the tweak schedule and the round
    // functions, as the spec writes them. The cipher uses the packed forms
    // above; these exist so the tests can pin the two against each other.

    /// Tweak-cell permutation h and its inverse.
    const H: [usize; 16] = [6, 5, 14, 15, 0, 1, 2, 3, 7, 12, 13, 4, 8, 9, 10, 11];
    const H_INV: [usize; 16] = [4, 5, 6, 7, 11, 1, 0, 8, 12, 13, 14, 15, 9, 10, 2, 3];

    /// Cells the tweak-schedule LFSR is applied to.
    const LFSR_CELLS: [usize; 7] = [0, 1, 3, 4, 8, 11, 13];

    /// Tweak-schedule LFSR: (b3, b2, b1, b0) -> (b0 ^ b1, b3, b2, b1).
    fn lfsr(x: u8) -> u8 {
        let b0 = x & 1;
        let b1 = (x >> 1) & 1;
        let b2 = (x >> 2) & 1;
        let b3 = (x >> 3) & 1;
        ((b0 ^ b1) << 3) | (b3 << 2) | (b2 << 1) | b1
    }

    /// Inverse of [`lfsr`].
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
        let mut perm = shuffle(&to_cells(tweak), &H);
        for &i in &LFSR_CELLS {
            perm[i] = lfsr(perm[i]);
        }
        from_cells(&perm)
    }

    /// Inverse of [`forward_update_tweak`].
    fn backward_update_tweak(tweak: u64) -> u64 {
        let mut cell = to_cells(tweak);
        for &i in &LFSR_CELLS {
            cell[i] = lfsr_inv(cell[i]);
        }
        from_cells(&shuffle(&cell, &H_INV))
    }

    fn sub_cells_ref(x: u64, sbox: &[u8; 16]) -> u64 {
        from_cells(&to_cells(x).map(|c| sbox[usize::from(c)]))
    }

    fn ref_forward(is: u64, tweakey: u64, full_round: bool, sbox: usize) -> u64 {
        let is = is ^ tweakey;
        let is = if full_round { mc_tau(is) } else { is };
        sub_cells_ref(is, &SBOX[sbox])
    }

    fn ref_backward(is: u64, tweakey: u64, full_round: bool, sbox: usize) -> u64 {
        let mut cell = to_cells(sub_cells_ref(is, &SBOX_INV[sbox]));
        if full_round {
            cell = shuffle(&mix_columns(&cell), &TAU_INV);
        }
        from_cells(&cell) ^ tweakey
    }

    fn ref_pseudo_reflect(is: u64, key: u64) -> u64 {
        let mixed = from_cells(&mix_columns(&shuffle(&to_cells(is), &TAU)));
        from_cells(&shuffle(&to_cells(mixed ^ key), &TAU_INV))
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

    #[test]
    fn packed_tweak_schedule_matches_cell_form() {
        let mut sm = bp_common::rng::SplitMix64::new(13);
        let cell_by_cell = (0..16).map(|i| 0xF000_0000_0000_0000u64 >> (4 * i));
        for t in [0, u64::MAX].into_iter().chain(cell_by_cell) {
            assert_eq!(update_tweak(t), forward_update_tweak(t), "{t:#018x}");
        }
        for _ in 0..1000 {
            let mut t = sm.next_u64();
            // Whole walks, as a schedule takes them.
            for _ in 0..8 {
                assert_eq!(update_tweak(t), forward_update_tweak(t), "{t:#018x}");
                t = update_tweak(t);
            }
        }
    }

    #[test]
    fn packed_rounds_match_cell_reference() {
        let mut sm = bp_common::rng::SplitMix64::new(23);
        for sbox in SBOXES {
            for rounds in 1..=8 {
                let c = Qarma64::with_params(sm.next_u64(), sm.next_u64(), sbox, rounds);
                for _ in 0..50 {
                    let (pt, tw) = (sm.next_u64(), sm.next_u64());
                    assert_eq!(
                        c.encrypt(pt, tw),
                        ref_encrypt(&c, pt, tw),
                        "fused/reference divergence: {sbox:?} r={rounds}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_primitives_match_cell_forms() {
        let mut sm = bp_common::rng::SplitMix64::new(29);
        for sbox in SBOXES {
            let s = sbox.index();
            let t = sbox.tables();
            // Every entry of every table: the cell-form linear layer of σ(v)
            // alone in byte p (σ of the word, other bytes masked off).
            for p in 0..8 {
                for v in 0..256u64 {
                    let x = v << (56 - 8 * p);
                    let sigma = sub_cells_ref(x, &SBOX[s]);
                    let sigma_inv = sub_cells_ref(x, &SBOX_INV[s]);
                    let keep = 0xFFu64 << (56 - 8 * p);
                    assert_eq!(t.fwd[p][v as usize], mc_tau(sigma & keep), "T_f σ{s}");
                    assert_eq!(
                        t.refl[p][v as usize],
                        tau_inv(mc_tau(sigma & keep)),
                        "T_r σ{s}"
                    );
                    assert_eq!(
                        t.bwd[p][v as usize],
                        tau_inv_mc(sigma_inv & keep),
                        "T_b σ{s}"
                    );
                }
            }
            // Whole rounds against the cell-form round functions. The fused
            // state is the value before an S-box layer, the spec's after it.
            for _ in 0..200 {
                let (x, tk) = (sm.next_u64(), sm.next_u64());
                let fwd_full = ref_forward(sub_cells_ref(x, &SBOX[s]), tk, true, s);
                assert_eq!(
                    round(&t.fwd, x) ^ mc_tau(tk),
                    sub_cells_ref(fwd_full, &SBOX_INV[s]),
                    "T_f round σ{s}"
                );
                assert_eq!(
                    round(&t.refl, x) ^ tau_inv(tk),
                    ref_pseudo_reflect(sub_cells_ref(x, &SBOX[s]), tk),
                    "T_r round σ{s}"
                );
                assert_eq!(
                    round(&t.bwd, x) ^ tk,
                    ref_backward(x, tk, true, s),
                    "T_b round σ{s}"
                );
                assert_eq!(sub_cells(x, &t.sbox_inv), sub_cells_ref(x, &SBOX_INV[s]));
                assert_eq!(t.linear(x), mc_tau(x), "L = T_f∘σ⁻¹, σ{s}");
            }
        }
    }

    #[test]
    fn encrypt_batch_matches_per_block_encrypt() {
        use crate::TweakableBlockCipher;
        let mut sm = bp_common::rng::SplitMix64::new(31);
        for sbox in SBOXES {
            for rounds in [1, 7, 8] {
                let c = Qarma64::with_params(sm.next_u64(), sm.next_u64(), sbox, rounds);
                for len in [0, 1, LANES - 1, LANES, LANES + 1, 257] {
                    let tweak = sm.next_u64();
                    let original: Vec<u64> = (0..len).map(|_| sm.next_u64()).collect();
                    let mut batch = original.clone();
                    c.encrypt_batch(&mut batch, tweak);
                    for (b, o) in batch.iter().zip(&original) {
                        assert_eq!(*b, c.encrypt(*o, tweak), "{sbox:?} r={rounds} len={len}");
                        assert_eq!(c.decrypt(*b, tweak), *o, "{sbox:?} r={rounds} len={len}");
                    }
                }
            }
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
