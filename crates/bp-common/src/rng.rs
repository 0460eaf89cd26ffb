//! Deterministic, seedable pseudo-random number generators.
//!
//! Every stochastic component in the workspace (workload generation, random
//! replacement, key generation for *modeling* purposes, Monte Carlo attack
//! trials) draws from these generators so that simulations are exactly
//! reproducible from a seed. The cryptographic strength of the *modeled*
//! ciphers lives in `bp-crypto`; these PRNGs are for simulation determinism
//! only.
//!
//! # Examples
//!
//! ```
//! use bp_common::rng::SplitMix64;
//! let mut a = SplitMix64::new(7);
//! let mut b = SplitMix64::new(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

/// SplitMix64: tiny, fast, statistically solid 64-bit generator.
///
/// Used directly for lightweight decisions (replacement, tie-breaking) and to
/// seed [`Xoshiro256StarStar`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        SplitMix64::new(0x5EED_5EED_5EED_5EED)
    }
}

/// xoshiro256**: the workhorse generator for bulk simulation randomness.
///
/// # Examples
///
/// ```
/// use bp_common::rng::Xoshiro256StarStar;
/// let mut r = Xoshiro256StarStar::seeded(42);
/// let v = r.next_below(10);
/// assert!(v < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator by expanding a 64-bit seed with SplitMix64
    /// (the construction recommended by the xoshiro authors).
    pub fn seeded(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256StarStar {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher-Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Samples a geometric-ish gap: returns a value in `[1, max]` with mean
    /// approximately `mean` (used for inter-branch instruction gaps).
    ///
    /// # Panics
    ///
    /// Panics if `mean < 1.0` or `max` is zero.
    pub fn gap(&mut self, mean: f64, max: u32) -> u32 {
        assert!(mean >= 1.0, "mean gap must be at least 1");
        assert!(max > 0, "max must be positive");
        let p = 1.0 / mean;
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        let g = (u.ln() / (1.0 - p).max(f64::MIN_POSITIVE).ln()).ceil();
        (g as u32).clamp(1, max)
    }
}

impl Default for Xoshiro256StarStar {
    fn default() -> Self {
        Xoshiro256StarStar::seeded(0xC0FF_EE11_D00D_F00D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_known_first_output() {
        // Reference output of SplitMix64 with seed 0 (widely published).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = Xoshiro256StarStar::seeded(1);
        for bound in [1u64, 2, 3, 7, 100, 1024] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = Xoshiro256StarStar::seeded(9);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut r = Xoshiro256StarStar::seeded(7);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[r.next_below(8) as usize] += 1;
        }
        let expected = n as f64 / 8.0;
        for &c in &counts {
            assert!(
                (c as f64 - expected).abs() < expected * 0.05,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Xoshiro256StarStar::seeded(11);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn gap_mean_is_close() {
        let mut r = Xoshiro256StarStar::seeded(5);
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| r.gap(6.0, 64) as u64).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 6.0).abs() < 0.5, "mean gap {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(2);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.1));
        }
    }
}
