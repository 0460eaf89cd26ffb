//! A fixed reference kernel that gauges how fast the host runs right now.
//!
//! On a shared host the same batch can take 1.5× as long from one minute
//! to the next, for tens of seconds at a time: other tenants load the
//! core's sibling hyperthread, the caches and the memory bus, and turbo
//! frequency follows the whole package's load. A gauge pass runs four
//! fixed kernels, each sensitive to one of these: hashed counter tables
//! read, summed, branched on and trained (the predictor's hot path), a
//! dependent walk over 64 KiB (load latency), a sweep over 32 MiB (memory
//! bandwidth) and a dependent walk over 32 MiB (memory latency and TLB
//! misses). It calls no repository code, so no change to the repository
//! moves it. Timing each measured call between two passes and scaling it
//! by `NOMINAL_S` ÷ their mean reports the call at the reference host's
//! speed.

use std::time::Instant;

/// The unit scaled timings are expressed in: a round figure for one pass
/// on the 2-vCPU Xeon VM the benchmark was written on (0.13–0.20 s there,
/// as its neighbours' load varied).
pub const NOMINAL_S: f64 = 0.15;

/// Synthetic branches of the predictor kernel.
const STEPS: usize = 1_500_000;
/// Hashed counter tables, and entries in each (8 × 16 KiB).
const TABLES: usize = 8;
const TABLE_BITS: u32 = 14;
/// Dependent loads of each walk, and the walks' sizes in u32 entries.
const SMALL_HOPS: usize = 6_000_000;
const SMALL_WALK: usize = 1 << 14;
const LARGE_HOPS: usize = 400_000;
const LARGE_WALK: usize = 1 << 23;
/// The swept buffer in u64 words, and sweeps per pass.
const SWEEP_WORDS: usize = 1 << 22;
const SWEEPS: usize = 3;

/// A gauge running one pass on each of its threads at once; the walks and
/// the swept buffer are shared (read-only), the counter tables are not.
pub struct Gauge {
    tables: Vec<Vec<i8>>,
    small: Vec<u32>,
    large: Vec<u32>,
    sweep: Vec<u64>,
}

impl Gauge {
    pub fn new(threads: usize) -> Gauge {
        Gauge {
            tables: vec![vec![0; TABLES << TABLE_BITS]; threads.max(1)],
            small: cycle(SMALL_WALK, 0x5EED_0001),
            large: cycle(LARGE_WALK, 0x5EED_0002),
            sweep: (0..SWEEP_WORDS as u64).collect(),
        }
    }

    /// Bytes the gauge keeps resident, which the process's peak resident
    /// set includes.
    pub fn resident_bytes(&self) -> usize {
        self.tables.len() * (TABLES << TABLE_BITS) + (SMALL_WALK + LARGE_WALK) * 4 + SWEEP_WORDS * 8
    }

    /// Wall seconds of one pass (on every thread at once).
    pub fn pass(&mut self) -> f64 {
        let t = Instant::now();
        let (small, large, sweep) = (&self.small, &self.large, &self.sweep);
        if let [tables] = self.tables.as_mut_slice() {
            std::hint::black_box(pass(tables, small, large, sweep));
        } else {
            std::thread::scope(|s| {
                for tables in &mut self.tables {
                    s.spawn(|| std::hint::black_box(pass(tables, small, large, sweep)));
                }
            });
        }
        t.elapsed().as_secs_f64()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A random single cycle through `n` entries (Sattolo's shuffle): each
/// entry holds the index of the next.
fn cycle(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut x = seed;
    for i in (1..n).rev() {
        order.swap(i, (xorshift(&mut x) % i as u64) as usize);
    }
    let mut next = vec![0; n];
    for i in 0..n {
        next[order[i] as usize] = order[(i + 1) % n];
    }
    next
}

fn walk(next: &[u32], hops: usize) -> u64 {
    let mut i = 0u32;
    for _ in 0..hops {
        i = next[i as usize];
    }
    u64::from(i)
}

fn pass(tables: &mut [i8], small: &[u32], large: &[u32], sweep: &[u64]) -> u64 {
    tables.fill(0);
    let mask = (1u64 << TABLE_BITS) - 1;
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut hist: u64 = 0;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        // 4096 static branches, each with its own bias.
        let r = xorshift(&mut x);
        let pc = r & 0xFFF;
        let bias = pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60;
        let taken = (r >> 40) & 15 < bias;
        let mut sum = 0i32;
        let mut idx = [0usize; TABLES];
        for (t, slot) in idx.iter_mut().enumerate() {
            let h = hist & ((1u64 << (4 * t + 2)) - 1);
            let i = (pc ^ h.wrapping_mul(0xFF51_AFD7_ED55_8CCD) >> 20) & mask;
            *slot = (t << TABLE_BITS) | i as usize;
            sum += i32::from(tables[*slot]);
        }
        if (sum >= 0) == taken {
            acc += 1;
        }
        for &i in &idx {
            let c = &mut tables[i];
            *c = if taken {
                c.saturating_add(1).min(31)
            } else {
                c.saturating_sub(1).max(-32)
            };
        }
        hist = (hist << 1) | u64::from(taken);
    }
    acc ^= walk(small, SMALL_HOPS) ^ walk(large, LARGE_HOPS);
    for _ in 0..SWEEPS {
        for w in sweep {
            acc = acc.rotate_left(5) ^ w;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_visit_every_entry_once() {
        let next = cycle(1000, 7);
        let mut seen = vec![false; 1000];
        let mut i = 0usize;
        for _ in 0..1000 {
            assert!(!seen[i], "entry {i} visited twice");
            seen[i] = true;
            i = next[i] as usize;
        }
        assert_eq!(i, 0);
    }
}
