//! Deterministic byte-stream faults for on-disk artifacts.
//!
//! The fault classes in the crate root disturb the *simulated hardware*;
//! [`points`](crate::points) disturbs the *experiment runner*. This module
//! disturbs *stored bytes* — the damage a trace file accumulates between the
//! run that wrote it and the run that replays it: a flipped bit on a worn
//! medium, a truncation from a full disk, a torn tail from an interrupted
//! write, a doubled extent from a botched copy. The `bp-trace` reader's
//! corruption tolerance is machine-checked against exactly these faults.
//!
//! All damage is specified at explicit offsets (or derived from a seed via
//! [`ByteFaultPlan::seeded`]), so a corrupted artifact is exactly
//! reproducible: the same plan applied to the same bytes yields the same
//! bytes, every time, on every machine.
//!
//! # Examples
//!
//! ```
//! use bp_faults::bytes::{ByteFault, ByteFaultPlan};
//!
//! let plan = ByteFaultPlan::parse("bitflip@5@3,truncate@8").expect("valid spec");
//! let mut bytes = vec![0u8; 16];
//! let applied = plan.apply(&mut bytes);
//! assert_eq!(applied, 2);
//! assert_eq!(bytes.len(), 8);
//! assert_eq!(bytes[5], 1 << 3);
//! ```

use std::fmt;

use bp_common::rng::SplitMix64;

/// Bytes appended past the cut point by a torn write (the stale garbage a
/// partially flushed block leaves behind).
pub const TORN_TAIL_BYTES: usize = 64;

/// One deterministic disturbance of a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteFault {
    /// Flip bit `bit` (0..=7) of the byte at `offset`.
    BitFlip {
        /// Byte offset of the target.
        offset: u64,
        /// Bit within the byte (taken modulo 8).
        bit: u8,
    },
    /// Cut the stream cleanly at `offset` (full-disk / interrupted copy).
    Truncate {
        /// Length the stream is cut to.
        offset: u64,
    },
    /// Cut the stream at `offset`, then append [`TORN_TAIL_BYTES`] of
    /// seeded garbage — an interrupted write whose final block carries
    /// stale data rather than ending cleanly.
    TornWrite {
        /// Offset where the real data ends.
        offset: u64,
    },
    /// Duplicate `len` bytes starting at `offset`, splicing the copy in
    /// right after the original (a doubled extent from a botched copy).
    DuplicateRange {
        /// Start of the doubled range.
        offset: u64,
        /// Length of the doubled range.
        len: u64,
    },
}

impl fmt::Display for ByteFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ByteFault::BitFlip { offset, bit } => write!(f, "bitflip@{offset}@{bit}"),
            ByteFault::Truncate { offset } => write!(f, "truncate@{offset}"),
            ByteFault::TornWrite { offset } => write!(f, "torn@{offset}"),
            ByteFault::DuplicateRange { offset, len } => write!(f, "dup@{offset}@{len}"),
        }
    }
}

impl ByteFault {
    /// Parses one spec entry (the grammar shared with
    /// `HYBP_FAULT_POINTS`): `bitflip@<offset>[@<bit>]`,
    /// `truncate@<offset>`, `torn@<offset>`, or `dup@<offset>@<len>`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed entry and the accepted
    /// forms; a typo must never silently inject nothing.
    pub fn parse(raw: &str) -> Result<ByteFault, String> {
        let fields: Vec<&str> = raw.split('@').collect();
        match fields.as_slice() {
            ["bitflip", offset] => Ok(ByteFault::BitFlip {
                offset: parse_num(raw, offset)?,
                bit: 0,
            }),
            ["bitflip", offset, bit] => Ok(ByteFault::BitFlip {
                offset: parse_num(raw, offset)?,
                bit: (parse_num(raw, bit)? % 8) as u8,
            }),
            ["truncate", offset] => Ok(ByteFault::Truncate {
                offset: parse_num(raw, offset)?,
            }),
            ["torn", offset] => Ok(ByteFault::TornWrite {
                offset: parse_num(raw, offset)?,
            }),
            ["dup", offset, len] => Ok(ByteFault::DuplicateRange {
                offset: parse_num(raw, offset)?,
                len: parse_num(raw, len)?,
            }),
            _ => Err(format!(
                "invalid byte fault '{raw}': expected bitflip@<offset>[@<bit>], \
                 truncate@<offset>, torn@<offset>, or dup@<offset>@<len>"
            )),
        }
    }

    /// Applies the fault to `bytes` in place. Returns `false` (and leaves
    /// the stream untouched) when the offset lies beyond the current
    /// length — damage cannot land outside the artifact.
    pub fn apply(&self, bytes: &mut Vec<u8>) -> bool {
        match *self {
            ByteFault::BitFlip { offset, bit } => {
                let Ok(i) = usize::try_from(offset) else {
                    return false;
                };
                match bytes.get_mut(i) {
                    Some(b) => {
                        *b ^= 1 << (bit % 8);
                        true
                    }
                    None => false,
                }
            }
            ByteFault::Truncate { offset } => {
                let Ok(i) = usize::try_from(offset) else {
                    return false;
                };
                if i >= bytes.len() {
                    return false;
                }
                bytes.truncate(i);
                true
            }
            ByteFault::TornWrite { offset } => {
                let Ok(i) = usize::try_from(offset) else {
                    return false;
                };
                if i >= bytes.len() {
                    return false;
                }
                bytes.truncate(i);
                // Garbage derives from the cut point, so the torn tail is a
                // pure function of the fault.
                let mut rng = SplitMix64::new(offset ^ 0x0070_4770_4111);
                bytes.extend((0..TORN_TAIL_BYTES).map(|_| (rng.next_u64() & 0xFF) as u8));
                true
            }
            ByteFault::DuplicateRange { offset, len } => {
                let (Ok(i), Ok(n)) = (usize::try_from(offset), usize::try_from(len)) else {
                    return false;
                };
                let end = i.saturating_add(n);
                if n == 0 || end > bytes.len() {
                    return false;
                }
                let copy: Vec<u8> = bytes[i..end].to_vec();
                bytes.splice(end..end, copy);
                true
            }
        }
    }
}

/// An ordered list of byte faults, applied left to right (later faults see
/// the damage earlier ones did — exactly like real life).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ByteFaultPlan {
    faults: Vec<ByteFault>,
}

impl ByteFaultPlan {
    /// A plan injecting nothing.
    pub fn empty() -> ByteFaultPlan {
        ByteFaultPlan::default()
    }

    /// Wraps an explicit fault list.
    pub fn new(faults: Vec<ByteFault>) -> ByteFaultPlan {
        ByteFaultPlan { faults }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults, in application order.
    pub fn faults(&self) -> &[ByteFault] {
        &self.faults
    }

    /// Parses a comma-separated list of [`ByteFault::parse`] entries. An
    /// empty spec is the empty plan.
    ///
    /// # Errors
    ///
    /// Propagates the first entry's parse error.
    pub fn parse(spec: &str) -> Result<ByteFaultPlan, String> {
        let mut faults = Vec::new();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            faults.push(ByteFault::parse(raw)?);
        }
        Ok(ByteFaultPlan { faults })
    }

    /// A pseudo-random plan of one to three faults landing inside a stream
    /// of `len` bytes, fully determined by `seed`. A zero-length stream
    /// gets the empty plan (there is nothing to damage).
    pub fn seeded(seed: u64, len: u64) -> ByteFaultPlan {
        if len == 0 {
            return ByteFaultPlan::empty();
        }
        let mut rng = SplitMix64::new(seed ^ 0xB17E_FAA1);
        let n = 1 + rng.next_below(3);
        let faults = (0..n)
            .map(|_| {
                let offset = rng.next_below(len);
                match rng.next_below(4) {
                    0 => ByteFault::BitFlip {
                        offset,
                        bit: (rng.next_below(8)) as u8,
                    },
                    1 => ByteFault::Truncate { offset },
                    2 => ByteFault::TornWrite { offset },
                    _ => ByteFault::DuplicateRange {
                        offset,
                        len: 1 + rng.next_below(256),
                    },
                }
            })
            .collect();
        ByteFaultPlan { faults }
    }

    /// Applies every fault in order; returns how many actually landed
    /// (an out-of-range fault is a no-op, not an error).
    pub fn apply(&self, bytes: &mut Vec<u8>) -> u64 {
        self.faults.iter().filter(|f| f.apply(bytes)).count() as u64
    }
}

impl fmt::Display for ByteFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

fn parse_num(entry: &str, field: &str) -> Result<u64, String> {
    field
        .parse::<u64>()
        .map_err(|_| format!("invalid number '{field}' in byte fault '{entry}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitflip_flips_exactly_one_bit() {
        let mut b = vec![0u8; 4];
        assert!(ByteFault::BitFlip { offset: 2, bit: 7 }.apply(&mut b));
        assert_eq!(b, vec![0, 0, 0x80, 0]);
        // Flipping again restores the original.
        assert!(ByteFault::BitFlip { offset: 2, bit: 7 }.apply(&mut b));
        assert_eq!(b, vec![0u8; 4]);
    }

    #[test]
    fn truncate_and_torn_cut_the_stream() {
        let mut b: Vec<u8> = (0..100).collect();
        assert!(ByteFault::Truncate { offset: 10 }.apply(&mut b));
        assert_eq!(b.len(), 10);
        let mut t: Vec<u8> = (0..100).collect();
        assert!(ByteFault::TornWrite { offset: 10 }.apply(&mut t));
        assert_eq!(t.len(), 10 + TORN_TAIL_BYTES);
        assert_eq!(&t[..10], &b[..]);
    }

    #[test]
    fn torn_tails_are_deterministic() {
        let mk = || {
            let mut t: Vec<u8> = (0..50).collect();
            ByteFault::TornWrite { offset: 20 }.apply(&mut t);
            t
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn duplicate_splices_a_copy_in_place() {
        let mut b = vec![1u8, 2, 3, 4, 5];
        assert!(ByteFault::DuplicateRange { offset: 1, len: 2 }.apply(&mut b));
        assert_eq!(b, vec![1, 2, 3, 2, 3, 4, 5]);
    }

    #[test]
    fn out_of_range_faults_are_no_ops() {
        let mut b = vec![1u8, 2, 3];
        assert!(!ByteFault::BitFlip { offset: 3, bit: 0 }.apply(&mut b));
        assert!(!ByteFault::Truncate { offset: 3 }.apply(&mut b));
        assert!(!ByteFault::TornWrite { offset: 9 }.apply(&mut b));
        assert!(!ByteFault::DuplicateRange { offset: 2, len: 2 }.apply(&mut b));
        assert!(!ByteFault::DuplicateRange { offset: 0, len: 0 }.apply(&mut b));
        assert_eq!(b, vec![1, 2, 3]);
    }

    #[test]
    fn parses_every_form_and_rejects_typos() {
        let plan =
            ByteFaultPlan::parse("bitflip@5@3, truncate@8 ,torn@4,dup@0@16,bitflip@9").unwrap();
        assert_eq!(plan.faults().len(), 5);
        assert_eq!(plan.faults()[0], ByteFault::BitFlip { offset: 5, bit: 3 });
        assert_eq!(plan.faults()[4], ByteFault::BitFlip { offset: 9, bit: 0 });
        for bad in [
            "bitflip",      // missing offset
            "bitflip@x",    // non-numeric offset
            "truncate@1@2", // extra field
            "dup@3",        // missing length
            "shred@1",      // unknown kind
        ] {
            assert!(ByteFaultPlan::parse(bad).is_err(), "{bad:?} accepted");
        }
        assert!(ByteFaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let plan = ByteFaultPlan::parse("bitflip@5@3,truncate@8,torn@4,dup@0@16").unwrap();
        assert_eq!(ByteFaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..50u64 {
            let a = ByteFaultPlan::seeded(seed, 10_000);
            assert_eq!(a, ByteFaultPlan::seeded(seed, 10_000));
            assert!(!a.is_empty() && a.faults().len() <= 3);
            for f in a.faults() {
                let off = match *f {
                    ByteFault::BitFlip { offset, .. }
                    | ByteFault::Truncate { offset }
                    | ByteFault::TornWrite { offset }
                    | ByteFault::DuplicateRange { offset, .. } => offset,
                };
                assert!(off < 10_000);
            }
        }
        assert!(ByteFaultPlan::seeded(1, 0).is_empty());
    }

    #[test]
    fn plan_applies_in_order() {
        // The truncate runs after the flip, so the flip's damage survives
        // only if it landed before the cut.
        let plan = ByteFaultPlan::parse("bitflip@2@0,truncate@4,bitflip@9@1").unwrap();
        let mut b = vec![0u8; 16];
        assert_eq!(plan.apply(&mut b), 2); // the second flip misses
        assert_eq!(b, vec![0, 0, 1, 0]);
    }
}
