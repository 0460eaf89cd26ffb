//! Shared foundation types for the HyBP secure branch predictor reproduction.
//!
//! This crate holds everything the other crates in the workspace agree on:
//!
//! * strongly typed identifiers for the security-relevant execution context
//!   ([`HwThreadId`], [`Asid`], [`Privilege`], [`SecurityDomain`]),
//! * branch-stream vocabulary ([`Addr`], [`BranchKind`], [`BranchRecord`]),
//! * deterministic, seedable PRNGs used by every simulation component
//!   ([`rng::SplitMix64`], [`rng::Xoshiro256StarStar`]),
//! * branch-history registers ([`history::GlobalHistory`], [`history::PathHistory`]),
//! * statistics helpers ([`stats`]),
//! * typed configuration errors ([`error::ConfigError`]),
//! * strict CLI value parsing with one shared error shape ([`parse`]),
//! * a deterministic, dependency-free property-check harness ([`check`]),
//! * a scoped worker pool with an order-preserving `par_map`
//!   ([`pool::Pool`]),
//! * the unified observation layer ([`telemetry`]): structured events on
//!   the virtual cycle clock, the zero-overhead-when-disabled
//!   [`telemetry::Telemetry`] sink handle, and the [`telemetry::Observable`]
//!   snapshot trait every instrumented subsystem implements.
//!
//! # Examples
//!
//! ```
//! use bp_common::{Addr, Privilege, SecurityDomain, HwThreadId, Asid};
//!
//! let dom = SecurityDomain::new(HwThreadId::new(0), Asid::new(42), Privilege::User);
//! assert_eq!(dom.privilege(), Privilege::User);
//! let pc = Addr::new(0x4000_1234);
//! assert_eq!(pc.bits(2, 10), (0x4000_1234u64 >> 2) & 0x3ff);
//! ```

pub mod check;
pub mod error;
pub mod history;
pub mod parse;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod telemetry;

pub use error::ConfigError;
pub use telemetry::{Observable, Telemetry, TelemetryEvent, TelemetrySnapshot};

use std::fmt;

/// `x % m`, taking the mask fast path when `m` is a power of two.
///
/// Every predictor table in the model has a power-of-two geometry, so the
/// hot paths fold indices with an AND instead of a hardware divide; the
/// modulo fallback keeps the function total (and exact) for any `m`.
/// Returns 0 for `m == 0` rather than dividing by zero — table sizes are
/// validated non-zero at construction, so that case is a caller bug that
/// should still not abort a simulation.
#[inline]
#[must_use]
pub fn fast_mod(x: u64, m: u64) -> u64 {
    if m.is_power_of_two() {
        x & (m - 1)
    } else if m == 0 {
        0
    } else {
        x % m
    }
}

/// [`fast_mod`] over `usize` operands (slot and vector-length folding).
#[inline]
#[must_use]
pub fn fast_mod_usize(x: usize, m: usize) -> usize {
    fast_mod(x as u64, m as u64) as usize
}

/// A 64-bit instruction or data address.
///
/// Newtype so that raw integers, set indices and addresses cannot be mixed up
/// accidentally (C-NEWTYPE).
///
/// # Examples
///
/// ```
/// use bp_common::Addr;
/// let a = Addr::new(0xdead_beef);
/// assert_eq!(a.raw(), 0xdead_beef);
/// assert_eq!(a.bits(4, 8), 0xee);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from its raw 64-bit value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Extracts `count` bits starting at bit `lo` (little-endian bit order).
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or greater than 64.
    pub const fn bits(self, lo: u32, count: u32) -> u64 {
        assert!(count > 0 && count <= 64);
        let shifted = self.0 >> lo;
        if count == 64 {
            shifted
        } else {
            shifted & ((1u64 << count) - 1)
        }
    }

    /// Returns the address advanced by `delta` bytes, wrapping on overflow.
    pub const fn wrapping_add(self, delta: u64) -> Self {
        Addr(self.0.wrapping_add(delta))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

/// Identifier of a *hardware* SMT thread (0 or 1 on the modeled SMT-2 core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HwThreadId(u8);

impl HwThreadId {
    /// Creates a hardware thread id.
    pub const fn new(id: u8) -> Self {
        HwThreadId(id)
    }

    /// Returns the raw id.
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// Returns the id as a usize index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HwThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hwt{}", self.0)
    }
}

/// Address-space identifier of a *software* thread/process.
///
/// Used together with the VMID and a hardware random value to derive the index
/// seed of the randomized keys table (paper §V-C1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asid(u16);

impl Asid {
    /// Creates an ASID.
    pub const fn new(id: u16) -> Self {
        Asid(id)
    }

    /// Returns the raw id.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for Asid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asid{}", self.0)
    }
}

/// Virtual-machine identifier (part of the index-seed derivation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vmid(u16);

impl Vmid {
    /// Creates a VMID.
    pub const fn new(id: u16) -> Self {
        Vmid(id)
    }

    /// Returns the raw id.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

/// Processor privilege level.
///
/// HyBP physically isolates predictor state per `(hardware thread, privilege)`
/// combination, so privilege is part of the [`SecurityDomain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Privilege {
    /// User mode (ring 3 / U-mode).
    #[default]
    User,
    /// Kernel mode (ring 0 / S-mode).
    Kernel,
}

impl Privilege {
    /// All privilege levels, in a stable order.
    pub const ALL: [Privilege; 2] = [Privilege::User, Privilege::Kernel];

    /// Returns a dense index (User = 0, Kernel = 1).
    pub const fn index(self) -> usize {
        match self {
            Privilege::User => 0,
            Privilege::Kernel => 1,
        }
    }
}

impl fmt::Display for Privilege {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Privilege::User => f.write_str("user"),
            Privilege::Kernel => f.write_str("kernel"),
        }
    }
}

/// The security context a branch executes in.
///
/// The paper's protection granularity: physical isolation replicates tables per
/// `(hardware thread, privilege)`, and randomization keys are selected per
/// software thread (`Asid`) and privilege. This struct carries all three.
///
/// # Examples
///
/// ```
/// use bp_common::{SecurityDomain, HwThreadId, Asid, Privilege};
/// let d = SecurityDomain::new(HwThreadId::new(1), Asid::new(7), Privilege::Kernel);
/// assert_eq!(d.isolation_slot(), 3); // hw thread 1, kernel
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SecurityDomain {
    hw_thread: HwThreadId,
    asid: Asid,
    privilege: Privilege,
}

impl SecurityDomain {
    /// Creates a security domain.
    pub const fn new(hw_thread: HwThreadId, asid: Asid, privilege: Privilege) -> Self {
        SecurityDomain {
            hw_thread,
            asid,
            privilege,
        }
    }

    /// The hardware thread this domain runs on.
    pub const fn hw_thread(self) -> HwThreadId {
        self.hw_thread
    }

    /// The software address-space id.
    pub const fn asid(self) -> Asid {
        self.asid
    }

    /// The privilege level.
    pub const fn privilege(self) -> Privilege {
        self.privilege
    }

    /// Returns the same domain with a different privilege level.
    pub const fn with_privilege(self, privilege: Privilege) -> Self {
        SecurityDomain { privilege, ..self }
    }

    /// Returns the same domain with a different software thread.
    pub const fn with_asid(self, asid: Asid) -> Self {
        SecurityDomain { asid, ..self }
    }

    /// Dense index over `(hardware thread, privilege)` used to select a
    /// physically isolated table replica. For an SMT-`n` core there are
    /// `2 * n` slots.
    pub const fn isolation_slot(self) -> usize {
        self.hw_thread.index() * 2 + self.privilege.index()
    }

    /// Number of isolation slots for a core with `n_hw_threads` SMT threads.
    pub const fn slot_count(n_hw_threads: usize) -> usize {
        n_hw_threads * 2
    }
}

impl fmt::Display for SecurityDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.hw_thread, self.asid, self.privilege)
    }
}

/// The kind of a control-flow instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch.
    Conditional,
    /// Unconditional direct branch/jump.
    Direct,
    /// Indirect jump through a register (target varies).
    Indirect,
    /// Direct call (pushes a return address).
    Call,
    /// Return (pops a return address).
    Return,
}

impl BranchKind {
    /// Whether the branch has a direction to predict (only conditionals do).
    pub const fn is_conditional(self) -> bool {
        matches!(self, BranchKind::Conditional)
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchKind::Conditional => "cond",
            BranchKind::Direct => "direct",
            BranchKind::Indirect => "indirect",
            BranchKind::Call => "call",
            BranchKind::Return => "return",
        };
        f.write_str(s)
    }
}

/// One dynamic branch instance in an instruction stream.
///
/// The workload generators emit these; the pipeline feeds them to the branch
/// prediction unit and charges cycles for mispredictions and BTB misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchRecord {
    /// PC of the branch instruction.
    pub pc: Addr,
    /// Kind of control transfer.
    pub kind: BranchKind,
    /// Actual target if taken.
    pub target: Addr,
    /// Actual direction (always `true` for unconditional kinds).
    pub taken: bool,
    /// Number of non-branch instructions preceding this branch since the
    /// previous branch (used by the pipeline to account fetch bandwidth).
    pub gap: u32,
}

impl BranchRecord {
    /// Creates a conditional branch record.
    pub fn conditional(pc: Addr, target: Addr, taken: bool, gap: u32) -> Self {
        BranchRecord {
            pc,
            kind: BranchKind::Conditional,
            target,
            taken,
            gap,
        }
    }

    /// Creates an always-taken control transfer of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`BranchKind::Conditional`]; use
    /// [`BranchRecord::conditional`] for those.
    pub fn unconditional(pc: Addr, kind: BranchKind, target: Addr, gap: u32) -> Self {
        assert!(
            !kind.is_conditional(),
            "use BranchRecord::conditional for conditional branches"
        );
        BranchRecord {
            pc,
            kind,
            target,
            taken: true,
            gap,
        }
    }
}

/// A cycle count. Plain alias: arithmetic on cycles is pervasive in the
/// pipeline model and a newtype would add noise without catching real bugs.
pub type Cycle = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_bit_extraction() {
        let a = Addr::new(0b1111_0000_1010);
        assert_eq!(a.bits(0, 4), 0b1010);
        assert_eq!(a.bits(4, 4), 0b0000);
        assert_eq!(a.bits(8, 4), 0b1111);
        assert_eq!(a.bits(0, 64), 0b1111_0000_1010);
    }

    #[test]
    fn addr_display_is_hex() {
        assert_eq!(Addr::new(0xff).to_string(), "0xff");
    }

    #[test]
    fn addr_roundtrip_u64() {
        let a = Addr::from(12345u64);
        assert_eq!(u64::from(a), 12345);
    }

    #[test]
    fn isolation_slots_are_dense_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for t in 0..2u8 {
            for p in Privilege::ALL {
                let d = SecurityDomain::new(HwThreadId::new(t), Asid::new(0), p);
                assert!(seen.insert(d.isolation_slot()));
                assert!(d.isolation_slot() < SecurityDomain::slot_count(2));
            }
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn domain_with_privilege_changes_only_privilege() {
        let d = SecurityDomain::new(HwThreadId::new(1), Asid::new(9), Privilege::User);
        let k = d.with_privilege(Privilege::Kernel);
        assert_eq!(k.hw_thread(), d.hw_thread());
        assert_eq!(k.asid(), d.asid());
        assert_eq!(k.privilege(), Privilege::Kernel);
    }

    #[test]
    fn branch_kind_conditional_detection() {
        assert!(BranchKind::Conditional.is_conditional());
        assert!(!BranchKind::Indirect.is_conditional());
        assert!(!BranchKind::Return.is_conditional());
    }

    #[test]
    #[should_panic(expected = "conditional")]
    fn unconditional_record_rejects_conditional_kind() {
        let _ = BranchRecord::unconditional(Addr::new(0), BranchKind::Conditional, Addr::new(4), 0);
    }

    #[test]
    fn unconditional_records_are_taken() {
        let r = BranchRecord::unconditional(Addr::new(0x10), BranchKind::Call, Addr::new(0x40), 3);
        assert!(r.taken);
        assert_eq!(r.gap, 3);
    }
}
