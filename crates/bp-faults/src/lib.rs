//! Deterministic fault injection for the HyBP reproduction.
//!
//! HyBP's central latency-hiding claim is a *safety invariant*: a
//! non-stalling code-book refresh may serve stale or partially rewritten
//! index keys, and that must only ever degrade prediction accuracy — never
//! correctness, never a crash, never an observable timing change. This crate
//! provides the machinery to *disturb* the simulated hardware at named sites
//! and let the harnesses in `tests/fault_injection.rs` machine-check that
//! invariant:
//!
//! * SRAM bit flips in the randomized index keys tables ([`FaultHook::on_key_read`]),
//! * bit flips in BTB target payloads and direction-counter reads
//!   ([`FaultHook::on_btb_target`], [`FaultHook::flip_direction`]),
//! * delayed and dropped code-book refreshes ([`FaultHook::on_refresh`]),
//! * access-counter saturation ([`FaultHook::saturate_counter`]),
//! * trace anomalies: dropped or duplicated branch records
//!   ([`FaultHook::on_branch_record`]),
//! * OS disturbances: forced context switches and timer interrupts, e.g. in
//!   the middle of an in-flight refresh ([`FaultHook::on_os_tick`]).
//!
//! Components accept an optional [`FaultInjector`] (a cheaply clonable
//! handle to one shared hook); when absent, the instrumented sites cost one
//! branch on an `Option` and nothing else. [`FaultPlan`] is the standard
//! hook: a seedable, fully deterministic schedule over all fault classes.
//!
//! This crate is the workspace's no-panic exemplar: `unwrap`/`expect`/
//! `panic!` are denied, and every API degrades gracefully.
//!
//! # Examples
//!
//! ```
//! use bp_faults::{FaultInjector, FaultPlan};
//!
//! let plan = FaultPlan::new(7).with_key_bit_flips(100);
//! let injector = FaultInjector::from_plan(plan);
//! // Threaded into a component; every 100th key read flips a stored bit.
//! let flipped = (0..500).filter_map(|_| injector.on_key_read(0, 3, 10, 0)).count();
//! assert_eq!(flipped, 5);
//! assert_eq!(injector.stats().key_bit_flips, 5);
//! ```

#![deny(missing_docs)]

pub mod bytes;
pub mod points;

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use bp_common::rng::SplitMix64;
use bp_common::Cycle;

/// What a component should do with a code-book refresh request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshDisposition {
    /// Perform the refresh normally.
    #[default]
    Proceed,
    /// The SRAM rewrite silently starts this many cycles late (the request
    /// is acknowledged on time, so no timing channel opens; the stale-key
    /// window just grows).
    Delay(Cycle),
    /// The request is lost; the table keeps its previous keys until the
    /// next renewal trigger.
    Drop,
}

/// What the pipeline should do with a fetched branch record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceDisposition {
    /// Process the record normally.
    #[default]
    Keep,
    /// The record is truncated from the trace: fetch it as a plain
    /// instruction and never show it to the predictor.
    Drop,
    /// The record appears twice: the predictor processes it again
    /// back-to-back (retirement still counts it once).
    Duplicate,
}

/// An OS-level disturbance the pipeline injects at a cycle boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OsDisturbance {
    /// Force a scheduler entry (context switch) now, regardless of the
    /// configured interval — e.g. in the middle of an in-flight refresh.
    pub force_context_switch: bool,
    /// Force a timer-interrupt kernel episode now.
    pub force_timer: bool,
}

/// Counters of injected faults, by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Persistent bit flips applied to stored index keys.
    pub key_bit_flips: u64,
    /// Bit flips applied to BTB target payloads on read.
    pub btb_target_flips: u64,
    /// Direction predictions inverted on read.
    pub direction_flips: u64,
    /// Refreshes whose SRAM rewrite was delayed.
    pub refreshes_delayed: u64,
    /// Refresh requests dropped entirely.
    pub refreshes_dropped: u64,
    /// Access counters forced to saturation.
    pub counters_saturated: u64,
    /// Branch records truncated from the trace.
    pub records_dropped: u64,
    /// Branch records duplicated in the trace.
    pub records_duplicated: u64,
    /// Context switches forced outside the schedule.
    pub forced_context_switches: u64,
    /// Timer interrupts forced outside the schedule.
    pub forced_timers: u64,
}

impl FaultStats {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.key_bit_flips
            + self.btb_target_flips
            + self.direction_flips
            + self.refreshes_delayed
            + self.refreshes_dropped
            + self.counters_saturated
            + self.records_dropped
            + self.records_duplicated
            + self.forced_context_switches
            + self.forced_timers
    }
}

/// A disturbance source consulted at the instrumented sites.
///
/// Every method has a no-op default, so a hook implements only the classes
/// it cares about. Implementations must be deterministic for reproducible
/// runs.
pub trait FaultHook: fmt::Debug {
    /// Called on every index-key read. Returning `Some(bit)` flips that bit
    /// of the *stored* key (persistent SRAM corruption); `bit` is taken
    /// modulo `key_bits` by the caller.
    fn on_key_read(&mut self, slot: usize, entry: usize, key_bits: u32, now: Cycle) -> Option<u32> {
        let _ = (slot, entry, key_bits, now);
        None
    }

    /// Called when a slot's code-book refresh is requested.
    fn on_refresh(&mut self, slot: usize, now: Cycle) -> RefreshDisposition {
        let _ = (slot, now);
        RefreshDisposition::Proceed
    }

    /// Called on every counted access, once per predicted branch
    /// (`KeyManager::count_access`). Returning `true` saturates the slot's
    /// access counter, forcing an immediate renewal.
    fn saturate_counter(&mut self, slot: usize, now: Cycle) -> bool {
        let _ = (slot, now);
        false
    }

    /// Called on every BTB target read that hit. Returning `Some(bit)`
    /// flips that bit of the predicted target (transient payload
    /// corruption; the stored entry is unchanged).
    fn on_btb_target(&mut self, target: u64, now: Cycle) -> Option<u32> {
        let _ = (target, now);
        None
    }

    /// Called on every conditional direction prediction. Returning `true`
    /// inverts the predicted direction (transient counter-read corruption).
    fn flip_direction(&mut self, now: Cycle) -> bool {
        let _ = now;
        false
    }

    /// Called when the pipeline pulls a branch record from a trace
    /// generator.
    fn on_branch_record(&mut self, hw: usize, now: Cycle) -> TraceDisposition {
        let _ = (hw, now);
        TraceDisposition::Keep
    }

    /// Called once per simulated cycle per user-mode hardware thread.
    fn on_os_tick(&mut self, hw: usize, now: Cycle) -> OsDisturbance {
        let _ = (hw, now);
        OsDisturbance::default()
    }

    /// Injection counters accumulated so far.
    fn stats(&self) -> FaultStats {
        FaultStats::default()
    }
}

/// The trivial hook: injects nothing. Useful as an explicit placeholder.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultHook for NoFaults {}

/// Periodic schedule state for one fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Every {
    period: u64,
    count: u64,
}

impl Every {
    fn new(period: u64) -> Option<Self> {
        (period > 0).then_some(Every { period, count: 0 })
    }

    /// Counts one event; true on every `period`-th.
    fn fire(this: &mut Option<Self>) -> bool {
        match this {
            Some(e) => {
                e.count += 1;
                if e.count >= e.period {
                    e.count = 0;
                    true
                } else {
                    false
                }
            }
            None => false,
        }
    }
}

/// A deterministic, seedable schedule of faults across all classes.
///
/// Built with `with_*` methods; classes left unconfigured are never
/// injected. All pseudo-randomness (which bit to flip) derives from the
/// seed, so a plan replays exactly.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: SplitMix64,
    key_flip: Option<Every>,
    btb_flip: Option<Every>,
    dir_flip: Option<Every>,
    refresh_delay: Option<Every>,
    refresh_delay_cycles: Cycle,
    refresh_drop: Option<Every>,
    counter_saturate: Option<Every>,
    record_drop: Option<Every>,
    record_dup: Option<Every>,
    force_cs_period: Option<Cycle>,
    force_timer_period: Option<Cycle>,
    next_forced_cs: Vec<Cycle>,
    next_forced_timer: Vec<Cycle>,
    stats: FaultStats,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: SplitMix64::new(seed ^ 0xFA01_75EED),
            key_flip: None,
            btb_flip: None,
            dir_flip: None,
            refresh_delay: None,
            refresh_delay_cycles: 0,
            refresh_drop: None,
            counter_saturate: None,
            record_drop: None,
            record_dup: None,
            force_cs_period: None,
            force_timer_period: None,
            next_forced_cs: Vec::new(),
            next_forced_timer: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Flip a pseudo-random stored key bit on every `period`-th key read.
    pub fn with_key_bit_flips(mut self, period: u64) -> Self {
        self.key_flip = Every::new(period);
        self
    }

    /// Flip a pseudo-random target bit on every `period`-th BTB hit.
    pub fn with_btb_target_flips(mut self, period: u64) -> Self {
        self.btb_flip = Every::new(period);
        self
    }

    /// Invert every `period`-th direction prediction.
    pub fn with_direction_flips(mut self, period: u64) -> Self {
        self.dir_flip = Every::new(period);
        self
    }

    /// Delay the SRAM rewrite of every `period`-th refresh by `delay`
    /// cycles.
    pub fn with_refresh_delays(mut self, period: u64, delay: Cycle) -> Self {
        self.refresh_delay = Every::new(period);
        self.refresh_delay_cycles = delay;
        self
    }

    /// Drop every `period`-th refresh request.
    pub fn with_refresh_drops(mut self, period: u64) -> Self {
        self.refresh_drop = Every::new(period);
        self
    }

    /// Saturate the access counter on every `period`-th counted access.
    pub fn with_counter_saturation(mut self, period: u64) -> Self {
        self.counter_saturate = Every::new(period);
        self
    }

    /// Truncate every `period`-th branch record from the trace.
    pub fn with_record_drops(mut self, period: u64) -> Self {
        self.record_drop = Every::new(period);
        self
    }

    /// Duplicate every `period`-th branch record.
    pub fn with_record_duplicates(mut self, period: u64) -> Self {
        self.record_dup = Every::new(period);
        self
    }

    /// Force a context switch on every hardware thread every `period`
    /// cycles (on top of the configured schedule).
    pub fn with_forced_context_switches(mut self, period: Cycle) -> Self {
        self.force_cs_period = (period > 0).then_some(period);
        self
    }

    /// Force a timer interrupt on every hardware thread every `period`
    /// cycles.
    pub fn with_forced_timers(mut self, period: Cycle) -> Self {
        self.force_timer_period = (period > 0).then_some(period);
        self
    }

    fn forced_due(next: &mut Vec<Cycle>, hw: usize, now: Cycle, period: Cycle) -> bool {
        if next.len() <= hw {
            next.resize(hw + 1, period);
        }
        if now >= next[hw] {
            next[hw] = now + period;
            true
        } else {
            false
        }
    }
}

impl FaultHook for FaultPlan {
    fn on_key_read(
        &mut self,
        _slot: usize,
        _entry: usize,
        key_bits: u32,
        _now: Cycle,
    ) -> Option<u32> {
        if Every::fire(&mut self.key_flip) {
            self.stats.key_bit_flips += 1;
            Some(self.rng.next_below(u64::from(key_bits.max(1))) as u32)
        } else {
            None
        }
    }

    fn on_refresh(&mut self, _slot: usize, _now: Cycle) -> RefreshDisposition {
        if Every::fire(&mut self.refresh_drop) {
            self.stats.refreshes_dropped += 1;
            return RefreshDisposition::Drop;
        }
        if Every::fire(&mut self.refresh_delay) {
            self.stats.refreshes_delayed += 1;
            return RefreshDisposition::Delay(self.refresh_delay_cycles);
        }
        RefreshDisposition::Proceed
    }

    fn saturate_counter(&mut self, _slot: usize, _now: Cycle) -> bool {
        if Every::fire(&mut self.counter_saturate) {
            self.stats.counters_saturated += 1;
            true
        } else {
            false
        }
    }

    fn on_btb_target(&mut self, _target: u64, _now: Cycle) -> Option<u32> {
        if Every::fire(&mut self.btb_flip) {
            self.stats.btb_target_flips += 1;
            // Flip within the low 32 bits: keeps the corrupted target in a
            // plausible code region while guaranteeing a mismatch.
            Some(self.rng.next_below(32) as u32)
        } else {
            None
        }
    }

    fn flip_direction(&mut self, _now: Cycle) -> bool {
        if Every::fire(&mut self.dir_flip) {
            self.stats.direction_flips += 1;
            true
        } else {
            false
        }
    }

    fn on_branch_record(&mut self, _hw: usize, _now: Cycle) -> TraceDisposition {
        if Every::fire(&mut self.record_drop) {
            self.stats.records_dropped += 1;
            return TraceDisposition::Drop;
        }
        if Every::fire(&mut self.record_dup) {
            self.stats.records_duplicated += 1;
            return TraceDisposition::Duplicate;
        }
        TraceDisposition::Keep
    }

    fn on_os_tick(&mut self, hw: usize, now: Cycle) -> OsDisturbance {
        let mut d = OsDisturbance::default();
        if let Some(period) = self.force_cs_period {
            if Self::forced_due(&mut self.next_forced_cs, hw, now, period) {
                self.stats.forced_context_switches += 1;
                d.force_context_switch = true;
            }
        }
        if let Some(period) = self.force_timer_period {
            if Self::forced_due(&mut self.next_forced_timer, hw, now, period) {
                self.stats.forced_timers += 1;
                d.force_timer = true;
            }
        }
        d
    }

    fn stats(&self) -> FaultStats {
        self.stats
    }
}

/// A cheaply clonable handle to one shared [`FaultHook`].
///
/// One injector is threaded through the keys tables, the BPU and the
/// pipeline so that a single plan coordinates faults across layers (and a
/// single [`FaultStats`] accounts for all of them). Forwarding methods
/// tolerate re-entrant borrows by degrading to the no-op disposition —
/// injection machinery must never be able to crash the system under test.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    hook: Rc<RefCell<dyn FaultHook>>,
}

impl FaultInjector {
    /// Wraps any hook.
    pub fn new(hook: impl FaultHook + 'static) -> Self {
        FaultInjector {
            hook: Rc::new(RefCell::new(hook)),
        }
    }

    /// Wraps a [`FaultPlan`].
    pub fn from_plan(plan: FaultPlan) -> Self {
        Self::new(plan)
    }

    /// See [`FaultHook::on_key_read`].
    pub fn on_key_read(&self, slot: usize, entry: usize, key_bits: u32, now: Cycle) -> Option<u32> {
        match self.hook.try_borrow_mut() {
            Ok(mut h) => h.on_key_read(slot, entry, key_bits, now),
            Err(_) => None,
        }
    }

    /// See [`FaultHook::on_refresh`].
    pub fn on_refresh(&self, slot: usize, now: Cycle) -> RefreshDisposition {
        match self.hook.try_borrow_mut() {
            Ok(mut h) => h.on_refresh(slot, now),
            Err(_) => RefreshDisposition::Proceed,
        }
    }

    /// See [`FaultHook::saturate_counter`].
    pub fn saturate_counter(&self, slot: usize, now: Cycle) -> bool {
        match self.hook.try_borrow_mut() {
            Ok(mut h) => h.saturate_counter(slot, now),
            Err(_) => false,
        }
    }

    /// See [`FaultHook::on_btb_target`].
    pub fn on_btb_target(&self, target: u64, now: Cycle) -> Option<u32> {
        match self.hook.try_borrow_mut() {
            Ok(mut h) => h.on_btb_target(target, now),
            Err(_) => None,
        }
    }

    /// See [`FaultHook::flip_direction`].
    pub fn flip_direction(&self, now: Cycle) -> bool {
        match self.hook.try_borrow_mut() {
            Ok(mut h) => h.flip_direction(now),
            Err(_) => false,
        }
    }

    /// See [`FaultHook::on_branch_record`].
    pub fn on_branch_record(&self, hw: usize, now: Cycle) -> TraceDisposition {
        match self.hook.try_borrow_mut() {
            Ok(mut h) => h.on_branch_record(hw, now),
            Err(_) => TraceDisposition::Keep,
        }
    }

    /// See [`FaultHook::on_os_tick`].
    pub fn on_os_tick(&self, hw: usize, now: Cycle) -> OsDisturbance {
        match self.hook.try_borrow_mut() {
            Ok(mut h) => h.on_os_tick(hw, now),
            Err(_) => OsDisturbance::default(),
        }
    }

    /// See [`FaultHook::stats`].
    pub fn stats(&self) -> FaultStats {
        match self.hook.try_borrow() {
            Ok(h) => h.stats(),
            Err(_) => FaultStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let inj = FaultInjector::from_plan(FaultPlan::new(1));
        for i in 0..1000u64 {
            assert_eq!(inj.on_key_read(0, i as usize, 10, i), None);
            assert_eq!(inj.on_refresh(0, i), RefreshDisposition::Proceed);
            assert!(!inj.saturate_counter(0, i));
            assert_eq!(inj.on_btb_target(0xF00, i), None);
            assert!(!inj.flip_direction(i));
            assert_eq!(inj.on_branch_record(0, i), TraceDisposition::Keep);
            assert_eq!(inj.on_os_tick(0, i), OsDisturbance::default());
        }
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn key_flips_follow_the_period() {
        let inj = FaultInjector::from_plan(FaultPlan::new(3).with_key_bit_flips(10));
        let flips: Vec<bool> = (0..40)
            .map(|i| inj.on_key_read(0, i, 10, 0).is_some())
            .collect();
        assert_eq!(flips.iter().filter(|&&f| f).count(), 4);
        // Every 10th read, i.e. indices 9, 19, 29, 39.
        assert!(flips[9] && flips[19] && flips[29] && flips[39]);
        assert_eq!(inj.stats().key_bit_flips, 4);
    }

    #[test]
    fn flipped_bits_stay_in_key_width() {
        let inj = FaultInjector::from_plan(FaultPlan::new(9).with_key_bit_flips(1));
        for i in 0..200 {
            if let Some(bit) = inj.on_key_read(0, i, 10, 0) {
                assert!(bit < 10, "bit {bit} outside a 10-bit key");
            }
        }
    }

    #[test]
    fn plans_replay_deterministically() {
        let mk = || FaultInjector::from_plan(FaultPlan::new(42).with_btb_target_flips(3));
        let (a, b) = (mk(), mk());
        for i in 0..100u64 {
            assert_eq!(a.on_btb_target(0x4000, i), b.on_btb_target(0x4000, i));
        }
    }

    #[test]
    fn refresh_drop_takes_priority_over_delay() {
        let inj = FaultInjector::from_plan(
            FaultPlan::new(5)
                .with_refresh_drops(2)
                .with_refresh_delays(1, 100),
        );
        let first = inj.on_refresh(0, 0);
        let second = inj.on_refresh(0, 10);
        assert_eq!(first, RefreshDisposition::Delay(100));
        assert_eq!(second, RefreshDisposition::Drop);
        let s = inj.stats();
        assert_eq!(s.refreshes_delayed, 1);
        assert_eq!(s.refreshes_dropped, 1);
    }

    #[test]
    fn trace_dispositions_fire() {
        let inj = FaultInjector::from_plan(
            FaultPlan::new(6)
                .with_record_drops(5)
                .with_record_duplicates(3),
        );
        let mut drops = 0;
        let mut dups = 0;
        for i in 0..60 {
            match inj.on_branch_record(0, i) {
                TraceDisposition::Drop => drops += 1,
                TraceDisposition::Duplicate => dups += 1,
                TraceDisposition::Keep => {}
            }
        }
        assert!(drops >= 10, "drops {drops}");
        assert!(dups >= 10, "dups {dups}");
        assert_eq!(inj.stats().records_dropped, drops);
        assert_eq!(inj.stats().records_duplicated, dups);
    }

    #[test]
    fn forced_os_events_respect_period_per_thread() {
        let inj = FaultInjector::from_plan(FaultPlan::new(8).with_forced_context_switches(100));
        let mut fired = [0u32; 2];
        for now in 0..1000u64 {
            for (hw, count) in fired.iter_mut().enumerate() {
                if inj.on_os_tick(hw, now).force_context_switch {
                    *count += 1;
                }
            }
        }
        // First firing at now == period, then every `period` cycles.
        assert_eq!(fired, [9, 9]);
        assert_eq!(inj.stats().forced_context_switches, 18);
    }

    #[test]
    fn counter_saturation_fires() {
        let inj = FaultInjector::from_plan(FaultPlan::new(2).with_counter_saturation(4));
        let fired = (0..20).filter(|&i| inj.saturate_counter(0, i)).count();
        assert_eq!(fired, 5);
    }

    #[test]
    fn custom_hooks_work_through_the_injector() {
        #[derive(Debug)]
        struct AlwaysFlip;
        impl FaultHook for AlwaysFlip {
            fn flip_direction(&mut self, _now: Cycle) -> bool {
                true
            }
        }
        let inj = FaultInjector::new(AlwaysFlip);
        assert!(inj.flip_direction(0));
        assert_eq!(inj.on_btb_target(1, 0), None, "unimplemented hooks default");
    }
}
