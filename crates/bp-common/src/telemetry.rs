//! Unified observation layer: counters, span timing, and structured events.
//!
//! Every layer of the reproduction produces observations — BTB hit levels,
//! code-book refresh windows, pipeline stall attribution, cache health,
//! pool throughput — but until this module they surfaced through four
//! differently-shaped accessor APIs. This module provides the common
//! vocabulary:
//!
//! * [`TelemetryEvent`] — one structured occurrence on the simulation's
//!   *virtual cycle* clock (a [`Span`](EventKind::Span) covering a cycle
//!   interval, or a point [`Mark`](EventKind::Mark) carrying a value).
//!   Events order by **content**, cycle first, so a globally sorted event
//!   stream is identical no matter which worker produced which event in
//!   what wall-clock order — the property the byte-identical JSONL export
//!   rests on.
//! * [`Telemetry`] — a cheap, cloneable handle to an event sink. The
//!   disabled handle is a `None` and every emission path is an inlined
//!   early return: no allocation, no locking, no formatting. The
//!   simulation emits only rare-event spans (context switches, key
//!   renewals), never one per branch; `tests/telemetry_invariants.rs`
//!   pins that count.
//! * [`Histogram`] — power-of-two bucketed value distribution for cheap
//!   latency/size summaries.
//! * [`TelemetrySnapshot`] and the [`Observable`] trait — the single
//!   end-of-run aggregate surface. Anything that used to expose bespoke
//!   `stats()`-style accessors now answers `snapshot()` with named
//!   counters in a deterministic (sorted) order.
//! * [`jsonl_line`] / [`parse_jsonl_line`] — the stable on-disk event
//!   schema and its strict validator.
//!
//! # Examples
//!
//! ```
//! use bp_common::telemetry::{EventKind, Telemetry};
//!
//! let sink = Telemetry::ring(1024);
//! sink.span(200, "keys", "refresh", 200, 463, 1);
//! sink.mark(500, "sim", "ctx_switches", 3, 0);
//! let mut events = sink.drain();
//! events.sort_unstable();
//! assert_eq!(events.len(), 2);
//! assert!(matches!(events[0].kind, EventKind::Span { end: 463, .. }));
//!
//! let disabled = Telemetry::disabled();
//! disabled.mark(1, "sim", "ignored", 1, 0); // no-op, no allocation
//! assert!(!disabled.is_enabled());
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::Cycle;

/// What a [`TelemetryEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// An interval on the virtual cycle clock: `[start, end)` in the
    /// emitter's own timing convention (documented per emitter).
    Span {
        /// First cycle of the interval.
        start: Cycle,
        /// Cycle the interval completes.
        end: Cycle,
        /// Emitter-defined lane (isolation slot, hardware thread, ...).
        slot: u64,
    },
    /// A point observation carrying one value.
    Mark {
        /// The observed value.
        value: u64,
        /// Emitter-defined lane (isolation slot, hardware thread, ...).
        slot: u64,
    },
}

/// One structured observation on the virtual cycle clock.
///
/// Field order matters: the derived [`Ord`] compares `cycle` first, then
/// scope, name and kind, so sorting a collection of events yields a
/// deterministic stream regardless of emission or collection order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TelemetryEvent {
    /// Virtual cycle the event is anchored to (for spans: the start).
    pub cycle: Cycle,
    /// Emitting subsystem: `"keys"`, `"sim"`, `"bpu"`, `"bench"`, ...
    pub scope: &'static str,
    /// Event name within the scope: `"refresh"`, `"ctx_switch_stall"`, ...
    pub name: &'static str,
    /// Payload.
    pub kind: EventKind,
}

impl TelemetryEvent {
    /// The span interval `[start, end)`, if this event is a span.
    pub fn span_bounds(&self) -> Option<(Cycle, Cycle)> {
        match self.kind {
            EventKind::Span { start, end, .. } => Some((start, end)),
            EventKind::Mark { .. } => None,
        }
    }

    /// Cycles this event's span shares with `[start, end)`; 0 for marks.
    pub fn span_overlap(&self, start: Cycle, end: Cycle) -> Cycle {
        match self.span_bounds() {
            Some((s, e)) => e.min(end).saturating_sub(s.max(start)),
            None => 0,
        }
    }
}

/// Shared state behind an enabled [`Telemetry`] handle.
#[derive(Debug)]
struct SinkInner {
    capacity: usize,
    events: Mutex<Vec<TelemetryEvent>>,
    dropped: AtomicU64,
}

/// A cheap, cloneable handle to an event sink.
///
/// Clones share the same buffer, so one sink can be handed to every layer
/// of a simulation and drained once at the end. The disabled handle makes
/// every emission an inlined early return.
#[derive(Debug, Clone, Default)]
pub struct Telemetry(Option<Arc<SinkInner>>);

impl Telemetry {
    /// The no-op sink: every emission returns immediately.
    pub const fn disabled() -> Telemetry {
        Telemetry(None)
    }

    /// An in-memory sink bounded at `capacity` events. Once full, further
    /// events are counted in [`Telemetry::dropped`] instead of stored, so
    /// a hot emitter cannot exhaust memory. Zero is clamped to one.
    pub fn ring(capacity: usize) -> Telemetry {
        Telemetry(Some(Arc::new(SinkInner {
            capacity: capacity.max(1),
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })))
    }

    /// Whether emissions are recorded. The disabled fast path is the
    /// zero-overhead contract: callers may emit unconditionally.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one event (or drops it when the ring is full).
    #[inline]
    pub fn emit(&self, event: TelemetryEvent) {
        let Some(inner) = &self.0 else { return };
        // A panicking emitter cannot leave the Vec mid-mutation (push and
        // take are atomic w.r.t. unwinds), so a poisoned lock's data is
        // still sound: keep observing rather than propagating the panic.
        let mut events = inner
            .events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if events.len() < inner.capacity {
            events.push(event);
        } else {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Emits a [`EventKind::Span`] anchored at `cycle`.
    #[inline]
    pub fn span(
        &self,
        cycle: Cycle,
        scope: &'static str,
        name: &'static str,
        start: Cycle,
        end: Cycle,
        slot: u64,
    ) {
        if self.0.is_none() {
            return;
        }
        self.emit(TelemetryEvent {
            cycle,
            scope,
            name,
            kind: EventKind::Span { start, end, slot },
        });
    }

    /// Emits a [`EventKind::Mark`] anchored at `cycle`.
    #[inline]
    pub fn mark(
        &self,
        cycle: Cycle,
        scope: &'static str,
        name: &'static str,
        value: u64,
        slot: u64,
    ) {
        if self.0.is_none() {
            return;
        }
        self.emit(TelemetryEvent {
            cycle,
            scope,
            name,
            kind: EventKind::Mark { value, slot },
        });
    }

    /// Removes and returns every buffered event, in emission order.
    pub fn drain(&self) -> Vec<TelemetryEvent> {
        match &self.0 {
            Some(inner) => std::mem::take(
                &mut *inner
                    .events
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            ),
            None => Vec::new(),
        }
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        match &self.0 {
            Some(inner) => inner.dropped.load(Ordering::Relaxed),
            None => 0,
        }
    }
}

/// A power-of-two bucketed histogram of `u64` observations.
///
/// Bucket `i` counts values whose bit length is `i` (bucket 0: value 0,
/// bucket 1: value 1, bucket 2: values 2–3, ...), which summarizes
/// latencies and sizes spanning many orders of magnitude in fixed space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[(64 - value.leading_zeros()) as usize] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Count in the bucket for values of bit length `bits` (0..=64).
    pub fn bucket(&self, bits: usize) -> u64 {
        self.buckets[bits]
    }

    /// Smallest upper bound `2^k` such that at least `q` (in `0.0..=1.0`)
    /// of the observations are `< 2^k`; `None` when empty.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let threshold = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (bits, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= threshold {
                return Some(if bits >= 64 { u64::MAX } else { 1u64 << bits });
            }
        }
        Some(u64::MAX)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A last-value gauge that also remembers its peak — the shape shard
/// health reporting needs (current queue depth vs. worst queue depth) in
/// two words of state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Gauge {
    current: u64,
    peak: u64,
    samples: u64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge {
            current: 0,
            peak: 0,
            samples: 0,
        }
    }

    /// Records the gauge's new value.
    #[inline]
    pub fn set(&mut self, value: u64) {
        self.current = value;
        self.peak = self.peak.max(value);
        self.samples += 1;
    }

    /// The most recently recorded value.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// The largest value ever recorded.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// How many times the gauge was set.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Coarse component health, ordered worst-last so [`Readiness::worst`] is
/// a plain max.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Health {
    /// Serving normally.
    #[default]
    Ready,
    /// Serving, but in a degraded regime (e.g. stale-key mode).
    Degraded,
    /// Not serving; requests routed here are shed.
    Failed,
}

impl Health {
    /// Stable lower-case name, used in reports and journals.
    pub fn name(self) -> &'static str {
        match self {
            Health::Ready => "ready",
            Health::Degraded => "degraded",
            Health::Failed => "failed",
        }
    }
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A point-in-time readiness report over a set of components (shards,
/// stores, ...): per-component health in index order plus the aggregate
/// verdict a load balancer or suite driver would act on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Readiness {
    components: Vec<Health>,
}

impl Readiness {
    /// A report over `components` healths, in component-index order.
    pub fn new(components: Vec<Health>) -> Readiness {
        Readiness { components }
    }

    /// Per-component health, in index order.
    pub fn components(&self) -> &[Health] {
        &self.components
    }

    /// The worst health across components ([`Health::Ready`] when empty).
    pub fn worst(&self) -> Health {
        self.components.iter().copied().max().unwrap_or_default()
    }

    /// Whether every component is fully ready.
    pub fn is_ready(&self) -> bool {
        self.worst() == Health::Ready
    }

    /// How many components report `health`.
    pub fn count(&self, health: Health) -> u64 {
        self.components.iter().filter(|&&h| h == health).count() as u64
    }
}

impl Observable for Readiness {
    /// Scope `"readiness"`: component totals per health plus the aggregate.
    fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::new("readiness")
            .with("components", self.components.len() as u64)
            .with("ready", self.count(Health::Ready))
            .with("degraded", self.count(Health::Degraded))
            .with("failed", self.count(Health::Failed))
            .with("is_ready", u64::from(self.is_ready()))
    }
}

/// Named end-of-run counters from one subsystem, in deterministic order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// The subsystem the counters describe (matches event scopes).
    pub scope: &'static str,
    /// Counter name → value, sorted by name (BTreeMap).
    pub counters: BTreeMap<&'static str, u64>,
}

impl TelemetrySnapshot {
    /// An empty snapshot for `scope`.
    pub fn new(scope: &'static str) -> TelemetrySnapshot {
        TelemetrySnapshot {
            scope,
            counters: BTreeMap::new(),
        }
    }

    /// Sets one counter, returning `self` for chaining.
    pub fn with(mut self, name: &'static str, value: u64) -> TelemetrySnapshot {
        self.counters.insert(name, value);
        self
    }

    /// Reads one counter (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// The unified observation surface: anything that accumulates counters
/// answers with a [`TelemetrySnapshot`].
///
/// This replaces the previous per-type accessor sprawl (`stats()`,
/// `codec_stats()`, `btb_occupancy()`, `CacheStats`-returning methods, ...)
/// with one shape that reports, aggregates and serializes uniformly.
pub trait Observable {
    /// The current counter values. Must be cheap and side-effect free.
    fn snapshot(&self) -> TelemetrySnapshot;
}

/// Renders one event as its canonical JSONL line (no trailing newline).
///
/// The schema is stable and strict — see [`parse_jsonl_line`] for the
/// validating reader:
///
/// ```text
/// {"cycle":N,"scope":"s","name":"n","kind":"span","start":N,"end":N,"slot":N}
/// {"cycle":N,"scope":"s","name":"n","kind":"mark","value":N,"slot":N}
/// ```
///
/// Scopes and names are `&'static str` identifiers chosen by emitters; they
/// must stay within `[A-Za-z0-9_.-]` so no JSON escaping is ever needed
/// (enforced here by a debug assertion and by the strict parser).
pub fn jsonl_line(event: &TelemetryEvent) -> String {
    debug_assert!(
        ident_ok(event.scope),
        "scope {:?} not a plain identifier",
        event.scope
    );
    debug_assert!(
        ident_ok(event.name),
        "name {:?} not a plain identifier",
        event.name
    );
    let mut line = String::with_capacity(96);
    let _ = write!(
        line,
        "{{\"cycle\":{},\"scope\":\"{}\",\"name\":\"{}\",",
        event.cycle, event.scope, event.name
    );
    match event.kind {
        EventKind::Span { start, end, slot } => {
            let _ = write!(
                line,
                "\"kind\":\"span\",\"start\":{start},\"end\":{end},\"slot\":{slot}}}"
            );
        }
        EventKind::Mark { value, slot } => {
            let _ = write!(
                line,
                "\"kind\":\"mark\",\"value\":{value},\"slot\":{slot}}}"
            );
        }
    }
    line
}

/// A parsed, owned JSONL event (scope/name owned because arbitrary files
/// cannot yield `&'static str`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedEvent {
    /// See [`TelemetryEvent::cycle`].
    pub cycle: Cycle,
    /// See [`TelemetryEvent::scope`].
    pub scope: String,
    /// See [`TelemetryEvent::name`].
    pub name: String,
    /// See [`TelemetryEvent::kind`].
    pub kind: EventKind,
}

/// Strictly parses one line produced by [`jsonl_line`].
///
/// This is a schema validator, not a general JSON reader: field order,
/// spelling and quoting must match the writer exactly, so any drift
/// between writer and documented schema fails loudly in tests and in
/// `bench_all`'s export validation.
pub fn parse_jsonl_line(line: &str) -> Result<ParsedEvent, String> {
    let mut rest = line
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line:?}"))?;
    let cycle = take_num_field(&mut rest, "cycle", false)?;
    let scope = take_str_field(&mut rest, "scope", true)?;
    let name = take_str_field(&mut rest, "name", true)?;
    let kind_tag = take_str_field(&mut rest, "kind", true)?;
    let kind = match kind_tag.as_str() {
        "span" => {
            let start = take_num_field(&mut rest, "start", true)?;
            let end = take_num_field(&mut rest, "end", true)?;
            let slot = take_num_field(&mut rest, "slot", true)?;
            EventKind::Span { start, end, slot }
        }
        "mark" => {
            let value = take_num_field(&mut rest, "value", true)?;
            let slot = take_num_field(&mut rest, "slot", true)?;
            EventKind::Mark { value, slot }
        }
        other => return Err(format!("unknown event kind {other:?}")),
    };
    if !rest.is_empty() {
        return Err(format!("trailing content {rest:?}"));
    }
    Ok(ParsedEvent {
        cycle,
        scope,
        name,
        kind,
    })
}

fn ident_ok(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

fn take_prefix(rest: &mut &str, prefix: &str, what: &str) -> Result<(), String> {
    *rest = rest
        .strip_prefix(prefix)
        .ok_or_else(|| format!("expected {what} at {rest:?}"))?;
    Ok(())
}

fn take_num_field(rest: &mut &str, field: &str, comma_first: bool) -> Result<u64, String> {
    if comma_first {
        take_prefix(rest, ",", "','")?;
    }
    take_prefix(rest, &format!("\"{field}\":"), &format!("field {field:?}"))?;
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let (num, tail) = rest.split_at(digits);
    let value = num
        .parse::<u64>()
        .map_err(|e| format!("field {field:?}: {e}"))?;
    *rest = tail;
    Ok(value)
}

fn take_str_field(rest: &mut &str, field: &str, comma_first: bool) -> Result<String, String> {
    if comma_first {
        take_prefix(rest, ",", "','")?;
    }
    take_prefix(
        rest,
        &format!("\"{field}\":\""),
        &format!("field {field:?}"),
    )?;
    let end = rest
        .find('"')
        .ok_or_else(|| format!("unterminated string for field {field:?}"))?;
    let (value, tail) = rest.split_at(end);
    if !ident_ok(value) {
        return Err(format!(
            "field {field:?} value {value:?} is not a plain identifier"
        ));
    }
    *rest = &tail[1..];
    Ok(value.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cycle: Cycle, scope: &'static str, start: Cycle, end: Cycle) -> TelemetryEvent {
        TelemetryEvent {
            cycle,
            scope,
            name: "t",
            kind: EventKind::Span {
                start,
                end,
                slot: 0,
            },
        }
    }

    #[test]
    fn gauge_tracks_current_and_peak() {
        let mut g = Gauge::new();
        assert_eq!((g.current(), g.peak(), g.samples()), (0, 0, 0));
        g.set(7);
        g.set(3);
        assert_eq!((g.current(), g.peak(), g.samples()), (3, 7, 2));
        g.set(9);
        assert_eq!((g.current(), g.peak(), g.samples()), (9, 9, 3));
    }

    #[test]
    fn health_orders_worst_last() {
        assert!(Health::Ready < Health::Degraded);
        assert!(Health::Degraded < Health::Failed);
        assert_eq!(Health::Degraded.name(), "degraded");
        assert_eq!(Health::Failed.to_string(), "failed");
    }

    #[test]
    fn readiness_aggregates_worst_component() {
        let empty = Readiness::default();
        assert!(empty.is_ready());
        assert_eq!(empty.worst(), Health::Ready);

        let r = Readiness::new(vec![Health::Ready, Health::Degraded, Health::Ready]);
        assert_eq!(r.worst(), Health::Degraded);
        assert!(!r.is_ready());
        assert_eq!(r.count(Health::Ready), 2);

        let snap = r.snapshot();
        assert_eq!(snap.scope, "readiness");
        assert_eq!(snap.get("components"), 3);
        assert_eq!(snap.get("degraded"), 1);
        assert_eq!(snap.get("failed"), 0);
        assert_eq!(snap.get("is_ready"), 0);

        let failed = Readiness::new(vec![Health::Failed, Health::Degraded]);
        assert_eq!(failed.worst(), Health::Failed);
    }

    #[test]
    fn disabled_sink_is_inert() {
        let t = Telemetry::disabled();
        t.mark(1, "a", "b", 2, 3);
        t.span(1, "a", "b", 1, 2, 0);
        assert!(!t.is_enabled());
        assert!(t.drain().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Telemetry::ring(8);
        let u = t.clone();
        t.mark(1, "a", "x", 1, 0);
        u.mark(2, "a", "y", 2, 0);
        let events = t.drain();
        assert_eq!(events.len(), 2);
        assert!(u.drain().is_empty(), "drain empties the shared buffer");
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let t = Telemetry::ring(2);
        for i in 0..5 {
            t.mark(i, "a", "x", i, 0);
        }
        assert_eq!(t.drain().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn events_sort_by_cycle_then_content() {
        let mut events = [
            span(50, "sim", 50, 60),
            span(10, "sim", 10, 20),
            span(10, "keys", 10, 20),
            TelemetryEvent {
                cycle: 10,
                scope: "keys",
                name: "t",
                kind: EventKind::Mark { value: 1, slot: 0 },
            },
        ];
        events.sort_unstable();
        assert_eq!(events[0].cycle, 10);
        assert_eq!(events[0].scope, "keys");
        assert_eq!(events.last().unwrap().cycle, 50);
        // Same cycle+scope+name: Span sorts before Mark (enum order).
        assert!(matches!(events[0].kind, EventKind::Span { .. }));
        assert!(matches!(events[1].kind, EventKind::Mark { .. }));
    }

    #[test]
    fn span_overlap_arithmetic() {
        let s = span(100, "keys", 100, 200);
        assert_eq!(s.span_overlap(150, 250), 50);
        assert_eq!(s.span_overlap(0, 100), 0);
        assert_eq!(s.span_overlap(200, 300), 0);
        assert_eq!(s.span_overlap(0, 1000), 100);
        let m = TelemetryEvent {
            cycle: 1,
            scope: "a",
            name: "b",
            kind: EventKind::Mark { value: 9, slot: 0 },
        };
        assert_eq!(m.span_overlap(0, 1000), 0);
    }

    #[test]
    fn jsonl_roundtrips_both_kinds() {
        let events = [
            span(263, "keys", 263, 526),
            TelemetryEvent {
                cycle: 42,
                scope: "bench",
                name: "points",
                kind: EventKind::Mark { value: 14, slot: 2 },
            },
        ];
        for e in events {
            let line = jsonl_line(&e);
            let parsed = parse_jsonl_line(&line).expect("own output parses");
            assert_eq!(parsed.cycle, e.cycle);
            assert_eq!(parsed.scope, e.scope);
            assert_eq!(parsed.name, e.name);
            assert_eq!(parsed.kind, e.kind);
        }
    }

    #[test]
    fn jsonl_lines_match_documented_schema() {
        assert_eq!(
            jsonl_line(&span(263, "keys", 263, 526)),
            "{\"cycle\":263,\"scope\":\"keys\",\"name\":\"t\",\"kind\":\"span\",\
             \"start\":263,\"end\":526,\"slot\":0}"
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{}",
            "{\"cycle\":1}",
            "{\"cycle\":1,\"scope\":\"a\",\"name\":\"b\",\"kind\":\"span\",\"start\":1,\"end\":2,\"slot\":0} ",
            "{\"cycle\":1,\"scope\":\"a\",\"name\":\"b\",\"kind\":\"blip\",\"value\":1,\"slot\":0}",
            "{\"cycle\":1,\"scope\":\"a b\",\"name\":\"b\",\"kind\":\"mark\",\"value\":1,\"slot\":0}",
            "{\"cycle\":-1,\"scope\":\"a\",\"name\":\"b\",\"kind\":\"mark\",\"value\":1,\"slot\":0}",
            "{\"cycle\":1,\"scope\":\"a\",\"name\":\"b\",\"kind\":\"mark\",\"value\":1,\"slot\":0,\"x\":1}",
        ] {
            assert!(parse_jsonl_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.bucket(0), 1); // 0
        assert_eq!(h.bucket(1), 1); // 1
        assert_eq!(h.bucket(2), 2); // 2, 3
        assert_eq!(h.bucket(3), 1); // 4
        assert_eq!(h.bucket(10), 1); // 1000
        assert_eq!(h.bucket(64), 1); // u64::MAX
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
        assert!(h.mean().is_some());
        assert_eq!(Histogram::new().mean(), None);
    }

    #[test]
    fn histogram_quantile_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(3);
        }
        h.record(1 << 20);
        assert_eq!(h.quantile_bound(0.5), Some(4));
        assert_eq!(h.quantile_bound(1.0), Some(1 << 21));
        assert_eq!(Histogram::new().quantile_bound(0.5), None);
    }

    #[test]
    fn snapshot_counters_are_sorted_and_defaulted() {
        let s = TelemetrySnapshot::new("bpu")
            .with("z_last", 3)
            .with("a_first", 1);
        let names: Vec<_> = s.counters.keys().copied().collect();
        assert_eq!(names, vec!["a_first", "z_last"]);
        assert_eq!(s.get("a_first"), 1);
        assert_eq!(s.get("missing"), 0);
    }
}
