//! Suite-level telemetry collection: per-point sinks fanning into one hub.
//!
//! Every simulation point computed by the harness gets a fresh ring sink
//! from [`TelemetryHub::sink`]; when the point finishes, its events are
//! absorbed back with [`TelemetryHub::absorb`]. At experiment end the hub
//! drains into one JSONL file per experiment
//! (`<telemetry_dir>/<csv-stem>.jsonl`), sorted by full event content.
//!
//! # Determinism contract
//!
//! Events are stamped with deterministic *virtual* cycles, and the flush
//! sorts by the event's entire content (cycle first), so the byte stream is
//! independent of worker-thread scheduling and of the order in which sweep
//! points were absorbed. The only remaining hazard is the model memo: a
//! memoised point runs no simulation and emits nothing, so telemetry
//! capture turns the memo off (see [`crate::cli::Ctx::with_telemetry_dir`])
//! — every point computes, and the event multiset is a pure function of
//! the experiment's inputs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bp_common::telemetry::jsonl_line;
use bp_common::{Telemetry, TelemetryEvent};

/// Capacity of each per-point ring sink. Sized far above the worst-case
/// event count of a single simulation point (spans are emitted only for
/// rare occurrences — context switches and key refreshes, a few dozen per
/// run); overflow is counted, never silent.
pub const POINT_RING_CAPACITY: usize = 1 << 16;

/// What one [`TelemetryHub::flush_jsonl`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushSummary {
    /// Path of the JSONL file.
    pub path: PathBuf,
    /// Events written.
    pub events: usize,
    /// Events lost to ring overflow across the absorbed sinks (0 in any
    /// healthy run).
    pub dropped: u64,
}

/// Collects telemetry events from many per-point sinks and writes one
/// sorted JSONL file per experiment. Disabled hubs hand out disabled
/// sinks, so the instrumented helpers cost one branch per would-be event.
#[derive(Debug, Default)]
pub struct TelemetryHub {
    enabled: bool,
    events: Mutex<Vec<TelemetryEvent>>,
    dropped: AtomicU64,
    flushes: Mutex<Vec<FlushSummary>>,
}

impl TelemetryHub {
    /// A hub; disabled hubs collect nothing and write nothing.
    pub fn new(enabled: bool) -> TelemetryHub {
        TelemetryHub {
            enabled,
            ..TelemetryHub::default()
        }
    }

    /// Whether this hub collects events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh sink for one simulation point (disabled when the hub is).
    pub fn sink(&self) -> Telemetry {
        if self.enabled {
            Telemetry::ring(POINT_RING_CAPACITY)
        } else {
            Telemetry::disabled()
        }
    }

    /// Moves a point sink's events (and overflow count) into the hub.
    pub fn absorb(&self, sink: &Telemetry) {
        if !self.enabled {
            return;
        }
        let drained = sink.drain();
        self.dropped.fetch_add(sink.dropped(), Ordering::Relaxed);
        if !drained.is_empty() {
            self.events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .extend(drained);
        }
    }

    /// Records one hub-level mark (e.g. an experiment's sweep-point count).
    pub fn mark(&self, scope: &'static str, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        let sink = Telemetry::ring(1);
        sink.mark(0, scope, name, value, 0);
        self.absorb(&sink);
    }

    /// Events currently buffered (awaiting a flush).
    pub fn pending_events(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Drops any buffered events (between experiments, so a body that
    /// never flushed cannot leak events into the next experiment's file).
    /// Returns how many were discarded.
    pub fn discard_pending(&self) -> usize {
        let n = std::mem::take(
            &mut *self
                .events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
        .len();
        self.dropped.store(0, Ordering::Relaxed);
        n
    }

    /// Writes all buffered events to `<dir>/<stem>.jsonl`, sorted by full
    /// event content, and clears the buffer.
    ///
    /// # Errors
    ///
    /// I/O failure creating the directory or writing the file.
    pub fn flush_jsonl(&self, dir: &Path, stem: &str) -> std::io::Result<FlushSummary> {
        let mut events = std::mem::take(
            &mut *self
                .events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        let dropped = self.dropped.swap(0, Ordering::Relaxed);
        events.sort_unstable();
        let mut body = String::new();
        for e in &events {
            body.push_str(&jsonl_line(e));
            body.push('\n');
        }
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{stem}.jsonl"));
        std::fs::write(&path, body)?;
        let summary = FlushSummary {
            path,
            events: events.len(),
            dropped,
        };
        self.flushes
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(summary.clone());
        Ok(summary)
    }

    /// Takes the flush log accumulated since the last call (what the suite
    /// driver reads per experiment for its report).
    pub fn drain_flushes(&self) -> Vec<FlushSummary> {
        std::mem::take(
            &mut *self
                .flushes
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_common::telemetry::parse_jsonl_line;

    #[test]
    fn disabled_hub_hands_out_disabled_sinks_and_collects_nothing() {
        let hub = TelemetryHub::new(false);
        let sink = hub.sink();
        assert!(!sink.is_enabled());
        sink.mark(1, "a", "b", 2, 0);
        hub.absorb(&sink);
        hub.mark("bench", "points", 3);
        assert_eq!(hub.pending_events(), 0);
    }

    #[test]
    fn absorb_then_flush_sorts_by_cycle_regardless_of_arrival_order() {
        let hub = TelemetryHub::new(true);
        let late = hub.sink();
        late.mark(500, "sim", "late", 1, 0);
        let early = hub.sink();
        early.mark(5, "sim", "early", 1, 0);
        hub.absorb(&late);
        hub.absorb(&early);
        hub.mark("bench", "points", 2);
        assert_eq!(hub.pending_events(), 3);
        let dir = std::env::temp_dir().join(format!("hybp-telemetry-{}", std::process::id()));
        let summary = hub.flush_jsonl(&dir, "order").unwrap();
        assert_eq!(summary.events, 3);
        assert_eq!(summary.dropped, 0);
        let text = std::fs::read_to_string(&summary.path).unwrap();
        let cycles: Vec<u64> = text
            .lines()
            .map(|l| parse_jsonl_line(l).expect("schema-valid line").cycle)
            .collect();
        assert_eq!(cycles, vec![0, 5, 500]);
        assert_eq!(hub.pending_events(), 0);
        assert_eq!(hub.drain_flushes(), vec![summary]);
        assert!(hub.drain_flushes().is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        let hub = TelemetryHub::new(true);
        let sink = Telemetry::ring(1);
        sink.mark(1, "a", "b", 1, 0);
        sink.mark(2, "a", "b", 2, 0);
        hub.absorb(&sink);
        let dir = std::env::temp_dir().join(format!("hybp-telemetry-drop-{}", std::process::id()));
        let summary = hub.flush_jsonl(&dir, "drop").unwrap();
        assert_eq!(summary.events, 1);
        assert_eq!(summary.dropped, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn discard_pending_isolates_experiments() {
        let hub = TelemetryHub::new(true);
        hub.mark("bench", "leftover", 1);
        assert_eq!(hub.discard_pending(), 1);
        assert_eq!(hub.pending_events(), 0);
    }
}
