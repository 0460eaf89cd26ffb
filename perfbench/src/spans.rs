//! In-memory span recorder for the traced run.
//!
//! Spans are kept in memory and written out once, at exit. Every span of a
//! run carries the run's id; parents link workload → operation → rung →
//! call batch. Per-branch calls are recorded as one span per batch (with a
//! call count), so span volume stays bounded however long a rung runs.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span stands for (1 for a single call, N for a batch).
    pub calls: u64,
    /// Worker thread that recorded the span (pool items run on several).
    pub thread: String,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    run_id: u64,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(run_id: u64) -> Recorder {
        Recorder {
            run_id,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves a span id before the span's interval is known, so children
    /// recorded while it is open can name it as their parent.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished interval under a reserved id.
    pub fn record(&self, id: u64, parent: Option<u64>, name: &str, start_ns: u64, calls: u64) {
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: self.now_ns(),
            calls,
            thread: format!("{:?}", std::thread::current().id()),
        };
        self.spans
            .lock()
            .expect("span list lock: no recorder call panics while holding it")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock: no recorder call panics while holding it")
            .clone()
    }

    /// Writes every span as one JSON line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"thread\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"calls\":{}}}",
                self.run_id, s.id, s.name, s.thread, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when a recorder is present; `f` receives the id
/// to use as its children's parent.
pub fn traced<R>(
    rec: Option<&Recorder>,
    parent: Option<u64>,
    name: &str,
    calls: u64,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    match rec {
        None => f(None),
        Some(rec) => {
            let id = rec.reserve();
            let start = rec.now_ns();
            let r = f(Some(id));
            rec.record(id, parent, name, start, calls);
            r
        }
    }
}

/// Self time of each span: its duration minus the part of its interval its
/// children cover (children running in parallel are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            calls: 1,
            thread: "t".to_string(),
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 80, 90),
            span(5, Some(2), 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60, 30 - 10, 30, 10, 10]);
    }
}
