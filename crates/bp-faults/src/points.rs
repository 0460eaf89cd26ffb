//! Harness-level point faults: named sweep points that must fail.
//!
//! The fault classes in the crate root disturb the *simulated hardware*;
//! this module disturbs the *experiment runner itself*, so the supervised
//! sweep executor ("stale keys cost accuracy, never correctness" for the
//! harness: a lost point costs coverage, never the suite) can be exercised
//! end-to-end. A [`PointFaultPlan`] names sweep points by `(sweep label,
//! input index)` and prescribes how each must fail:
//!
//! * `panic@<sweep>@<index>` — the point panics on every attempt,
//! * `error@<sweep>@<index>` — the point returns a fatal typed error,
//! * `transient@<sweep>@<index>@<k>` — the point fails transiently on its
//!   first `k` attempts and succeeds afterwards (exercises the retry
//!   policy's recovery path).
//!
//! The spec also accepts the I/O fault classes of [`crate::bytes`]
//! (`bitflip@<offset>[@<bit>]`, `truncate@<offset>`, `torn@<offset>`,
//! `dup@<offset>@<len>`): those entries do not target sweep points but are
//! collected into the plan's [`io_plan`](PointFaultPlan::io_plan), which
//! trace-replaying harnesses apply to every artifact they ingest.
//!
//! A third family targets the *service phase* of a long-running prediction
//! engine (`bp-serve`): entries name a shard and a per-shard request
//! ordinal instead of a sweep point, and are collected into
//! [`serve_faults`](PointFaultPlan::serve_faults):
//!
//! * `shard-panic@<shard>@<request>` — the shard panics at the dequeue of
//!   its `<request>`-th request (0-based), before any predictor state is
//!   touched, so the supervisor's restart path is exercised with an exact
//!   lost-request accounting;
//! * `refresh-stall@<shard>@<request>` — the shard's next key-table
//!   refresh after its `<request>`-th request is dropped (the QARMA
//!   rewrite never lands), driving the stale-key degraded mode;
//! * `queue-overload@<shard>@<request>` — the shard's `<request>`-th
//!   request is shed as if a burst had overflowed the bounded queue.
//!
//! Plans are parsed from a comma-separated spec string, conventionally the
//! `HYBP_FAULT_POINTS` environment variable, and are fully deterministic:
//! the disposition of `(sweep, index, attempt)` is a pure function of the
//! plan.
//!
//! # Examples
//!
//! ```
//! use bp_faults::points::{PointDisposition, PointFaultPlan};
//!
//! let plan = PointFaultPlan::parse("panic@fig5:benches@3,transient@table6:grid@1@2")
//!     .expect("valid spec");
//! assert_eq!(plan.disposition("fig5:benches", 3, 1), PointDisposition::Panic);
//! assert_eq!(
//!     plan.disposition("table6:grid", 1, 2),
//!     PointDisposition::TransientError
//! );
//! assert_eq!(plan.disposition("table6:grid", 1, 3), PointDisposition::Proceed);
//! assert_eq!(plan.disposition("fig5:benches", 4, 1), PointDisposition::Proceed);
//! ```

/// Environment variable holding the standard point-fault spec.
pub const ENV_VAR: &str = "HYBP_FAULT_POINTS";

/// How a targeted sweep point must fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointFaultKind {
    /// Panic on every attempt.
    Panic,
    /// Return a fatal (non-retryable) typed error on every attempt.
    FatalError,
    /// Fail transiently on the first `fail_attempts` attempts, then
    /// succeed.
    Transient {
        /// Attempts that fail before the point recovers.
        fail_attempts: u32,
    },
}

/// One targeted sweep point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointFault {
    /// Sweep label the experiment passes to the supervised executor
    /// (e.g. `"fig5:benches"`).
    pub sweep: String,
    /// Input-order index of the point within that sweep.
    pub index: usize,
    /// Failure mode.
    pub kind: PointFaultKind,
}

/// How a targeted service-phase request must be disturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeFaultKind {
    /// The shard panics at the dequeue of the targeted request.
    ShardPanic,
    /// The shard's next key-table refresh is dropped (stale-key window).
    RefreshStall,
    /// The targeted request is shed as a queue overload.
    QueueOverload,
}

impl ServeFaultKind {
    /// The spec keyword for this kind.
    pub fn name(self) -> &'static str {
        match self {
            ServeFaultKind::ShardPanic => "shard-panic",
            ServeFaultKind::RefreshStall => "refresh-stall",
            ServeFaultKind::QueueOverload => "queue-overload",
        }
    }
}

/// One targeted service-phase request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeFault {
    /// Disturbance to inject.
    pub kind: ServeFaultKind,
    /// Shard index within the serving engine.
    pub shard: usize,
    /// 0-based ordinal of the request within that shard's dequeue order.
    pub request: u64,
}

/// What the harness should do with one attempt of one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PointDisposition {
    /// Run the point normally.
    #[default]
    Proceed,
    /// Panic in place of running the point.
    Panic,
    /// Fail with a fatal typed error.
    FatalError,
    /// Fail with a transient (retry-eligible) typed error.
    TransientError,
}

/// A deterministic schedule of harness point faults, plus any I/O faults
/// the same spec carried.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PointFaultPlan {
    entries: Vec<PointFault>,
    io_faults: Vec<crate::bytes::ByteFault>,
    serve_faults: Vec<ServeFault>,
}

impl PointFaultPlan {
    /// A plan injecting nothing.
    pub fn empty() -> PointFaultPlan {
        PointFaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.io_faults.is_empty() && self.serve_faults.is_empty()
    }

    /// The targeted points.
    pub fn entries(&self) -> &[PointFault] {
        &self.entries
    }

    /// The I/O faults the spec carried, in spec order.
    pub fn io_faults(&self) -> &[crate::bytes::ByteFault] {
        &self.io_faults
    }

    /// The I/O faults as an applicable [`ByteFaultPlan`](crate::bytes::ByteFaultPlan).
    pub fn io_plan(&self) -> crate::bytes::ByteFaultPlan {
        crate::bytes::ByteFaultPlan::new(self.io_faults.clone())
    }

    /// The service-phase faults the spec carried, in spec order.
    pub fn serve_faults(&self) -> &[ServeFault] {
        &self.serve_faults
    }

    /// The service-phase fault armed for shard `shard`'s `request`-th
    /// dequeue of the given `kind`, if any. Pure: depends only on the plan
    /// and the arguments.
    pub fn serve_fault_at(
        &self,
        kind: ServeFaultKind,
        shard: usize,
        request: u64,
    ) -> Option<ServeFault> {
        self.serve_faults
            .iter()
            .find(|f| f.kind == kind && f.shard == shard && f.request == request)
            .copied()
    }

    /// The service-phase faults targeting one shard, in plan order.
    pub fn for_shard(&self, shard: usize) -> impl Iterator<Item = &ServeFault> + '_ {
        self.serve_faults.iter().filter(move |f| f.shard == shard)
    }

    /// Parses a comma-separated spec. Fields within an entry are separated
    /// by `@` (sweep labels themselves may contain `:` but not `@` or
    /// `,`). An empty spec is the empty plan.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed entry and the accepted
    /// forms; a typo must never silently inject nothing.
    pub fn parse(spec: &str) -> Result<PointFaultPlan, String> {
        let mut entries = Vec::new();
        let mut io_faults = Vec::new();
        let mut serve_faults = Vec::new();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let fields: Vec<&str> = raw.split('@').collect();
            if matches!(
                fields.first(),
                Some(&"bitflip") | Some(&"truncate") | Some(&"torn") | Some(&"dup")
            ) {
                io_faults.push(crate::bytes::ByteFault::parse(raw)?);
                continue;
            }
            if let Some(kind) = match fields.first() {
                Some(&"shard-panic") => Some(ServeFaultKind::ShardPanic),
                Some(&"refresh-stall") => Some(ServeFaultKind::RefreshStall),
                Some(&"queue-overload") => Some(ServeFaultKind::QueueOverload),
                _ => None,
            } {
                let [_, shard, request] = fields.as_slice() else {
                    return Err(format!(
                        "invalid service fault '{raw}': expected {}@<shard>@<request>",
                        kind.name()
                    ));
                };
                serve_faults.push(ServeFault {
                    kind,
                    shard: shard.parse::<usize>().map_err(|_| {
                        format!("invalid shard index '{shard}' in service fault '{raw}'")
                    })?,
                    request: request.parse::<u64>().map_err(|_| {
                        format!("invalid request ordinal '{request}' in service fault '{raw}'")
                    })?,
                });
                continue;
            }
            let fault = match fields.as_slice() {
                ["panic", sweep, index] => PointFault {
                    sweep: (*sweep).to_string(),
                    index: parse_index(raw, index)?,
                    kind: PointFaultKind::Panic,
                },
                ["error", sweep, index] => PointFault {
                    sweep: (*sweep).to_string(),
                    index: parse_index(raw, index)?,
                    kind: PointFaultKind::FatalError,
                },
                ["transient", sweep, index, attempts] => PointFault {
                    sweep: (*sweep).to_string(),
                    index: parse_index(raw, index)?,
                    kind: PointFaultKind::Transient {
                        fail_attempts: attempts.parse::<u32>().map_err(|_| {
                            format!("invalid attempt count '{attempts}' in point fault '{raw}'")
                        })?,
                    },
                },
                _ => {
                    return Err(format!(
                        "invalid point fault '{raw}': expected panic@<sweep>@<index>, \
                         error@<sweep>@<index>, transient@<sweep>@<index>@<attempts>, \
                         an I/O fault (bitflip@<offset>[@<bit>], truncate@<offset>, \
                         torn@<offset>, dup@<offset>@<len>), or a service fault \
                         (shard-panic@<shard>@<request>, refresh-stall@<shard>@<request>, \
                         queue-overload@<shard>@<request>)"
                    ))
                }
            };
            if fault.sweep.is_empty() {
                return Err(format!("empty sweep label in point fault '{raw}'"));
            }
            entries.push(fault);
        }
        Ok(PointFaultPlan {
            entries,
            io_faults,
            serve_faults,
        })
    }

    /// Parses the plan from [`ENV_VAR`]; an unset variable is the empty
    /// plan.
    ///
    /// # Errors
    ///
    /// Propagates [`PointFaultPlan::parse`] errors, prefixed with the
    /// variable name.
    #[expect(
        clippy::disallowed_methods,
        reason = "the fault plan env var is an explicit operator injection knob; clean runs leave it unset and get the empty plan"
    )]
    pub fn from_env() -> Result<PointFaultPlan, String> {
        match std::env::var(ENV_VAR) {
            Ok(spec) => PointFaultPlan::parse(&spec).map_err(|e| format!("{ENV_VAR}: {e}")),
            Err(_) => Ok(PointFaultPlan::empty()),
        }
    }

    /// Disposition of attempt `attempt` (1-based) of point `index` of the
    /// sweep labelled `sweep`. Pure: depends only on the plan and the
    /// arguments.
    pub fn disposition(&self, sweep: &str, index: usize, attempt: u32) -> PointDisposition {
        for e in &self.entries {
            if e.sweep == sweep && e.index == index {
                return match e.kind {
                    PointFaultKind::Panic => PointDisposition::Panic,
                    PointFaultKind::FatalError => PointDisposition::FatalError,
                    PointFaultKind::Transient { fail_attempts } => {
                        if attempt <= fail_attempts {
                            PointDisposition::TransientError
                        } else {
                            PointDisposition::Proceed
                        }
                    }
                };
            }
        }
        PointDisposition::Proceed
    }
}

fn parse_index(entry: &str, index: &str) -> Result<usize, String> {
    index
        .parse::<usize>()
        .map_err(|_| format!("invalid point index '{index}' in point fault '{entry}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_specs_inject_nothing() {
        for spec in ["", "  ", ",", " , "] {
            let plan = PointFaultPlan::parse(spec).unwrap();
            assert!(plan.is_empty(), "{spec:?}");
            assert_eq!(plan.disposition("any", 0, 1), PointDisposition::Proceed);
        }
    }

    #[test]
    fn parses_every_kind() {
        let plan = PointFaultPlan::parse("panic@a:b@0, error@c@12 ,transient@d:e:f@3@2").unwrap();
        assert_eq!(plan.entries().len(), 3);
        assert_eq!(plan.disposition("a:b", 0, 1), PointDisposition::Panic);
        assert_eq!(plan.disposition("a:b", 0, 7), PointDisposition::Panic);
        assert_eq!(plan.disposition("c", 12, 1), PointDisposition::FatalError);
        assert_eq!(
            plan.disposition("d:e:f", 3, 1),
            PointDisposition::TransientError
        );
        assert_eq!(
            plan.disposition("d:e:f", 3, 2),
            PointDisposition::TransientError
        );
        assert_eq!(plan.disposition("d:e:f", 3, 3), PointDisposition::Proceed);
    }

    #[test]
    fn untargeted_points_proceed() {
        let plan = PointFaultPlan::parse("panic@s@4").unwrap();
        assert_eq!(plan.disposition("s", 3, 1), PointDisposition::Proceed);
        assert_eq!(plan.disposition("other", 4, 1), PointDisposition::Proceed);
    }

    #[test]
    fn rejects_malformed_entries() {
        for bad in [
            "panic@s",          // missing index
            "panic@s@x",        // non-numeric index
            "transient@s@1",    // missing attempt count
            "transient@s@1@no", // non-numeric attempt count
            "explode@s@1",      // unknown kind
            "panic@@1",         // empty sweep
        ] {
            assert!(PointFaultPlan::parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn io_faults_parse_alongside_point_faults() {
        let plan =
            PointFaultPlan::parse("panic@fig5:benches@3,bitflip@4096@3,torn@100,dup@0@20").unwrap();
        assert_eq!(plan.entries().len(), 1);
        assert_eq!(plan.io_faults().len(), 3);
        assert_eq!(
            plan.io_faults()[0],
            crate::bytes::ByteFault::BitFlip {
                offset: 4096,
                bit: 3
            }
        );
        assert_eq!(
            plan.disposition("fig5:benches", 3, 1),
            PointDisposition::Panic
        );
        assert_eq!(plan.io_plan().faults(), plan.io_faults());
        assert!(!plan.is_empty());
        let io_only = PointFaultPlan::parse("truncate@12").unwrap();
        assert!(io_only.entries().is_empty());
        assert!(!io_only.is_empty());
    }

    #[test]
    fn malformed_io_faults_stay_fatal() {
        for bad in [
            "bitflip@",
            "bitflip@x@1",
            "truncate@1@2@3",
            "torn@",
            "dup@5",
        ] {
            assert!(PointFaultPlan::parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn serve_faults_parse_alongside_everything_else() {
        let plan = PointFaultPlan::parse(
            "shard-panic@2@100,refresh-stall@0@5,queue-overload@1@7,panic@s@1,bitflip@64",
        )
        .unwrap();
        assert_eq!(plan.serve_faults().len(), 3);
        assert_eq!(plan.entries().len(), 1);
        assert_eq!(plan.io_faults().len(), 1);
        assert_eq!(
            plan.serve_fault_at(ServeFaultKind::ShardPanic, 2, 100),
            Some(ServeFault {
                kind: ServeFaultKind::ShardPanic,
                shard: 2,
                request: 100
            })
        );
        assert_eq!(plan.serve_fault_at(ServeFaultKind::ShardPanic, 2, 99), None);
        assert_eq!(
            plan.serve_fault_at(ServeFaultKind::QueueOverload, 2, 100),
            None,
            "kind must match, not just the coordinates"
        );
        let shard0: Vec<ServeFaultKind> = plan.for_shard(0).map(|f| f.kind).collect();
        assert_eq!(shard0, vec![ServeFaultKind::RefreshStall]);
        let serve_only = PointFaultPlan::parse("refresh-stall@0@0").unwrap();
        assert!(!serve_only.is_empty());
        assert!(serve_only.entries().is_empty());
    }

    #[test]
    fn malformed_serve_faults_stay_fatal() {
        for bad in [
            "shard-panic@1",       // missing request ordinal
            "shard-panic@1@2@3",   // extra field
            "refresh-stall@x@1",   // non-numeric shard
            "queue-overload@1@y",  // non-numeric request
            "shard-panic@@1",      // empty shard
            "queue-overload@1@-2", // negative ordinal
        ] {
            assert!(PointFaultPlan::parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
