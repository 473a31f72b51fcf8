//! The per-handle op meter: one [`OpMeter`] per [`crate::Dispatcher`],
//! called directly at each moment of a dispatched op's life.
//!
//! * **Table I cost**, always: the bypass charges the descriptor's
//!   [`CostSig`](crate::CostSig), every remote invocation one `F`,
//!   classified batched or unbatched by its [`IssueMode`].
//!   [`OpMeter::costs`] is the view.
//! * **Metrics and flight events**, only when the rank runs with telemetry
//!   (otherwise no clock is read): outcome counters (`issued`,
//!   `local_bypass`, `ok`, `err`, `owner_down`, `retries_exhausted`), each
//!   completed op's latency into exactly two histograms — its locality (the
//!   §III-C5 split) and its op (`hcl_core_op_queue_push_ns`) — and
//!   issue/completion/failure events for *synchronously awaited* ops. Async
//!   ops only count: the coalescer records one `BatchFlush` per batch, since
//!   a per-op ring write would not fit the batched hot loop (DESIGN.md §11).
//!
//! A coarser latency view (by class of op, by cost-signature shape) is a
//! fixed sum of per-op histograms, so none is recorded. The per-op
//! histogram sits in a slot indexed by the descriptor's `fn_off`, which is
//! unique within a handle's table: registered on the op's first completion,
//! it is afterwards recorded with no lock, no hash and no `Arc` clone.
//!
//! Each logical op completes exactly once — `ok`, `err` or `owner_down` —
//! timed from its first attempt, while `issued` and `F` count every
//! invocation: an op re-resolved after a `WrongEpoch` rejection issues twice
//! and completes once. Retry exhaustion and owner-down rejections dump the
//! flight recorder, so the rank's last events land on stderr next to the
//! error the caller sees.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use hcl_telemetry::{Counter, EventKind, FlightEvent, Histogram, Outcome, Telemetry};

use crate::cost::{CostCounters, CostSnapshot};
use crate::dispatch::{IssueMode, OpDescriptor, OpEvent};

/// Table I counters of one handle, plus its telemetry when the rank has it.
pub(crate) struct OpMeter {
    costs: CostCounters,
    metrics: Option<OpMetrics>,
}

impl OpMeter {
    /// A meter for a handle whose op table spans `fns` function ids,
    /// recording into `telemetry` when it is enabled, costs only otherwise.
    pub(crate) fn new(telemetry: &Arc<Telemetry>, fns: u32) -> Self {
        let metrics = telemetry.enabled().then(|| OpMetrics::new(Arc::clone(telemetry), fns));
        OpMeter { costs: CostCounters::default(), metrics }
    }

    /// Client-side Table I counters observed so far.
    pub(crate) fn costs(&self) -> CostSnapshot {
        self.costs.snapshot()
    }

    /// Start an op's clock — read only when there are metrics to time for.
    #[inline]
    pub(crate) fn start(&self) -> Option<Instant> {
        self.metrics.as_ref().map(|_| Instant::now())
    }

    /// The op started at `t0` was served by the hybrid bypass: charge its
    /// `L`/`R`/`W` signature and complete it.
    #[inline]
    pub(crate) fn local(&self, ev: &OpEvent<'_>, t0: Option<Instant>) {
        let sig = &ev.op.cost;
        if sig.l > 0 {
            self.costs.l(sig.l);
        }
        if sig.r > 0 {
            self.costs.r(if sig.scale_r { sig.r * ev.n } else { sig.r });
        }
        if sig.w > 0 {
            self.costs.w(if sig.scale_w { sig.w * ev.n } else { sig.w });
        }
        if let Some(m) = &self.metrics {
            m.local_bypass.inc();
            m.complete(ev, &m.lat_local, t0, true);
        }
    }

    /// One remote invocation left toward `ev.owner` (counted before the
    /// response arrives).
    #[inline]
    pub(crate) fn issue(&self, ev: &OpEvent<'_>, mode: IssueMode) {
        self.costs.f();
        match mode {
            IssueMode::Sync => self.costs.fu(),
            IssueMode::Async => self.costs.fb(1),
            IssueMode::Bulk { ops } => self.costs.fb(ops),
        }
        if let Some(m) = &self.metrics {
            m.issued.inc();
            if mode != IssueMode::Async {
                m.flight(EventKind::Issue, ev, ev.n, Outcome::Pending, 0);
            }
        }
    }

    /// A synchronously awaited remote op started at `t0` finished.
    #[inline]
    pub(crate) fn remote_done(&self, ev: &OpEvent<'_>, t0: Option<Instant>, ok: bool) {
        if let Some(m) = &self.metrics {
            let ns = m.complete(ev, &m.lat_remote, t0, ok);
            let outcome = if ok { Outcome::Ok } else { Outcome::Err };
            m.flight(EventKind::Complete, ev, ev.n, outcome, ns);
        }
    }

    /// A remote op spent its whole retry budget of `attempts` attempts.
    pub(crate) fn retries_exhausted(&self, ev: &OpEvent<'_>, attempts: u32) {
        if let Some(m) = &self.metrics {
            m.retries_exhausted.inc();
            m.flight(EventKind::Retry, ev, attempts as u64, Outcome::RetriesExhausted, 0);
            let flight = m.telemetry.flight();
            flight.dump_on_failure(&format!("{} exhausted {attempts} attempts", ev.op.name));
        }
    }

    /// The op fast-failed at the degradation gate: its owner is marked
    /// down. Its only outcome — it never touched memory or fabric.
    pub(crate) fn owner_down(&self, ev: &OpEvent<'_>) {
        if let Some(m) = &self.metrics {
            m.owner_down.inc();
            m.flight(EventKind::OwnerDown, ev, ev.n, Outcome::OwnerDown, 0);
            let why = format!("{} rejected: owner {} marked down", ev.op.name, ev.owner);
            m.telemetry.flight().dump_on_failure(&why);
        }
    }
}

/// The registry handles one meter records into, resolved once.
struct OpMetrics {
    issued: Arc<Counter>,
    local_bypass: Arc<Counter>,
    ok: Arc<Counter>,
    err: Arc<Counter>,
    owner_down: Arc<Counter>,
    retries_exhausted: Arc<Counter>,
    lat_local: Arc<Histogram>,
    lat_remote: Arc<Histogram>,
    /// Per-op histograms indexed by descriptor `fn_off`, each registered on
    /// its op's first completion.
    per_op: Box<[OnceLock<Arc<Histogram>>]>,
    telemetry: Arc<Telemetry>,
}

impl OpMetrics {
    fn new(telemetry: Arc<Telemetry>, fns: u32) -> Self {
        let reg = telemetry.registry();
        OpMetrics {
            issued: reg.counter("hcl_core_ops_issued"),
            local_bypass: reg.counter("hcl_core_ops_local_bypass"),
            ok: reg.counter("hcl_core_ops_ok"),
            err: reg.counter("hcl_core_ops_err"),
            owner_down: reg.counter("hcl_core_ops_owner_down"),
            retries_exhausted: reg.counter("hcl_core_ops_retries_exhausted"),
            lat_local: reg.histogram("hcl_core_op_latency_local_ns"),
            lat_remote: reg.histogram("hcl_core_op_latency_remote_ns"),
            per_op: (0..fns).map(|_| OnceLock::new()).collect(),
            telemetry,
        }
    }

    fn op_hist(&self, op: &OpDescriptor) -> &Histogram {
        self.per_op[op.fn_off as usize].get_or_init(|| {
            // `"queue.push"` → the metric-legal `hcl_core_op_queue_push_ns`.
            let reg = self.telemetry.registry();
            reg.histogram(&format!("hcl_core_op_{}_ns", op.name.replace('.', "_")))
        })
    }

    /// Count the outcome and record the latency since `t0` into the
    /// locality view `lat` and the op's own histogram. Returns the latency
    /// in nanoseconds.
    fn complete(&self, ev: &OpEvent<'_>, lat: &Histogram, t0: Option<Instant>, ok: bool) -> u64 {
        if ok { &self.ok } else { &self.err }.inc();
        let ns = t0.map_or(0, |t| t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        lat.record(ns);
        self.op_hist(ev.op).record(ns);
        ns
    }

    fn flight(&self, kind: EventKind, ev: &OpEvent<'_>, n: u64, outcome: Outcome, ns: u64) {
        let event = FlightEvent::op(kind, ev.op.name, ev.owner, 0, n, outcome, ns);
        self.telemetry.flight().record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::CostSig;
    use hcl_telemetry::TelemetryConfig;

    static PUSH: OpDescriptor = OpDescriptor {
        name: "queue.push",
        fn_off: 0,
        cost: CostSig::lrw(1, 0, 1),
        };

    /// Retry exhaustion needs a lossy fabric to reach end to end
    /// (`tests/fault_injection.rs` has that run); the meter's half of it is
    /// pinned here.
    #[test]
    fn retries_exhausted_records_attempts_and_dumps() {
        let t = Arc::new(Telemetry::new(1, TelemetryConfig::default()));
        let meter = OpMeter::new(&t, 1);
        meter.retries_exhausted(&OpEvent { op: &PUSH, owner: 1, n: 1 }, 5);
        let events = t.flight().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Retry);
        assert_eq!(events[0].n, 5);
        assert!(t.flight().last_dump().unwrap().contains("exhausted 5 attempts"));
        let snap = t.snapshot();
        let exhausted = snap.counters.iter().find(|(k, _)| k == "hcl_core_ops_retries_exhausted");
        assert_eq!(exhausted.map(|(_, v)| *v), Some(1));
    }
}
