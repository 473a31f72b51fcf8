//! Adaptive per-destination op coalescing — the paper's §III-B *request
//! aggregation* ("aggregate multiple instructions before execution") applied
//! transparently to asynchronous container operations.
//!
//! Each `(client rank, destination server)` pair owns a submission queue.
//! Async ops stage their `(fn_id, args)` into the queue's [`BatchArena`]
//! (one growing buffer, not a `Vec` per op) and get back a
//! [`CoalescedFuture`].
//! The queue flushes as one [`crate::FLAG_BATCH`] request when any of three
//! triggers fires:
//!
//! * **size** — the op count reaches the adaptive target (or the staged
//!   bytes reach 48 KiB);
//! * **age** — the oldest staged op has waited [`CoalesceConfig::max_delay`]:
//!   a deadline on the world's deadline thread ([`crate::deadline`]), armed
//!   when a queue opens, so an empty coalescer costs no wake-ups;
//! * **demand** — a future is waited on, or a *synchronous* op to the same
//!   destination calls [`Coalescer::flush`] first (flush-before-sync: the
//!   batch is sent before the sync request, so per-destination FIFO order —
//!   and therefore program-order visibility — is preserved).
//!
//! The size target adapts AIMD-style per destination: it doubles (up to
//! [`CoalesceConfig::max_ops`]) whenever a batch fills on its own, and
//! halves whenever a waiter demands an early flush — bulk phases grow deep
//! batches, latency-sensitive phases degenerate gracefully toward
//! one-op-per-message.
//!
//! A flushed batch is sent under the destination queue's lock, so ops for
//! one destination hit the wire in submission order, and the whole batch
//! retries as one idempotent unit under the client's [`crate::RetryPolicy`]
//! (the server dedups on `(caller, req_id)`).

use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hcl_databox::DataBox;
use hcl_fabric::EpId;
use hcl_telemetry::{CoalesceMetrics, EventKind, FlightEvent, Outcome};
use parking_lot::Mutex;

use crate::batch::BatchArena;
use crate::client::{BatchFuture, RpcClient};
use crate::deadline::{Deadline, DeadlineJob, Deadlines};
use crate::{decode, FnId, RpcError, RpcResult};

/// Flush a destination queue once its staged argument bytes reach this,
/// whatever the op count.
const MAX_BATCH_BYTES: usize = 48 * 1024;

/// Coalescing policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoalesceConfig {
    /// Hard ceiling on ops per batch (also the AIMD target's ceiling).
    pub max_ops: usize,
    /// How long a staged op may wait before an age flush sends it (zero
    /// disables age flushes; DESIGN.md §9 has the bound under load).
    pub max_delay: Duration,
    /// AIMD adaptation of the per-destination size target; disabled, the
    /// target is pinned at `max_ops`.
    pub adaptive: bool,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            max_ops: 64,
            max_delay: Duration::from_micros(200),
            adaptive: true,
        }
    }
}

/// Monotonic coalescer counters.
#[derive(Debug, Default)]
struct CoalesceStats {
    batches: AtomicU64,
    coalesced_ops: AtomicU64,
    size_flushes: AtomicU64,
    age_flushes: AtomicU64,
    demand_flushes: AtomicU64,
}

/// Point-in-time copy of the coalescer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceSnapshot {
    /// Batch messages sent.
    pub batches: u64,
    /// Ops that went through the coalescing path.
    pub coalesced_ops: u64,
    /// Flushes triggered by the size/bytes thresholds.
    pub size_flushes: u64,
    /// Flushes triggered by the age deadline.
    pub age_flushes: u64,
    /// Flushes demanded by a waiter or a flush-before-sync.
    pub demand_flushes: u64,
}

impl CoalesceSnapshot {
    /// Mean ops per batch message (0 when nothing was sent).
    pub fn avg_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.coalesced_ops as f64 / self.batches as f64
        }
    }
}

/// Where one coalesced op is; cloned out of its lock and acted on outside
/// it.
#[derive(Clone)]
enum CallState {
    /// Staged in a destination queue, not yet on the wire.
    Queued,
    /// Sent as entry `index` of a flushed batch.
    Sent { batch: Arc<SentBatch>, index: usize },
    /// The flush-time send failed; every op of the batch observes the error.
    Failed(RpcError),
}

/// One flushed batch: the future plus a decoded-response cache, so the
/// batch's ops share one decode and clone `Bytes` windows out of it.
struct SentBatch {
    fut: BatchFuture,
    cache: Mutex<Option<RpcResult<Vec<Bytes>>>>,
    /// Flush time, for the batch round-trip latency histogram.
    sent_at: Instant,
    metrics: Option<CoalesceMetrics>,
}

impl SentBatch {
    /// Entry `index` of the decoded responses, which the first caller to
    /// get them caches; `None` while in flight, unless `block`, which waits.
    fn result(&self, index: usize, block: bool) -> Option<RpcResult<Bytes>> {
        let mut c = self.cache.lock();
        if c.is_none() {
            *c = Some(if block { self.fut.wait() } else { self.fut.try_wait()? });
            if let Some(m) = &self.metrics {
                m.batch_latency_ns.record_duration(self.sent_at.elapsed());
            }
        }
        let resps = c.as_ref()?.as_ref().map_err(RpcError::clone);
        Some(resps.and_then(|r| {
            r.get(index).cloned().ok_or_else(|| RpcError::Decode("batch response index".into()))
        }))
    }
}

/// Per-destination submission queue: the staged calls (no per-op
/// allocation) and the states of their futures.
struct DestQueue {
    dest: EpId,
    calls: BatchArena,
    states: Vec<Arc<Mutex<CallState>>>,
    opened: Option<Instant>,
    /// AIMD size target for this destination.
    target_ops: usize,
}

impl DestQueue {
    fn new(dest: EpId) -> Self {
        DestQueue {
            dest,
            calls: BatchArena::default(),
            states: Vec::new(),
            opened: None,
            // Start small: the first flush is cheap, and bulk phases double
            // their way up within a handful of batches.
            target_ops: 4,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FlushCause {
    Size,
    Age,
    Demand,
}

/// The per-rank op coalescer. Share via `Arc` (futures keep the coalescer
/// alive so they can self-flush).
pub struct Coalescer {
    client: Arc<RpcClient>,
    cfg: CoalesceConfig,
    dests: Mutex<HashMap<EpId, Arc<Mutex<DestQueue>>>>,
    stats: CoalesceStats,
    /// Batch-size and batch-latency histograms plus the flight recorder.
    metrics: Option<CoalesceMetrics>,
    /// The age flush's deadline.
    age: Deadline,
    /// `coalesced_ops` at the last age fire (busy while it moves).
    ops_at_fire: AtomicU64,
}

impl Coalescer {
    /// A coalescer over `client` whose age flushes run on `deadlines`.
    pub fn new(
        client: Arc<RpcClient>,
        cfg: CoalesceConfig,
        deadlines: Arc<Deadlines>,
        metrics: Option<CoalesceMetrics>,
    ) -> Arc<Coalescer> {
        Arc::new(Coalescer {
            client,
            cfg,
            dests: Mutex::new(HashMap::new()),
            stats: CoalesceStats::default(),
            metrics,
            age: Deadline::new(deadlines),
            ops_at_fire: AtomicU64::new(0),
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CoalesceSnapshot {
        CoalesceSnapshot {
            batches: self.stats.batches.load(Ordering::Relaxed),
            coalesced_ops: self.stats.coalesced_ops.load(Ordering::Relaxed),
            size_flushes: self.stats.size_flushes.load(Ordering::Relaxed),
            age_flushes: self.stats.age_flushes.load(Ordering::Relaxed),
            demand_flushes: self.stats.demand_flushes.load(Ordering::Relaxed),
        }
    }

    /// Stage one op for `dest`, its `args` packed into the queue's arena;
    /// the future decodes the response as `R`. May flush inline when a size
    /// threshold trips.
    pub fn submit_typed<A, R>(
        self: &Arc<Self>,
        dest: EpId,
        fn_id: FnId,
        args: &A,
    ) -> CoalescedFuture<R>
    where
        A: DataBox,
        R: DataBox,
    {
        let q = {
            let mut dests = self.dests.lock();
            Arc::clone(
                dests.entry(dest).or_insert_with(|| Arc::new(Mutex::new(DestQueue::new(dest)))),
            )
        };
        let mut g = q.lock();
        if g.calls.is_empty() {
            g.opened = Some(Instant::now());
            // Under this queue's lock, a fire either finds the queue open
            // or has cleared the pending mark for this arm.
            if !self.cfg.max_delay.is_zero() {
                self.age.arm(self.cfg.max_delay, self);
            }
        }
        g.calls.push_with(fn_id, |out| args.pack(out));
        let state = Arc::new(Mutex::new(CallState::Queued));
        g.states.push(Arc::clone(&state));
        // ORDERING: Relaxed statistic.
        self.stats.coalesced_ops.fetch_add(1, Ordering::Relaxed);
        let target = if self.cfg.adaptive { g.target_ops } else { self.cfg.max_ops };
        let full = g.calls.len() >= target.clamp(1, self.cfg.max_ops);
        if full || g.calls.bytes() >= MAX_BATCH_BYTES {
            self.flush_queue(&mut g, FlushCause::Size);
        }
        CoalescedFuture { state, dest, coal: Arc::clone(self), _t: PhantomData }
    }

    /// Send anything staged for `dest` now. Call before a synchronous op to
    /// the same destination: the batch reaches the wire (and, per-dest FIFO,
    /// the server) ahead of the sync request.
    pub fn flush(&self, dest: EpId) {
        let q = self.dests.lock().get(&dest).cloned();
        if let Some(q) = q {
            let mut g = q.lock();
            if !g.calls.is_empty() {
                self.flush_queue(&mut g, FlushCause::Demand);
            }
        }
    }

    /// Flush every destination (barriers, teardown).
    pub fn flush_all(&self) {
        let qs: Vec<_> = self.dests.lock().values().cloned().collect();
        for q in qs {
            let mut g = q.lock();
            if !g.calls.is_empty() {
                self.flush_queue(&mut g, FlushCause::Demand);
            }
        }
    }

    /// Send the staged ops as one batch. Runs under the destination lock,
    /// so concurrent submitters to this destination order strictly after
    /// the flushed batch. An age flush never waits for another request's
    /// reply: while its batch's slot is busy, the ops stay staged.
    fn flush_queue(&self, g: &mut DestQueue, cause: FlushCause) {
        let result = if cause == FlushCause::Age {
            match self.client.try_invoke_batch_slices(g.dest, g.calls.calls()).transpose() {
                Some(result) => result,
                None => return,
            }
        } else {
            self.client.invoke_batch_slices(g.dest, g.calls.calls())
        };
        if self.cfg.adaptive {
            match cause {
                // Batch filled on its own: contention is high, aim bigger.
                FlushCause::Size => g.target_ops = (g.target_ops * 2).min(self.cfg.max_ops),
                // A waiter paid latency for depth: aim smaller.
                FlushCause::Demand => g.target_ops = (g.target_ops / 2).max(1),
                FlushCause::Age => {}
            }
        }
        // ORDERING: Relaxed statistics.
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        let cause_ctr = match cause {
            FlushCause::Size => &self.stats.size_flushes,
            FlushCause::Age => &self.stats.age_flushes,
            FlushCause::Demand => &self.stats.demand_flushes,
        };
        // ORDERING: Relaxed statistics.
        cause_ctr.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.batch_size.record(g.calls.len() as u64);
            // One flight event per batch, not per op: async ops are captured
            // in aggregate at batch granularity (see DESIGN.md §11).
            m.flight.record(FlightEvent::op(
                EventKind::BatchFlush,
                match cause {
                    FlushCause::Size => "rpc.batch.size",
                    FlushCause::Age => "rpc.batch.age",
                    FlushCause::Demand => "rpc.batch.demand",
                },
                g.dest.rank,
                g.calls.bytes() as u64,
                g.calls.len() as u64,
                Outcome::Pending,
                0,
            ));
        }
        match result {
            Ok(fut) => {
                let batch = Arc::new(SentBatch {
                    fut,
                    cache: Mutex::new(None),
                    sent_at: Instant::now(),
                    metrics: self.metrics.clone(),
                });
                for (i, h) in g.states.iter().enumerate() {
                    *h.lock() = CallState::Sent { batch: Arc::clone(&batch), index: i };
                }
            }
            Err(e) => {
                for h in &g.states {
                    *h.lock() = CallState::Failed(e.clone());
                }
            }
        }
        g.calls.clear();
        g.states.clear();
        g.opened = None;
    }
}

impl DeadlineJob for Coalescer {
    /// The age flush: send every queue whose oldest op has waited
    /// `max_delay`, then re-arm one `max_delay` out while a queue is open or
    /// ops were staged since the last fire. A busy coalescer thus fires at
    /// most once per `max_delay`, even after the thread slipped, and only an
    /// idle one disarms. The fire never waits: a queue another thread holds
    /// (it is staging or flushing), like one whose batch's slot is busy,
    /// stays staged for the next fire.
    fn fire(&self, due: Instant) -> Option<Instant> {
        self.age.run(|| {
            let now = Instant::now();
            let mut open = false;
            for q in self.dests.lock().values().cloned().collect::<Vec<_>>() {
                let Some(mut g) = q.try_lock() else {
                    open = true;
                    continue;
                };
                if g.opened.is_some_and(|t0| now.duration_since(t0) >= self.cfg.max_delay) {
                    self.flush_queue(&mut g, FlushCause::Age);
                }
                open |= g.opened.is_some();
            }
            // ORDERING: Relaxed statistic.
            let ops = self.stats.coalesced_ops.load(Ordering::Relaxed);
            // ORDERING: Relaxed; only this job reads `ops_at_fire`.
            let busy = self.ops_at_fire.swap(ops, Ordering::Relaxed) != ops;
            (open || busy).then(|| due.max(Instant::now()) + self.cfg.max_delay)
        })
    }
}

/// A typed future over one coalesced op (mirrors
/// [`crate::client::RpcFuture`]). It keeps its coalescer alive so a wait on
/// a still-staged op can demand-flush it.
pub struct CoalescedFuture<T> {
    state: Arc<Mutex<CallState>>,
    dest: EpId,
    coal: Arc<Coalescer>,
    _t: PhantomData<fn() -> T>,
}

impl<T: DataBox> CoalescedFuture<T> {
    /// This op's response bytes, undecoded: `None` while staged or in
    /// flight, unless `block`, which demand-flushes a staged op and waits.
    fn bytes(&self, block: bool) -> Option<RpcResult<Bytes>> {
        let mut state = self.state.lock().clone();
        while block && matches!(state, CallState::Queued) {
            self.coal.flush(self.dest);
            state = self.state.lock().clone();
        }
        match state {
            CallState::Queued => None,
            CallState::Sent { batch, index } => batch.result(index, block),
            CallState::Failed(e) => Some(Err(e)),
        }
    }

    /// Block for the response and decode it.
    pub fn wait(&self) -> RpcResult<T> {
        decode(&self.bytes(true).expect("a blocking wait resolves")?)
    }

    /// Non-blocking completion check.
    pub fn try_get(&self) -> Option<RpcResult<T>> {
        self.bytes(false).map(|r| r.and_then(|b| decode(&b)))
    }

    /// True once the response has arrived (nothing is decoded).
    pub fn is_ready(&self) -> bool {
        self.bytes(false).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::DeadlineThread;
    use crate::server::{RpcServer, ServerConfig};
    use crate::RpcRegistry;
    use hcl_fabric::memory::MemoryFabric;
    use hcl_fabric::Fabric;
    use std::sync::atomic::AtomicBool;

    type Harness =
        (Arc<Coalescer>, RpcServer, EpId, Arc<std::sync::atomic::AtomicU64>, DeadlineThread);

    fn harness(cfg: CoalesceConfig) -> Harness {
        let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
        let server_ep = EpId::new(0, 0);
        let client_ep = EpId::new(0, 1);
        let registry = Arc::new(RpcRegistry::new());
        let executions = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let e2 = Arc::clone(&executions);
        registry.bind_typed(9, move |_, _, x: u64| {
            e2.fetch_add(1, Ordering::Relaxed);
            x * 2
        });
        let server = RpcServer::start(
            server_ep,
            Arc::clone(&fabric),
            registry,
            ServerConfig { max_clients: 4, slot_cap: 1024, nic_cores: 1 },
        );
        let client = Arc::new(RpcClient::new(client_ep, fabric, 1024));
        let ticker = DeadlineThread::spawn();
        let coal = Coalescer::new(client, cfg, Arc::clone(ticker.deadlines()), None);
        (coal, server, server_ep, executions, ticker)
    }

    #[test]
    fn size_trigger_batches_ops() {
        let cfg = CoalesceConfig {
            max_ops: 4,
            adaptive: false,
            max_delay: Duration::from_secs(10),
            ..Default::default()
        };
        let (coal, server, dest, execs, _ticker) = harness(cfg);
        let futs: Vec<CoalescedFuture<u64>> =
            (0..8u64).map(|i| coal.submit_typed(dest, 9, &i)).collect();
        for (i, f) in futs.iter().enumerate() {
            assert_eq!(f.wait().unwrap(), i as u64 * 2);
        }
        let st = coal.stats();
        assert_eq!(st.coalesced_ops, 8);
        assert_eq!(st.batches, 2, "8 ops at max_ops=4 must make 2 batches");
        assert_eq!(st.size_flushes, 2);
        assert_eq!(execs.load(Ordering::Relaxed), 8);
        drop(server);
    }

    #[test]
    fn wait_demand_flushes_partial_batch() {
        let cfg = CoalesceConfig {
            max_ops: 64,
            max_delay: Duration::from_secs(10),
            ..Default::default()
        };
        let (coal, server, dest, _, _ticker) = harness(cfg);
        let f: CoalescedFuture<u64> = coal.submit_typed(dest, 9, &21u64);
        assert_eq!(f.wait().unwrap(), 42);
        let st = coal.stats();
        assert_eq!(st.batches, 1);
        assert_eq!(st.demand_flushes, 1);
        drop(server);
    }

    #[test]
    fn age_flusher_sends_stale_batch() {
        let cfg = CoalesceConfig {
            max_ops: 64,
            max_delay: Duration::from_millis(2),
            ..Default::default()
        };
        let (coal, server, dest, _, _ticker) = harness(cfg);
        let f: CoalescedFuture<u64> = coal.submit_typed(dest, 9, &5u64);
        // No wait, no size trigger: only the age flusher can send it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !f.is_ready() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(f.try_get().unwrap().unwrap(), 10);
        assert!(coal.stats().age_flushes >= 1);
        drop(server);
    }

    /// Holds the deadline thread for `hold`, then notes the fire count and
    /// the instant it let go.
    struct Slip {
        deadlines: Arc<Deadlines>,
        hold: Duration,
        end: Mutex<Option<(u64, Instant)>>,
    }

    impl DeadlineJob for Slip {
        fn fire(&self, _due: Instant) -> Option<Instant> {
            std::thread::sleep(self.hold);
            *self.end.lock() = Some((self.deadlines.fires(), Instant::now()));
            None
        }
    }

    #[test]
    fn busy_coalescer_fires_at_most_once_per_max_delay() {
        // Size flushes keep reopening the queue, so the age deadline stays
        // armed: the deadline thread wakes once per `max_delay` (plus the
        // wake that arms it), not on a timer tick. A 30 ms slip of the
        // thread midway is not caught up with a burst of fires.
        let max_delay = Duration::from_millis(2);
        let cfg = CoalesceConfig { max_ops: 4, adaptive: false, max_delay };
        let (coal, server, dest, _, ticker) = harness(cfg);
        let deadlines = Arc::clone(ticker.deadlines());
        let slip = Arc::new(Slip {
            deadlines: Arc::clone(&deadlines),
            hold: Duration::from_millis(30),
            end: Mutex::new(None),
        });
        let t0 = Instant::now();
        deadlines.arm(t0 + Duration::from_millis(30), slip.clone());
        while t0.elapsed() < Duration::from_millis(100) {
            let _: CoalescedFuture<u64> = coal.submit_typed(dest, 9, &1u64);
        }
        let (fires, wakeups, end) = (deadlines.fires(), deadlines.wakeups(), Instant::now());
        let (fires_at_slip_end, slip_end) = slip.end.lock().expect("the slip job ran");
        let periods = |d: Duration| (d.as_micros() / max_delay.as_micros()) as u64;
        let periods_in_run = periods(end - t0);
        assert!(
            wakeups <= periods_in_run + 3,
            "{wakeups} wake-ups in {periods_in_run} periods of max_delay"
        );
        let (after, periods_after) = (fires - fires_at_slip_end, periods(end - slip_end));
        assert!(
            after <= periods_after + 2,
            "{after} fires in the {periods_after} periods of max_delay after the slip"
        );
        drop(server);
    }

    #[test]
    fn age_fire_never_waits_for_a_busy_slot() {
        // All four of the client's slots hold requests the server sits on:
        // the age fire leaves the op staged and re-arms, rather than holding
        // the deadline thread until a slot frees, so a job due after it (a
        // relaxed log's flush gap, say) fires on time.
        let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
        let server_ep = EpId::new(0, 0);
        let registry = Arc::new(RpcRegistry::new());
        let gate = Arc::new(AtomicBool::new(false));
        let g2 = Arc::clone(&gate);
        registry.bind_typed(8, move |_, _, x: u64| {
            while !g2.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            x
        });
        let server = RpcServer::start(
            server_ep,
            Arc::clone(&fabric),
            registry,
            ServerConfig { max_clients: 4, slot_cap: 1024, nic_cores: 1 },
        );
        let client = Arc::new(RpcClient::new(EpId::new(0, 1), fabric, 1024));
        let ticker = DeadlineThread::spawn();
        let deadlines = Arc::clone(ticker.deadlines());
        let max_delay = Duration::from_millis(2);
        let cfg = CoalesceConfig { max_delay, ..Default::default() };
        let coal = Coalescer::new(Arc::clone(&client), cfg, Arc::clone(&deadlines), None);
        let held: Vec<_> =
            (0..4u64).map(|i| client.invoke_async::<u64, u64>(server_ep, 8, &i).unwrap()).collect();
        let f: CoalescedFuture<u64> = coal.submit_typed(server_ep, 8, &7u64);
        let later = Arc::new(Slip {
            deadlines: Arc::clone(&deadlines),
            hold: Duration::ZERO,
            end: Mutex::new(None),
        });
        let later_due = Instant::now() + Duration::from_millis(10);
        deadlines.arm(later_due, later.clone());
        std::thread::sleep(Duration::from_millis(40));
        let (fires, batches) = (deadlines.fires(), coal.stats().batches);
        let later_fired = *later.end.lock();
        gate.store(true, Ordering::Release);
        assert!(fires >= 5, "the age fire blocked: {fires} fires");
        assert_eq!(batches, 0, "a batch went out while every slot was busy");
        let (_, later_at) = later_fired.expect("a later deadline waited behind the busy slot");
        assert!(later_at - later_due < Duration::from_millis(25), "the later deadline slipped");
        let give_up = Instant::now() + Duration::from_secs(5);
        while !f.is_ready() && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(f.try_get().unwrap().unwrap(), 7, "a later age fire sends the staged op");
        assert_eq!(coal.stats().age_flushes, 1);
        for (i, h) in held.iter().enumerate() {
            assert_eq!(h.wait().unwrap(), i as u64);
        }
        drop(server);
    }

    #[test]
    fn aimd_target_grows_on_size_and_shrinks_on_demand() {
        let cfg = CoalesceConfig {
            max_ops: 64,
            max_delay: Duration::from_secs(10),
            ..Default::default()
        };
        let (coal, server, dest, _, _ticker) = harness(cfg);
        // Submit `n` ops; the 1-based submits that tripped a size flush.
        let size_flushes_at = |n: u64| {
            let mut at = Vec::new();
            let futs: Vec<CoalescedFuture<u64>> = (1..=n)
                .map(|i| {
                    let before = coal.stats().size_flushes;
                    let f = coal.submit_typed(dest, 9, &i);
                    if coal.stats().size_flushes > before {
                        at.push(i);
                    }
                    f
                })
                .collect();
            for f in &futs {
                f.wait().unwrap();
            }
            at
        };
        // The target starts at 4 and doubles per size flush: a 4-op batch,
        // then an 8-op batch (the target is now 16).
        assert_eq!(size_flushes_at(12), vec![4, 12]);
        // A demand flush halves it to 8.
        let f: CoalescedFuture<u64> = coal.submit_typed(dest, 9, &1u64);
        f.wait().unwrap();
        assert_eq!(coal.stats().demand_flushes, 1);
        assert_eq!(size_flushes_at(8), vec![8]);
        drop(server);
    }

    #[test]
    fn failed_flush_resolves_every_staged_op_with_its_error() {
        // A batch whose send fails — here, to an endpoint no one registered
        // — leaves each of its ops with that one error, through `wait` and
        // `try_get` alike.
        let cfg = CoalesceConfig {
            max_ops: 64,
            max_delay: Duration::from_secs(10),
            ..Default::default()
        };
        let (coal, server, _, execs, _ticker) = harness(cfg);
        let nowhere = EpId::new(7, 7);
        let futs: Vec<CoalescedFuture<u64>> =
            (0..3u64).map(|i| coal.submit_typed(nowhere, 9, &i)).collect();
        assert!(futs.iter().all(|f| f.try_get().is_none()), "staged ops are not resolved");
        let err = futs[0].wait().unwrap_err();
        assert_eq!(err, RpcError::Fabric(hcl_fabric::FabricError::UnknownEndpoint(nowhere)));
        for f in &futs {
            assert!(f.is_ready());
            assert_eq!(f.try_get().unwrap().unwrap_err(), err);
            assert_eq!(f.wait().unwrap_err(), err);
        }
        let st = coal.stats();
        assert_eq!((st.batches, st.demand_flushes, execs.load(Ordering::Relaxed)), (1, 1, 0));
        drop(server);
    }

    #[test]
    fn flush_orders_batch_before_subsequent_sync_op() {
        // Flush-before-sync at the rpc layer: staged async ops reach the
        // (single-core) server before a subsequent direct invocation.
        let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
        let server_ep = EpId::new(0, 0);
        let client_ep = EpId::new(0, 1);
        let registry = Arc::new(RpcRegistry::new());
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        registry.bind_typed(1, move |_, _, x: u64| {
            l2.lock().push(x);
            x
        });
        let server = RpcServer::start(
            server_ep,
            Arc::clone(&fabric),
            registry,
            ServerConfig { max_clients: 4, slot_cap: 1024, nic_cores: 1 },
        );
        let client = Arc::new(RpcClient::new(client_ep, fabric, 1024));
        let ticker = DeadlineThread::spawn();
        let coal = Coalescer::new(
            Arc::clone(&client),
            CoalesceConfig { max_delay: Duration::from_secs(10), ..Default::default() },
            Arc::clone(ticker.deadlines()),
            None,
        );
        for i in 0..3u64 {
            let _ = coal.submit_typed::<u64, u64>(server_ep, 1, &i);
        }
        coal.flush(server_ep);
        let _: u64 = client.invoke(server_ep, 1, &99u64).unwrap();
        assert_eq!(&*log.lock(), &[0, 1, 2, 99]);
        drop(server);
    }
}

#[cfg(test)]
mod low_core_regression {
    //! Regression tests for the near-livelock seen on low-core hosts: many
    //! clients polling one multi-NIC-core server starved the worker threads
    //! whenever the poll escalation lingered in its yield phase. These run
    //! windowed coalesced bursts exactly like the pr3 bench's batched mode;
    //! they must complete promptly regardless of host parallelism.

    use super::*;
    use crate::deadline::DeadlineThread;
    use crate::server::{RpcServer, ServerConfig};
    use crate::RpcRegistry;
    use hcl_fabric::memory::MemoryFabric;
    use hcl_fabric::Fabric;

    fn doubling_server(fabric: &Arc<dyn Fabric>, max_clients: u32) -> RpcServer {
        let registry = Arc::new(RpcRegistry::new());
        registry.bind_typed(9, move |_, _, x: u64| x * 2);
        RpcServer::start(
            EpId::new(0, 0),
            Arc::clone(fabric),
            registry,
            ServerConfig { max_clients, slot_cap: 1024, nic_cores: 2 },
        )
    }

    fn windowed_burst(coal: &Arc<Coalescer>, dest: EpId, ops: u64) {
        let mut i = 0u64;
        while i < ops {
            let end = (i + 256).min(ops);
            let futs: Vec<CoalescedFuture<u64>> =
                (i..end).map(|v| coal.submit_typed(dest, 9, &v)).collect();
            for (j, f) in futs.iter().enumerate() {
                assert_eq!(f.wait().unwrap(), (i + j as u64) * 2);
            }
            i = end;
        }
    }

    #[test]
    fn windowed_bursts_survive_two_nic_cores() {
        let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
        let server = doubling_server(&fabric, 4);
        let client = Arc::new(RpcClient::new(EpId::new(0, 1), fabric, 1024));
        let ticker = DeadlineThread::spawn();
        let coal =
            Coalescer::new(client, CoalesceConfig::default(), Arc::clone(ticker.deadlines()), None);
        windowed_burst(&coal, server.endpoint(), 2000);
        drop(server);
    }

    #[test]
    fn windowed_bursts_survive_two_nic_cores_eight_clients() {
        let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
        let server = doubling_server(&fabric, 16);
        let dest = server.endpoint();
        let ticker = DeadlineThread::spawn();
        let t0 = Instant::now();
        let mut threads = Vec::new();
        for r in 1..9u32 {
            let fabric = Arc::clone(&fabric);
            let deadlines = Arc::clone(ticker.deadlines());
            threads.push(std::thread::spawn(move || {
                let client = Arc::new(RpcClient::new(EpId::new(0, r), fabric, 1024));
                let coal = Coalescer::new(client, CoalesceConfig::default(), deadlines, None);
                windowed_burst(&coal, dest, 2000);
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        // 16k trivial ops; generous bound that still catches the livelock
        // regime (which took tens of seconds when it bit).
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "coalesced bursts starved the NIC workers: {:?}",
            t0.elapsed()
        );
        drop(server);
    }
}
