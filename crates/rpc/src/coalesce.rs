//! Adaptive per-destination op coalescing — the paper's §III-B *request
//! aggregation* ("aggregate multiple instructions before execution") applied
//! transparently to asynchronous container operations.
//!
//! Each `(client rank, destination server)` pair owns a submission queue.
//! Async ops stage their `(fn_id, args)` into the queue's [`BatchArena`]
//! (one growing buffer, not a `Vec` per op) and get back a [`CallHandle`].
//! The queue flushes as one [`crate::FLAG_BATCH`] request when any of three
//! triggers fires:
//!
//! * **size** — the op count reaches the adaptive target (or the staged
//!   bytes reach 48 KiB);
//! * **age** — a background flusher notices the oldest staged op has waited
//!   [`CoalesceConfig::max_delay`];
//! * **demand** — a handle is waited on, or a *synchronous* op to the same
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
use crate::{decode, FnId, RpcError, RpcResult};

/// Flush a destination queue once its staged argument bytes reach this,
/// whatever the op count.
const MAX_BATCH_BYTES: usize = 48 * 1024;

/// Coalescing policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoalesceConfig {
    /// Hard ceiling on ops per batch (also the AIMD target's ceiling).
    pub max_ops: usize,
    /// Maximum time a staged op may wait before the age flusher sends it.
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
    /// Flushes triggered by the age flusher.
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

/// One flushed batch: the future plus a decoded-response cache so each of
/// the batch's handles pays the decode once and clones `Bytes` windows.
struct SentBatch {
    fut: BatchFuture,
    cache: Mutex<Option<RpcResult<Vec<Bytes>>>>,
    /// Flush time, for the batch round-trip latency histogram.
    sent_at: Instant,
    metrics: Option<CoalesceMetrics>,
}

impl SentBatch {
    /// The cache just transitioned empty → filled: the batch completed.
    fn on_complete(&self) {
        if let Some(m) = &self.metrics {
            m.batch_latency_ns.record_duration(self.sent_at.elapsed());
        }
    }

    fn result(&self) -> RpcResult<Vec<Bytes>> {
        let mut c = self.cache.lock();
        if c.is_none() {
            *c = Some(self.fut.wait());
            self.on_complete();
        }
        c.clone().expect("cached batch result")
    }

    fn try_result(&self) -> Option<RpcResult<Vec<Bytes>>> {
        let mut c = self.cache.lock();
        if c.is_none() {
            *c = Some(self.fut.try_wait()?);
            self.on_complete();
        }
        c.clone()
    }

    /// Entry `index` of the decoded responses.
    fn entry(resps: RpcResult<Vec<Bytes>>, index: usize) -> RpcResult<Bytes> {
        resps?.get(index).cloned().ok_or_else(|| RpcError::Decode("batch response index".into()))
    }
}

/// Per-destination submission queue: the staged calls (no per-op
/// allocation) and their pending handles.
struct DestQueue {
    dest: EpId,
    calls: BatchArena,
    handles: Vec<Arc<Mutex<CallState>>>,
    opened: Option<Instant>,
    /// AIMD size target for this destination.
    target_ops: usize,
}

impl DestQueue {
    fn new(dest: EpId) -> Self {
        DestQueue {
            dest,
            calls: BatchArena::default(),
            handles: Vec::new(),
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

/// The per-rank op coalescer. Create with [`Coalescer::spawn`]; share via
/// `Arc` (handles keep the coalescer alive so they can self-flush).
pub struct Coalescer {
    client: Arc<RpcClient>,
    cfg: CoalesceConfig,
    dests: Mutex<HashMap<EpId, Arc<Mutex<DestQueue>>>>,
    stats: CoalesceStats,
    /// Telemetry handles, installed once after `spawn` (the coalescer is
    /// already behind an `Arc` by then, hence `OnceLock` not `&mut`).
    metrics: std::sync::OnceLock<CoalesceMetrics>,
}

impl Coalescer {
    /// Create a coalescer over `client` and start its background age
    /// flusher. The flusher holds only a `Weak` reference and exits on its
    /// next tick after the last `Arc<Coalescer>` drops.
    pub fn spawn(client: Arc<RpcClient>, cfg: CoalesceConfig) -> Arc<Coalescer> {
        let c = Arc::new(Coalescer {
            client,
            cfg,
            dests: Mutex::new(HashMap::new()),
            stats: CoalesceStats::default(),
            metrics: std::sync::OnceLock::new(),
        });
        if cfg.max_delay > Duration::ZERO {
            let weak = Arc::downgrade(&c);
            let tick = cfg.max_delay.max(Duration::from_micros(50));
            std::thread::Builder::new()
                .name("hcl-coalesce-age".into())
                .spawn(move || loop {
                    std::thread::sleep(tick);
                    let Some(c) = weak.upgrade() else { break };
                    c.flush_aged();
                })
                .expect("spawn coalescer age flusher");
        }
        c
    }

    /// Install telemetry handles: the batch-size and batch-latency
    /// histograms plus the flight recorder. A second install is ignored.
    pub fn install_metrics(&self, metrics: CoalesceMetrics) {
        let _ = self.metrics.set(metrics);
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

    /// The current AIMD size target for `dest` (`None` before any submit).
    pub fn target_ops(&self, dest: EpId) -> Option<usize> {
        self.dests.lock().get(&dest).map(|q| q.lock().target_ops)
    }

    /// Stage one op for `dest`; `pack` appends its argument bytes to the
    /// queue's arena. May flush inline when a size threshold trips.
    pub fn submit(
        self: &Arc<Self>,
        dest: EpId,
        fn_id: FnId,
        pack: impl FnOnce(&mut Vec<u8>),
    ) -> CallHandle {
        let q = {
            let mut dests = self.dests.lock();
            Arc::clone(
                dests.entry(dest).or_insert_with(|| Arc::new(Mutex::new(DestQueue::new(dest)))),
            )
        };
        let mut g = q.lock();
        if g.calls.is_empty() {
            g.opened = Some(Instant::now());
        }
        g.calls.push_with(fn_id, pack);
        let shared = Arc::new(Mutex::new(CallState::Queued));
        g.handles.push(Arc::clone(&shared));
        // ORDERING: Relaxed statistic.
        self.stats.coalesced_ops.fetch_add(1, Ordering::Relaxed);
        let target = if self.cfg.adaptive { g.target_ops } else { self.cfg.max_ops };
        let full = g.calls.len() >= target.clamp(1, self.cfg.max_ops);
        if full || g.calls.bytes() >= MAX_BATCH_BYTES {
            self.flush_queue(&mut g, FlushCause::Size);
        }
        CallHandle { shared, dest, coal: Arc::clone(self) }
    }

    /// Typed submit: pack `args`, decode the response as `R` on wait.
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
        self.submit(dest, fn_id, |out| args.pack(out)).typed()
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

    fn flush_aged(&self) {
        let now = Instant::now();
        let qs: Vec<_> = self.dests.lock().values().cloned().collect();
        for q in qs {
            let mut g = q.lock();
            if !g.calls.is_empty()
                && g.opened.is_some_and(|t0| now.duration_since(t0) >= self.cfg.max_delay)
            {
                self.flush_queue(&mut g, FlushCause::Age);
            }
        }
    }

    /// Send the staged ops as one batch. Runs under the destination lock,
    /// so concurrent submitters to this destination order strictly after
    /// the flushed batch.
    fn flush_queue(&self, g: &mut DestQueue, cause: FlushCause) {
        if self.cfg.adaptive {
            match cause {
                // Batch filled on its own: contention is high, aim bigger.
                FlushCause::Size => g.target_ops = (g.target_ops * 2).min(self.cfg.max_ops),
                // A waiter paid latency for depth: aim smaller.
                FlushCause::Demand => g.target_ops = (g.target_ops / 2).max(1),
                FlushCause::Age => {}
            }
        }
        let result = self.client.invoke_batch_slices(g.dest, g.calls.calls());
        // ORDERING: Relaxed statistics.
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        let cause_ctr = match cause {
            FlushCause::Size => &self.stats.size_flushes,
            FlushCause::Age => &self.stats.age_flushes,
            FlushCause::Demand => &self.stats.demand_flushes,
        };
        // ORDERING: Relaxed statistics.
        cause_ctr.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics.get() {
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
                    metrics: self.metrics.get().cloned(),
                });
                for (i, h) in g.handles.iter().enumerate() {
                    *h.lock() = CallState::Sent { batch: Arc::clone(&batch), index: i };
                }
            }
            Err(e) => {
                for h in &g.handles {
                    *h.lock() = CallState::Failed(e.clone());
                }
            }
        }
        g.calls.clear();
        g.handles.clear();
        g.opened = None;
    }
}

/// Handle to one coalesced op; resolves to the op's own response bytes.
pub struct CallHandle {
    shared: Arc<Mutex<CallState>>,
    dest: EpId,
    coal: Arc<Coalescer>,
}

impl CallHandle {
    /// Block for this op's response. A still-queued op demand-flushes its
    /// destination first.
    pub fn wait(&self) -> RpcResult<Bytes> {
        loop {
            let state = self.shared.lock().clone();
            match state {
                CallState::Queued => self.coal.flush(self.dest),
                CallState::Sent { batch, index } => return SentBatch::entry(batch.result(), index),
                CallState::Failed(e) => return Err(e),
            }
        }
    }

    /// Non-blocking probe; `None` while queued or in flight.
    pub fn try_get(&self) -> Option<RpcResult<Bytes>> {
        let state = self.shared.lock().clone();
        match state {
            CallState::Queued => None,
            CallState::Sent { batch, index } => {
                batch.try_result().map(|r| SentBatch::entry(r, index))
            }
            CallState::Failed(e) => Some(Err(e)),
        }
    }

    /// True once resolved.
    pub fn is_ready(&self) -> bool {
        self.try_get().is_some()
    }

    /// Wrap into a typed future.
    pub fn typed<T: DataBox>(self) -> CoalescedFuture<T> {
        CoalescedFuture { handle: self, _t: PhantomData }
    }
}

/// A typed future over a coalesced op (mirrors [`crate::client::RpcFuture`]).
pub struct CoalescedFuture<T> {
    handle: CallHandle,
    _t: PhantomData<fn() -> T>,
}

impl<T: DataBox> CoalescedFuture<T> {
    /// Block for the response and decode it.
    pub fn wait(&self) -> RpcResult<T> {
        decode(&self.handle.wait()?)
    }

    /// Non-blocking completion check.
    pub fn try_get(&self) -> Option<RpcResult<T>> {
        self.handle.try_get().map(|r| r.and_then(|b| decode(&b)))
    }

    /// True once the response has arrived.
    pub fn is_ready(&self) -> bool {
        self.handle.is_ready()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{RpcServer, ServerConfig};
    use crate::RpcRegistry;
    use hcl_fabric::memory::MemoryFabric;
    use hcl_fabric::Fabric;

    fn harness(
        cfg: CoalesceConfig,
    ) -> (Arc<Coalescer>, RpcServer, EpId, Arc<std::sync::atomic::AtomicU64>) {
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
        let coal = Coalescer::spawn(client, cfg);
        (coal, server, server_ep, executions)
    }

    #[test]
    fn size_trigger_batches_ops() {
        let cfg = CoalesceConfig {
            max_ops: 4,
            adaptive: false,
            max_delay: Duration::from_secs(10),
            ..Default::default()
        };
        let (coal, server, dest, execs) = harness(cfg);
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
        server.shutdown();
    }

    #[test]
    fn wait_demand_flushes_partial_batch() {
        let cfg = CoalesceConfig {
            max_ops: 64,
            max_delay: Duration::from_secs(10),
            ..Default::default()
        };
        let (coal, server, dest, _) = harness(cfg);
        let f: CoalescedFuture<u64> = coal.submit_typed(dest, 9, &21u64);
        assert_eq!(f.wait().unwrap(), 42);
        let st = coal.stats();
        assert_eq!(st.batches, 1);
        assert_eq!(st.demand_flushes, 1);
        server.shutdown();
    }

    #[test]
    fn age_flusher_sends_stale_batch() {
        let cfg = CoalesceConfig {
            max_ops: 64,
            max_delay: Duration::from_millis(2),
            ..Default::default()
        };
        let (coal, server, dest, _) = harness(cfg);
        let f: CoalescedFuture<u64> = coal.submit_typed(dest, 9, &5u64);
        // No wait, no size trigger: only the age flusher can send it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !f.is_ready() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(f.try_get().unwrap().unwrap(), 10);
        assert!(coal.stats().age_flushes >= 1);
        server.shutdown();
    }

    #[test]
    fn aimd_target_grows_on_size_and_shrinks_on_demand() {
        let cfg = CoalesceConfig {
            max_ops: 64,
            max_delay: Duration::from_secs(10),
            ..Default::default()
        };
        let (coal, server, dest, _) = harness(cfg);
        // Fill batches: target starts at 4 and doubles per size flush.
        let futs: Vec<CoalescedFuture<u64>> =
            (0..12u64).map(|i| coal.submit_typed(dest, 9, &i)).collect();
        // 4-op flush (target -> 8), then 8-op flush (target -> 16).
        assert_eq!(coal.target_ops(dest), Some(16));
        for f in &futs {
            f.wait().unwrap();
        }
        // A demand flush halves it.
        let f: CoalescedFuture<u64> = coal.submit_typed(dest, 9, &1u64);
        f.wait().unwrap();
        assert_eq!(coal.target_ops(dest), Some(8));
        server.shutdown();
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
        let coal = Coalescer::spawn(
            Arc::clone(&client),
            CoalesceConfig { max_delay: Duration::from_secs(10), ..Default::default() },
        );
        for i in 0..3u64 {
            let _ = coal.submit_typed::<u64, u64>(server_ep, 1, &i);
        }
        coal.flush(server_ep);
        let _: u64 = client.invoke(server_ep, 1, &99u64).unwrap();
        assert_eq!(&*log.lock(), &[0, 1, 2, 99]);
        server.shutdown();
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
        let coal = Coalescer::spawn(client, CoalesceConfig::default());
        windowed_burst(&coal, server.endpoint(), 2000);
        server.shutdown();
    }

    #[test]
    fn windowed_bursts_survive_two_nic_cores_eight_clients() {
        let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
        let server = doubling_server(&fabric, 16);
        let dest = server.endpoint();
        let t0 = Instant::now();
        let mut threads = Vec::new();
        for r in 1..9u32 {
            let fabric = Arc::clone(&fabric);
            threads.push(std::thread::spawn(move || {
                let client = Arc::new(RpcClient::new(EpId::new(0, r), fabric, 1024));
                let coal = Coalescer::spawn(client, CoalesceConfig::default());
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
        server.shutdown();
    }
}
