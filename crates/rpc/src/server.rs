//! The RoR server: worker threads playing the NIC cores of Fig. 2.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcl_fabric::{EpId, Fabric};
use hcl_mem::{Segment, SegmentAllocator};
use parking_lot::Mutex;

use crate::{
    decode_batch, resp_key, slot_offset, Binding, FnId, Request, RpcError, RpcRegistry, RpcResult,
    FLAG_BATCH, FLAG_IDEMPOTENT, SLOTS_PER_CLIENT, SLOT_HDR,
};

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Highest client rank + 1 (sizes the response slot table).
    pub max_clients: u32,
    /// Inline response capacity per slot (larger responses spill).
    pub slot_cap: usize,
    /// Worker threads — the emulated NIC cores (Mellanox BlueField-class
    /// NICs are multi-core, §I).
    pub nic_cores: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_clients: 64, slot_cap: crate::DEFAULT_SLOT_CAP, nic_cores: 2 }
    }
}

/// Seen-request window capacity for [`FLAG_IDEMPOTENT`] dedup: how many
/// recently executed `(caller, req_id)` pairs (with their cached responses)
/// are remembered.
const DEDUP_WINDOW: usize = 1024;

thread_local! {
    /// The `(caller rank, composed seq)` identity of the request the current
    /// NIC worker is executing — the durability layer's recovery descriptor,
    /// sharing the dedup window's identity scheme.
    static CURRENT_IDENTITY: std::cell::Cell<Option<(u32, u64)>> =
        const { std::cell::Cell::new(None) };
}

/// The identity of the in-flight request on this thread, if it is an RPC
/// worker mid-handler: `(caller rank, req_id << 16 | batch_index)`, where a
/// non-batched call uses batch index 0 and the `i`-th call of an aggregated
/// request uses `i + 1`. `None` on rank threads (the hybrid local bypass) —
/// durable containers then stamp a local sequence instead.
pub fn current_request_identity() -> Option<(u32, u64)> {
    CURRENT_IDENTITY.with(|c| c.get())
}

/// Compose the wire-level `(req_id, batch index)` pair into the one `seq`
/// word a recovery descriptor carries.
fn compose_seq(req_id: u64, batch_index: u64) -> u64 {
    (req_id << 16) | (batch_index & 0xFFFF)
}

/// Scope guard: publishes `identity` for the extent of a handler run.
struct IdentityScope;

impl IdentityScope {
    fn enter(rank: u32, req_id: u64, batch_index: u64) -> IdentityScope {
        CURRENT_IDENTITY.with(|c| c.set(Some((rank, compose_seq(req_id, batch_index)))));
        IdentityScope
    }
}

impl Drop for IdentityScope {
    fn drop(&mut self) {
        CURRENT_IDENTITY.with(|c| c.set(None));
    }
}

/// A durability barrier a handler defers to the acknowledgement of the
/// request it runs under: "everything up to `lsn` must be durable before
/// this request's response leaves". `hcl-rpc` knows nothing about logs — the
/// durability layer implements this over its write-ahead log.
pub trait AckBarrier: Send + Sync {
    /// Make everything up to `lsn` durable. Free when it already is.
    fn commit(&self, lsn: u64) -> std::io::Result<()>;
}

/// What the handlers of the request executing on this NIC worker still owe
/// before its response may be published.
struct AckScopeState {
    /// This thread is an RPC worker: handlers run inside a request.
    active: bool,
    /// A handler could not log what it applied; the request must not be
    /// acknowledged.
    poisoned: bool,
    /// One entry per distinct barrier, with the highest LSN asked of it.
    barriers: Vec<(Arc<dyn AckBarrier>, u64)>,
}

thread_local! {
    /// The per-request ack scope of the current NIC worker. Inactive on every
    /// other thread (rank threads on the hybrid bypass, forwarder threads).
    static ACK_SCOPE: std::cell::RefCell<AckScopeState> = const {
        std::cell::RefCell::new(AckScopeState {
            active: false,
            poisoned: false,
            barriers: Vec::new(),
        })
    };
}

/// Defer `barrier.commit(lsn)` to the acknowledgement of the request this
/// thread is executing: the worker runs it once, after the request's last
/// handler and before the response is published, however many handlers of
/// the request registered the same barrier. Returns `false` when this thread
/// is not executing a request — the caller then commits inline.
pub fn defer_to_ack_scope(barrier: &Arc<dyn AckBarrier>, lsn: u64) -> bool {
    ACK_SCOPE.with(|s| {
        let mut s = s.borrow_mut();
        if !s.active {
            return false;
        }
        let key = Arc::as_ptr(barrier).cast::<()>();
        match s.barriers.iter_mut().find(|(b, _)| Arc::as_ptr(b).cast::<()>() == key) {
            Some((_, max)) => *max = (*max).max(lsn),
            None => s.barriers.push((Arc::clone(barrier), lsn)),
        }
        true
    })
}

/// Mark the request this thread is executing as impossible to acknowledge
/// truthfully (a handler applied a mutation it could not log): its response
/// is dropped exactly as if a barrier had failed. No-op outside a request.
pub fn poison_ack_scope() {
    ACK_SCOPE.with(|s| {
        let mut s = s.borrow_mut();
        if s.active {
            s.poisoned = true;
        }
    });
}

/// Scope guard: marks this thread as an RPC worker for the guard's lifetime.
/// The state is per-request because the worker settles it before every
/// publish.
struct AckScope;

impl AckScope {
    fn enter() -> AckScope {
        ACK_SCOPE.with(|s| s.borrow_mut().active = true);
        AckScope
    }

    /// Settle the request that just ran its last handler: commit every
    /// registered barrier once and leave the scope empty for the next
    /// request. `Err` means the response must not be published.
    fn settle(&self) -> std::io::Result<()> {
        let owed = ACK_SCOPE.with(|s| {
            let mut s = s.borrow_mut();
            (s.poisoned || !s.barriers.is_empty())
                .then(|| (std::mem::take(&mut s.poisoned), std::mem::take(&mut s.barriers)))
        });
        let Some((poisoned, mut barriers)) = owed else { return Ok(()) };
        let mut res = if poisoned {
            Err(std::io::Error::other("a handler applied a mutation it could not log"))
        } else {
            Ok(())
        };
        // Committed outside the borrow: a barrier is foreign code. After a
        // failure the response is dropped anyway, so the rest are skipped.
        for (barrier, lsn) in barriers.drain(..) {
            if res.is_ok() {
                res = barrier.commit(lsn);
            }
        }
        // Hand the allocation back so steady-state requests push for free.
        ACK_SCOPE.with(|s| s.borrow_mut().barriers = barriers);
        res
    }
}

impl Drop for AckScope {
    fn drop(&mut self) {
        ACK_SCOPE.with(|s| {
            let mut s = s.borrow_mut();
            s.active = false;
            s.poisoned = false;
            s.barriers.clear();
        });
    }
}

/// Dedup state for one retransmittable request id.
enum DedupEntry {
    /// A NIC core is executing it right now; duplicates are dropped (the
    /// original execution will publish the response).
    InProgress,
    /// Executed; the cached response can be republished for late duplicates.
    Done(Vec<u8>),
}

/// Bounded FIFO window of recently seen retransmittable requests.
struct DedupWindow {
    entries: HashMap<(u32, u64), DedupEntry>,
    order: std::collections::VecDeque<(u32, u64)>,
    cap: usize,
}

impl DedupWindow {
    fn new(cap: usize) -> Self {
        DedupWindow { entries: HashMap::new(), order: std::collections::VecDeque::new(), cap }
    }

    /// Look up `key`, or claim it as in-progress (evicting the oldest entry
    /// once the window is full). `None` means the caller must execute.
    fn check_or_claim(&mut self, key: (u32, u64)) -> Option<&DedupEntry> {
        if self.entries.contains_key(&key) {
            return self.entries.get(&key);
        }
        while self.order.len() >= self.cap {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
        self.entries.insert(key, DedupEntry::InProgress);
        self.order.push_back(key);
        None
    }

    /// Record the executed response (unless the entry was evicted mid-run).
    fn complete(&mut self, key: (u32, u64), response: Vec<u8>) {
        if let Some(e) = self.entries.get_mut(&key) {
            *e = DedupEntry::Done(response);
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.order.len()
    }
}

/// Profiling counters for the server (feeds the Fig. 4-style comparisons at
/// the real-execution level).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests executed (batch counts once per inner call).
    pub requests: AtomicU64,
    /// Nanoseconds NIC cores spent executing handlers.
    pub busy_ns: AtomicU64,
    /// Requests that spilled to the overflow area.
    pub overflow_responses: AtomicU64,
    /// Retransmitted requests answered from the dedup window (or dropped as
    /// in-progress) instead of re-executing.
    pub deduped: AtomicU64,
    /// Epoch-tagged requests rejected at the ownership gate (stale epoch):
    /// the handler never ran; the caller re-resolves and re-issues.
    pub wrong_epoch: AtomicU64,
    /// Executed requests whose response was dropped because a durability
    /// barrier they registered failed (or a handler could not log): never
    /// acknowledged, never re-executed; the caller ends in its retry budget.
    pub ack_failures: AtomicU64,
    /// Received messages that did not parse as a request — shorter than the
    /// header, cut inside the chain, tagged with an epoch they do not carry,
    /// or a batch whose frame does not decode — and were dropped unanswered.
    pub malformed: AtomicU64,
}

impl ServerStats {
    fn snapshot(&self) -> ServerStatsSnapshot {
        // ORDERING: Relaxed statistics.
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServerStatsSnapshot {
            requests: get(&self.requests),
            busy_ns: get(&self.busy_ns),
            overflow_responses: get(&self.overflow_responses),
            deduped: get(&self.deduped),
            wrong_epoch: get(&self.wrong_epoch),
            ack_failures: get(&self.ack_failures),
            malformed: get(&self.malformed),
        }
    }
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStatsSnapshot {
    /// Requests executed.
    pub requests: u64,
    /// Nanoseconds spent in handlers.
    pub busy_ns: u64,
    /// Overflow responses.
    pub overflow_responses: u64,
    /// Duplicate requests absorbed by the dedup window.
    pub deduped: u64,
    /// Epoch-tagged requests rejected at the ownership gate.
    pub wrong_epoch: u64,
    /// Executed requests dropped unacknowledged on a failed ack barrier.
    pub ack_failures: u64,
    /// Messages dropped because they did not parse as a request.
    pub malformed: u64,
}

/// What every NIC core of one server shares.
struct Pipeline {
    ep: EpId,
    registry: Arc<RpcRegistry>,
    dedup: Mutex<DedupWindow>,
    stats: Arc<ServerStats>,
}

impl Pipeline {
    fn new(ep: EpId, registry: Arc<RpcRegistry>) -> Arc<Pipeline> {
        let dedup = Mutex::new(DedupWindow::new(DEDUP_WINDOW));
        Arc::new(Pipeline { ep, registry, dedup, stats: Arc::default() })
    }
}

/// One NIC core's request pipeline and the scratch it reuses across
/// requests: what every server worker runs on each received message.
///
/// Usable on any thread, one per thread: it marks its thread as an RPC
/// worker for the lifetime of the core, so handlers defer their durability
/// barriers to the request they run under ([`defer_to_ack_scope`]).
pub struct NicCore {
    pipe: Arc<Pipeline>,
    /// The framed response under construction.
    resp: Vec<u8>,
    /// Intermediate outputs of a callback chain.
    chain: Vec<u8>,
    ack: AckScope,
}

/// A framed response and the slot it belongs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply<'a> {
    /// The caller's response slot.
    pub slot: u32,
    /// The request id the slot's sequence word will carry.
    pub req_id: u64,
    /// The bytes to publish.
    pub bytes: &'a [u8],
}

impl NicCore {
    /// A standalone core serving `registry` as endpoint `ep`, with its own
    /// dedup window and counters.
    pub fn new(ep: EpId, registry: Arc<RpcRegistry>) -> NicCore {
        NicCore::on(Pipeline::new(ep, registry))
    }

    fn on(pipe: Arc<Pipeline>) -> NicCore {
        // Sized for the common small response: handlers append into it
        // (out-param contract), so steady-state requests allocate nothing.
        NicCore { pipe, resp: Vec::with_capacity(1024), chain: Vec::new(), ack: AckScope::enter() }
    }

    /// Serve one received message from `caller`: decode, dedup, epoch gate,
    /// execute (batch | chain), settle the ack scope, frame, record for
    /// dedup. `None` when nothing may be published: a malformed message, a
    /// duplicate of a request still executing, or a request whose
    /// durability barrier failed.
    ///
    /// The response of a non-batch request is framed
    /// `[status u8 if FLAG_EPOCH][body]`: the status byte is reserved before
    /// the body and back-patched on a rejection. [`unframe`] is the exact
    /// inverse.
    pub fn serve(&mut self, caller: EpId, msg: &[u8]) -> Option<Reply<'_>> {
        let NicCore { pipe, resp, chain, ack } = self;
        let stats = &pipe.stats;
        // A batch is decoded here, before the dedup claim, so a malformed
        // one is dropped unanswered like any other malformed message.
        let parsed = Request::decode(msg).and_then(|req| {
            let batch = req.flags & FLAG_BATCH != 0;
            Some((req, if batch { Some(decode_batch(req.args)?) } else { None }))
        });
        let Some((req, calls)) = parsed else {
            // ORDERING: Relaxed statistic.
            stats.malformed.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        resp.clear();
        // Retransmittable request: execute at most once.
        let dedup_key = (caller.rank, req.req_id);
        let idempotent = req.flags & FLAG_IDEMPOTENT != 0;
        if idempotent {
            let mut w = pipe.dedup.lock();
            if let Some(seen) = w.check_or_claim(dedup_key) {
                // ORDERING: Relaxed statistic.
                stats.deduped.fetch_add(1, Ordering::Relaxed);
                // In progress: another core runs the original and will
                // publish. Done: the response may have been lost to the
                // requester, so publish it again.
                let DedupEntry::Done(cached) = seen else { return None };
                resp.extend_from_slice(cached);
                return Some(Reply { slot: req.slot, req_id: req.req_id, bytes: resp });
            }
        }
        let t0 = Instant::now();
        let single = calls.is_none();
        if req.epoch.is_some() {
            resp.push(0);
        }
        let first = req.chain().next().filter(|_| single).and_then(|id| pipe.registry.get(id));
        // Ownership-epoch gate, *before* executing: a stale epoch means
        // ownership may have moved since the caller resolved this server, so
        // the handler must not run here. The rejection is still an answer
        // (published and dedup-cached), so the transport never retransmits
        // it; the dispatch layer re-resolves and re-issues.
        let stale = match (req.epoch, first.as_deref()) {
            (Some(sent), Some(b)) => b.admit(sent).err(),
            _ => None,
        };
        if let Some(current) = stale {
            // ORDERING: Relaxed statistic.
            stats.wrong_epoch.fetch_add(1, Ordering::Relaxed);
            *resp.last_mut().expect("status byte reserved") = 1;
            resp.extend_from_slice(&current.to_le_bytes());
        } else if let Some(calls) = calls {
            run_batch(pipe, resp, caller, &req, calls);
        } else {
            // ORDERING: Relaxed statistic.
            stats.requests.fetch_add(1, Ordering::Relaxed);
            run_chain(pipe, resp, chain, caller, &req, first.as_deref());
        }
        // Ack barrier: whatever the handlers deferred (strict-durability log
        // commits) happens here, once per request, before anything below can
        // tell anyone the request succeeded.
        let settled = ack.settle();
        // ORDERING: Relaxed statistic.
        stats.busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if settled.is_err() {
            // Not durable, so not acknowledged: no response, and the dedup
            // entry stays `InProgress` so retransmissions are dropped instead
            // of re-executing. The caller runs out its retry budget.
            // ORDERING: Relaxed statistic.
            stats.ack_failures.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if idempotent {
            pipe.dedup.lock().complete(dedup_key, resp.clone());
        }
        Some(Reply { slot: req.slot, req_id: req.req_id, bytes: resp })
    }
}

/// Run a callback chain, appending the last link's output to `resp`. The
/// first link (`first`, already looked up for the epoch gate) reads the request
/// args in place; later links ping-pong between `resp`'s body and `scratch`.
/// An unbound link leaves the body empty; no links echo the args.
fn run_chain(
    pipe: &Pipeline,
    resp: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    caller: EpId,
    req: &Request<'_>,
    first: Option<&Binding>,
) {
    let start = resp.len();
    let mut links = req.chain();
    if links.next().is_none() {
        resp.extend_from_slice(req.args);
        return;
    }
    let Some(b) = first else { return };
    let run = |b: &Binding, input: &[u8], out: &mut Vec<u8>| {
        let _id = IdentityScope::enter(caller.rank, req.req_id, 0);
        (b.handler)(pipe.ep, caller, input, out);
    };
    run(b, req.args, resp);
    let mut in_scratch = false;
    for id in links {
        let Some(b) = pipe.registry.get(id) else {
            resp.truncate(start);
            return;
        };
        if in_scratch {
            resp.truncate(start);
            run(&b, scratch, resp);
        } else {
            scratch.clear();
            run(&b, &resp[start..], scratch);
        }
        in_scratch = !in_scratch;
    }
    if in_scratch {
        resp.truncate(start);
        resp.extend_from_slice(scratch);
    }
}

/// Run every call of an aggregated request, assembling `[count][(len,
/// resp)...]` in `resp` with length back-patching — no per-call Vec.
fn run_batch(
    pipe: &Pipeline,
    resp: &mut Vec<u8>,
    caller: EpId,
    req: &Request<'_>,
    calls: Vec<(FnId, &[u8])>,
) {
    resp.extend_from_slice(&(calls.len() as u32).to_le_bytes());
    for (i, (id, args)) in calls.into_iter().enumerate() {
        // ORDERING: Relaxed statistic.
        pipe.stats.requests.fetch_add(1, Ordering::Relaxed);
        let len_pos = resp.len();
        resp.extend_from_slice(&0u32.to_le_bytes());
        if let Some(b) = pipe.registry.get(id) {
            let _id = IdentityScope::enter(caller.rank, req.req_id, i as u64 + 1);
            (b.handler)(pipe.ep, caller, args, resp);
        }
        let n = (resp.len() - len_pos - 4) as u32;
        resp[len_pos..len_pos + 4].copy_from_slice(&n.to_le_bytes());
    }
}

/// Open a response [`NicCore::serve`] framed for a single call sent with
/// epoch tag `epoch`: the exact inverse of its framing. A rejected epoch
/// comes back as [`RpcError::WrongEpoch`].
pub(crate) fn unframe(epoch: Option<u64>, bytes: &[u8]) -> RpcResult<&[u8]> {
    let decode = |what: &str| RpcError::Decode(what.into());
    let Some(sent) = epoch else { return Ok(bytes) };
    match bytes.split_first() {
        Some((0, body)) => Ok(body),
        Some((1, current)) => {
            let current = current
                .first_chunk::<8>()
                .ok_or_else(|| decode("epoch rejection missing current epoch"))?;
            Err(RpcError::WrongEpoch { sent, current: u64::from_le_bytes(*current) })
        }
        Some((other, _)) => Err(RpcError::Decode(format!("unknown epoch status byte {other}"))),
        None => Err(decode("epoch-tagged response missing status byte")),
    }
}

/// The response side of one server: the slot region clients pull from and
/// its overflow area.
struct Outbox {
    resp_seg: Arc<Segment>,
    overflow: SegmentAllocator,
    /// The overflow block each `(caller rank, slot)` holds right now.
    overflow_live: Mutex<HashMap<(u32, u32), usize>>,
    slot_cap: usize,
    stats: Arc<ServerStats>,
}

impl Outbox {
    /// Publish `reply` into `caller_rank`'s slot: payload (inline or
    /// spilled), then length, then the sequence word last — the completion
    /// the client polls for.
    ///
    /// Publication is skipped when the slot already carries a sequence at or
    /// beyond the reply's: request ids on one slot strictly increase, so a
    /// smaller id means this is a late duplicate of a request whose caller
    /// has already consumed the response and moved on — overwriting would
    /// wedge the slot's current occupant.
    fn publish(&self, caller_rank: u32, reply: Reply<'_>) {
        let Reply { slot, req_id, bytes } = reply;
        let slot_off = slot_offset(caller_rank, slot, self.slot_cap);
        if self.resp_seg.load_u64(slot_off).expect("slot seq read") >= req_id {
            return;
        }
        let payload_off = slot_off + SLOT_HDR;
        // Free the overflow block this slot used last time (its response was
        // necessarily consumed: the client may not reuse a slot before that).
        if let Some(prev) = self.overflow_live.lock().remove(&(caller_rank, slot)) {
            let _ = self.overflow.free(prev);
        }
        if bytes.len() <= self.slot_cap {
            self.resp_seg.write(payload_off, bytes).expect("slot payload write");
        } else {
            // ORDERING: Relaxed statistic.
            self.stats.overflow_responses.fetch_add(1, Ordering::Relaxed);
            let off = self.overflow.alloc(bytes.len()).expect("overflow allocation");
            self.resp_seg.write(off, bytes).expect("overflow write");
            self.resp_seg.store_u64(payload_off, off as u64).expect("overflow pointer write");
            self.overflow_live.lock().insert((caller_rank, slot), off);
        }
        self.resp_seg.store_u64(slot_off + 8, bytes.len() as u64).expect("slot len write");
        self.resp_seg.store_u64(slot_off, req_id).expect("slot seq write");
    }
}

/// The RPC server bound to one endpoint.
pub struct RpcServer {
    ep: EpId,
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stats: Arc<ServerStats>,
    resp_seg: Arc<Segment>,
}

impl RpcServer {
    /// Start a server on `ep`: registers the response buffer region and
    /// spawns `cfg.nic_cores` worker threads, each looping *receive →
    /// [`NicCore::serve`] → publish*.
    pub fn start(
        ep: EpId,
        fabric: Arc<dyn Fabric>,
        registry: Arc<RpcRegistry>,
        cfg: ServerConfig,
    ) -> Self {
        let slot_size = SLOT_HDR + cfg.slot_cap;
        let header_area = cfg.max_clients as usize * SLOTS_PER_CLIENT as usize * slot_size;
        let resp_seg = Segment::new(header_area + 4096);
        fabric.register_endpoint(ep).expect("register server endpoint");
        fabric
            .register_region(resp_key(ep), Arc::clone(&resp_seg))
            .expect("register response region");
        let pipe = Pipeline::new(ep, registry);
        let stats = Arc::clone(&pipe.stats);
        let outbox = Arc::new(Outbox {
            resp_seg: Arc::clone(&resp_seg),
            overflow: SegmentAllocator::new(Arc::clone(&resp_seg), header_area),
            overflow_live: Mutex::new(HashMap::new()),
            slot_cap: cfg.slot_cap,
            stats: Arc::clone(&stats),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let workers = (0..cfg.nic_cores)
            .map(|core| {
                let (fabric, stop) = (Arc::clone(&fabric), Arc::clone(&stop));
                let (pipe, outbox) = (Arc::clone(&pipe), Arc::clone(&outbox));
                std::thread::Builder::new()
                    .name(format!("hcl-nic-{ep}-c{core}"))
                    .spawn(move || {
                        let mut nic = NicCore::on(pipe);
                        while !stop.load(Ordering::Acquire) {
                            // The timeout only bounds how late a stop is
                            // seen; each one costs an idle wake-up.
                            let wait = Some(Duration::from_millis(100));
                            let (caller, msg) = match fabric.recv(ep, wait) {
                                Ok(Some(m)) => m,
                                Ok(None) => continue,
                                Err(_) => break,
                            };
                            if let Some(reply) = nic.serve(caller, &msg) {
                                outbox.publish(caller.rank, reply);
                            }
                        }
                    })
                    .expect("spawn NIC worker")
            })
            .collect();
        RpcServer { ep, stop, workers, stats, resp_seg }
    }

    /// The endpoint this server listens on.
    pub fn endpoint(&self) -> EpId {
        self.ep
    }

    /// Profiling counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.stats.snapshot()
    }

    /// Current size of the response segment (memory-profiling hook).
    pub fn response_buffer_bytes(&self) -> usize {
        self.resp_seg.len()
    }
}

impl Drop for RpcServer {
    /// Stop the workers and wait for them to exit.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RpcClient;
    use crate::RequestHeader;
    use hcl_fabric::memory::MemoryFabric;

    #[test]
    fn request_identity_scopes_to_the_handler_run() {
        assert_eq!(current_request_identity(), None);
        {
            let _id = IdentityScope::enter(3, 41, 0);
            assert_eq!(current_request_identity(), Some((3, 41 << 16)));
        }
        assert_eq!(current_request_identity(), None, "scope exit clears the identity");
        // Batched calls compose the batch index so each bundled op has a
        // distinct recovery descriptor under the one wire req_id.
        let a = {
            let _id = IdentityScope::enter(3, 41, 1);
            current_request_identity().unwrap()
        };
        let b = {
            let _id = IdentityScope::enter(3, 41, 2);
            current_request_identity().unwrap()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn dedup_claims_then_answers_from_cache() {
        let mut w = DedupWindow::new(8);
        assert!(w.check_or_claim((0, 1)).is_none());
        assert!(matches!(w.check_or_claim((0, 1)), Some(DedupEntry::InProgress)));
        w.complete((0, 1), b"resp".to_vec());
        match w.check_or_claim((0, 1)) {
            Some(DedupEntry::Done(r)) => assert_eq!(r, b"resp"),
            other => panic!("expected cached response, got {:?}", other.is_some()),
        }
        // A different caller with the same req_id is a distinct request.
        assert!(w.check_or_claim((1, 1)).is_none());
    }

    #[test]
    fn dedup_evicts_oldest_at_capacity() {
        let mut w = DedupWindow::new(2);
        assert!(w.check_or_claim((0, 1)).is_none());
        assert!(w.check_or_claim((0, 2)).is_none());
        assert_eq!(w.len(), 2);
        // Third distinct key evicts (0, 1).
        assert!(w.check_or_claim((0, 3)).is_none());
        assert_eq!(w.len(), 2);
        assert!(w.check_or_claim((0, 1)).is_none(), "evicted id re-executes");
        // (0, 3) survived the (0, 1) re-claim evicting (0, 2).
        assert!(w.check_or_claim((0, 3)).is_some());
    }

    #[test]
    fn dedup_complete_after_eviction_is_a_no_op() {
        let mut w = DedupWindow::new(1);
        assert!(w.check_or_claim((0, 1)).is_none());
        assert!(w.check_or_claim((0, 2)).is_none()); // evicts (0, 1)
        w.complete((0, 1), b"late".to_vec());
        assert_eq!(w.len(), 1);
        assert!(w.check_or_claim((0, 1)).is_none(), "evicted completion not resurrected");
    }

    /// A server with `nic_cores` workers over a memory fabric, and a client
    /// of it at rank 1.
    fn rig(registry: RpcRegistry, nic_cores: usize) -> (Arc<dyn Fabric>, RpcServer, RpcClient) {
        let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
        let server = RpcServer::start(
            EpId::new(0, 0),
            Arc::clone(&fabric),
            Arc::new(registry),
            ServerConfig { max_clients: 4, slot_cap: 256, nic_cores },
        );
        let client = RpcClient::new(EpId::new(0, 1), Arc::clone(&fabric), 256);
        (fabric, server, client)
    }

    /// Run a server over a raw fabric, send `copies` of one request, and
    /// return (handler executions, server deduped counter).
    fn run_duplicates(flags: u8, copies: usize) -> (u64, u64) {
        let registry = RpcRegistry::new();
        let executions = Arc::new(AtomicU64::new(0));
        let e2 = Arc::clone(&executions);
        registry.bind_typed(7, move |_, _, x: u64| {
            e2.fetch_add(1, Ordering::Relaxed);
            x
        });
        let (fabric, server, client) = rig(registry, 2);
        let msg = RequestHeader { req_id: 1, slot: 1, flags, chain: vec![7] }.encode(&[0; 8]);
        for _ in 0..copies {
            fabric.send(client.endpoint(), server.endpoint(), msg.clone()).unwrap();
        }
        // Wait until every copy has been consumed one way or the other.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let st = server.stats();
            if st.requests + st.deduped >= copies as u64 || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let st = server.stats();
        drop(server);
        (executions.load(Ordering::Relaxed), st.deduped)
    }

    #[test]
    fn flagged_duplicates_execute_once() {
        let (execs, deduped) = run_duplicates(FLAG_IDEMPOTENT, 3);
        assert_eq!(execs, 1, "handler must run exactly once");
        assert_eq!(deduped, 2, "both duplicates absorbed");
    }

    #[test]
    fn unflagged_duplicates_re_execute() {
        let (execs, deduped) = run_duplicates(0, 3);
        assert_eq!(execs, 3, "no dedup without the idempotent flag");
        assert_eq!(deduped, 0);
    }

    /// An [`AckBarrier`] that parks inside `commit` until the test decides
    /// its outcome, so the test can look at the world mid-commit.
    struct GatedBarrier {
        entered: Mutex<std::sync::mpsc::Sender<u64>>,
        outcome: Mutex<std::sync::mpsc::Receiver<std::io::Result<()>>>,
    }

    impl AckBarrier for GatedBarrier {
        fn commit(&self, lsn: u64) -> std::io::Result<()> {
            self.entered.lock().send(lsn).expect("test is listening");
            self.outcome.lock().recv().expect("test decides the outcome")
        }
    }

    type Gate = (std::sync::mpsc::Receiver<u64>, std::sync::mpsc::Sender<std::io::Result<()>>);

    /// A one-core server over a memory fabric whose fn 7 defers its `u64`
    /// argument as an LSN on a gated barrier (and echoes it), fn 8 echoes
    /// without touching the ack scope, and fn 9 poisons the scope.
    fn gated_server() -> (Arc<dyn Fabric>, RpcServer, RpcClient, Arc<AtomicU64>, Gate) {
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (outcome_tx, outcome_rx) = std::sync::mpsc::channel();
        let barrier: Arc<dyn AckBarrier> = Arc::new(GatedBarrier {
            entered: Mutex::new(entered_tx),
            outcome: Mutex::new(outcome_rx),
        });
        let registry = RpcRegistry::new();
        let executions = Arc::new(AtomicU64::new(0));
        let e2 = Arc::clone(&executions);
        registry.bind_typed(7, move |_, _, lsn: u64| {
            e2.fetch_add(1, Ordering::Relaxed);
            assert!(defer_to_ack_scope(&barrier, lsn), "handlers run inside an ack scope");
            lsn
        });
        registry.bind_typed(8, |_, _, x: u64| x);
        registry.bind_typed(9, |_, _, x: u64| {
            poison_ack_scope();
            x
        });
        let (fabric, server, client) = rig(registry, 1);
        (fabric, server, client, executions, (entered_rx, outcome_tx))
    }

    #[test]
    fn ack_barrier_commits_once_per_request_before_publish() {
        use hcl_databox::DataBox;
        let (_, server, client, _, (entered, outcome)) = gated_server();
        let server_ep = server.endpoint();
        let wait = Duration::from_secs(10);

        // Single call: the worker is parked inside the commit, and nothing
        // has been published yet.
        let single = client.invoke_async::<u64, u64>(server_ep, 7, &5).unwrap();
        assert_eq!(entered.recv_timeout(wait).unwrap(), 5);
        assert!(single.try_get().is_none(), "response published before its barrier returned");
        outcome.send(Ok(())).unwrap();
        assert_eq!(single.wait().unwrap(), 5);

        // Callback chain: both links defer; one commit, after the last link.
        let chained = client.invoke_chain::<u64, u64>(server_ep, &[7, 7], &6).unwrap();
        assert_eq!(entered.recv_timeout(wait).unwrap(), 6);
        assert!(chained.try_get().is_none());
        outcome.send(Ok(())).unwrap();
        assert_eq!(chained.wait().unwrap(), 6);

        // Aggregated request: three deferring calls and one that does not —
        // one commit, at the highest LSN asked, after the whole loop.
        let calls: Vec<(u32, Vec<u8>)> =
            [(7, 3u64), (7, 9), (8, 100), (7, 4)].iter().map(|(f, x)| (*f, x.to_bytes().to_vec())).collect();
        let batch = client.invoke_batch(server_ep, &calls).unwrap();
        assert_eq!(entered.recv_timeout(wait).unwrap(), 9);
        assert!(batch.try_wait().is_none());
        outcome.send(Ok(())).unwrap();
        assert_eq!(batch.wait_typed::<u64>().unwrap(), vec![3, 9, 100, 4]);

        // A request that deferred nothing commits nothing.
        assert_eq!(client.invoke::<u64, u64>(server_ep, 8, &1).unwrap(), 1);
        assert!(entered.try_recv().is_err(), "exactly one commit per deferring request");
        assert_eq!(server.stats().ack_failures, 0);
        drop(server);
    }

    #[test]
    fn failed_ack_barrier_publishes_nothing_and_blocks_reexecution() {
        let (fabric, server, client, executions, (entered, outcome)) = gated_server();
        let (server_ep, client_ep) = (server.endpoint(), client.endpoint());
        let slot_seq = |slot: u32| {
            server.resp_seg.load_u64(slot_offset(client_ep.rank, slot, 256)).unwrap()
        };
        let wait_for = |what: &str, done: &dyn Fn(ServerStatsSnapshot) -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done(server.stats()) {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        use hcl_databox::DataBox;
        let request = |req_id: u64, fn_id: u32| {
            RequestHeader { req_id, slot: req_id as u32, flags: FLAG_IDEMPOTENT, chain: vec![fn_id] }
                .encode(&1u64.to_bytes())
        };

        // The barrier fails: counted, nothing published.
        fabric.send(client_ep, server_ep, request(1, 7)).unwrap();
        entered.recv_timeout(Duration::from_secs(10)).unwrap();
        outcome.send(Err(std::io::Error::other("disk on fire"))).unwrap();
        wait_for("the ack failure", &|st| st.ack_failures == 1);
        assert_eq!(slot_seq(1), 0, "a response was published for a request that is not durable");

        // Its retransmission finds the dedup entry still `InProgress` — not
        // `Done`, which would republish — and is dropped without executing.
        fabric.send(client_ep, server_ep, request(1, 7)).unwrap();
        wait_for("the duplicate", &|st| st.deduped == 1);
        assert_eq!(executions.load(Ordering::Relaxed), 1);
        assert_eq!(slot_seq(1), 0);

        // A handler that could not log poisons the scope: same outcome,
        // without any barrier being asked.
        fabric.send(client_ep, server_ep, request(2, 9)).unwrap();
        wait_for("the poisoned request", &|st| st.ack_failures == 2);
        assert_eq!(slot_seq(2), 0);
        assert!(entered.try_recv().is_err());

        // The scope is per request: the next one is acknowledged normally.
        fabric.send(client_ep, server_ep, request(3, 8)).unwrap();
        wait_for("the healthy request", &|st| st.requests == 3);
        let deadline = Instant::now() + Duration::from_secs(10);
        while slot_seq(3) != 3 {
            assert!(Instant::now() < deadline, "healthy request never acknowledged");
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(server);
    }

    #[test]
    fn ack_scope_is_inactive_off_the_worker_threads() {
        struct Never;
        impl AckBarrier for Never {
            fn commit(&self, _: u64) -> std::io::Result<()> {
                panic!("never deferred, never committed")
            }
        }
        let barrier: Arc<dyn AckBarrier> = Arc::new(Never);
        assert!(!defer_to_ack_scope(&barrier, 1), "a rank thread must commit inline");
        poison_ack_scope(); // no-op
        let scope = AckScope::enter();
        assert!(scope.settle().is_ok(), "the off-scope poison left nothing behind");
    }

    #[test]
    fn epoch_gate_rejects_stale_and_admits_current() {
        use crate::RpcError;
        let registry = RpcRegistry::new();
        let epoch = Arc::new(AtomicU64::new(3));
        registry.bind_guarded(50, Some(Arc::clone(&epoch)), |_, _, x: u64| x + 1);
        registry.bind_typed(60, |_, _, x: u64| x * 10); // no epoch cell
        let (_, server, client) = rig(registry, 1);
        let server_ep = server.endpoint();
        // Matching epoch: executes.
        let r: u64 = client.invoke_tagged(server_ep, 50, Some(3), &1u64).unwrap();
        assert_eq!(r, 2);
        assert_eq!(server.stats().wrong_epoch, 0);
        // Stale epoch: typed rejection carrying the current epoch, handler
        // skipped.
        let err = client.invoke_tagged::<u64, u64>(server_ep, 50, Some(2), &1u64).unwrap_err();
        assert_eq!(err, RpcError::WrongEpoch { sent: 2, current: 3 });
        assert_eq!(server.stats().wrong_epoch, 1);
        // Epoch moved: yesterday's epoch now rejects, today's admits.
        epoch.store(4, Ordering::Relaxed);
        let err = client.invoke_tagged::<u64, u64>(server_ep, 50, Some(3), &1u64).unwrap_err();
        assert_eq!(err, RpcError::WrongEpoch { sent: 3, current: 4 });
        let r: u64 = client.invoke_tagged(server_ep, 50, Some(4), &1u64).unwrap();
        assert_eq!(r, 2);
        // No epoch cell on fn 60: the tag is stripped and the handler runs.
        let r: u64 = client.invoke_tagged(server_ep, 60, Some(999), &7u64).unwrap();
        assert_eq!(r, 70);
        // Plain invocations through the same server stay un-prefixed.
        let plain: u64 = client.invoke(server_ep, 50, &10u64).unwrap();
        assert_eq!(plain, 11);
        drop(server);
    }
}
