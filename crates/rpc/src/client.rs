//! The RoR client stub: invoke / invoke_async / invoke_batch, futures with
//! client-pull completion.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use hcl_databox::DataBox;
use hcl_fabric::{EpId, Fabric};
use hcl_telemetry::{EventKind, FlightEvent, Outcome, RpcMetrics};
use parking_lot::Mutex;

use hcl_fabric::FabricError;

use crate::server::unframe;
use crate::{
    decode, decode_batch_response, encode_batch_into, encode_request_header_into, resp_key,
    slot_offset, FnId, RetryPolicy, RpcError, RpcResult, FLAG_BATCH, FLAG_EPOCH, FLAG_IDEMPOTENT,
    SLOTS_PER_CLIENT, SLOT_HDR,
};

/// Default time to wait for a response before reporting [`RpcError::Timeout`].
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// Upper bound of the yield phase of [`poll_backoff`]. On hosts with few
/// cores the handler thread is time-sharing with every poller, and a long
/// yield storm from N pollers gives the handler only 1/(N+1) of a core —
/// near-livelock when several ranks poll one server. Escalate to sleeping
/// almost immediately there; keep the long optimistic phase when cores are
/// plentiful and the handler runs truly in parallel.
fn yield_phase_limit() -> u32 {
    static LIMIT: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *LIMIT.get_or_init(|| {
        let cores =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
        if cores >= 4 {
            10_000
        } else {
            256
        }
    })
}

/// One step of the spin → yield → sleep poll escalation: responses
/// usually land within the handler turnaround, so spin briefly, then yield
/// (on low-core hosts the handler thread needs our core), and only sleep
/// after the host-dependent yield phase.
#[inline]
fn poll_backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::hint::spin_loop();
    } else if *spins < yield_phase_limit() {
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// What a future needs to pull (and, under a retry policy, re-request) its
/// response.
struct PendingResponse {
    fabric: Arc<dyn Fabric>,
    client_ep: EpId,
    server: EpId,
    slot: u32,
    slot_cap: usize,
    req_id: u64,
    timeout: Duration,
    /// The encoded request, kept for retransmission.
    msg: Bytes,
    retry: RetryPolicy,
    /// Telemetry handles (cloned from the issuing client; `None` when
    /// telemetry is off — the record path is then a branch on `None`).
    metrics: Option<RpcMetrics>,
}

impl PendingResponse {
    /// Poll the slot header once; pull and return the payload when complete.
    /// Transient injected faults on the poll path read as "not ready yet" —
    /// the next poll retries the read.
    fn try_pull(&self) -> RpcResult<Option<Bytes>> {
        match self.try_pull_inner() {
            Err(RpcError::Fabric(FabricError::Injected(_))) => Ok(None),
            other => other,
        }
    }

    fn try_pull_inner(&self) -> RpcResult<Option<Bytes>> {
        let key = resp_key(self.server);
        let hdr = slot_offset(self.client_ep.rank, self.slot, self.slot_cap);
        let seq = self.fabric.read_u64(self.client_ep, key, hdr)?;
        if seq != self.req_id {
            return Ok(None);
        }
        let len = self.fabric.read_u64(self.client_ep, key, hdr + 8)? as usize;
        let payload_off = hdr + SLOT_HDR;
        let data = if len <= self.slot_cap {
            self.fabric.read(self.client_ep, key, payload_off, len)?
        } else {
            // Overflow: the slot payload starts with the spill offset.
            let off = self.fabric.read_u64(self.client_ep, key, payload_off)? as usize;
            self.fabric.read(self.client_ep, key, off, len)?
        };
        // Seqlock-style re-check: if the slot was reused for a later request
        // while we copied the payload (possible once another clone of this
        // future pulled the response and the issuer recycled the slot), the
        // bytes we read may be torn. Publication writes payload, then len,
        // then seq — so an unchanged seq proves the payload was stable.
        if self.fabric.read_u64(self.client_ep, key, hdr)? != self.req_id {
            return Ok(None);
        }
        Ok(Some(Bytes::from(data)))
    }
}

enum FutureState {
    Pending(Arc<PendingResponse>),
    Ready(RpcResult<Bytes>),
}

/// Shared raw future: completed by client-pull on demand.
#[derive(Clone)]
pub struct RawFuture {
    state: Arc<Mutex<FutureState>>,
}

impl RawFuture {
    fn new(p: PendingResponse) -> Self {
        RawFuture { state: Arc::new(Mutex::new(FutureState::Pending(Arc::new(p)))) }
    }

    /// `Some(pending)` while incomplete; `None` once resolved (then the
    /// ready result is in the state). The mutex is held only for this peek,
    /// never across a fabric pull, so concurrent `try_get`/`is_ready` on
    /// clones of one future stay non-blocking while another clone waits.
    fn pending(&self) -> Result<Arc<PendingResponse>, RpcResult<Bytes>> {
        match &*self.state.lock() {
            FutureState::Ready(r) => Err(r.clone()),
            FutureState::Pending(p) => Ok(Arc::clone(p)),
        }
    }

    /// Store a pulled result. The first stored result wins: clones that
    /// raced on the same slot all observe one consistent outcome.
    fn store(&self, r: RpcResult<Bytes>) -> RpcResult<Bytes> {
        let mut st = self.state.lock();
        if let FutureState::Ready(existing) = &*st {
            return existing.clone();
        }
        *st = FutureState::Ready(r.clone());
        r
    }

    /// Non-blocking check; `Some` once the response has been pulled.
    pub fn try_get(&self) -> Option<RpcResult<Bytes>> {
        let pending = match self.pending() {
            Err(ready) => return Some(ready),
            Ok(p) => p,
        };
        match pending.try_pull() {
            Ok(Some(b)) => Some(self.store(Ok(b))),
            Ok(None) => None,
            Err(e) => Some(self.store(Err(e))),
        }
    }

    /// True once complete (does one poll).
    pub fn is_ready(&self) -> bool {
        self.try_get().is_some()
    }

    /// Block until the response is available. The slot pull (and any
    /// retransmission) runs outside the state lock: a concurrent
    /// `try_get` polls the same slot idempotently instead of blocking for
    /// the full retry budget.
    ///
    /// Every poll iteration re-checks the shared state as well as the
    /// fabric slot: a clone of this future may be resolved by another
    /// thread (the slot-reuse drain in `issue_with` pulls the previous
    /// occupant's response before recycling its slot), after which the slot
    /// seq moves past our request id and the fabric alone would never
    /// complete us — the stored result is then the only truth.
    pub fn wait(&self) -> RpcResult<Bytes> {
        let pending = match self.pending() {
            Err(ready) => return ready,
            Ok(p) => p,
        };
        let attempts = pending.retry.max_attempts.max(1);
        let per_attempt = pending.retry.attempt_timeout.unwrap_or(pending.timeout);
        let mut last = RpcError::Timeout;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(pending.retry.backoff(attempt - 1));
                if let Some(m) = &pending.metrics {
                    m.retransmits.inc();
                    m.flight.record(FlightEvent::op(
                        EventKind::Retransmit,
                        "rpc.request",
                        pending.server.rank,
                        pending.msg.len() as u64,
                        attempt as u64,
                        Outcome::Pending,
                        0,
                    ));
                }
                // Retransmit with the same req_id and slot: the server
                // dedups on (caller, req_id) and republishes if the request
                // already executed.
                if let Err(e) =
                    pending.fabric.send(pending.client_ep, pending.server, pending.msg.clone())
                {
                    last = e.into();
                    continue;
                }
            }
            let start = Instant::now();
            let mut spins = 0u32;
            loop {
                if let Err(ready) = self.pending() {
                    return ready;
                }
                match pending.try_pull() {
                    Ok(Some(b)) => return self.store(Ok(b)),
                    Ok(None) => {}
                    Err(e) => return self.store(Err(e)),
                }
                if start.elapsed() > per_attempt {
                    last = RpcError::Timeout;
                    if let Some(m) = &pending.metrics {
                        m.attempt_timeouts.inc();
                    }
                    break;
                }
                poll_backoff(&mut spins);
            }
        }
        let r = if attempts > 1 {
            if let Some(m) = &pending.metrics {
                m.retries_exhausted.inc();
                m.flight.record(FlightEvent::op(
                    EventKind::Complete,
                    "rpc.request",
                    pending.server.rank,
                    pending.msg.len() as u64,
                    attempts as u64,
                    Outcome::RetriesExhausted,
                    0,
                ));
            }
            Err(RpcError::RetriesExhausted { attempts, last: Box::new(last) })
        } else {
            Err(last)
        };
        // First-stored-wins: if a concurrent resolver beat the final
        // timeout, its result is returned instead of the error.
        self.store(r)
    }
}

/// A typed asynchronous RPC result (paper §III-C4: "Each function invocation
/// creates a future object ... synchronous and asynchronous models is a
/// matter of timing when the caller waits").
pub struct RpcFuture<T> {
    raw: RawFuture,
    _t: PhantomData<fn() -> T>,
}

impl<T: DataBox> RpcFuture<T> {
    /// Block for the response and decode it.
    pub fn wait(&self) -> RpcResult<T> {
        decode(&self.raw.wait()?)
    }

    /// Non-blocking completion check.
    pub fn try_get(&self) -> Option<RpcResult<T>> {
        self.raw.try_get().map(|r| r.and_then(|b| decode(&b)))
    }

    /// True once the response has arrived.
    pub fn is_ready(&self) -> bool {
        self.raw.is_ready()
    }
}

/// A future for an aggregated batch: resolves to one response per call.
pub struct BatchFuture {
    raw: RawFuture,
}

impl BatchFuture {
    /// The underlying raw future.
    pub fn raw(&self) -> &RawFuture {
        &self.raw
    }

    /// Block for all responses.
    pub fn wait(&self) -> RpcResult<Vec<Bytes>> {
        Self::split(self.raw.wait())
    }

    /// Non-blocking completion probe: `Some` once the aggregate response
    /// has been pulled and decoded.
    pub fn try_wait(&self) -> Option<RpcResult<Vec<Bytes>>> {
        self.raw.try_get().map(Self::split)
    }

    fn split(raw: RpcResult<Bytes>) -> RpcResult<Vec<Bytes>> {
        decode_batch_response(&raw?).ok_or_else(|| RpcError::Decode("batch response".into()))
    }

    /// Block and decode every response as `T`.
    pub fn wait_typed<T: DataBox>(&self) -> RpcResult<Vec<T>> {
        self.wait()?.iter().map(|b| decode(b)).collect()
    }
}

/// The client stub for one rank.
pub struct RpcClient {
    ep: EpId,
    fabric: Arc<dyn Fabric>,
    next_req: AtomicU64,
    /// Per (server, slot): the future of the last request that used it.
    /// A slot may be reused only after its previous response was pulled.
    slots: Mutex<HashMap<(EpId, u32), RawFuture>>,
    slot_cap: usize,
    timeout: Duration,
    retry: RetryPolicy,
    metrics: Option<RpcMetrics>,
}

impl RpcClient {
    /// Create a client stub for endpoint `ep`. `slot_cap` must match the
    /// target servers' configured slot capacity.
    pub fn new(ep: EpId, fabric: Arc<dyn Fabric>, slot_cap: usize) -> Self {
        fabric.register_endpoint(ep).expect("register client endpoint");
        RpcClient {
            ep,
            fabric,
            next_req: AtomicU64::new(1),
            slots: Mutex::new(HashMap::new()),
            slot_cap,
            timeout: DEFAULT_TIMEOUT,
            retry: RetryPolicy::none(),
            metrics: None,
        }
    }

    /// Install telemetry handles. Cloned into every pending response, so
    /// futures keep recording after the client is shared behind an `Arc`.
    pub fn set_metrics(&mut self, metrics: RpcMetrics) {
        self.metrics = Some(metrics);
    }

    /// Override the response timeout.
    pub fn set_timeout(&mut self, t: Duration) {
        self.timeout = t;
    }

    /// Enable retransmission under `policy`. Requests issued with more than
    /// one allowed attempt are tagged [`FLAG_IDEMPOTENT`] so servers
    /// execute each request id at most once.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// This client's endpoint.
    pub fn endpoint(&self) -> EpId {
        self.ep
    }

    /// Issue one request, encoding header + args into a single buffer (one
    /// allocation per request: the retained retransmission message itself).
    /// `write_args` appends the argument bytes; `size_hint` pre-reserves
    /// their expected length.
    fn issue_with(
        &self,
        server: EpId,
        chain: &[FnId],
        flags: u8,
        size_hint: usize,
        write_args: impl FnOnce(&mut Vec<u8>),
    ) -> RpcResult<RawFuture> {
        let fut = self.issue(server, chain, flags, size_hint, true, write_args)?;
        Ok(fut.expect("an issue that may wait for its slot always sends"))
    }

    /// [`RpcClient::issue_with`]; unless `wait_slot`, `None` — nothing sent
    /// — when the slot the request would claim still holds an unresolved
    /// request, whose reply it would otherwise wait for.
    fn issue(
        &self,
        server: EpId,
        chain: &[FnId],
        flags: u8,
        size_hint: usize,
        wait_slot: bool,
        write_args: impl FnOnce(&mut Vec<u8>),
    ) -> RpcResult<Option<RawFuture>> {
        let retrying = self.retry.max_attempts > 1;
        let flags = if retrying { flags | FLAG_IDEMPOTENT } else { flags };
        // Ids are drawn under the lock that claims their slot, so each slot is
        // claimed in id order (the server drops a reply below the slot's id).
        let mut slots = loop {
            let slots = self.slots.lock();
            if wait_slot {
                break slots;
            }
            // ORDERING: Relaxed — the lock orders the allocation.
            let next = self.next_req.load(Ordering::Relaxed);
            let occupant = slots.get(&(server, (next % SLOTS_PER_CLIENT) as u32));
            let Some(prev) = occupant.filter(|p| p.pending().is_ok()).cloned() else {
                break slots;
            };
            // Poll the occupant once, outside the lock.
            drop(slots);
            if prev.try_get().is_none() {
                return Ok(None);
            }
        };
        // ORDERING: Relaxed — the lock orders the allocation.
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        let slot = (req_id % SLOTS_PER_CLIENT) as u32;
        let mut buf = BytesMut::with_capacity(14 + 4 * chain.len() + size_hint);
        encode_request_header_into(req_id, slot, flags, chain, &mut buf);
        write_args(buf.vec_mut());
        let msg = buf.freeze();
        let fut = RawFuture::new(PendingResponse {
            fabric: Arc::clone(&self.fabric),
            client_ep: self.ep,
            server,
            slot,
            slot_cap: self.slot_cap,
            req_id,
            timeout: self.timeout,
            msg: msg.clone(),
            retry: self.retry,
            metrics: self.metrics.clone(),
        });
        // Enforce slot reuse discipline: claim the slot by atomically
        // swapping our future in, then drain the previous occupant — it was
        // removed and drained in one step, so a concurrent issuer that lands
        // on the same slot drains *us* instead of racing us for `prev` (the
        // remove-then-insert window would let two requests share a live
        // slot, and the later response would overwrite the earlier one
        // before it was pulled). Draining before the send keeps the slot's
        // previous response intact until its future has read it.
        let prev = slots.insert((server, slot), fut.clone());
        drop(slots);
        if let Some(prev) = prev {
            if prev.try_get().is_none() {
                if let Some(m) = &self.metrics {
                    m.slot_waits.inc();
                }
                let _ = prev.wait();
            }
        }
        match self.fabric.send(self.ep, server, msg) {
            Ok(()) => {}
            // A transiently failed first transmit is just a failed attempt
            // when retransmission is allowed; the future's retry loop will
            // resend it.
            Err(FabricError::Injected(_)) if retrying => {}
            Err(e) => {
                // The future already occupies the slot: resolve it in place
                // so later occupants drain it without waiting out a timeout.
                let err = RpcError::from(e);
                let _ = fut.store(Err(err.clone()));
                return Err(err);
            }
        }
        Ok(Some(fut))
    }

    /// Asynchronous invocation of `fn_id` on `server`. The args are packed
    /// straight into the request buffer — no intermediate encoding.
    pub fn invoke_async<A, R>(&self, server: EpId, fn_id: FnId, args: &A) -> RpcResult<RpcFuture<R>>
    where
        A: DataBox,
        R: DataBox,
    {
        self.invoke_chain(server, &[fn_id], args)
    }

    /// Synchronous invocation: [`RpcClient::invoke_tagged`] untagged.
    pub fn invoke<A, R>(&self, server: EpId, fn_id: FnId, args: &A) -> RpcResult<R>
    where
        A: DataBox,
        R: DataBox,
    {
        self.invoke_tagged(server, fn_id, None, args)
    }

    /// Synchronous single call tagged with the caller's ownership `epoch`:
    /// [`FLAG_EPOCH`] carries it as an 8-byte LE prefix of the args, and the
    /// server runs the handler only when the epoch cell bound with it
    /// matches — a mismatch surfaces as [`RpcError::WrongEpoch`], a
    /// *delivered* rejection the retry machinery never retransmits (callers
    /// re-resolve the owner and issue a fresh request). `None` is a plain
    /// call.
    pub fn invoke_tagged<A, R>(
        &self,
        server: EpId,
        fn_id: FnId,
        epoch: Option<u64>,
        args: &A,
    ) -> RpcResult<R>
    where
        A: DataBox,
        R: DataBox,
    {
        let hint = 8 * epoch.is_some() as usize + A::FIXED_SIZE.unwrap_or(16);
        let flags = if epoch.is_some() { FLAG_EPOCH } else { 0 };
        let raw = self.issue_with(server, &[fn_id], flags, hint, |out| {
            if let Some(epoch) = epoch {
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            args.pack(out);
        })?;
        let b = raw.wait()?;
        decode(unframe(epoch, b.as_slice())?)
    }

    /// Invoke a *callback chain* (§III-C3): `chain[0]` receives `args`, each
    /// subsequent function receives the previous output, and the final
    /// output is the response — "multiple data-local operations ... with one
    /// call".
    pub fn invoke_chain<A, R>(
        &self,
        server: EpId,
        chain: &[FnId],
        args: &A,
    ) -> RpcResult<RpcFuture<R>>
    where
        A: DataBox,
        R: DataBox,
    {
        let hint = A::FIXED_SIZE.unwrap_or(16);
        let raw = self.issue_with(server, chain, 0, hint, |out| args.pack(out))?;
        Ok(RpcFuture { raw, _t: PhantomData })
    }

    /// Aggregate several calls into one network message (§III-B request
    /// aggregation).
    pub fn invoke_batch(&self, server: EpId, calls: &[(FnId, Vec<u8>)]) -> RpcResult<BatchFuture> {
        self.invoke_batch_slices(server, calls.iter().map(|(id, a)| (*id, a.as_slice())))
    }

    /// [`RpcClient::invoke_batch`] over borrowed argument slices: the batch
    /// payload is framed directly into the request buffer, so callers that
    /// stage ops in their own arena (the coalescer) pay no per-call copies
    /// beyond the final wire write.
    pub fn invoke_batch_slices<'a>(
        &self,
        server: EpId,
        calls: impl ExactSizeIterator<Item = (FnId, &'a [u8])> + Clone,
    ) -> RpcResult<BatchFuture> {
        let payload_len = 4 + calls.clone().map(|(_, a)| 8 + a.len()).sum::<usize>();
        let raw = self.issue_with(server, &[], FLAG_BATCH, payload_len, |out| {
            encode_batch_into(calls, out)
        })?;
        Ok(BatchFuture { raw })
    }

    /// [`RpcClient::invoke_batch_slices`] that never waits for another
    /// request's reply: `None`, nothing sent, while the slot the batch would
    /// claim still holds an unresolved request (the coalescer's age flush,
    /// which runs on the world's deadline thread).
    pub fn try_invoke_batch_slices<'a>(
        &self,
        server: EpId,
        calls: impl ExactSizeIterator<Item = (FnId, &'a [u8])> + Clone,
    ) -> RpcResult<Option<BatchFuture>> {
        let payload_len = 4 + calls.clone().map(|(_, a)| 8 + a.len()).sum::<usize>();
        let raw = self.issue(server, &[], FLAG_BATCH, payload_len, false, |out| {
            encode_batch_into(calls, out)
        })?;
        Ok(raw.map(|raw| BatchFuture { raw }))
    }

    /// Raw-bytes invocation (used by layers that do their own encoding).
    pub fn invoke_raw(&self, server: EpId, fn_id: FnId, args: &[u8]) -> RpcResult<RawFuture> {
        self.issue_with(server, &[fn_id], 0, args.len(), |out| out.extend_from_slice(args))
    }
}
