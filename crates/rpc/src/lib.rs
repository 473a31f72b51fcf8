//! # hcl-rpc — the RPC-over-RDMA (RoR) framework (paper §III-B, Fig. 2)
//!
//! The RoR protocol, step by step as in Fig. 2, and where each step lives
//! here:
//!
//! 1. users submit functions with [`RpcRegistry::bind_typed`] (*"calling the
//!    `bind()` method that maps them to an RPC invocation registry"*);
//! 2. [`RpcClient::invoke`] marshals the request and `RDMA_SEND`s it into
//!    the server's request buffer ([`hcl_fabric::Fabric::send`]);
//! 3. the RPC server *running on the NIC core* pulls requests from the work
//!    queue — [`server::RpcServer`]'s worker threads, which are dedicated
//!    threads distinct from any application rank (DESIGN.md
//!    substitution #2);
//! 4. the server stub de-marshals and executes the invoked function (or the
//!    whole *callback chain*, §III-C3);
//! 5. the response is placed in a **response buffer** — a slot region
//!    registered for one-sided access;
//! 6. + 7. the client gets completion by polling the slot header and *pulls*
//!    the result with `IBV_WR_RDMA_READ` ([`hcl_fabric::Fabric::read`]) —
//!    the paper's client-pull response paradigm.
//!
//! Also implemented: **request aggregation** (§III-B: "aggregate multiple
//! instructions before execution") via [`RpcClient::invoke_batch`] and the
//! per-destination [`coalesce::Coalescer`], and **asynchronous RPC**
//! (§III-C4): [`client::RpcClient::invoke_async`] returns a
//! [`client::RpcFuture`], a coalesced op a [`coalesce::CoalescedFuture`]; a
//! synchronous call issues the same request and waits on its slot.
//!
//! One envelope extension is not in the paper: a single call may carry the
//! caller's ownership epoch ([`FLAG_EPOCH`]), and the server runs it only
//! while the epoch cell bound with the function ([`Binding::epoch`]) still
//! holds that epoch. The response is then framed `[status u8][body]`; that
//! status byte is the only prefix a response ever carries.

pub mod batch;
pub mod client;
pub mod coalesce;
pub mod deadline;
pub mod server;

pub use batch::BatchArena;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use hcl_databox::DataBox;
use hcl_fabric::{EpId, FabricError, RegionKey};
use parking_lot::RwLock;

/// Registered function identifier.
pub type FnId = u32;

/// A server-side handler: `(server, caller, args, response_out)`.
///
/// The *server* endpoint identifies which partition's state the handler
/// should touch — all in-process NIC workers share one registry, exactly as
/// all NIC cores of one machine share one function table. The response is
/// *appended* to `response_out`, a per-worker scratch buffer the NIC core
/// reuses across requests, so the hot path executes without a per-call
/// response allocation.
pub type Handler = Box<dyn Fn(EpId, EpId, &[u8], &mut Vec<u8>) + Send + Sync>;

/// Reserved region id for a server's response buffer.
pub const RESP_REGION: u32 = 0xFFFF_0000;

/// Number of response slots per client (maximum outstanding async
/// invocations per (client, server) pair).
pub const SLOTS_PER_CLIENT: u64 = 4;

/// Default inline response capacity per slot; larger responses spill into
/// the overflow area of the response segment.
pub const DEFAULT_SLOT_CAP: usize = 64 * 1024;

/// Slot header: `[seq: u64][len: u64]` then `cap` payload bytes.
pub const SLOT_HDR: usize = 16;

/// Errors surfaced to RPC callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// Transport failure.
    Fabric(FabricError),
    /// The response payload failed to decode as the requested type.
    Decode(String),
    /// No response arrived within the configured timeout.
    Timeout,
    /// Every attempt allowed by the [`RetryPolicy`] failed; `last` is the
    /// error of the final attempt (typically [`RpcError::Timeout`] when the
    /// target is unreachable).
    RetriesExhausted {
        /// Attempts made (initial try plus retries).
        attempts: u32,
        /// The final attempt's error.
        last: Box<RpcError>,
    },
    /// The server rejected a [`FLAG_EPOCH`]-tagged request because the
    /// caller's ownership epoch is stale: ownership may have moved since the
    /// caller resolved the target. This is a *delivered* response — the
    /// transport retry machinery never retransmits it; callers re-resolve
    /// the owner against the current partition map and re-issue.
    WrongEpoch {
        /// The epoch the request was tagged with.
        sent: u64,
        /// The server's current epoch.
        current: u64,
    },
}

impl RpcError {
    /// True when the failure is rooted in a missing response — a timeout,
    /// directly or as the last error of an exhausted retry budget.
    pub fn is_timeout(&self) -> bool {
        match self {
            RpcError::Timeout => true,
            RpcError::RetriesExhausted { last, .. } => last.is_timeout(),
            _ => false,
        }
    }
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Fabric(e) => write!(f, "rpc fabric error: {e}"),
            RpcError::Decode(e) => write!(f, "rpc decode error: {e}"),
            RpcError::Timeout => write!(f, "rpc timeout"),
            RpcError::RetriesExhausted { attempts, last } => {
                write!(f, "rpc failed after {attempts} attempts: {last}")
            }
            RpcError::WrongEpoch { sent, current } => {
                write!(f, "rpc rejected: request epoch {sent} is stale (server at {current})")
            }
        }
    }
}

impl std::error::Error for RpcError {}

impl From<FabricError> for RpcError {
    fn from(e: FabricError) -> Self {
        RpcError::Fabric(e)
    }
}

/// Result alias for RPC operations.
pub type RpcResult<T> = Result<T, RpcError>;

/// Decode a response body as `T`.
pub(crate) fn decode<T: DataBox>(body: &[u8]) -> RpcResult<T> {
    T::from_bytes(body).map_err(|e| RpcError::Decode(e.to_string()))
}

/// One registered function: its handler and the epoch cell that gates it.
pub struct Binding {
    /// The handler the NIC core executes.
    pub handler: Handler,
    /// The ownership epoch a [`FLAG_EPOCH`] request must carry to execute;
    /// `None` admits every tag. Containers whose owners can move share the
    /// world's unified epoch cell here.
    pub epoch: Option<Arc<AtomicU64>>,
}

impl Binding {
    /// `Err(current)` when a request tagged with epoch `sent` must not run.
    pub fn admit(&self, sent: u64) -> Result<(), u64> {
        match &self.epoch {
            Some(cell) => {
                let current = cell.load(Ordering::Acquire);
                if current == sent { Ok(()) } else { Err(current) }
            }
            None => Ok(()),
        }
    }
}

/// The invocation registry: fn id -> binding (paper's `bind()`).
#[derive(Default)]
pub struct RpcRegistry {
    fns: RwLock<HashMap<FnId, Arc<Binding>>>,
}

impl RpcRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a typed handler: args and return value cross the wire as
    /// [`DataBox`] encodings. The return value is packed straight into the
    /// worker's scratch buffer — no intermediate `Bytes`/`Vec` per call.
    pub fn bind_typed<A, R>(&self, id: FnId, f: impl Fn(EpId, EpId, A) -> R + Send + Sync + 'static)
    where
        A: DataBox + 'static,
        R: DataBox + 'static,
    {
        self.bind_guarded(id, None, f);
    }

    /// [`RpcRegistry::bind_typed`] behind the epoch cell `epoch`:
    /// [`FLAG_EPOCH`] requests to `id` execute only while their tag matches
    /// it.
    pub fn bind_guarded<A, R>(
        &self,
        id: FnId,
        epoch: Option<Arc<AtomicU64>>,
        f: impl Fn(EpId, EpId, A) -> R + Send + Sync + 'static,
    ) where
        A: DataBox + 'static,
        R: DataBox + 'static,
    {
        let handler: Handler = Box::new(move |server, caller, raw, out| {
            let args = A::from_bytes(raw).expect("rpc argument decode");
            f(server, caller, args).pack(out);
        });
        self.fns.write().insert(id, Arc::new(Binding { handler, epoch }));
    }

    /// Look up a binding.
    pub fn get(&self, id: FnId) -> Option<Arc<Binding>> {
        self.fns.read().get(&id).cloned()
    }
}

/// Wire header of a request message, as a client builds it.
///
/// `[req_id u64][slot u32][flags u8][chain_len u8][fn_ids u32×chain][args]`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHeader {
    /// Per-client monotonically increasing request id (slot seq value).
    pub req_id: u64,
    /// Response slot index within the caller's slot ring.
    pub slot: u32,
    /// `FLAG_*` bits.
    pub flags: u8,
    /// The callback chain: `chain[0]` receives the args, each subsequent
    /// function receives the previous function's output (§III-C3).
    pub chain: Vec<FnId>,
}

/// Flag bit: the payload is an aggregated batch.
pub const FLAG_BATCH: u8 = 1;

/// Flag bit: the client may retransmit this request id (retry or duplicate
/// delivery); the server must execute it at most once, deduplicating by
/// `(caller rank, req_id)` and republishing the cached response.
pub const FLAG_IDEMPOTENT: u8 = 2;

/// Flag bit: the first 8 bytes of the args are an LE **ownership epoch**.
/// The server checks it against the epoch cell bound with the first invoked
/// function *before* executing: on mismatch the handler is skipped and the
/// response is a rejection carrying the server's current epoch (surfaced to
/// callers as [`RpcError::WrongEpoch`]); on match (or when the function is
/// bound without a cell) the handler runs on the remaining args. Either way
/// the response body is prefixed with a status byte (`0` = executed, `1` =
/// rejected). Ignored on batch requests.
pub const FLAG_EPOCH: u8 = 8;

/// Client-side retry policy: attempts, capped exponential backoff with
/// deterministic jitter, and a per-attempt response timeout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (initial try included). `1` disables retransmission.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: std::time::Duration,
    /// Upper bound on any single backoff.
    pub max_delay: std::time::Duration,
    /// Geometric growth factor per retry.
    pub multiplier: f64,
    /// Jitter fraction: each backoff is stretched by up to this fraction,
    /// drawn deterministically from `seed`.
    pub jitter_frac: f64,
    /// Seed for the deterministic jitter sequence.
    pub seed: u64,
    /// Per-attempt wait for the response; `None` uses the client's
    /// configured timeout.
    pub attempt_timeout: Option<std::time::Duration>,
}

impl RetryPolicy {
    /// No retransmission: one attempt, client-timeout semantics unchanged.
    pub const fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: std::time::Duration::ZERO,
            max_delay: std::time::Duration::ZERO,
            multiplier: 1.0,
            jitter_frac: 0.0,
            seed: 0,
            attempt_timeout: None,
        }
    }

    /// A sensible resilient default: `max_attempts` tries, 2 ms base delay
    /// doubling up to 100 ms, 25% jitter under `seed`.
    pub fn resilient(max_attempts: u32, seed: u64) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_delay: std::time::Duration::from_millis(2),
            max_delay: std::time::Duration::from_millis(100),
            multiplier: 2.0,
            jitter_frac: 0.25,
            seed,
            attempt_timeout: None,
        }
    }

    /// Override the per-attempt timeout.
    pub fn with_attempt_timeout(mut self, t: std::time::Duration) -> Self {
        self.attempt_timeout = Some(t);
        self
    }

    /// The backoff before retry number `retry` (0-based: the delay between
    /// attempt 1 and attempt 2 is `backoff(0)`).
    ///
    /// The sequence is monotone non-decreasing by construction (a running
    /// maximum over the jittered geometric terms), bounded by `max_delay`,
    /// and a pure function of `(policy, seed, retry)`.
    pub fn backoff(&self, retry: u32) -> std::time::Duration {
        let base = self.base_delay.as_nanos() as f64;
        let cap = self.max_delay.as_nanos() as f64;
        let mut best = 0f64;
        for k in 0..=retry.min(63) {
            let raw = base * self.multiplier.max(1.0).powi(k as i32);
            let jittered = raw * (1.0 + self.jitter_frac.max(0.0) * jitter_unit(self.seed, k));
            best = best.max(jittered.min(cap));
        }
        std::time::Duration::from_nanos(best as u64)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Deterministic uniform draw in `[0, 1)` for retry `k` under `seed`
/// (SplitMix64 finalizer).
fn jitter_unit(seed: u64, k: u32) -> f64 {
    let mut z = seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
}

impl RequestHeader {
    /// Serialize the header followed by `args` into one message.
    pub fn encode(&self, args: &[u8]) -> Bytes {
        let mut out = BytesMut::with_capacity(14 + 4 * self.chain.len() + args.len());
        encode_request_header_into(self.req_id, self.slot, self.flags, &self.chain, &mut out);
        out.extend_from_slice(args);
        out.freeze()
    }
}

/// A request as the server reads it: borrowed from the received message,
/// with the [`FLAG_EPOCH`] tag already split off the args.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<'m> {
    /// Per-client request id.
    pub req_id: u64,
    /// Response slot index.
    pub slot: u32,
    /// `FLAG_*` bits.
    pub flags: u8,
    /// The chain's fn ids, still in wire form (4 LE bytes each).
    chain: &'m [u8],
    /// The ownership epoch of a non-batch [`FLAG_EPOCH`] request.
    pub epoch: Option<u64>,
    /// The args (or batch payload) after the header and any epoch tag.
    pub args: &'m [u8],
}

impl<'m> Request<'m> {
    /// Parse a request message. `None` when it is malformed: shorter than
    /// its header, cut inside its chain, or tagged [`FLAG_EPOCH`] without
    /// the 8 bytes of the tag.
    pub fn decode(msg: &'m [u8]) -> Option<Request<'m>> {
        let (fixed, rest) = msg.split_first_chunk::<14>()?;
        let req_id = u64::from_le_bytes(fixed[0..8].try_into().ok()?);
        let slot = u32::from_le_bytes(fixed[8..12].try_into().ok()?);
        let flags = fixed[12];
        let chain_bytes = 4 * fixed[13] as usize;
        if rest.len() < chain_bytes {
            return None;
        }
        let (chain, mut args) = rest.split_at(chain_bytes);
        let mut epoch = None;
        if flags & FLAG_EPOCH != 0 && flags & FLAG_BATCH == 0 {
            let (tag, tail) = args.split_first_chunk::<8>()?;
            epoch = Some(u64::from_le_bytes(*tag));
            args = tail;
        }
        Some(Request { req_id, slot, flags, chain, epoch, args })
    }

    /// The callback chain, first link first.
    pub fn chain(&self) -> impl Iterator<Item = FnId> + 'm {
        self.chain.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4-byte fn id")))
    }
}

/// Append a request header to a builder without materializing a
/// [`RequestHeader`] (the client hot path borrows its chain slice).
pub fn encode_request_header_into(
    req_id: u64,
    slot: u32,
    flags: u8,
    chain: &[FnId],
    out: &mut BytesMut,
) {
    out.reserve(14 + 4 * chain.len());
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(&slot.to_le_bytes());
    out.put_u8(flags);
    out.put_u8(chain.len() as u8);
    for id in chain {
        out.extend_from_slice(&id.to_le_bytes());
    }
}

/// Compute the byte offset of a client's response slot within the server's
/// response buffer.
pub fn slot_offset(client_rank: u32, slot: u32, cap: usize) -> usize {
    let slot_size = SLOT_HDR + cap;
    (client_rank as usize) * (SLOTS_PER_CLIENT as usize) * slot_size
        + (slot as usize) * slot_size
}

/// The response-buffer region key of a server endpoint.
pub fn resp_key(server: EpId) -> RegionKey {
    RegionKey { ep: server, region: RESP_REGION }
}

/// Append a batch payload to `out`: `[count u32][(fn_id u32, len u32,
/// args)...]` — zero-copy variant used to build the full request (header +
/// batch) in one buffer.
pub fn encode_batch_into<'a>(
    calls: impl ExactSizeIterator<Item = (FnId, &'a [u8])>,
    out: &mut Vec<u8>,
) {
    out.extend_from_slice(&(calls.len() as u32).to_le_bytes());
    for (id, args) in calls {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&(args.len() as u32).to_le_bytes());
        out.extend_from_slice(args);
    }
}

/// Encode a batch payload into a fresh buffer.
pub fn encode_batch(calls: &[(FnId, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_batch_into(calls.iter().map(|(id, a)| (*id, a.as_slice())), &mut out);
    out
}

/// Walk a batch frame `[count u32][(head, len u32, body)...]` whose entries
/// carry `head` bytes before their length, mapping each entry's head and
/// body range through `entry`. `None` when the frame is cut short of its
/// count. The capacity is capped at the entries the frame can hold, so a
/// forged count cannot size the allocation.
fn walk_batch<E>(
    buf: &[u8],
    head: usize,
    mut entry: impl FnMut(&[u8], std::ops::Range<usize>) -> E,
) -> Option<Vec<E>> {
    let (count, _) = buf.split_first_chunk::<4>()?;
    let count = u32::from_le_bytes(*count) as usize;
    let mut out = Vec::with_capacity(count.min((buf.len() - 4) / (head + 4)));
    let mut off = 4;
    for _ in 0..count {
        let len_at = off + head;
        let len = u32::from_le_bytes(*buf.get(len_at..)?.first_chunk::<4>()?) as usize;
        let body = len_at + 4..len_at + 4 + len;
        if buf.len() < body.end {
            return None;
        }
        out.push(entry(&buf[off..len_at], body.clone()));
        off = body.end;
    }
    Some(out)
}

/// Decode a batch payload `[count u32][(fn_id u32, len u32, args)...]`
/// (server side).
pub fn decode_batch(buf: &[u8]) -> Option<Vec<(FnId, &[u8])>> {
    walk_batch(buf, 4, |id, body| {
        (u32::from_le_bytes(id.try_into().expect("4-byte fn id")), &buf[body])
    })
}

/// Decode a batch response `[count u32][(len u32, resp)...]` (client side).
/// Each per-call response is a zero-copy [`Bytes::slice`] window into the
/// pulled message — one shared backing buffer for the whole batch.
pub fn decode_batch_response(buf: &Bytes) -> Option<Vec<Bytes>> {
    walk_batch(buf, 0, |_, body| buf.slice(body.start, body.end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(b: &Binding, server: EpId, caller: EpId, args: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        (b.handler)(server, caller, args, &mut out);
        out
    }

    #[test]
    fn typed_binding_roundtrips() {
        let r = RpcRegistry::new();
        r.bind_typed(1, |_, _, (a, b): (u64, u64)| a + b);
        assert!(r.get(2).is_none());
        let h = r.get(1).unwrap();
        assert!(h.epoch.is_none());
        let resp = call(&h, EpId::new(0, 0), EpId::new(0, 1), &(20u64, 22u64).to_bytes());
        assert_eq!(u64::from_bytes(&resp).unwrap(), 42);
    }

    #[test]
    fn handlers_append_to_existing_scratch() {
        // The out-param contract: handlers append, never truncate — the
        // batch path relies on this to assemble the aggregate response in
        // one buffer.
        let r = RpcRegistry::new();
        r.bind_typed(1, |_, _, x: u64| x + 1);
        let h = r.get(1).unwrap();
        let mut out = vec![0xAB];
        (h.handler)(EpId::new(0, 0), EpId::new(0, 1), &41u64.to_bytes(), &mut out);
        assert_eq!(out[0], 0xAB);
        assert_eq!(u64::from_bytes(&out[1..]).unwrap(), 42);
    }

    #[test]
    fn request_header_roundtrip() {
        let hdr = RequestHeader { req_id: 99, slot: 3, flags: FLAG_BATCH, chain: vec![1, 2, 3] };
        let msg = hdr.encode(b"argbytes");
        let req = Request::decode(&msg).unwrap();
        assert_eq!((req.req_id, req.slot, req.flags, req.epoch), (99, 3, FLAG_BATCH, None));
        assert_eq!(req.chain().collect::<Vec<_>>(), hdr.chain);
        assert_eq!(req.args, b"argbytes");
    }

    #[test]
    fn batch_encoding_roundtrip() {
        let calls = vec![(1u32, b"one".to_vec()), (2, vec![]), (3, b"three".to_vec())];
        let enc = encode_batch(&calls);
        let dec = decode_batch(&enc).unwrap();
        assert_eq!(dec.len(), 3);
        assert_eq!(dec[0], (1, &b"one"[..]));
        assert_eq!(dec[1], (2, &b""[..]));
        assert_eq!(dec[2], (3, &b"three"[..]));
        let enc = Bytes::from(b"\x03\0\0\0\x02\0\0\0r1\0\0\0\0\x02\0\0\0r3".to_vec());
        let dec = decode_batch_response(&enc).unwrap();
        assert_eq!(dec, vec![Bytes::from_static(b"r1"), Bytes::new(), Bytes::from_static(b"r3")]);
        // Zero-copy: each entry must point into the shared backing buffer.
        assert_eq!(dec[0].as_slice().as_ptr(), enc.slice(8, 10).as_slice().as_ptr());
    }

    #[test]
    fn forged_batch_counts_decode_to_none() {
        // A count the frame cannot hold must fail the decode, not size an
        // allocation of up to 2^32 entries.
        let count = u32::MAX.to_le_bytes();
        assert_eq!(decode_batch(&count), None);
        assert_eq!(decode_batch_response(&Bytes::from(count.to_vec())), None);
        // Cut inside an entry's length, and inside its body.
        assert_eq!(decode_batch(b"\x01\0\0\0\x07\0\0\0\x02\0"), None);
        assert_eq!(decode_batch_response(&Bytes::from(b"\x01\0\0\0\x02\0\0\0r".to_vec())), None);
        assert_eq!(decode_batch(&[0; 3]), None);
        assert_eq!(decode_batch(&[0; 4]), Some(vec![]));
    }

    #[test]
    fn slot_offsets_do_not_overlap() {
        let cap = 128;
        let mut seen = std::collections::HashSet::new();
        for rank in 0..10u32 {
            for slot in 0..SLOTS_PER_CLIENT as u32 {
                let off = slot_offset(rank, slot, cap);
                assert!(seen.insert(off));
                // No overlap with the next slot.
                assert!(off % (SLOT_HDR + cap) == 0);
            }
        }
    }
}
