//! The procedural-access dispatch engine (paper §III-C).
//!
//! HCL's defining idea is that *every* container operation follows one
//! access path: hash the key to a partition, take the hybrid shared-memory
//! bypass when the owner is co-located (§III-C5), otherwise ship exactly one
//! RPC to the owner (§III-C1..C4). This module implements that path once.
//! Containers no longer hand-roll the owner_of / is_local / issue / await /
//! cost braid per operation — they declare a table of [`OpDescriptor`]s and
//! call the [`Dispatcher`], which owns:
//!
//! * owner resolution through the world's epoch-versioned
//!   [`hcl_runtime::PartitionMap`] (or a pinned map for containers with an
//!   explicit placement); keyed sync ops tag their RPC with the resolved
//!   epoch and transparently re-resolve on a typed
//!   [`RpcError::WrongEpoch`] rejection (`Dispatcher::sync_keyed`);
//! * the hybrid local bypass decision;
//! * sync, async (coalesced, §III-B) and bulk (`FLAG_BATCH` aggregated)
//!   issue, with flush-before-sync program ordering preserved — four entry
//!   points (`sync` at an explicit owner, `sync_keyed`, `dispatch_async`,
//!   `bulk`), each taking its arguments owned or borrowed, the two
//!   synchronous ones over one body;
//! * downed-rank graceful degradation ([`DownedRegistry`]): any op against
//!   a marked-down owner fails fast with [`HclError::OwnerDown`] instead of
//!   hanging;
//! * metering: every op's Table I cost and, when the rank runs with
//!   telemetry, its outcome counters, its latency in two histograms (its
//!   locality and its op) and its flight events, through the handle's one
//!   `OpMeter` (`meter.rs`) — called directly at the gate, the bypass, each
//!   issue and each completion;
//! * `feature = "history"` invoke/return recording for the linearizability
//!   checker.
//!
//! The target side of the same path — what the owner does with the op once
//! it arrives — is [`crate::shard`], which also holds the three generic
//! public handles whose methods are these `Dispatcher` calls. Adding a sixth
//! container is a one-file change over the two: a store impl, a descriptor
//! table, and an alias of one of those handles with one impl block for its
//! constructors and its own ops (DESIGN.md §10 has the walkthrough).

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hcl_databox::DataBox;
use hcl_fabric::EpId;
use hcl_rpc::batch::BatchArena;
use hcl_rpc::client::{BatchFuture, RawFuture};
use hcl_rpc::{FnId, RpcError};
use hcl_runtime::{DownedRegistry, Membership, PartitionMap, Rank, WorldShared};
use parking_lot::Mutex;

use crate::cost::CostSnapshot;
use crate::meter::OpMeter;
use crate::{HclError, HclFuture, HclResult};

/// An operation's Table I client-side cost signature: the `L`/`R`/`W` terms
/// charged when the hybrid bypass serves it locally. (`F`/`fb`/`fu` are not
/// part of the signature — the engine derives them from the issue mode.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostSig {
    /// Local memory operations (`L`) per call.
    pub l: u64,
    /// Local reads (`R`) per call — multiplied by the element count when
    /// `scale_r` is set (Table I's `E·R`).
    pub r: u64,
    /// Local writes (`W`) per call — multiplied by the element count when
    /// `scale_w` is set (Table I's `E·W`).
    pub w: u64,
    /// Scale `r` by the bulk element count.
    pub scale_r: bool,
    /// Scale `w` by the bulk element count.
    pub scale_w: bool,
}

impl CostSig {
    /// No client-side charge (control-plane ops).
    pub const ZERO: CostSig = CostSig::lrw(0, 0, 0);

    /// Fixed (unscaled) `L`/`R`/`W` charge.
    pub const fn lrw(l: u64, r: u64, w: u64) -> CostSig {
        CostSig { l, r, w, scale_r: false, scale_w: false }
    }

    /// `L + E·R`: bulk read signature.
    pub const fn read_scaled(l: u64, r: u64) -> CostSig {
        CostSig { l, r, w: 0, scale_r: true, scale_w: false }
    }

    /// `L + E·W`: bulk write signature.
    pub const fn write_scaled(l: u64, w: u64) -> CostSig {
        CostSig { l, r: 0, w, scale_r: false, scale_w: true }
    }
}

/// A typed description of one container operation: everything the engine
/// needs to execute it besides the arguments themselves.
#[derive(Debug, Clone, Copy)]
pub struct OpDescriptor {
    /// Stable label, `"container.op"` (metrics and flight-event key).
    pub name: &'static str,
    /// Function-id offset from the container's `fn_base`; unique within a
    /// container's table (the meter's per-op slot index).
    pub fn_off: u32,
    /// Client-side Table I cost signature of the local bypass.
    pub cost: CostSig,
}

/// How a remote op was issued — determines the `F`-term classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueMode {
    /// Synchronous invocation; travels as its own message.
    Sync,
    /// Asynchronous: staged on the op coalescer, to ride a batched message.
    Async,
    /// Explicit aggregation: one `FLAG_BATCH` message carrying `ops` calls.
    Bulk {
        /// Operations riding the aggregated message.
        ops: u64,
    },
}

/// One dispatched operation, as the meter sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpEvent<'e> {
    /// The operation's descriptor.
    pub op: &'e OpDescriptor,
    /// Resolved owner rank.
    pub owner: u32,
    /// Element count for bulk/scaled ops (1 for single-element ops).
    pub n: u64,
}

/// The arguments of one dispatch as its caller holds them: owned (`A`
/// itself — the local apply consumes them, e.g. `put(key, value)`) or
/// borrowed (`&A`, e.g. `get(&key)`). The local arm receives them as held;
/// the remote arm only ever borrows the wire form.
pub(crate) trait OpArgs<A> {
    /// The value that travels.
    fn wire(&self) -> &A;
}

impl<A: DataBox> OpArgs<A> for A {
    #[inline]
    fn wire(&self) -> &A {
        self
    }
}

impl<A: DataBox> OpArgs<A> for &A {
    #[inline]
    fn wire(&self) -> &A {
        self
    }
}

/// A bulk dispatch's reply: already resolved when the group was served by
/// the local bypass, or one in-flight aggregated message.
pub enum BulkReply<R: DataBox> {
    /// Served locally; per-call results in submission order.
    Ready(Vec<R>),
    /// One `FLAG_BATCH` message in flight; resolves to per-call results in
    /// submission order.
    Pending(BatchFuture, PhantomData<R>),
}

impl<R: DataBox> BulkReply<R> {
    /// Block until every call's result is available.
    pub fn wait(self) -> HclResult<Vec<R>> {
        match self {
            BulkReply::Ready(v) => Ok(v),
            BulkReply::Pending(f, _) => f.wait_typed().map_err(HclError::from),
        }
    }

    /// True once every result is available.
    pub fn is_ready(&self) -> bool {
        match self {
            BulkReply::Ready(_) => true,
            BulkReply::Pending(f, _) => f.raw().is_ready(),
        }
    }
}

/// History token threaded between a container method's invoke and return
/// recording calls (feature `history`).
#[cfg(feature = "history")]
pub type HistToken = Option<conc_check::history::Token<conc_check::DsOp>>;

/// Record an operation's invocation into the [`Recording`] of `$h` (a
/// dispatcher or a set handle; feature `history`; expands to `()` with the
/// feature off, and the `DsOp` expression is never evaluated).
#[cfg(feature = "history")]
macro_rules! hist_invoke {
    ($h:expr, $op:expr) => {
        $h.hist.invoke(|| $op)
    };
}
#[cfg(not(feature = "history"))]
macro_rules! hist_invoke {
    ($h:expr, $op:expr) => {
        ()
    };
}

/// Record an operation's return against the token from [`hist_invoke!`].
#[cfg(feature = "history")]
macro_rules! hist_return {
    ($h:expr, $tok:expr, $res:expr, $f:expr) => {
        $h.hist.ret($tok, $res, $f)
    };
}
#[cfg(not(feature = "history"))]
macro_rules! hist_return {
    ($h:expr, $tok:expr, $res:expr, $f:expr) => {{
        let _ = &$tok;
    }};
}

pub(crate) use {hist_invoke, hist_return};

/// The shared procedural-access engine: one per container handle.
///
/// Owns everything cross-cutting about the access path; containers keep only
/// their descriptor tables, server-side handlers, and data-shaping logic.
pub struct Dispatcher<'a> {
    rank: &'a Rank,
    fn_base: FnId,
    hybrid: bool,
    owners: OwnerMap,
    downed: DownedRegistry,
    /// Table I cost and, with telemetry, metrics and flight events of every
    /// op this handle dispatches.
    meter: OpMeter,
    /// Where the container methods' history hooks record (feature
    /// `history`).
    #[cfg(feature = "history")]
    pub(crate) hist: Recording,
}

/// How a dispatcher maps key hashes to owner ranks.
#[derive(Clone)]
pub enum OwnerMap {
    /// Follow the world's epoch-versioned membership view: owners can move
    /// at runtime (join/leave/drain), and keyed sync ops are epoch-tagged so
    /// stale routing is rejected typed instead of served by the wrong rank.
    Live(Arc<Membership>),
    /// A fixed placement (containers constructed with explicit `servers`):
    /// owners never move, ops travel untagged — exactly the pre-membership
    /// static behavior.
    Pinned(Arc<PartitionMap>),
}

impl OwnerMap {
    /// The current map revision.
    pub fn current(&self) -> Arc<PartitionMap> {
        match self {
            OwnerMap::Live(m) => m.current(),
            OwnerMap::Pinned(p) => Arc::clone(p),
        }
    }
}

/// Bound on owner re-resolutions after [`RpcError::WrongEpoch`] rejections
/// before the op gives up with [`HclError::WrongEpoch`]. One rejection per
/// committed epoch bump is the expected steady state; chains longer than
/// this mean the membership is churning faster than a client round trip.
const EPOCH_RETRY_MAX: u32 = 4;

impl<'a> Dispatcher<'a> {
    /// Build the engine for one container handle whose op table spans the
    /// `fns` function ids from `fn_base`. `hybrid` enables the shared-memory
    /// bypass for node-local owners (§III-C5).
    pub fn new(rank: &'a Rank, fn_base: FnId, fns: u32, hybrid: bool) -> Self {
        let membership = Arc::clone(rank.world().membership());
        // One source of truth for epochs: the downed registry shares the
        // membership's cell, so lease grants snapshot the same counter that
        // membership commits bump.
        let downed = DownedRegistry::with_epoch_cell(membership.epoch_cell());
        Dispatcher {
            rank,
            fn_base,
            hybrid,
            owners: OwnerMap::Live(membership),
            downed,
            meter: OpMeter::new(rank.telemetry(), fns),
            #[cfg(feature = "history")]
            hist: Recording::default(),
        }
    }

    /// The rank this handle dispatches from.
    pub fn rank(&self) -> &'a Rank {
        self.rank
    }

    /// Client-side Table I counters observed through this handle.
    pub fn costs(&self) -> CostSnapshot {
        self.meter.costs()
    }

    /// Pin this handle's owner resolution to a fixed placement (containers
    /// constructed with explicit `servers`). Pinned dispatches travel
    /// untagged: a static map has no epochs to go stale against.
    pub fn set_owner_map(&mut self, owners: OwnerMap) {
        self.owners = owners;
    }

    /// The handle's owner map.
    pub fn owner_map(&self) -> &OwnerMap {
        &self.owners
    }

    /// Resolve a key hash to `(owner_rank, tag)`: `tag` is the membership
    /// epoch the RPC must carry (`None` for pinned maps — no tagging).
    ///
    /// Ordering matters for live maps: the epoch is read *before* the map.
    /// Commits publish the new map first and bump the epoch second, so a new
    /// epoch here implies the new map; the benign race (old epoch + new map)
    /// is rejected by the owner's gate and re-resolved, never misrouted.
    pub fn resolve(&self, key_hash: u64) -> (u32, Option<u64>) {
        match &self.owners {
            OwnerMap::Live(m) => {
                let epoch = m.epoch();
                (m.current().owner_of_hash(key_hash), Some(epoch))
            }
            OwnerMap::Pinned(p) => (p.owner_of_hash(key_hash), None),
        }
    }

    /// The owner's position among the current map's members — the public
    /// `partition_of` index the containers expose.
    pub fn member_index_for(&self, key_hash: u64) -> usize {
        self.owners.current().member_index_of_hash(key_hash)
    }

    /// True when `owner` is served by the hybrid shared-memory bypass.
    #[inline]
    pub fn is_local(&self, owner: u32) -> bool {
        self.hybrid && self.rank.same_node(owner)
    }

    /// The endpoint of `owner`.
    #[inline]
    pub fn ep(&self, owner: u32) -> EpId {
        self.rank.world().config().ep_of(owner)
    }

    /// Mark `owner_rank` as failed: ops against it fail fast.
    pub fn mark_down(&self, owner_rank: u32) {
        self.downed.mark_down(owner_rank);
    }

    /// Clear a failure mark.
    pub fn mark_up(&self, owner_rank: u32) {
        self.downed.mark_up(owner_rank);
    }

    /// True when `owner_rank` is currently marked down.
    pub fn is_down(&self, owner_rank: u32) -> bool {
        self.downed.is_down(owner_rank)
    }

    /// The handle's current ownership epoch: bumped on every effective
    /// `mark_down`/`mark_up` transition. Leases snapshot it at grant time;
    /// any movement invalidates them (reads must not survive failover).
    pub fn epoch(&self) -> u64 {
        self.downed.epoch()
    }

    /// Graceful-degradation gate: ops against a downed owner return
    /// [`HclError::OwnerDown`] without touching memory or fabric.
    /// The rejection is the op's one metered outcome — no issue, no
    /// completion.
    #[inline]
    fn gate(&self, ev: &OpEvent<'_>) -> HclResult<()> {
        if self.downed.is_down(ev.owner) {
            self.meter.owner_down(ev);
            return Err(HclError::OwnerDown(ev.owner));
        }
        Ok(())
    }

    /// Run the local bypass for one op started at `t0`, then meter it.
    #[inline]
    fn run_local<R>(&self, ev: &OpEvent<'_>, t0: Option<Instant>, local: impl FnOnce() -> R) -> R {
        let out = local();
        self.meter.local(ev, t0);
        out
    }

    /// The event of one plain op at an explicit `owner`: one element. Bulk
    /// ops say how many by struct update — `OpEvent { n, ..d.event(op, owner) }`.
    pub(crate) fn event<'e>(&self, op: &'e OpDescriptor, owner: u32) -> OpEvent<'e> {
        OpEvent { op, owner, n: 1 }
    }

    /// The one synchronous dispatch body: *gate → local bypass | (issue →
    /// invoke → complete)* for the resolved `ev` of an op started at `t0`.
    /// `local` receives the owner and the arguments as the caller holds
    /// them; the remote arm only borrows them. An invocation the owner
    /// rejected as stale — only one carrying an epoch `tag` can be — is
    /// counted against the membership (live maps only) and hands `args` and
    /// `local` back inside `Err`, with the typed error to give up with, so
    /// [`Dispatcher::sync_keyed`] can re-resolve with neither consumed; the
    /// op is not complete yet.
    #[inline]
    fn attempt<A, P, R, L>(
        &self,
        ev: &OpEvent<'_>,
        mode: IssueMode,
        tag: Option<u64>,
        t0: Option<Instant>,
        args: P,
        local: L,
    ) -> Result<HclResult<R>, (P, L, HclError)>
    where
        A: DataBox,
        P: OpArgs<A>,
        R: DataBox,
        L: FnOnce(u32, P) -> R,
    {
        if let Err(down) = self.gate(ev) {
            return Ok(Err(down));
        }
        if self.is_local(ev.owner) {
            return Ok(Ok(self.run_local(ev, t0, || local(ev.owner, args))));
        }
        self.meter.issue(ev, mode);
        let fn_id = self.fn_base + ev.op.fn_off;
        let res = self.rank.invoke_tagged(self.ep(ev.owner), fn_id, tag, args.wire());
        if let Err(RpcError::WrongEpoch { sent, current }) = res {
            if let OwnerMap::Live(m) = &self.owners {
                m.counters().wrong_epoch_rejects.fetch_add(1, Ordering::Relaxed);
            }
            return Err((args, local, HclError::WrongEpoch { sent, current }));
        }
        if let Err(RpcError::RetriesExhausted { attempts, .. }) = &res {
            self.meter.retries_exhausted(ev, *attempts);
        }
        self.meter.remote_done(ev, t0, res.is_ok());
        Ok(res.map_err(HclError::Rpc))
    }

    /// Synchronous dispatch of `ev` at its explicit owner, untagged — so
    /// never rejected as stale (the fan-out legs of len/snapshot/flush,
    /// migration control, the single-partition containers). `args` is
    /// owned — handed to `local`, which consumes it (`push(value)`-shaped
    /// ops) — or borrowed (`get(&key)`-shaped ops); see [`OpArgs`]. `mode`
    /// is how the one message is classified: [`IssueMode::Sync`], or
    /// `Bulk { ops: 1 }` for a single-message bulk op whose `ev.n` elements
    /// scale the local charge (Table I `F + L + E·R/W`).
    pub(crate) fn sync<A, P, R>(
        &self,
        ev: OpEvent<'_>,
        mode: IssueMode,
        args: P,
        local: impl FnOnce(P) -> R,
    ) -> HclResult<R>
    where
        A: DataBox,
        P: OpArgs<A>,
        R: DataBox,
    {
        let t0 = self.meter.start();
        let done = self.attempt(&ev, mode, None, t0, args, |_, args| local(args));
        done.unwrap_or_else(|(.., e)| Err(e))
    }

    /// Synchronous dispatch of a keyed op: the engine resolves the owner
    /// from the owner map, tags the RPC with the resolved epoch (live maps),
    /// and on a [`RpcError::WrongEpoch`] rejection re-resolves and retries up
    /// to [`EPOCH_RETRY_MAX`] times before giving up typed
    /// ([`HclError::WrongEpoch`]). However many attempts it takes, the op
    /// completes once, timed from the first. `local` receives the resolved
    /// owner rank so the container can pick its co-located partition, and
    /// `args` as in [`Dispatcher::sync`].
    pub(crate) fn sync_keyed<A, P, R>(
        &self,
        op: &'static OpDescriptor,
        key_hash: u64,
        mut args: P,
        mut local: impl FnOnce(u32, P) -> R,
    ) -> HclResult<R>
    where
        A: DataBox,
        P: OpArgs<A>,
        R: DataBox,
    {
        let t0 = self.meter.start();
        let mut rejects = 0u32;
        loop {
            let (owner, tag) = self.resolve(key_hash);
            let ev = self.event(op, owner);
            match self.attempt(&ev, IssueMode::Sync, tag, t0, args, local) {
                Ok(done) => return done,
                Err((a, l, stale)) => {
                    rejects += 1;
                    if rejects > EPOCH_RETRY_MAX {
                        self.meter.remote_done(&ev, t0, false);
                        return Err(stale);
                    }
                    (args, local) = (a, l);
                }
            }
        }
    }

    /// Asynchronous dispatch (§III-C4): local bypass resolves immediately;
    /// remote ops stage on the rank's op coalescer and may ride a batched
    /// message with neighbouring async ops (§III-B). `args` as in
    /// [`Dispatcher::sync`].
    pub(crate) fn dispatch_async<A, P, R>(
        &self,
        op: &'static OpDescriptor,
        owner: u32,
        args: P,
        local: impl FnOnce(P) -> R,
    ) -> HclResult<HclFuture<R>>
    where
        A: DataBox,
        P: OpArgs<A>,
        R: DataBox,
    {
        let ev = self.event(op, owner);
        self.gate(&ev)?;
        if self.is_local(owner) {
            Ok(HclFuture::Ready(self.run_local(&ev, self.meter.start(), || local(args))))
        } else {
            self.meter.issue(&ev, IssueMode::Async);
            Ok(HclFuture::Coalesced(self.rank.invoke_coalesced(
                self.ep(owner),
                self.fn_base + op.fn_off,
                args.wire(),
            )))
        }
    }

    /// Bulk dispatch of one owner's group with request aggregation
    /// (§III-B): the local bypass applies each element (charging the cost
    /// signature per element); the remote path packs the whole group into
    /// one arena and ships a single `FLAG_BATCH` message. Staged async ops
    /// for the destination are flushed first so the explicit batch keeps
    /// per-destination program order. Items are owned (`put_batch`) or
    /// borrowed (`get_batch`); results align with `items` order in both
    /// paths.
    pub(crate) fn bulk<A, P, R>(
        &self,
        op: &'static OpDescriptor,
        owner: u32,
        items: Vec<P>,
        mut local: impl FnMut(P) -> R,
    ) -> HclResult<BulkReply<R>>
    where
        A: DataBox,
        P: OpArgs<A>,
        R: DataBox,
    {
        let n = items.len() as u64;
        let group = OpEvent { n, ..self.event(op, owner) };
        self.gate(&group)?;
        if self.is_local(owner) {
            let ev = self.event(op, owner);
            let out = items
                .into_iter()
                .map(|a| self.run_local(&ev, self.meter.start(), || local(a)))
                .collect();
            Ok(BulkReply::Ready(out))
        } else {
            self.meter.issue(&group, IssueMode::Bulk { ops: n });
            let hint = items.first().map_or(16, |a| a.wire().size_hint());
            let mut arena = BatchArena::with_capacity(items.len(), hint);
            for a in &items {
                arena.push(self.fn_base + op.fn_off, a.wire());
            }
            let ep = self.ep(owner);
            self.rank.coalescer().flush(ep);
            let fut = self.rank.client().invoke_batch_slices(ep, arena.calls())?;
            Ok(BulkReply::Pending(fut, PhantomData))
        }
    }

    /// Attach the shared history recorder (feature `history`): synchronous
    /// ops dispatched through this engine are logged as invoke/return pairs
    /// by the container methods' `hist_invoke!`/`hist_return!` hooks.
    #[cfg(feature = "history")]
    pub fn set_recorder(&mut self, rec: crate::HistoryRecorder) {
        self.hist.0 = Some(rec);
    }
}

/// A handle's history recorder slot, the target of the
/// `hist_invoke!`/`hist_return!` hooks (feature `history`).
#[cfg(feature = "history")]
#[derive(Default)]
pub(crate) struct Recording(pub(crate) Option<crate::HistoryRecorder>);

#[cfg(feature = "history")]
impl Recording {
    /// Record an op invocation; `op` is only built when a recorder is set.
    pub fn invoke(&self, op: impl FnOnce() -> conc_check::DsOp) -> HistToken {
        self.0.as_ref().map(|r| r.invoke(op()))
    }

    /// Record an op return for `tok`. Failed ops never enter the history.
    pub fn ret<R>(
        &self,
        tok: HistToken,
        res: &HclResult<R>,
        ret: impl FnOnce(&R) -> conc_check::DsRet,
    ) {
        if let (Some(r), Some(tok), Ok(v)) = (self.0.as_ref(), tok, res.as_ref()) {
            r.record_return(tok, ret(v));
        }
    }
}

/// Server-side write forwarder of one shard: the live-migration window's
/// dual-applies leave, asynchronously, through the forward client of the
/// shard's host rank ([`WorldShared::forward_client`]); the forwarder keeps
/// their futures, and counts every forward that fails — to send or to be
/// acknowledged — on the membership's `forward_failures` and on its own
/// tally, which [`Forwarder::flush`] reports. Lives here so container modules
/// contain no direct RPC-client calls (the `xtask lint` DISPATCH rule
/// enforces that).
pub(crate) struct Forwarder {
    world: Arc<WorldShared>,
    home: u32,
    /// What every forward invokes at its target.
    fn_id: FnId,
    outstanding: Mutex<Vec<RawFuture>>,
    /// Forwards that failed since the last [`Forwarder::flush`].
    failed: AtomicU64,
}

/// Bound on retained forward futures: a put-heavy window that never calls
/// `flush` must not accumulate futures (and their client slots) without
/// limit. Past the cap, [`Forwarder::forward`] block-waits the oldest
/// forward before issuing new ones.
const OUTSTANDING_CAP: usize = 1024;

impl Forwarder {
    /// The forwarder of the shard hosted on `home`, invoking `fn_id`.
    pub(crate) fn new(world: Arc<WorldShared>, home: u32, fn_id: FnId) -> Self {
        Forwarder { world, home, fn_id, outstanding: Mutex::default(), failed: AtomicU64::new(0) }
    }

    /// Count one failed forward.
    fn fail(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        self.world.membership().counters().forward_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Consume one forward's result (not drop it, so its response and client
    /// slot are reclaimed).
    fn settle(&self, f: RawFuture) {
        if f.wait().is_err() {
            self.fail();
        }
    }

    /// Forward one encoded mutation to `target`. The invocation future is
    /// retained for [`Forwarder::flush`]; completed ones are settled first,
    /// and past the outstanding cap the oldest in flight is waited for.
    pub(crate) fn forward(&self, target: u32, encoded: &[u8]) {
        let client = self.world.forward_client(self.home);
        let mut outstanding = self.outstanding.lock();
        let mut i = 0;
        while i < outstanding.len() {
            if outstanding[i].is_ready() {
                self.settle(outstanding.swap_remove(i));
            } else {
                i += 1;
            }
        }
        while outstanding.len() >= OUTSTANDING_CAP {
            self.settle(outstanding.remove(0));
        }
        match client.invoke_raw(self.world.config().ep_of(target), self.fn_id, encoded) {
            Ok(f) => outstanding.push(f),
            Err(_) => self.fail(),
        }
    }

    /// Await every outstanding forward; an error says how many forwards
    /// failed since the last flush.
    pub(crate) fn flush(&self) -> Result<(), String> {
        let futures: Vec<RawFuture> = std::mem::take(&mut *self.outstanding.lock());
        futures.into_iter().for_each(|f| self.settle(f));
        match self.failed.swap(0, Ordering::Relaxed) {
            0 => Ok(()),
            n => Err(format!("{n} forwarded writes from rank {} failed", self.home)),
        }
    }
}
