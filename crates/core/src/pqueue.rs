//! `HCL::priority_queue` (paper §III-D3B).
//!
//! Single-partitioned like the FIFO queue, but pops deliver the *minimum*
//! element. The local structure is the lock-free logical-deletion priority
//! queue of [`hcl_containers::SkipListPq`] (DESIGN.md substitution #6), with
//! its full unlinking pass exposed through [`PriorityQueue::purge`].
//!
//! Push cost is `F + L·log(N) + W` (Table I): one invocation, then an
//! ordered O(log n) placement at local-memory speed on the owner — this is
//! exactly what lets the ISx port keep data sorted "for free" while it
//! arrives (§IV-D1).
//!
//! Every operation is one [`Dispatcher`](crate::Dispatcher) call; the target
//! side is [`crate::shard::SeqShard`] over this module's [`SeqStore`] impl,
//! plus the two ops only a priority queue has (`peek`, `purge`).

use hcl_containers::SkipListPq;
use hcl_databox::DataBox;
use hcl_runtime::Rank;

use crate::cost::CostSnapshot;
use crate::dispatch::{
    hist_invoke, hist_return, CostSig, IssueMode, OpDescriptor,
};
use crate::queue::QueueConfig;
use crate::shard::{seq_ops, SeqClient, SeqOps, SeqShard, SeqStore, SEQ_FNS};
use crate::{HclFuture, HclResult};

const FN_PEEK: u32 = SEQ_FNS;
const FN_PURGE: u32 = SEQ_FNS + 1;
const EXTRA_FNS: u32 = 2;

/// Table I op descriptors: the common single-partition rows, then the
/// priority queue's own.
static OPS: SeqOps = seq_ops!("pq");
static PEEK: OpDescriptor = OpDescriptor {
    name: "pq.peek",
    fn_off: FN_PEEK,
    cost: CostSig::lrw(1, 1, 0),
    degradable: true,
};
static PURGE: OpDescriptor = OpDescriptor {
    name: "pq.purge",
    fn_off: FN_PURGE,
    cost: CostSig::ZERO,
    degradable: true,
};

impl<T: Ord + Clone + Send + Sync + 'static> SeqStore<T> for SkipListPq<T> {
    fn push(&self, value: T) {
        SkipListPq::push(self, value)
    }
    fn pop(&self) -> Option<T> {
        SkipListPq::pop(self)
    }
    fn push_bulk(&self, values: Vec<T>) -> usize {
        SkipListPq::push_bulk(self, values)
    }
    fn pop_bulk(&self, max: usize) -> Vec<T> {
        SkipListPq::pop_bulk(self, max)
    }
    fn len(&self) -> usize {
        SkipListPq::len(self)
    }
    fn snapshot(&self) -> Vec<T> {
        self.iter_snapshot()
    }
}

/// One priority-queue shard: the shared pipeline over the skiplist pq.
type Shard<T> = SeqShard<T, SkipListPq<T>>;

/// A distributed min-priority queue hosted on one rank.
pub struct PriorityQueue<'a, T>
where
    T: DataBox + Ord + Clone + Send + Sync + 'static,
{
    c: SeqClient<'a, T, SkipListPq<T>>,
}

impl<'a, T> PriorityQueue<'a, T>
where
    T: DataBox + Ord + Clone + Send + Sync + 'static,
{
    /// Collective constructor with defaults (hosted on rank 0).
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        Self::with_config(rank, name, QueueConfig::default())
    }

    /// Collective constructor with configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: QueueConfig) -> Self {
        let c = SeqClient::open(rank, &OPS, name, cfg, EXTRA_FNS, SkipListPq::new, |b| {
            b.bind(FN_PEEK, |s: &Shard<T>, ()| s.read(|pq| pq.peek()));
            b.bind(FN_PURGE, |s: &Shard<T>, ()| s.store().purge() as u64);
        });
        PriorityQueue { c }
    }

    /// Attach a shared history recorder: synchronous `push`/`pop` through
    /// this handle are logged as invoke/return pairs for offline
    /// linearizability checking ([`crate::check`]). The sequential pq spec
    /// orders elements by their encoded bytes, so recorded workloads should
    /// use element types whose `DataBox` encoding is order-preserving
    /// (e.g. fixed-width strings).
    #[cfg(feature = "history")]
    pub fn set_recorder(&mut self, rec: crate::HistoryRecorder) {
        self.c.d.set_recorder(rec);
    }

    /// The hosting rank.
    pub fn owner(&self) -> u32 {
        self.c.owner()
    }

    /// The server-side shard on the hosting rank (tests and diagnostics).
    #[doc(hidden)]
    pub fn shard(&self) -> &Shard<T> {
        &self.c.shard
    }

    /// Mark the hosting rank failed: subsequent ops through this handle
    /// degrade immediately with [`crate::HclError::OwnerDown`].
    pub fn mark_down(&self, owner_rank: u32) {
        self.c.d.mark_down(owner_rank);
    }

    /// Clear a failure mark set by [`PriorityQueue::mark_down`].
    pub fn mark_up(&self, owner_rank: u32) {
        self.c.d.mark_up(owner_rank);
    }

    /// Push one element (Table I: `F + L·log(N) + W`).
    pub fn push(&self, value: T) -> HclResult<bool> {
        let tok = hist_invoke!(self.c.d, crate::DsOp::PqPush { value: crate::history_enc(&value) });
        let ev = self.c.d.event(&OPS.push, self.owner());
        let result = self.c.d.sync(ev, IssueMode::Sync, value, |v| self.c.shard.push(v));
        hist_return!(self.c.d, tok, &result, |acked| crate::DsRet::Pushed(*acked));
        result
    }

    /// Asynchronous push. Remote pushes stage on the rank's op coalescer
    /// and may ride a batched message with neighbouring async ops.
    pub fn push_async(&self, value: T) -> HclResult<HclFuture<bool>> {
        self.c.d.dispatch_async(&OPS.push, self.owner(), value, |v| self.c.shard.push(v))
    }

    /// Pop the minimum element (Table I: `F + L + R`).
    pub fn pop(&self) -> HclResult<Option<T>> {
        let tok = hist_invoke!(self.c.d, crate::DsOp::PqPop);
        let result = self.c.at_owner(&OPS.pop, |s| s.pop());
        hist_return!(self.c.d, tok, &result, |v| crate::DsRet::Popped(
            v.as_ref().map(crate::history_enc)
        ));
        result
    }

    /// Clone of the minimum without removing it.
    pub fn peek(&self) -> HclResult<Option<T>> {
        self.c.at_owner(&PEEK, |s| s.read(|pq| pq.peek()))
    }

    /// Bulk push (Table I: `F + L·log(N) + E·W`).
    pub fn push_bulk(&self, values: Vec<T>) -> HclResult<u64> {
        self.c.push_bulk(values)
    }

    /// Bulk pop of up to `max` elements, in priority order.
    pub fn pop_bulk(&self, max: u64) -> HclResult<Vec<T>> {
        self.c.pop_bulk(max)
    }

    /// Live elements (approximate under concurrency).
    pub fn len(&self) -> HclResult<u64> {
        self.c.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> HclResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Run one physical-unlink pass over logically deleted nodes (the
    /// paper's background purge, on demand).
    pub fn purge(&self) -> HclResult<u64> {
        self.c.at_owner(&PURGE, |s| s.store().purge() as u64)
    }

    /// Clone out the live elements in priority order without popping.
    pub fn snapshot(&self) -> HclResult<Vec<T>> {
        self.c.snapshot()
    }

    /// Migration seam, extract half: drain *every* live element from the
    /// hosting partition in one invocation, in priority order. Pair with
    /// [`PriorityQueue::install_bulk`] against a twin hosted elsewhere to
    /// move the shard (the single-partition analogue of the maps'
    /// live-migration extract/install; see [`crate::rebalance`]). Fails —
    /// with nothing moved — when the host cannot compact its op log.
    pub fn extract_all(&self) -> HclResult<Vec<T>> {
        self.c.extract_all()
    }

    /// Compact the op log down to a push-per-element snapshot of the live
    /// contents (no-op when persistence is off). Call from the owner rank.
    pub fn compact_log(&self) -> HclResult<()> {
        self.c.compact_log()
    }

    /// Migration seam, install half: re-insert extracted elements.
    pub fn install_bulk(&self, values: Vec<T>) -> HclResult<u64> {
        self.push_bulk(values)
    }

    /// Client-side cost counters.
    pub fn costs(&self) -> CostSnapshot {
        self.c.d.costs()
    }
}
