//! `HCL::queue` — the distributed MWMR FIFO queue (paper §III-D3A).
//!
//! "HCL queues are implemented as a single-partitioned structure, but are
//! globally visible. The queues are identified by the process ID that hosts
//! the partition." Elements may be of variable length; the queue grows
//! dynamically (our lock-free MS queue is unbounded, so the paper's
//! stall-pushes-during-migration resize protocol is satisfied without
//! stalls).
//!
//! Every operation is one [`Dispatcher`](crate::Dispatcher) call against the
//! common single-partition descriptor table; the target side — one body per
//! op, serving the NIC handler and the hybrid bypass alike, with logging and
//! read fences — is [`crate::shard::SeqShard`] over this module's
//! [`SeqStore`] impl for the lock-free queue.

use hcl_containers::LockFreeQueue;
use hcl_databox::DataBox;
use hcl_runtime::Rank;

use crate::cost::CostSnapshot;
use crate::dispatch::{hist_invoke, hist_return, IssueMode};
use crate::persist::PersistConfig;
use crate::shard::{seq_ops, SeqClient, SeqOps, SeqShard, SeqStore};
use crate::{HclFuture, HclResult};

/// Table I op descriptors for the queue.
static OPS: SeqOps = seq_ops!("queue");

impl<T: Clone + Send + Sync + 'static> SeqStore<T> for LockFreeQueue<T> {
    fn push(&self, value: T) {
        LockFreeQueue::push(self, value)
    }
    fn pop(&self) -> Option<T> {
        LockFreeQueue::pop(self)
    }
    fn push_bulk(&self, values: Vec<T>) -> usize {
        LockFreeQueue::push_bulk(self, values)
    }
    fn pop_bulk(&self, max: usize) -> Vec<T> {
        LockFreeQueue::pop_bulk(self, max)
    }
    fn len(&self) -> usize {
        LockFreeQueue::len(self)
    }
    fn snapshot(&self) -> Vec<T> {
        self.iter_snapshot()
    }
}

/// Configuration for [`Queue`] (and [`crate::PriorityQueue`]).
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// The rank hosting the single partition (default: rank 0).
    pub owner: u32,
    /// Hybrid access model toggle.
    pub hybrid: bool,
    /// Durability: when set, the hosting partition appends pushes and pops
    /// to a segmented write-ahead log and replays it on (re)construction —
    /// same subsystem and guarantees as [`crate::UnorderedMap`] (§III-C6,
    /// DESIGN.md §16).
    pub persist: Option<PersistConfig>,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig { owner: 0, hybrid: true, persist: None }
    }
}

/// A distributed FIFO queue hosted on one rank, pushed/popped by all.
pub struct Queue<'a, T>
where
    T: DataBox + Clone + Send + Sync + 'static,
{
    c: SeqClient<'a, T, LockFreeQueue<T>>,
}

impl<'a, T> Queue<'a, T>
where
    T: DataBox + Clone + Send + Sync + 'static,
{
    /// Collective constructor with defaults (hosted on rank 0).
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        Self::with_config(rank, name, QueueConfig::default())
    }

    /// Collective constructor with configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: QueueConfig) -> Self {
        Queue { c: SeqClient::open(rank, &OPS, name, cfg, 0, LockFreeQueue::new, |_| {}) }
    }

    /// Attach a shared history recorder: synchronous `push`/`pop` through
    /// this handle are logged as invoke/return pairs for offline
    /// linearizability checking ([`crate::check`]). Asynchronous and bulk
    /// variants are not recorded.
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
    pub fn shard(&self) -> &SeqShard<T, LockFreeQueue<T>> {
        &self.c.shard
    }

    /// Mark the hosting rank failed: subsequent ops through this handle
    /// degrade immediately with [`crate::HclError::OwnerDown`] instead of
    /// issuing RPCs that cannot be served.
    pub fn mark_down(&self, owner_rank: u32) {
        self.c.d.mark_down(owner_rank);
    }

    /// Clear a failure mark set by [`Queue::mark_down`].
    pub fn mark_up(&self, owner_rank: u32) {
        self.c.d.mark_up(owner_rank);
    }

    /// Push one element (Table I: `F + L + W`).
    pub fn push(&self, value: T) -> HclResult<bool> {
        let tok =
            hist_invoke!(self.c.d, crate::DsOp::QueuePush { value: crate::history_enc(&value) });
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

    /// Pop one element (Table I: `F + L + R`).
    pub fn pop(&self) -> HclResult<Option<T>> {
        let tok = hist_invoke!(self.c.d, crate::DsOp::QueuePop);
        let result = self.c.at_owner(&OPS.pop, |s| s.pop());
        hist_return!(self.c.d, tok, &result, |v| crate::DsRet::Popped(
            v.as_ref().map(crate::history_enc)
        ));
        result
    }

    /// Bulk push (Table I: `F + L + E·W`): one invocation carries `E`
    /// elements.
    pub fn push_bulk(&self, values: Vec<T>) -> HclResult<u64> {
        self.c.push_bulk(values)
    }

    /// Bulk pop of up to `max` elements (Table I: `F + L + E·R`).
    pub fn pop_bulk(&self, max: u64) -> HclResult<Vec<T>> {
        self.c.pop_bulk(max)
    }

    /// Elements currently queued (approximate under concurrency).
    pub fn len(&self) -> HclResult<u64> {
        self.c.len()
    }

    /// True when the queue appears empty.
    pub fn is_empty(&self) -> HclResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Clone out the queued elements front-to-back without consuming them.
    pub fn snapshot(&self) -> HclResult<Vec<T>> {
        self.c.snapshot()
    }

    /// Migration seam, extract half: drain *every* queued element from the
    /// hosting partition in one invocation, front-to-back. Pair with
    /// [`Queue::install_bulk`] against a twin queue hosted elsewhere to move
    /// the shard (the single-partition analogue of the maps' live-migration
    /// extract/install; see [`crate::rebalance`]). Fails — with nothing
    /// moved — when the host cannot compact its op log to the drained state.
    pub fn extract_all(&self) -> HclResult<Vec<T>> {
        self.c.extract_all()
    }

    /// Compact the op log down to a push-per-element snapshot of the live
    /// contents (no-op when persistence is off). Call from the owner rank.
    pub fn compact_log(&self) -> HclResult<()> {
        self.c.compact_log()
    }

    /// Migration seam, install half: append extracted elements in order.
    pub fn install_bulk(&self, values: Vec<T>) -> HclResult<u64> {
        self.push_bulk(values)
    }

    /// Client-side cost counters.
    pub fn costs(&self) -> CostSnapshot {
        self.c.d.costs()
    }
}
