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
//! [`PriorityQueue`] is the generic single-partition handle [`SeqContainer`]
//! over the skiplist pq, with the target side [`crate::shard::SeqShard`]
//! over this module's [`SeqStore`] impl. What is left here is that impl,
//! the table, the constructors and the two ops only a priority queue has
//! (`peek`, `purge`).

use hcl_containers::SkipListPq;
use hcl_runtime::Rank;

use crate::dispatch::{CostSig, OpDescriptor};
use crate::queue::QueueConfig;
use crate::shard::{seq_ops, SeqContainer, SeqOps, SeqShard, SeqStore, Val, SEQ_FNS};
use crate::HclResult;

const FN_PEEK: u32 = SEQ_FNS;
const FN_PURGE: u32 = SEQ_FNS + 1;
const EXTRA_FNS: u32 = 2;

/// Table I op descriptors: the common single-partition rows, then the
/// priority queue's own.
static OPS: SeqOps = seq_ops!("pq", PqPush, PqPop);
static PEEK: OpDescriptor = OpDescriptor {
    name: "pq.peek",
    fn_off: FN_PEEK,
    cost: CostSig::lrw(1, 1, 0),
};
static PURGE: OpDescriptor = OpDescriptor {
    name: "pq.purge",
    fn_off: FN_PURGE,
    cost: CostSig::ZERO,
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
pub type PriorityQueue<'a, T> = SeqContainer<'a, T, SkipListPq<T>>;

impl<'a, T: Val + Ord> PriorityQueue<'a, T> {
    /// Collective constructor with defaults (hosted on rank 0).
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        Self::with_config(rank, name, QueueConfig::default())
    }

    /// Collective constructor with configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: QueueConfig) -> Self {
        SeqContainer::open(rank, &OPS, name, cfg, EXTRA_FNS, SkipListPq::new, |b| {
            b.bind(FN_PEEK, |s: &Shard<T>, ()| s.read(|pq| pq.peek()));
            b.bind(FN_PURGE, |s: &Shard<T>, ()| s.store().purge() as u64);
        })
    }

    /// Clone of the minimum without removing it.
    pub fn peek(&self) -> HclResult<Option<T>> {
        self.at_owner(&PEEK, |s| s.read(|pq| pq.peek()))
    }

    /// Run one physical-unlink pass over logically deleted nodes (the
    /// paper's background purge, on demand).
    pub fn purge(&self) -> HclResult<u64> {
        self.at_owner(&PURGE, |s| s.store().purge() as u64)
    }
}
