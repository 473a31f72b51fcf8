//! `HCL::queue` — the distributed MWMR FIFO queue (paper §III-D3A).
//!
//! "HCL queues are implemented as a single-partitioned structure, but are
//! globally visible. The queues are identified by the process ID that hosts
//! the partition." Elements may be of variable length; the queue grows
//! dynamically (our lock-free MS queue is unbounded, so the paper's
//! stall-pushes-during-migration resize protocol is satisfied without
//! stalls).
//!
//! [`Queue`] is the generic single-partition handle [`SeqContainer`] over
//! the lock-free queue: every op is written there once, as one
//! [`Dispatcher`](crate::Dispatcher) call against the common descriptor
//! table, and the target side is [`crate::shard::SeqShard`] over this
//! module's [`SeqStore`] impl. What is left here is that impl, the table,
//! the config and the constructors.

use hcl_containers::LockFreeQueue;
use hcl_runtime::Rank;

use crate::persist::PersistConfig;
use crate::shard::{seq_ops, SeqContainer, SeqOps, SeqStore, Val};

/// Table I op descriptors for the queue.
static OPS: SeqOps = seq_ops!("queue", QueuePush, QueuePop);

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
pub type Queue<'a, T> = SeqContainer<'a, T, LockFreeQueue<T>>;

impl<'a, T: Val> Queue<'a, T> {
    /// Collective constructor with defaults (hosted on rank 0).
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        Self::with_config(rank, name, QueueConfig::default())
    }

    /// Collective constructor with configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: QueueConfig) -> Self {
        SeqContainer::open(rank, &OPS, name, cfg, 0, LockFreeQueue::new, |_| {})
    }
}
