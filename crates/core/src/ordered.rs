//! `HCL::map` / `HCL::set` — ordered distributed structures (paper §III-D2).
//!
//! "Ordered structures are built using multiple single-partitioned
//! structures that are abstracted behind a global interface": each partition
//! is an ordered lock-free structure (our skiplist, standing in for the
//! paper's wait-free red-black tree — DESIGN.md substitution #5), keys are
//! distributed over partitions by hash, and global ordered views (`first`,
//! `range`, sorted snapshots) merge the per-partition orderings.
//!
//! Insert/find cost is `F + L·log(N) + W/R` (Table I): one remote
//! invocation, then an O(log n) descent at local-memory speed on the owner.
//!
//! Every operation is one [`Dispatcher`](crate::Dispatcher) call against a
//! descriptor table; the target side is the shared pipeline of
//! [`crate::shard`] over this module's [`KeyedStore`] impl for the skiplist.
//! The global views are per-partition fan-outs of fenced reads.

use std::hash::Hash;

use hcl_containers::SkipListMap;
use hcl_databox::DataBox;
use hcl_runtime::Rank;

use crate::cost::CostSnapshot;
use crate::dispatch::{CostSig, IssueMode, OpDescriptor};
use crate::persist::PersistConfig;
use crate::shard::{
    keyed_ops, KeyedClient, KeyedOps, KeyedShard, KeyedSpec, KeyedStore, KEYED_FNS,
};
use crate::{HclFuture, HclResult};

const FN_FIRST: u32 = KEYED_FNS;
const FN_RANGE: u32 = KEYED_FNS + 1;
const FN_RESIZE: u32 = KEYED_FNS + 2;
const EXTRA_FNS: u32 = 3;

/// Table I op descriptors: the common keyed rows, then the ordered views.
static OPS: KeyedOps = keyed_ops!("omap");
static FIRST: OpDescriptor = OpDescriptor {
    name: "omap.first",
    fn_off: FN_FIRST,
    cost: CostSig::ZERO,
    degradable: true,
};
static RANGE: OpDescriptor = OpDescriptor {
    name: "omap.range",
    fn_off: FN_RANGE,
    cost: CostSig::ZERO,
    degradable: true,
};
static RESIZE: OpDescriptor = OpDescriptor {
    name: "omap.resize",
    fn_off: FN_RESIZE,
    cost: CostSig::ZERO,
    degradable: true,
};

impl<K, V> KeyedStore<K, V> for SkipListMap<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn get(&self, key: &K) -> Option<V> {
        SkipListMap::get(self, key)
    }
    fn insert(&self, key: K, value: V) -> Option<V> {
        SkipListMap::insert(self, key, value)
    }
    fn remove(&self, key: &K) -> Option<V> {
        SkipListMap::remove(self, key)
    }
    fn len(&self) -> usize {
        SkipListMap::len(self)
    }
    fn snapshot(&self) -> Vec<(K, V)> {
        self.iter_snapshot()
    }
}

/// One ordered-map shard: the shared pipeline over a skiplist.
type Shard<K, V> = KeyedShard<K, V, SkipListMap<K, V>>;

/// Configuration for ordered containers.
#[derive(Debug, Clone)]
pub struct OrderedConfig {
    /// Partition owners; `None` = first rank of every node.
    pub servers: Option<Vec<u32>>,
    /// Hybrid access model toggle.
    pub hybrid: bool,
    /// Asynchronous replication factor (0 = off). Each partition forwards
    /// its mutations to the next `replicas` partition owners, and `get`s
    /// against a marked-down owner are served from the replica — the same
    /// degraded-read contract as [`crate::UnorderedMap`].
    pub replicas: usize,
    /// Durability: when set, every partition appends its mutations to a
    /// segmented write-ahead log under the config's directory and replays
    /// it on (re)construction — same subsystem and guarantees as
    /// [`crate::UnorderedMap`] (§III-C6, DESIGN.md §16).
    pub persist: Option<PersistConfig>,
}

impl Default for OrderedConfig {
    fn default() -> Self {
        OrderedConfig { servers: None, hybrid: true, replicas: 0, persist: None }
    }
}

/// A distributed ordered map.
pub struct OrderedMap<'a, K, V>
where
    K: DataBox + Ord + Hash + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    c: KeyedClient<'a, K, V, SkipListMap<K, V>>,
}

impl<'a, K, V> OrderedMap<'a, K, V>
where
    K: DataBox + Ord + Hash + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    /// Collective constructor with defaults.
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        Self::with_config(rank, name, OrderedConfig::default())
    }

    /// Collective constructor with configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: OrderedConfig) -> Self {
        let spec = KeyedSpec {
            servers: cfg.servers,
            hybrid: cfg.hybrid,
            persist: cfg.persist,
            replicas: cfg.replicas,
        };
        let c = KeyedClient::open(rank, &OPS, name, spec, EXTRA_FNS, SkipListMap::new, |b| {
            b.bind(FN_FIRST, |s: &Shard<K, V>, ()| s.read(|m| m.first()));
            b.bind(FN_RANGE, |s: &Shard<K, V>, (lo, hi): (K, K)| {
                s.read(|m| m.range_snapshot(&lo, &hi))
            });
            // Skiplist partitions grow node-by-node; the paper's realloc-
            // style resize is satisfied trivially, but the surface is kept
            // for parity.
            b.bind(FN_RESIZE, |_: &Shard<K, V>, _new_size: u64| true);
        });
        OrderedMap { c }
    }

    /// Attach a shared history recorder: every synchronous `put`/`get`/
    /// `erase` through this handle is logged as an invoke/return pair for
    /// offline linearizability checking ([`crate::check`]). Asynchronous
    /// variants and range scans are not recorded.
    #[cfg(feature = "history")]
    pub fn set_recorder(&mut self, rec: crate::HistoryRecorder) {
        self.c.d.set_recorder(rec);
    }

    /// Which partition (member index in the current ownership map) owns
    /// `key`.
    pub fn partition_of(&self, key: &K) -> usize {
        self.c.partition_of(key)
    }

    /// Number of partitions (owning members of the current map).
    pub fn partitions(&self) -> usize {
        self.c.map().members().len()
    }

    /// The server-side shard hosted on rank `host` (tests and diagnostics).
    #[doc(hidden)]
    pub fn shard_at(&self, host: u32) -> &Shard<K, V> {
        self.c.core.shard(host)
    }

    /// Mark a partition-owner rank failed: subsequent ops targeting it
    /// degrade immediately with [`crate::HclError::OwnerDown`].
    pub fn mark_down(&self, owner_rank: u32) {
        self.c.d.mark_down(owner_rank);
    }

    /// Clear a failure mark set by [`OrderedMap::mark_down`].
    pub fn mark_up(&self, owner_rank: u32) {
        self.c.d.mark_up(owner_rank);
    }

    /// Insert (Table I: `F + L·log(N) + W`); `true` when newly inserted.
    pub fn put(&self, key: K, value: V) -> HclResult<bool> {
        self.c.put(key, value)
    }

    /// Asynchronous insert. Remote inserts stage on the rank's op coalescer
    /// and may ride a batched message with neighbouring async ops.
    pub fn put_async(&self, key: K, value: V) -> HclResult<HclFuture<bool>> {
        self.c.put_async(key, value)
    }

    /// Look up (Table I: `F + L·log(N) + R`). Falls back to a replica when
    /// the owner has been marked down (requires `replicas >= 1`) — the same
    /// degraded-read contract as the unordered map.
    pub fn get(&self, key: &K) -> HclResult<Option<V>> {
        self.c.get(key)
    }

    /// Wait until every partition's outstanding replication forwards have
    /// been acknowledged.
    pub fn flush_replication(&self) -> HclResult<()> {
        self.c.flush_replication()
    }

    /// Remove `key`.
    pub fn erase(&self, key: &K) -> HclResult<Option<V>> {
        self.c.erase(key)
    }

    /// Presence check.
    pub fn contains(&self, key: &K) -> HclResult<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// Total entries.
    pub fn len(&self) -> HclResult<u64> {
        self.c.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> HclResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Global minimum entry: the minimum of every partition's first.
    pub fn first(&self) -> HclResult<Option<(K, V)>> {
        let firsts = self.c.fan_out(&FIRST, &(), |s| s.read(|m| m.first()))?;
        Ok(firsts.into_iter().flatten().min_by(|a, b| a.0.cmp(&b.0)))
    }

    /// All entries with keys in `[lo, hi)`, globally sorted.
    pub fn range(&self, lo: &K, hi: &K) -> HclResult<Vec<(K, V)>> {
        let args = (lo.clone(), hi.clone());
        let parts = self.c.fan_out(&RANGE, &args, |s| s.read(|m| m.range_snapshot(lo, hi)))?;
        let mut out: Vec<(K, V)> = parts.into_iter().flatten().collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Every entry, globally sorted (merging the per-partition orders).
    pub fn snapshot_sorted(&self) -> HclResult<Vec<(K, V)>> {
        let mut out = self.c.snapshot_all()?;
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Partition resize surface (Table I parity; skiplist partitions grow
    /// node-by-node so this is trivially satisfied).
    pub fn resize(&self, partition_id: usize, new_size: usize) -> HclResult<bool> {
        let owner = self.c.owner_of_partition(partition_id)?;
        self.c.d.sync(self.c.d.event(&RESIZE, owner), IssueMode::Sync, &(new_size as u64), |_| true)
    }

    /// Flush and compact every *local* partition's op log to a snapshot.
    pub fn compact_local_logs(&self) -> HclResult<()> {
        self.c.compact_local_logs()
    }

    /// Client-side cost counters.
    pub fn costs(&self) -> CostSnapshot {
        self.c.d.costs()
    }
}

/// A distributed ordered set.
pub struct OrderedSet<'a, K>
where
    K: DataBox + Ord + Hash + Clone + Send + Sync + 'static,
{
    inner: OrderedMap<'a, K, ()>,
}

impl<'a, K> OrderedSet<'a, K>
where
    K: DataBox + Ord + Hash + Clone + Send + Sync + 'static,
{
    /// Collective constructor with defaults.
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        OrderedSet { inner: OrderedMap::new(rank, name) }
    }

    /// Collective constructor with configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: OrderedConfig) -> Self {
        OrderedSet { inner: OrderedMap::with_config(rank, name, cfg) }
    }

    /// Insert `key`; `true` when newly inserted.
    pub fn insert(&self, key: K) -> HclResult<bool> {
        self.inner.put(key, ())
    }

    /// Membership test.
    pub fn contains(&self, key: &K) -> HclResult<bool> {
        self.inner.contains(key)
    }

    /// Remove `key`; `true` when it was present.
    pub fn remove(&self, key: &K) -> HclResult<bool> {
        Ok(self.inner.erase(key)?.is_some())
    }

    /// Total elements.
    pub fn len(&self) -> HclResult<u64> {
        self.inner.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> HclResult<bool> {
        self.inner.is_empty()
    }

    /// Smallest element.
    pub fn first(&self) -> HclResult<Option<K>> {
        Ok(self.inner.first()?.map(|(k, ())| k))
    }

    /// Elements in `[lo, hi)`, sorted.
    pub fn range(&self, lo: &K, hi: &K) -> HclResult<Vec<K>> {
        Ok(self.inner.range(lo, hi)?.into_iter().map(|(k, ())| k).collect())
    }

    /// Every element, sorted.
    pub fn snapshot_sorted(&self) -> HclResult<Vec<K>> {
        Ok(self.inner.snapshot_sorted()?.into_iter().map(|(k, ())| k).collect())
    }

    /// Mark a partition-owner rank failed (see [`OrderedMap::mark_down`]).
    pub fn mark_down(&self, owner_rank: u32) {
        self.inner.mark_down(owner_rank);
    }

    /// Clear a failure mark set by [`OrderedSet::mark_down`].
    pub fn mark_up(&self, owner_rank: u32) {
        self.inner.mark_up(owner_rank);
    }

    /// Client-side cost counters.
    pub fn costs(&self) -> CostSnapshot {
        self.inner.costs()
    }
}
