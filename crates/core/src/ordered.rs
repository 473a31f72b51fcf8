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
//! [`OrderedMap`] is the generic keyed handle [`KeyedContainer`] over the
//! skiplist, and [`OrderedSet`] is [`KeyedSet`] over it; the target side is
//! the shared pipeline of [`crate::shard`] over this module's
//! [`KeyedStore`] impl. What is left here is that impl, the table, the
//! config, the constructors and the global views — per-partition fan-outs
//! of fenced reads.

use hcl_containers::SkipListMap;
use hcl_runtime::Rank;

use crate::dispatch::{CostSig, IssueMode, OpDescriptor};
use crate::persist::PersistConfig;
use crate::shard::{
    keyed_ops, Key, KeyedContainer, KeyedOps, KeyedSet, KeyedShard, KeyedSpec, KeyedStore, Val,
    KEYED_FNS,
};
use crate::HclResult;

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
};
static RANGE: OpDescriptor = OpDescriptor {
    name: "omap.range",
    fn_off: FN_RANGE,
    cost: CostSig::ZERO,
};
static RESIZE: OpDescriptor = OpDescriptor {
    name: "omap.resize",
    fn_off: FN_RESIZE,
    cost: CostSig::ZERO,
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
    /// Durability: when set, every partition appends its mutations to a
    /// segmented write-ahead log under the config's directory and replays
    /// it on (re)construction — same subsystem and guarantees as
    /// [`crate::UnorderedMap`] (§III-C6, DESIGN.md §16).
    pub persist: Option<PersistConfig>,
}

impl Default for OrderedConfig {
    fn default() -> Self {
        OrderedConfig { servers: None, hybrid: true, persist: None }
    }
}

/// A distributed ordered map.
pub type OrderedMap<'a, K, V> = KeyedContainer<'a, K, V, SkipListMap<K, V>>;

impl<'a, K: Key + Ord, V: Val> OrderedMap<'a, K, V> {
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
            lease: None,
        };
        KeyedContainer::open(rank, &OPS, name, spec, EXTRA_FNS, SkipListMap::new, |b| {
            b.bind(FN_FIRST, |s: &Shard<K, V>, ()| s.read(|m| m.first()));
            b.bind(FN_RANGE, |s: &Shard<K, V>, (lo, hi): (K, K)| {
                s.read(|m| m.range_snapshot(&lo, &hi))
            });
            // Skiplist partitions grow node-by-node; the paper's realloc-
            // style resize is satisfied trivially, but the surface is kept
            // for parity.
            b.bind(FN_RESIZE, |_: &Shard<K, V>, _new_size: u64| true);
        })
    }

    /// Global minimum entry: the minimum of every partition's first.
    pub fn first(&self) -> HclResult<Option<(K, V)>> {
        let firsts = self.fan_out(&FIRST, &(), |s| s.read(|m| m.first()))?;
        Ok(firsts.into_iter().flatten().min_by(|a, b| a.0.cmp(&b.0)))
    }

    /// All entries with keys in `[lo, hi)`, globally sorted.
    pub fn range(&self, lo: &K, hi: &K) -> HclResult<Vec<(K, V)>> {
        let args = (lo.clone(), hi.clone());
        let parts = self.fan_out(&RANGE, &args, |s| s.read(|m| m.range_snapshot(lo, hi)))?;
        let mut out: Vec<(K, V)> = parts.into_iter().flatten().collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Every entry, globally sorted (merging the per-partition orders).
    pub fn snapshot_sorted(&self) -> HclResult<Vec<(K, V)>> {
        let mut out = self.snapshot_all()?;
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Partition resize surface (Table I parity; skiplist partitions grow
    /// node-by-node so this is trivially satisfied).
    pub fn resize(&self, partition_id: usize, new_size: usize) -> HclResult<bool> {
        let owner = self.owner_of_partition(partition_id)?;
        self.d.sync(self.d.event(&RESIZE, owner), IssueMode::Sync, &(new_size as u64), |_| true)
    }
}

/// A distributed ordered set.
pub type OrderedSet<'a, K> = KeyedSet<'a, K, SkipListMap<K, ()>>;

impl<'a, K: Key + Ord> OrderedSet<'a, K> {
    /// Collective constructor with defaults.
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        KeyedSet::over(OrderedMap::new(rank, name))
    }

    /// Collective constructor with configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: OrderedConfig) -> Self {
        KeyedSet::over(OrderedMap::with_config(rank, name, cfg))
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
}
