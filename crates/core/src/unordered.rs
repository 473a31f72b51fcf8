//! `HCL::unordered_map` / `HCL::unordered_set` (paper §III-D1).
//!
//! Multi-partition hash structures: "a single logically contiguous array of
//! buckets distributed block-wise among multiple partitions in the global
//! address space", with **two levels of hashing** — one choosing the
//! partition, one locating the bucket inside it (the in-partition level is
//! the concurrent cuckoo hash of [`hcl_containers::CuckooMap`]).
//!
//! Operations follow the paper exactly:
//! * the caller hashes the key to a partition;
//! * **hybrid access** — "If a node-local partition is chosen, the RPC
//!   infrastructure is bypassed and the insertion (find) is performed on the
//!   shared memory (i.e., without involving the NIC)";
//! * otherwise one RPC (`F`) carries the whole operation to the owner, where
//!   all bucket work happens at local-memory speed.
//!
//! [`UnorderedMap`] is the generic keyed handle [`KeyedContainer`] over the
//! cuckoo hash, and [`UnorderedSet`] is [`KeyedSet`] over it: every common
//! op — the lease-cached `get` (DESIGN.md §14) included — is written there
//! once, and everything that happens at the target — logging, the
//! live-migration window — is the shared pipeline of [`crate::shard`] over
//! this module's [`KeyedStore`] impl. What is specific to the hash map lives
//! here: per-partition resize (`resize(partition_id, new_size)`),
//! server-side `put_merge` and batches.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use hcl_containers::CuckooMap;
use hcl_runtime::Rank;

use crate::cache::LeaseConfig;
use crate::dispatch::{BulkReply, CostSig, IssueMode, OpDescriptor};
use crate::persist::PersistConfig;
use crate::shard::{
    keyed_ops, Key, KeyedContainer, KeyedOps, KeyedSet, KeyedShard, KeyedSpec, KeyedStore, Val,
    KEYED_FNS,
};
use crate::{HclFuture, HclResult};

const FN_RESIZE: u32 = KEYED_FNS;
const FN_MERGE: u32 = KEYED_FNS + 1;
const EXTRA_FNS: u32 = 2;

/// Table I op descriptors: the common keyed rows, then the hash map's own.
static OPS: KeyedOps = keyed_ops!("umap");
static MERGE: OpDescriptor = OpDescriptor {
    name: "umap.put_merge",
    fn_off: FN_MERGE,
    cost: CostSig::lrw(1, 1, 1),
};
static RESIZE: OpDescriptor = OpDescriptor {
    name: "umap.resize",
    fn_off: FN_RESIZE,
    cost: CostSig::ZERO,
};

impl<K, V> KeyedStore<K, V> for CuckooMap<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn get(&self, key: &K) -> Option<V> {
        CuckooMap::get(self, key)
    }
    fn insert(&self, key: K, value: V) -> Option<V> {
        CuckooMap::insert(self, key, value)
    }
    fn remove(&self, key: &K) -> Option<V> {
        CuckooMap::remove(self, key)
    }
    fn len(&self) -> usize {
        CuckooMap::len(self)
    }
    fn snapshot(&self) -> Vec<(K, V)> {
        self.iter_snapshot()
    }
}

/// One hash-map shard: the shared pipeline over a cuckoo hash.
type Shard<K, V> = KeyedShard<K, V, CuckooMap<K, V>>;

/// A server-side merge function: receives the current value (if any) and
/// the incoming one, returns the stored result. Registered at construction
/// so the whole read-modify-write executes atomically *at the target* —
/// one invocation per update, no client-side CAS loop (this is the k-mer
/// histogram pattern of §IV-D2).
pub type Merger<V> = Arc<dyn Fn(Option<&V>, &V) -> V + Send + Sync>;

/// Configuration for [`UnorderedMap`] / [`UnorderedSet`].
#[derive(Debug, Clone)]
pub struct UnorderedMapConfig {
    /// Ranks owning a partition; `None` = the first rank of every node.
    pub servers: Option<Vec<u32>>,
    /// Initial buckets per partition (the paper's default is 128).
    pub initial_buckets: usize,
    /// Enable the hybrid data access model (§III-C5). Disable to force every
    /// operation through RPC — the ablation the Fig. 5(a) comparison needs.
    pub hybrid: bool,
    /// Durability (per-partition op logs).
    pub persist: Option<PersistConfig>,
    /// Lease-based client-side read caching (`None` = off, the default):
    /// hot remote keys are granted bounded-TTL leases and repeat `get`s are
    /// served locally (DESIGN.md §14).
    pub lease: Option<LeaseConfig>,
}

impl Default for UnorderedMapConfig {
    fn default() -> Self {
        UnorderedMapConfig {
            servers: None,
            initial_buckets: 128,
            hybrid: true,
            persist: None,
            lease: None,
        }
    }
}

/// `put_merge` at the target: the stored value is the merger's result.
fn apply_merge<K: Key, V: Val>(
    shard: &Shard<K, V>,
    merger: Option<&Merger<V>>,
    key: K,
    value: V,
) -> V {
    let merger = merger.expect("container built without a merger");
    shard.apply_rmw(FN_MERGE, key, |map, k| map.upsert(k.clone(), |old| merger(old, &value)))
}

/// A distributed unordered (hash) map.
pub type UnorderedMap<'a, K, V> = KeyedContainer<'a, K, V, CuckooMap<K, V>>;

impl<'a, K: Key, V: Val> UnorderedMap<'a, K, V> {
    /// Collective constructor with defaults (one partition per node, 128
    /// buckets, hybrid access on). Every rank must call it with the same
    /// `name`.
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        Self::with_config(rank, name, UnorderedMapConfig::default())
    }

    /// Collective constructor with explicit configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: UnorderedMapConfig) -> Self {
        Self::build(rank, name, cfg, None)
    }

    /// Collective constructor that also registers a server-side [`Merger`],
    /// enabling [`UnorderedMap::put_merge`].
    pub fn with_merger(
        rank: &'a Rank,
        name: &str,
        cfg: UnorderedMapConfig,
        merger: Merger<V>,
    ) -> Self {
        Self::build(rank, name, cfg, Some(merger))
    }

    fn build(
        rank: &'a Rank,
        name: &str,
        cfg: UnorderedMapConfig,
        merger: Option<Merger<V>>,
    ) -> Self {
        let spec = KeyedSpec {
            servers: cfg.servers,
            hybrid: cfg.hybrid,
            persist: cfg.persist,
            lease: cfg.lease,
        };
        let (buckets, m) = (cfg.initial_buckets, merger.clone());
        let make_store = move || CuckooMap::with_buckets(buckets);
        let mut c = KeyedContainer::open(rank, &OPS, name, spec, EXTRA_FNS, make_store, |b| {
            b.bind(FN_RESIZE, |s: &Shard<K, V>, new_buckets: u64| {
                s.store().resize_to(new_buckets as usize);
                true
            });
            b.bind(FN_MERGE, move |s: &Shard<K, V>, (k, v): (K, V)| {
                apply_merge(s, m.as_ref(), k, v)
            });
        });
        c.merger = merger;
        c
    }

    /// Atomically merge `value` into the entry for `key` using the
    /// registered [`Merger`]; returns the stored result. One remote
    /// invocation — the read-modify-write happens *at the target*, which is
    /// exactly what BCL's client-side model cannot express without a CAS
    /// retry loop.
    pub fn put_merge(&self, key: K, value: V) -> HclResult<V> {
        let hash = crate::stable_hash(&key);
        let written = self.written(&key);
        let result = self.d.sync_keyed(&MERGE, hash, (key, value), |owner, (k, v)| {
            apply_merge(self.shard_at(owner), self.merger.as_ref(), k, v)
        });
        if let Some(key) = written {
            self.forget(&key, hash);
        }
        result
    }

    /// Asynchronous [`UnorderedMap::put_merge`]; remote merges stage on the
    /// op coalescer.
    pub fn put_merge_async(&self, key: K, value: V) -> HclResult<HclFuture<V>> {
        let hash = crate::stable_hash(&key);
        self.forget(&key, hash);
        let owner = self.owner_now(hash);
        self.d.dispatch_async(&MERGE, owner, (key, value), |(k, v)| {
            apply_merge(self.shard_at(owner), self.merger.as_ref(), k, v)
        })
    }

    /// Insert many entries with **request aggregation** (§III-B): entries
    /// are grouped by partition and each remote partition receives *one*
    /// aggregated message carrying all of its operations, which the NIC
    /// workers unpack and execute. Returns the number of newly inserted
    /// keys.
    pub fn put_batch(&self, entries: Vec<(K, V)>) -> HclResult<u64> {
        let mut by_owner: HashMap<u32, Vec<(K, V)>> = HashMap::new();
        let mut written = Vec::new();
        for (k, v) in entries {
            let hash = crate::stable_hash(&k);
            written.extend(self.written(&k).map(|k| (k, hash)));
            by_owner.entry(self.owner_now(hash)).or_default().push((k, v));
        }
        let result = self.put_groups(by_owner);
        for (k, hash) in &written {
            self.forget(k, *hash);
        }
        result
    }

    /// [`UnorderedMap::put_batch`] once its entries are grouped by owner:
    /// one aggregated message per remote owner, all sent before any reply
    /// is waited on.
    fn put_groups(&self, by_owner: HashMap<u32, Vec<(K, V)>>) -> HclResult<u64> {
        let mut new_keys = 0u64;
        let mut pending = Vec::new();
        for (owner, group) in by_owner {
            let shard = self.shard_at(owner);
            let reply = self.d.bulk(&OPS.put, owner, group, |(k, v)| shard.apply_put(k, v))?;
            match reply {
                BulkReply::Ready(results) => {
                    new_keys += results.into_iter().filter(|b| *b).count() as u64;
                }
                pending_reply => pending.push(pending_reply),
            }
        }
        for reply in pending {
            let results: Vec<bool> = reply.wait()?;
            new_keys += results.into_iter().filter(|b| *b).count() as u64;
        }
        Ok(new_keys)
    }

    /// Look up many keys with request aggregation; results are returned in
    /// the order of `keys`.
    pub fn get_batch(&self, keys: &[K]) -> HclResult<Vec<Option<V>>> {
        let mut by_owner: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, k) in keys.iter().enumerate() {
            by_owner.entry(self.owner_now(crate::stable_hash(k))).or_default().push(i);
        }
        let mut out: Vec<Option<V>> = (0..keys.len()).map(|_| None).collect();
        let mut pending = Vec::new();
        for (owner, idxs) in by_owner {
            let refs: Vec<&K> = idxs.iter().map(|&i| &keys[i]).collect();
            let reply = self.d.bulk(&OPS.get, owner, refs, |k| self.shard_at(owner).apply_get(k))?;
            match reply {
                BulkReply::Ready(results) => {
                    for (i, r) in idxs.into_iter().zip(results) {
                        out[i] = r;
                    }
                }
                pending_reply => pending.push((idxs, pending_reply)),
            }
        }
        for (idxs, reply) in pending {
            let results: Vec<Option<V>> = reply.wait()?;
            for (i, r) in idxs.into_iter().zip(results) {
                out[i] = r;
            }
        }
        Ok(out)
    }

    /// Resize one partition (the paper's `resize(partition_id, new_size)`;
    /// Table I: `F + N(R+W)`). "This operation is localized to the involved
    /// partition."
    pub fn resize(&self, partition_id: usize, new_buckets: usize) -> HclResult<bool> {
        let owner = self.owner_of_partition(partition_id)?;
        self.d.sync(self.d.event(&RESIZE, owner), IssueMode::Sync, &(new_buckets as u64), |_| {
            self.shard_at(owner).store().resize_to(new_buckets);
            true
        })
    }

    /// Bucket count of a partition (diagnostics).
    pub fn partition_buckets(&self, partition_id: usize) -> usize {
        self.shard_at(self.server_of(partition_id)).store().buckets()
    }
}

/// A distributed unordered (hash) set: the same two-level hash structure
/// with key-only buckets ("sets only contain a single key per element,
/// which reduces the serialization cost", §IV-C).
pub type UnorderedSet<'a, K> = KeyedSet<'a, K, CuckooMap<K, ()>>;

impl<'a, K: Key> UnorderedSet<'a, K> {
    /// Collective constructor with defaults.
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        KeyedSet::over(UnorderedMap::new(rank, name))
    }

    /// Collective constructor with configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: UnorderedMapConfig) -> Self {
        KeyedSet::over(UnorderedMap::with_config(rank, name, cfg))
    }

    /// Resize one partition.
    pub fn resize(&self, partition_id: usize, new_buckets: usize) -> HclResult<bool> {
        self.inner.resize(partition_id, new_buckets)
    }
}
