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
//! Every client-side operation is one [`Dispatcher`](crate::Dispatcher) call
//! against a descriptor table; everything that happens at the target —
//! logging, version stamps, asynchronous server-side replication (§III-A4),
//! the live-migration window — is the shared pipeline of [`crate::shard`]
//! over this module's [`KeyedStore`] impl for the cuckoo hash. What is
//! specific to the hash map lives here: per-partition resize
//! (`resize(partition_id, new_size)`), server-side `put_merge`, batches, and
//! the lease-cached read path (DESIGN.md §14).

use std::hash::Hash;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcl_containers::CuckooMap;
use hcl_databox::DataBox;
use hcl_runtime::Rank;
use hcl_telemetry::CacheMetrics;

use crate::cache::{CacheStats, LeaseCache, LeaseConfig};
use crate::cost::CostSnapshot;
use crate::dispatch::{
    hist_invoke, hist_return, BulkReply, CostSig, IssueMode, OpDescriptor,
};
use crate::persist::PersistConfig;
use crate::shard::{
    keyed_ops, KeyedClient, KeyedOps, KeyedShard, KeyedSpec, KeyedStore, KEYED_FNS,
};
use crate::{HclFuture, HclResult};

const FN_RESIZE: u32 = KEYED_FNS;
const FN_MERGE: u32 = KEYED_FNS + 1;
const FN_GET_LEASED: u32 = KEYED_FNS + 2;
const EXTRA_FNS: u32 = 3;

/// Table I op descriptors: the common keyed rows, then the hash map's own.
static OPS: KeyedOps = keyed_ops!("umap");
static MERGE: OpDescriptor = OpDescriptor {
    name: "umap.put_merge",
    fn_off: FN_MERGE,
    cost: CostSig::lrw(1, 1, 1),
    degradable: true,
};
static RESIZE: OpDescriptor = OpDescriptor {
    name: "umap.resize",
    fn_off: FN_RESIZE,
    cost: CostSig::ZERO,
    degradable: true,
};
static GET_LEASED: OpDescriptor = OpDescriptor {
    name: "umap.get_leased",
    fn_off: FN_GET_LEASED,
    cost: CostSig::lrw(1, 1, 0),
    degradable: true,
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
    /// Asynchronous replication factor (0 = off). Each partition forwards
    /// its mutations to the next `replicas` partition owners.
    pub replicas: usize,
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
            replicas: 0,
            lease: None,
        }
    }
}

/// `put_merge` at the target: the stored value is the merger's result.
fn apply_merge<K, V>(shard: &Shard<K, V>, merger: Option<&Merger<V>>, key: K, value: V) -> V
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    let merger = merger.expect("container built without a merger");
    shard.apply_rmw(FN_MERGE, key, |map, k| map.upsert(k.clone(), |old| merger(old, &value)))
}

/// A lease-granting lookup: `(version, ttl_micros, value)`. The version is
/// read *before* the value — a mutation landing in between bumps the counter
/// past the granted version, so its piggybacked stamp (or any later one)
/// invalidates the lease client-side.
fn apply_get_leased<K, V>(shard: &Shard<K, V>, ttl_micros: u64, key: &K) -> (u64, u64, Option<V>)
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    let version = shard.version();
    (version, ttl_micros, shard.apply_get(key))
}

/// A distributed unordered (hash) map.
pub struct UnorderedMap<'a, K, V>
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    c: KeyedClient<'a, K, V, CuckooMap<K, V>>,
    merger: Option<Merger<V>>,
    /// Lease TTL the partitions grant, microseconds (0 = never grant).
    lease_ttl_micros: u64,
    /// Per-handle lease cache (config `lease`); `None` = caching off.
    cache: Option<Arc<LeaseCache<K, V>>>,
}

impl<'a, K, V> UnorderedMap<'a, K, V>
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
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
        let lease_ttl_micros =
            cfg.lease.as_ref().map_or(0, |l| l.ttl.as_micros().min(u64::MAX as u128) as u64);
        let spec = KeyedSpec {
            servers: cfg.servers,
            hybrid: cfg.hybrid,
            persist: cfg.persist,
            replicas: cfg.replicas,
        };
        let (buckets, m) = (cfg.initial_buckets, merger.clone());
        let make_store = move || CuckooMap::with_buckets(buckets);
        let mut c = KeyedClient::open(rank, &OPS, name, spec, EXTRA_FNS, make_store, move |b| {
            b.bind(FN_RESIZE, |s: &Shard<K, V>, new_buckets: u64| {
                s.store().resize_to(new_buckets as usize);
                true
            });
            b.bind(FN_MERGE, move |s: &Shard<K, V>, (k, v): (K, V)| {
                apply_merge(s, m.as_ref(), k, v)
            });
            b.bind(FN_GET_LEASED, move |s: &Shard<K, V>, k: K| {
                apply_get_leased(s, lease_ttl_micros, &k)
            });
        });
        let cache = cfg.lease.map(|lease| {
            let metrics = if rank.telemetry().enabled() {
                CacheMetrics::from_registry(rank.telemetry().registry())
            } else {
                CacheMetrics::detached()
            };
            // Watermark slots are indexed by owner *rank* (ownership can
            // move between ranks mid-run), so size for the whole world.
            Arc::new(LeaseCache::new(lease, rank.world_size() as usize, metrics))
        });
        if let Some(cache) = &cache {
            // Sync responses travel FLAG_STAMPED, stamped by the container's
            // guard; fold each owner's piggybacked version into the
            // cache's watermark.
            let sink_cache = Arc::clone(cache);
            c.d.set_version_sink(Arc::new(move |owner, stamp| {
                sink_cache.observe_version(owner as usize, stamp);
            }));
        }
        UnorderedMap { c, merger, lease_ttl_micros, cache }
    }

    /// Attach a shared history recorder: every synchronous `put`/`get`/
    /// `erase` through this handle is logged as an invoke/return pair for
    /// offline linearizability checking ([`crate::check`]). Asynchronous and
    /// bulk variants are not recorded; an op whose RPC fails never enters
    /// the log.
    #[cfg(feature = "history")]
    pub fn set_recorder(&mut self, rec: crate::HistoryRecorder) {
        self.c.d.set_recorder(rec);
    }

    /// First-level hash: which partition (member index in the current
    /// ownership map) owns `key`.
    pub fn partition_of(&self, key: &K) -> usize {
        self.c.partition_of(key)
    }

    /// Number of partitions (owning members of the current map).
    pub fn partitions(&self) -> usize {
        self.c.map().members().len()
    }

    /// The owner rank of partition `p`.
    pub fn server_of(&self, p: usize) -> u32 {
        self.c.map().members()[p]
    }

    /// The server-side shard hosted on rank `host` (tests and diagnostics).
    #[doc(hidden)]
    pub fn shard_at(&self, host: u32) -> &Shard<K, V> {
        self.c.core.shard(host)
    }

    /// Insert `key -> value`; returns `true` when the key was newly
    /// inserted (`false` = overwrite). One remote invocation worst case
    /// (Table I: `F + L + W`).
    pub fn put(&self, key: K, value: V) -> HclResult<bool> {
        self.c.put(key, value)
    }

    /// Asynchronous insert (§III-C4). Remote inserts stage on the rank's op
    /// coalescer and may ride a batched message with neighbouring async ops
    /// to the same partition (§III-B request aggregation).
    pub fn put_async(&self, key: K, value: V) -> HclResult<HclFuture<bool>> {
        self.c.put_async(key, value)
    }

    /// Look up `key` (Table I: `F + L + R`). Falls back to a replica when
    /// the owner has been marked down; with a [`LeaseConfig`], hot remote
    /// keys are served from the local lease cache (`F` elided entirely).
    pub fn get(&self, key: &K) -> HclResult<Option<V>> {
        let hash = crate::stable_hash(key);
        let owner = self.c.owner_now(hash);
        match &self.cache {
            Some(cache) if !self.c.d.is_local(owner) && !self.c.d.is_down(owner) => {
                self.get_cached(cache, hash, owner, key)
            }
            _ => self.c.get_at(hash, owner, key),
        }
    }

    /// The cached read path (remote, non-down owner, lease config set):
    /// serve from a live lease; otherwise grant one if the key is hot, or
    /// fall through to a plain remote `get`.
    fn get_cached(
        &self,
        cache: &Arc<LeaseCache<K, V>>,
        hash: u64,
        owner: u32,
        key: &K,
    ) -> HclResult<Option<V>> {
        let d = &self.c.d;
        // Watermark slot = owner rank (matches the version sink). The epoch
        // is the unified membership/downed counter: a membership commit
        // invalidates every outstanding lease, so no lease can outlive the
        // map that granted it.
        let p = owner as usize;
        let epoch = d.epoch();
        if let Some((value, valid_from)) = cache.lookup(key, hash, p, epoch) {
            // Served locally without touching the fabric. The history op
            // carries the grant's invoke timestamp: the checker admits any
            // value that was current at some point in the lease window.
            #[cfg(not(feature = "history"))]
            let _ = valid_from;
            let tok = hist_invoke!(
                d,
                crate::DsOp::MapGetCached { key: crate::history_enc(key), valid_from }
            );
            let result = Ok(value);
            hist_return!(d, tok, &result, |v| crate::DsRet::Value(
                v.as_ref().map(crate::history_enc)
            ));
            return result;
        }
        // A miss goes to the fabric and feeds the hot-key sketch — after
        // the hotness check, so the read that makes a key hot is not yet
        // the one that earns its lease.
        let hot = cache.is_hot(hash);
        cache.observe_read(hash);
        if !hot {
            return self.c.get_at(hash, owner, key);
        }
        let tok = hist_invoke!(d, crate::DsOp::MapGet { key: crate::history_enc(key) });
        #[cfg(feature = "history")]
        let valid_from = tok.as_ref().map_or(0, |t| t.invoked_at());
        #[cfg(not(feature = "history"))]
        let valid_from = 0u64;
        // Deadline base taken *before* the RPC: the granted TTL bounds
        // staleness from the moment the server could have read the value,
        // not from when the response arrived.
        let granted = Instant::now();
        // Explicit owner: the one the lease bookkeeping above is about.
        let result = d
            .sync(d.event(&GET_LEASED, owner), IssueMode::Sync, key, |key| {
                apply_get_leased(self.shard_at(owner), self.lease_ttl_micros, key)
            })
            .map(|(version, ttl_micros, value)| {
                if ttl_micros > 0 {
                    cache.insert(
                        key.clone(),
                        hash,
                        p,
                        value.clone(),
                        version,
                        epoch,
                        granted + Duration::from_micros(ttl_micros),
                        valid_from,
                    );
                }
                value
            });
        hist_return!(d, tok, &result, |v| crate::DsRet::Value(v.as_ref().map(crate::history_enc)));
        result
    }

    /// Asynchronous lookup; remote lookups stage on the op coalescer.
    pub fn get_async(&self, key: &K) -> HclResult<HclFuture<Option<V>>> {
        let owner = self.c.owner_now(crate::stable_hash(key));
        self.c.d.dispatch_async(&OPS.get, owner, key, |key| self.shard_at(owner).apply_get(key))
    }

    /// Atomically merge `value` into the entry for `key` using the
    /// registered [`Merger`]; returns the stored result. One remote
    /// invocation — the read-modify-write happens *at the target*, which is
    /// exactly what BCL's client-side model cannot express without a CAS
    /// retry loop.
    pub fn put_merge(&self, key: K, value: V) -> HclResult<V> {
        let hash = crate::stable_hash(&key);
        self.c.d.sync_keyed(&MERGE, hash, (key, value), |owner, (k, v)| {
            apply_merge(self.shard_at(owner), self.merger.as_ref(), k, v)
        })
    }

    /// Asynchronous [`UnorderedMap::put_merge`]; remote merges stage on the
    /// op coalescer.
    pub fn put_merge_async(&self, key: K, value: V) -> HclResult<HclFuture<V>> {
        let owner = self.c.owner_now(crate::stable_hash(&key));
        self.c.d.dispatch_async(&MERGE, owner, (key, value), |(k, v)| {
            apply_merge(self.shard_at(owner), self.merger.as_ref(), k, v)
        })
    }

    /// Insert many entries with **request aggregation** (§III-B): entries
    /// are grouped by partition and each remote partition receives *one*
    /// aggregated message carrying all of its operations, which the NIC
    /// workers unpack and execute. Returns the number of newly inserted
    /// keys.
    pub fn put_batch(&self, entries: Vec<(K, V)>) -> HclResult<u64> {
        use std::collections::HashMap as StdMap;
        let mut by_owner: StdMap<u32, Vec<(K, V)>> = StdMap::new();
        for (k, v) in entries {
            by_owner.entry(self.c.owner_now(crate::stable_hash(&k))).or_default().push((k, v));
        }
        let mut new_keys = 0u64;
        let mut pending = Vec::new();
        for (owner, group) in by_owner {
            let shard = self.shard_at(owner);
            let reply = self.c.d.bulk(&OPS.put, owner, group, |(k, v)| shard.apply_put(k, v))?;
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
        use std::collections::HashMap as StdMap;
        let mut by_owner: StdMap<u32, Vec<usize>> = StdMap::new();
        for (i, k) in keys.iter().enumerate() {
            by_owner.entry(self.c.owner_now(crate::stable_hash(k))).or_default().push(i);
        }
        let mut out: Vec<Option<V>> = (0..keys.len()).map(|_| None).collect();
        let mut pending = Vec::new();
        for (owner, idxs) in by_owner {
            let refs: Vec<&K> = idxs.iter().map(|&i| &keys[i]).collect();
            let reply =
                self.c.d.bulk(&OPS.get, owner, refs, |k| self.shard_at(owner).apply_get(k))?;
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

    /// Remove `key`, returning its value.
    pub fn erase(&self, key: &K) -> HclResult<Option<V>> {
        self.c.erase(key)
    }

    /// Presence check.
    pub fn contains(&self, key: &K) -> HclResult<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// Total entries across all partitions (collective-free; issues one
    /// call per remote partition).
    pub fn len(&self) -> HclResult<u64> {
        self.c.len()
    }

    /// True when no partition holds entries.
    pub fn is_empty(&self) -> HclResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Resize one partition (the paper's `resize(partition_id, new_size)`;
    /// Table I: `F + N(R+W)`). "This operation is localized to the involved
    /// partition."
    pub fn resize(&self, partition_id: usize, new_buckets: usize) -> HclResult<bool> {
        let owner = self.c.owner_of_partition(partition_id)?;
        self.c.d.sync(self.c.d.event(&RESIZE, owner), IssueMode::Sync, &(new_buckets as u64), |_| {
            self.shard_at(owner).store().resize_to(new_buckets);
            true
        })
    }

    /// Bucket count of a partition (diagnostics).
    pub fn partition_buckets(&self, partition_id: usize) -> usize {
        self.shard_at(self.server_of(partition_id)).store().buckets()
    }

    /// Clone out every entry of every partition (not atomic).
    pub fn snapshot_all(&self) -> HclResult<Vec<(K, V)>> {
        self.c.snapshot_all()
    }

    /// Mark a partition owner as failed: `get`s for its keys are served
    /// from the replica on the next partition (requires `replicas >= 1`),
    /// and every other op targeting it degrades immediately with
    /// [`crate::HclError::OwnerDown`].
    pub fn mark_down(&self, owner_rank: u32) {
        self.c.d.mark_down(owner_rank);
    }

    /// Clear a failure mark.
    pub fn mark_up(&self, owner_rank: u32) {
        self.c.d.mark_up(owner_rank);
    }

    /// Wait until every partition's outstanding replication forwards have
    /// been acknowledged.
    pub fn flush_replication(&self) -> HclResult<()> {
        self.c.flush_replication()
    }

    /// Flush and compact every *local* partition's op log to a snapshot.
    pub fn compact_local_logs(&self) -> HclResult<()> {
        self.c.compact_local_logs()
    }

    /// Client-side cost counters (Table I terms observed by this rank).
    pub fn costs(&self) -> CostSnapshot {
        self.c.d.costs()
    }

    /// Lease-cache counters of this handle (`None` when caching is off).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }
}

/// A distributed unordered (hash) set: the same two-level hash structure
/// with key-only buckets ("sets only contain a single key per element,
/// which reduces the serialization cost", §IV-C).
pub struct UnorderedSet<'a, K>
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
{
    inner: UnorderedMap<'a, K, ()>,
    #[cfg(feature = "history")]
    recorder: Option<crate::HistoryRecorder>,
}

impl<'a, K> UnorderedSet<'a, K>
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
{
    /// Collective constructor with defaults.
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        UnorderedSet {
            inner: UnorderedMap::new(rank, name),
            #[cfg(feature = "history")]
            recorder: None,
        }
    }

    /// Collective constructor with configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: UnorderedMapConfig) -> Self {
        UnorderedSet {
            inner: UnorderedMap::with_config(rank, name, cfg),
            #[cfg(feature = "history")]
            recorder: None,
        }
    }

    /// Attach a shared history recorder: synchronous `insert`/`remove`/
    /// `contains` through this handle are logged as set operations. The
    /// inner map's recorder stays unset so each op is recorded exactly once.
    #[cfg(feature = "history")]
    pub fn set_recorder(&mut self, rec: crate::HistoryRecorder) {
        self.recorder = Some(rec);
    }

    /// Insert `key`; `true` when newly inserted.
    pub fn insert(&self, key: K) -> HclResult<bool> {
        #[cfg(feature = "history")]
        let tok = self
            .recorder
            .as_ref()
            .map(|r| r.invoke(crate::DsOp::SetInsert { key: crate::history_enc(&key) }));
        let result = self.inner.put(key, ());
        #[cfg(feature = "history")]
        if let (Some(r), Some(tok), Ok(newly)) = (self.recorder.as_ref(), tok, result.as_ref()) {
            r.record_return(tok, crate::DsRet::Inserted(*newly));
        }
        result
    }

    /// Asynchronous insert.
    pub fn insert_async(&self, key: K) -> HclResult<HclFuture<bool>> {
        self.inner.put_async(key, ())
    }

    /// Membership test (Table I: `F + L + R`).
    pub fn contains(&self, key: &K) -> HclResult<bool> {
        #[cfg(feature = "history")]
        let tok = self
            .recorder
            .as_ref()
            .map(|r| r.invoke(crate::DsOp::SetContains { key: crate::history_enc(key) }));
        let result = self.inner.contains(key);
        #[cfg(feature = "history")]
        if let (Some(r), Some(tok), Ok(present)) = (self.recorder.as_ref(), tok, result.as_ref()) {
            r.record_return(tok, crate::DsRet::Contains(*present));
        }
        result
    }

    /// Remove `key`; `true` when it was present.
    pub fn remove(&self, key: &K) -> HclResult<bool> {
        #[cfg(feature = "history")]
        let tok = self
            .recorder
            .as_ref()
            .map(|r| r.invoke(crate::DsOp::SetRemove { key: crate::history_enc(key) }));
        let result = self.inner.erase(key).map(|v| v.is_some());
        #[cfg(feature = "history")]
        if let (Some(r), Some(tok), Ok(removed)) = (self.recorder.as_ref(), tok, result.as_ref()) {
            r.record_return(tok, crate::DsRet::Removed(*removed));
        }
        result
    }

    /// Total elements.
    pub fn len(&self) -> HclResult<u64> {
        self.inner.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> HclResult<bool> {
        self.inner.is_empty()
    }

    /// Resize one partition.
    pub fn resize(&self, partition_id: usize, new_buckets: usize) -> HclResult<bool> {
        self.inner.resize(partition_id, new_buckets)
    }

    /// All elements (not atomic).
    pub fn snapshot_all(&self) -> HclResult<Vec<K>> {
        Ok(self.inner.snapshot_all()?.into_iter().map(|(k, ())| k).collect())
    }

    /// Mark a partition owner as failed (see [`UnorderedMap::mark_down`]).
    pub fn mark_down(&self, owner_rank: u32) {
        self.inner.mark_down(owner_rank);
    }

    /// Clear a failure mark set by [`UnorderedSet::mark_down`].
    pub fn mark_up(&self, owner_rank: u32) {
        self.inner.mark_up(owner_rank);
    }

    /// Client-side cost counters.
    pub fn costs(&self) -> CostSnapshot {
        self.inner.costs()
    }
}
