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
//! Every client-side operation is one [`Dispatcher`] call against the table
//! in [`ops`]. Also here: per-partition resize
//! (`resize(partition_id, new_size)`), asynchronous variants, durability via
//! per-partition op logs, and asynchronous server-side replication (§III-A4:
//! "Replication occurs asynchronously at the server side, where the target
//! process will further hash an operation to more servers").

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcl_containers::CuckooMap;
use hcl_databox::DataBox;
use hcl_fabric::EpId;
use hcl_rpc::FnId;
use hcl_runtime::{Membership, PartitionMap, Rank, ShardMove, WorldShared};
use hcl_telemetry::CacheMetrics;
use parking_lot::{Mutex, RwLock};

use crate::cache::{CacheStats, LeaseCache, LeaseConfig};
use crate::cost::{CostCounters, CostSnapshot};
use crate::dispatch::{
    hist_invoke, hist_return, BulkReply, Dispatcher, OwnerMap, ReplForwarder,
};
use crate::persist::{Flusher, OpLog, PersistConfig};
use crate::rebalance::{MigratorRegistry, ShardMigrator};
use crate::{default_servers, HclError, HclFuture, HclResult};

const FN_PUT: u32 = 0;
const FN_GET: u32 = 1;
const FN_ERASE: u32 = 2;
const FN_CONTAINS: u32 = 3;
const FN_LEN: u32 = 4;
const FN_RESIZE: u32 = 5;
const FN_SNAPSHOT: u32 = 6;
const FN_REPL_PUT: u32 = 7;
const FN_REPL_GET: u32 = 8;
const FN_REPL_FLUSH: u32 = 9;
const FN_MERGE: u32 = 10;
const FN_GET_LEASED: u32 = 11;
// Live-migration control plane (see [`crate::rebalance`]). These travel
// untagged (the driver addresses explicit ranks, not hashed owners).
const FN_MIG_ARM: u32 = 12;
const FN_MIG_BEGIN: u32 = 13;
const FN_MIG_EXTRACT: u32 = 14;
const FN_MIG_INSTALL: u32 = 15;
const FN_MIG_APPLY: u32 = 16;
const FN_MIG_END: u32 = 17;
const N_FNS: u32 = 18;

/// Table I op descriptors for the unordered map. Replica ops are
/// non-degradable: they are the failover path, so they must still reach
/// hosts that back marked-down owners.
mod ops {
    use crate::dispatch::{CostSig, OpClass, OpDescriptor};

    pub const PUT: OpDescriptor = OpDescriptor {
        name: "umap.put",
        class: OpClass::Write,
        fn_off: super::FN_PUT,
        cost: CostSig::lrw(1, 0, 1),
        idempotent: false,
        degradable: true,
    };
    pub const GET: OpDescriptor = OpDescriptor {
        name: "umap.get",
        class: OpClass::Read,
        fn_off: super::FN_GET,
        cost: CostSig::lrw(1, 1, 0),
        idempotent: true,
        degradable: true,
    };
    pub const ERASE: OpDescriptor = OpDescriptor {
        name: "umap.erase",
        class: OpClass::Write,
        fn_off: super::FN_ERASE,
        cost: CostSig::lrw(1, 0, 1),
        idempotent: false,
        degradable: true,
    };
    pub const MERGE: OpDescriptor = OpDescriptor {
        name: "umap.put_merge",
        class: OpClass::ReadWrite,
        fn_off: super::FN_MERGE,
        cost: CostSig::lrw(1, 1, 1),
        idempotent: false,
        degradable: true,
    };
    pub const LEN: OpDescriptor = OpDescriptor {
        name: "umap.len",
        class: OpClass::Admin,
        fn_off: super::FN_LEN,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const RESIZE: OpDescriptor = OpDescriptor {
        name: "umap.resize",
        class: OpClass::Admin,
        fn_off: super::FN_RESIZE,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const SNAPSHOT: OpDescriptor = OpDescriptor {
        name: "umap.snapshot",
        class: OpClass::Admin,
        fn_off: super::FN_SNAPSHOT,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const GET_LEASED: OpDescriptor = OpDescriptor {
        name: "umap.get_leased",
        class: OpClass::Read,
        fn_off: super::FN_GET_LEASED,
        cost: CostSig::lrw(1, 1, 0),
        idempotent: true,
        degradable: true,
    };
    pub const REPL_GET: OpDescriptor = OpDescriptor {
        name: "umap.repl_get",
        class: OpClass::Read,
        fn_off: super::FN_REPL_GET,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: false,
    };
    pub const REPL_FLUSH: OpDescriptor = OpDescriptor {
        name: "umap.repl_flush",
        class: OpClass::Admin,
        fn_off: super::FN_REPL_FLUSH,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: false,
    };
    // Migration control ops: issued by the rebalance driver at explicit
    // ranks, never epoch-tagged (the map mid-transition is exactly what
    // they operate on).
    pub const MIG_ARM: OpDescriptor = OpDescriptor {
        name: "umap.mig_arm",
        class: OpClass::Admin,
        fn_off: super::FN_MIG_ARM,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const MIG_BEGIN: OpDescriptor = OpDescriptor {
        name: "umap.mig_begin",
        class: OpClass::Admin,
        fn_off: super::FN_MIG_BEGIN,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const MIG_EXTRACT: OpDescriptor = OpDescriptor {
        name: "umap.mig_extract",
        class: OpClass::Admin,
        fn_off: super::FN_MIG_EXTRACT,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const MIG_INSTALL: OpDescriptor = OpDescriptor {
        name: "umap.mig_install",
        class: OpClass::Write,
        fn_off: super::FN_MIG_INSTALL,
        cost: CostSig::lrw(1, 0, 1),
        idempotent: true,
        degradable: true,
    };
    pub const MIG_END: OpDescriptor = OpDescriptor {
        name: "umap.mig_end",
        class: OpClass::Admin,
        fn_off: super::FN_MIG_END,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
}

/// Op-log record: `(tag, key, value)`; tag 0 = put, 1 = erase.
type LogRec<K, V> = (u8, K, Option<V>);

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

/// Server-side state of one partition.
struct Part<K, V>
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    index: usize,
    /// The rank hosting this part (the key of `Core::parts`).
    home: u32,
    map: CuckooMap<K, V>,
    /// Entries replicated *to* this partition from others.
    replica: CuckooMap<K, V>,
    log: Option<OpLog<LogRec<K, V>>>,
    /// Recovery-descriptor sequence for mutations applied outside an RPC
    /// worker (the hybrid local bypass); see [`crate::persist::op_identity`].
    local_seq: AtomicU64,
    merger: Option<Merger<V>>,
    repl: ReplForwarder,
    world: Arc<WorldShared>,
    fn_base: FnId,
    servers: Vec<u32>,
    replicas: usize,
    costs: CostCounters,
    /// Monotone bucket-mutation version: bumped *after* every applied
    /// mutation, read *before* the value on a lease grant, and piggybacked
    /// on every `FLAG_STAMPED` response (the stamper in [`bind_handlers`]).
    /// That ordering guarantees a mutation racing a grant always yields a
    /// stamp strictly newer than the granted version.
    version: AtomicU64,
    /// Lease TTL granted to clients, microseconds (0 = never grant).
    lease_ttl_micros: u64,
    /// The world's membership view — `Some` for elastic containers (no
    /// explicit `servers`), whose shards can move between ranks. `None`
    /// pins the partition forever (static placement).
    membership: Option<Arc<Membership>>,
    /// Old-owner side of live migration: virtual partitions currently in a
    /// write-forwarding window, mapped to their new owner. Mutations whose
    /// key hashes into a forwarding vpart are dual-applied at the target.
    forwarding: RwLock<HashMap<usize, u32>>,
    /// New-owner side: keys erased by a forwarded write during the window.
    /// A tombstoned key must not be resurrected by a racing copy-install
    /// whose snapshot predates the erase.
    tombstones: Mutex<HashSet<K>>,
    /// New-owner side: keys installed during the window (copy or forwarded
    /// put), retained so an aborted rebalance can purge exactly what the
    /// migration wrote.
    installed: Mutex<Vec<K>>,
}

impl<K, V> Part<K, V>
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    /// Log one mutation with its dispatch op index and recovery descriptor.
    fn log_op(&self, rec: &LogRec<K, V>, fn_off: u32) {
        if let Some(log) = &self.log {
            let ident = crate::persist::op_identity(self.home, &self.local_seq);
            log.log_mutation(rec, fn_off as u16, ident);
        }
    }

    fn apply_put(&self, key: K, value: V) -> bool {
        self.costs.l(1);
        self.costs.w(1);
        self.log_op(&(0, key.clone(), Some(value.clone())), FN_PUT);
        let existed = self.map.insert(key.clone(), value.clone()).is_some();
        self.version.fetch_add(1, Ordering::Release);
        self.forward_migration(&key, Some(&value));
        if self.replicas > 0 {
            self.replicate(FN_REPL_PUT, (key, Some(value)));
        }
        !existed
    }

    fn apply_erase(&self, key: &K) -> Option<V> {
        self.costs.l(1);
        self.costs.w(1);
        self.log_op(&(1, key.clone(), None), FN_ERASE);
        let prev = self.map.remove(key);
        self.version.fetch_add(1, Ordering::Release);
        self.forward_migration(key, None);
        if self.replicas > 0 {
            self.replicate(FN_REPL_PUT, (key.clone(), None::<V>));
        }
        prev
    }

    /// The strict read barrier: run `read` against the live structure and
    /// hand its result back only under the barrier of whatever logged
    /// mutation it may reflect (see [`OpLog::read_fence`]).
    fn read<R>(&self, read: impl FnOnce(&CuckooMap<K, V>) -> R) -> R {
        let out = read(&self.map);
        if let Some(log) = &self.log {
            log.read_fence();
        }
        out
    }

    fn apply_get(&self, key: &K) -> Option<V> {
        self.costs.l(1);
        self.costs.r(1);
        self.read(|m| m.get(key))
    }

    fn apply_len(&self) -> u64 {
        self.read(|m| m.len() as u64)
    }

    fn apply_snapshot(&self) -> Vec<(K, V)> {
        self.read(|m| m.iter_snapshot())
    }

    /// A lease-granting lookup: `(version, ttl_micros, value)`. The version
    /// is read *before* the value — a mutation landing in between bumps the
    /// counter past the granted version, so its piggybacked stamp (or any
    /// later one) invalidates the lease client-side.
    fn apply_get_leased(&self, key: &K) -> (u64, u64, Option<V>) {
        let version = self.version.load(Ordering::Acquire);
        self.costs.l(1);
        self.costs.r(1);
        (version, self.lease_ttl_micros, self.read(|m| m.get(key)))
    }

    fn apply_merge(&self, key: K, value: V) -> V {
        self.costs.l(1);
        self.costs.r(1);
        self.costs.w(1);
        let merger = self.merger.as_ref().expect("container built without a merger");
        let merged = self.map.upsert(key.clone(), |old| merger(old, &value));
        self.version.fetch_add(1, Ordering::Release);
        self.forward_migration(&key, Some(&merged));
        // Logged as the *merged result*, not the merge argument: replay must
        // not re-run the merger against recovered state.
        self.log_op(&(0, key.clone(), Some(merged.clone())), FN_MERGE);
        if self.replicas > 0 {
            self.replicate(FN_REPL_PUT, (key, Some(merged.clone())));
        }
        merged
    }

    /// Forward a mutation asynchronously to the next `replicas` partitions —
    /// the server-side re-hash of §III-A4, carried out by the engine's
    /// [`ReplForwarder`].
    fn replicate(&self, fn_off: u32, args: (K, Option<V>)) {
        self.repl.forward(
            &self.world,
            self.index,
            &self.servers,
            self.replicas,
            self.fn_base + fn_off,
            &args.to_bytes(),
        );
    }

    fn flush_replication(&self) {
        self.repl.flush();
    }

    /// The virtual partition `key` hashes into (elastic containers only;
    /// `usize::MAX` for pinned parts, which never match a window).
    fn vpart_of(&self, key: &K) -> usize {
        self.membership
            .as_ref()
            .map_or(usize::MAX, |m| m.current().vpart_of_hash(crate::stable_hash(key)))
    }

    /// Old-owner side of the write-forwarding window: a mutation whose key
    /// hashes into a moving vpart is dual-applied at the new owner, so
    /// writes racing the copy are not lost when the old shard is purged.
    ///
    /// Remote mutations are epoch-gated at the server, but the hybrid
    /// shared-memory bypass is not: a bypass that resolved the owner just
    /// before a commit can apply here after the window already closed. The
    /// fallback arm catches that — if this part no longer owns the key's
    /// vpart it dual-applies at the current map owner, so the write is never
    /// stranded in the purged shard.
    fn forward_migration(&self, key: &K, value: Option<&V>) {
        let Some(m) = &self.membership else { return };
        let map = m.current();
        let vp = map.vpart_of_hash(crate::stable_hash(key));
        let target = match self.forwarding.read().get(&vp) {
            Some(&t) => t,
            None => {
                let owner = map.owner_of_vpart(vp);
                if owner == self.home {
                    return;
                }
                owner
            }
        };
        self.repl.forward_to(
            &self.world,
            target,
            self.fn_base + FN_MIG_APPLY,
            &(key.clone(), value.cloned()).to_bytes(),
        );
        m.counters().forwarded_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// New-owner side: clear window bookkeeping for `vpart` left by a
    /// previously aborted attempt, so this window starts clean.
    fn mig_arm(&self, vpart: usize) {
        self.tombstones.lock().retain(|k| self.vpart_of(k) != vpart);
        self.installed.lock().retain(|k| self.vpart_of(k) != vpart);
    }

    /// Old-owner side: open the forwarding window for `vpart` toward `to`.
    fn mig_begin(&self, vpart: usize, to: u32) {
        self.forwarding.write().insert(vpart, to);
    }

    /// Old-owner side: copy (do not remove) every entry of `vpart`. The
    /// shard stays fully served here until the transition commits.
    fn mig_extract(&self, vpart: usize) -> Vec<(K, V)> {
        self.apply_snapshot().into_iter().filter(|(k, _)| self.vpart_of(k) == vpart).collect()
    }

    /// New-owner side: install one copied entry — insert-if-absent, so a
    /// fresher forwarded put is never overwritten by the older copy, and
    /// tombstoned keys (forwarded erases) stay dead.
    fn mig_install(&self, key: K, value: V) -> bool {
        if self.tombstones.lock().contains(&key) {
            return false;
        }
        let was_absent = std::sync::atomic::AtomicBool::new(false);
        self.map.upsert(key.clone(), |old| match old {
            Some(v) => v.clone(),
            None => {
                was_absent.store(true, Ordering::Relaxed);
                value.clone()
            }
        });
        self.version.fetch_add(1, Ordering::Release);
        let installed = was_absent.load(Ordering::Relaxed);
        if installed {
            // Durability follows ownership: a migrated-in entry is logged at
            // its new home so a crash after the commit replays it here.
            self.log_op(&(0, key.clone(), Some(value)), FN_MIG_INSTALL);
            self.installed.lock().push(key);
        }
        installed
    }

    /// New-owner side: apply one forwarded write. Puts overwrite (the
    /// forward is fresher than any copy) and revive tombstones; erases
    /// tombstone the key against late-arriving copies.
    fn mig_apply(&self, key: K, value: Option<V>) {
        match value {
            Some(v) => {
                self.tombstones.lock().remove(&key);
                self.log_op(&(0, key.clone(), Some(v.clone())), FN_MIG_APPLY);
                self.map.insert(key.clone(), v);
                self.installed.lock().push(key);
            }
            None => {
                self.log_op(&(1, key.clone(), None), FN_MIG_APPLY);
                self.map.remove(&key);
                self.tombstones.lock().insert(key);
            }
        }
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Close the window for `vpart`. At the source (old owner): stop
    /// forwarding, and on commit flush in-flight forwards then purge the
    /// moved entries. At the target (new owner): clear tombstones, and on
    /// abort purge exactly the keys the migration installed.
    fn mig_end(&self, vpart: usize, committed: bool, source: bool) {
        if source {
            self.forwarding.write().remove(&vpart);
            if committed {
                // Every dual-applied write must be acknowledged by the new
                // owner before the authoritative copy disappears here.
                self.repl.flush();
                for (k, _) in self.map.iter_snapshot() {
                    if self.vpart_of(&k) == vpart {
                        self.map.remove(&k);
                    }
                }
                self.version.fetch_add(1, Ordering::Release);
                // The moved shard now lives (and logs) at the new owner;
                // compact this side's log to the post-purge contents so a
                // crash here never resurrects the migrated keys.
                if let Some(log) = &self.log {
                    let snapshot: Vec<LogRec<K, V>> = self
                        .map
                        .iter_snapshot()
                        .into_iter()
                        .map(|(k, v)| (0, k, Some(v)))
                        .collect();
                    let _ = log.compact(snapshot.iter());
                }
            }
        } else {
            if !committed {
                let mut installed = self.installed.lock();
                let mut i = 0;
                while i < installed.len() {
                    if self.vpart_of(&installed[i]) == vpart {
                        let k = installed.swap_remove(i);
                        self.map.remove(&k);
                    } else {
                        i += 1;
                    }
                }
            } else {
                self.installed.lock().retain(|k| self.vpart_of(k) != vpart);
            }
            self.tombstones.lock().retain(|k| self.vpart_of(k) != vpart);
            self.version.fetch_add(1, Ordering::Release);
        }
    }
}

/// World-shared core of one container.
struct Core<K, V>
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    fn_base: FnId,
    servers: Vec<u32>,
    /// Static replica ring over `servers` (one slot per server). Doubles as
    /// the owner map for pinned containers — `owner_of_hash` is bit-identical
    /// to the historical `servers[hash % len]` placement.
    repl_map: Arc<PartitionMap>,
    parts: HashMap<u32, Arc<Part<K, V>>>,
    cfg: UnorderedMapConfig,
    /// Background sync thread bounding the relaxed-policy flush gap across
    /// all this container's partition logs (`None` for strict/manual).
    #[allow(dead_code)]
    flusher: Option<Flusher>,
}

fn bind_handlers<K, V>(
    world: &Arc<WorldShared>,
    fn_base: FnId,
    parts: &HashMap<u32, Arc<Part<K, V>>>,
) where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    let reg = world.registry();
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_PUT, move |server: EpId, _, (k, v): (K, V)| {
        p[&server.rank].apply_put(k, v)
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_GET, move |server: EpId, _, k: K| p[&server.rank].apply_get(&k));
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_ERASE, move |server: EpId, _, k: K| {
        p[&server.rank].apply_erase(&k)
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_CONTAINS, move |server: EpId, _, k: K| {
        p[&server.rank].apply_get(&k).is_some()
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_LEN, move |server: EpId, _, ()| p[&server.rank].apply_len());
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_RESIZE, move |server: EpId, _, new_buckets: u64| {
        p[&server.rank].map.resize_to(new_buckets as usize);
        true
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_SNAPSHOT, move |server: EpId, _, ()| {
        p[&server.rank].apply_snapshot()
    });
    let p = parts.clone();
    reg.bind_typed(
        fn_base + FN_REPL_PUT,
        move |server: EpId, _, (k, v): (K, Option<V>)| {
            let part = &p[&server.rank];
            match v {
                Some(v) => {
                    part.replica.insert(k, v);
                }
                None => {
                    part.replica.remove(&k);
                }
            }
            true
        },
    );
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_REPL_GET, move |server: EpId, _, k: K| {
        p[&server.rank].replica.get(&k)
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_REPL_FLUSH, move |server: EpId, _, ()| {
        p[&server.rank].flush_replication();
        true
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_MERGE, move |server: EpId, _, (k, v): (K, V)| {
        p[&server.rank].apply_merge(k, v)
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_GET_LEASED, move |server: EpId, _, k: K| {
        p[&server.rank].apply_get_leased(&k)
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_MIG_ARM, move |server: EpId, _, vpart: u64| {
        p[&server.rank].mig_arm(vpart as usize);
        true
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_MIG_BEGIN, move |server: EpId, _, (vpart, to): (u64, u32)| {
        p[&server.rank].mig_begin(vpart as usize, to);
        true
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_MIG_EXTRACT, move |server: EpId, _, vpart: u64| {
        p[&server.rank].mig_extract(vpart as usize)
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_MIG_INSTALL, move |server: EpId, _, (k, v): (K, V)| {
        p[&server.rank].mig_install(k, v)
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_MIG_APPLY, move |server: EpId, _, (k, v): (K, Option<V>)| {
        p[&server.rank].mig_apply(k, v);
        true
    });
    let p = parts.clone();
    reg.bind_typed(
        fn_base + FN_MIG_END,
        move |server: EpId, _, (vpart, committed, source): (u64, bool, bool)| {
            p[&server.rank].mig_end(vpart as usize, committed, source);
            true
        },
    );
    // Every `FLAG_STAMPED` response from this container's fn-id range
    // piggybacks the serving partition's current mutation version — the
    // lease cache's third invalidation channel (after TTL and epoch).
    let p = parts.clone();
    reg.set_stamper(fn_base, N_FNS, move |server: EpId| {
        p.get(&server.rank).map_or(0, |part| part.version.load(Ordering::Acquire))
    });
}

/// A distributed unordered (hash) map.
pub struct UnorderedMap<'a, K, V>
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    core: Arc<Core<K, V>>,
    d: Dispatcher<'a>,
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
        let world = Arc::clone(rank.world());
        let cfg2 = cfg.clone();
        let name2 = name.to_string();
        let pmetrics = if rank.telemetry().enabled() {
            crate::persist::PersistMetrics::from_registry(
                rank.telemetry().registry(),
                Arc::clone(rank.telemetry().flight()),
            )
        } else {
            crate::persist::PersistMetrics::detached()
        };
        let core = rank.get_or_create_shared(&format!("hcl.umap.{name}"), move || {
            // Elastic (no explicit `servers`): ownership follows the world's
            // membership, so every rank hosts a Part — any rank may be
            // admitted as an owner later. Pinned (explicit `servers`):
            // exactly the historical static placement.
            let elastic = cfg2.servers.is_none();
            let servers = cfg2.servers.clone().unwrap_or_else(|| default_servers(&world));
            let fn_base = world.alloc_fn_ids(N_FNS);
            let repl_map = Arc::new(PartitionMap::round_robin(&servers, 1));
            let hosts: Vec<u32> = if elastic {
                (0..world.config().world_size()).collect()
            } else {
                servers.clone()
            };
            // One relaxed-policy flusher bounds the flush gap of every
            // partition log this container opens.
            let flusher = cfg2.persist.as_ref().and_then(|p| p.policy.interval()).map(Flusher::spawn);
            let mut parts = HashMap::new();
            for &owner in &hosts {
                // Non-leader elastic hosts start empty — but under a persist
                // config they still open a log, because live rebalancing can
                // migrate shards onto them; durability follows ownership.
                let leader = servers.iter().position(|&s| s == owner);
                let map = CuckooMap::with_buckets(cfg2.initial_buckets);
                let log = cfg2
                    .persist
                    .as_ref()
                    .filter(|_| leader.is_some() || elastic)
                    .map(|p| {
                        // Stems are keyed by owner rank: stable across a
                        // restart of the same world shape, unique per host.
                        let log = OpLog::open_with(
                            p.stem(&name2, owner as usize),
                            p.policy,
                            p.segment_bytes,
                            pmetrics.clone(),
                            |rec: LogRec<K, V>| match rec {
                                (0, k, Some(v)) => {
                                    map.insert(k, v);
                                }
                                (1, k, None) => {
                                    map.remove(&k);
                                }
                                _ => {}
                            },
                        )
                        .expect("open partition op log");
                        if let Some(f) = &flusher {
                            f.register(log.wal());
                        }
                        log
                    });
                parts.insert(
                    owner,
                    Arc::new(Part {
                        index: leader.unwrap_or(0),
                        home: owner,
                        map,
                        replica: CuckooMap::with_buckets(cfg2.initial_buckets),
                        log,
                        local_seq: AtomicU64::new(0),
                        merger: merger.clone(),
                        repl: ReplForwarder::new(owner),
                        world: Arc::clone(&world),
                        fn_base,
                        servers: servers.clone(),
                        replicas: if leader.is_some() { cfg2.replicas } else { 0 },
                        costs: CostCounters::default(),
                        version: AtomicU64::new(0),
                        lease_ttl_micros: cfg2
                            .lease
                            .as_ref()
                            .map_or(0, |l| l.ttl.as_micros().min(u64::MAX as u128) as u64),
                        membership: elastic.then(|| Arc::clone(world.membership())),
                        forwarding: RwLock::new(HashMap::new()),
                        tombstones: Mutex::new(HashSet::new()),
                        installed: Mutex::new(Vec::new()),
                    }),
                );
            }
            bind_handlers(&world, fn_base, &parts);
            if elastic {
                // Keyed mutations carry the client's membership epoch; the
                // server rejects mismatches typed (`WrongEpoch`) so an op
                // routed by a stale map is never served by the wrong rank.
                let cell = world.membership().epoch_cell();
                world
                    .registry()
                    .set_epoch_gate(fn_base, N_FNS, move || cell.load(Ordering::Acquire));
            }
            Core { fn_base, servers, repl_map, parts, cfg: cfg2, flusher }
        });
        let mut d = Dispatcher::new(rank, "umap", core.fn_base, core.cfg.hybrid);
        if core.cfg.servers.is_some() {
            // Static placement: resolve through the fixed ring, untagged.
            d.set_owner_map(OwnerMap::Pinned(Arc::clone(&core.repl_map)));
        } else {
            // Elastic containers take part in live rebalances. Registered
            // outside the create closure — `get_or_create_shared` holds the
            // objects lock, and `MigratorRegistry::shared` needs it too.
            MigratorRegistry::shared(rank).register_once(
                &format!("umap:{name}"),
                Arc::new(UmapMigrator { core: Arc::clone(&core) }),
            );
        }
        let cache = core.cfg.lease.as_ref().map(|lease| {
            let metrics = if rank.telemetry().enabled() {
                CacheMetrics::from_registry(rank.telemetry().registry())
            } else {
                CacheMetrics::detached()
            };
            // Watermark slots are indexed by owner *rank* (ownership can
            // move between ranks mid-run), so size for the whole world.
            Arc::new(LeaseCache::new(lease.clone(), rank.world_size() as usize, metrics))
        });
        if let Some(cache) = &cache {
            // Responses travel FLAG_STAMPED; fold each owner's piggybacked
            // version into the cache's watermark.
            let sink_cache = Arc::clone(cache);
            d.set_version_sink(Arc::new(move |owner, stamp| {
                sink_cache.observe_version(owner as usize, stamp);
            }));
            // The hot-key sketch rides the observer seam: every keyed
            // remote read dispatch feeds it.
            d.add_observer(cache.detector());
        }
        UnorderedMap { core, d, cache }
    }

    /// Attach a shared history recorder: every synchronous `put`/`get`/
    /// `erase` through this handle is logged as an invoke/return pair for
    /// offline linearizability checking ([`crate::check`]). Asynchronous and
    /// bulk variants are not recorded; an op whose RPC fails never enters
    /// the log.
    #[cfg(feature = "history")]
    pub fn set_recorder(&mut self, rec: crate::HistoryRecorder) {
        self.d.set_recorder(rec);
    }

    /// First-level hash: which partition (member index in the current
    /// ownership map) owns `key`.
    pub fn partition_of(&self, key: &K) -> usize {
        self.d.member_index_for(crate::stable_hash(key))
    }

    /// Number of partitions (owning members of the current map).
    pub fn partitions(&self) -> usize {
        self.d.owner_map().current().members().len()
    }

    /// The owner rank of partition `p`.
    pub fn server_of(&self, p: usize) -> u32 {
        self.d.owner_map().current().members()[p]
    }

    /// Current owner of a key hash — a snapshot for async/batch paths,
    /// which stage work addressed at a fixed rank. Keyed sync ops instead
    /// resolve inside the dispatcher so `WrongEpoch` rejections re-route.
    fn owner_now(&self, hash: u64) -> u32 {
        self.d.resolve(hash).0
    }

    /// Insert `key -> value`; returns `true` when the key was newly
    /// inserted (`false` = overwrite). One remote invocation worst case
    /// (Table I: `F + L + W`).
    pub fn put(&self, key: K, value: V) -> HclResult<bool> {
        let tok = hist_invoke!(
            self.d,
            crate::DsOp::MapPut {
                key: crate::history_enc(&key),
                value: crate::history_enc(&value),
            }
        );
        let hash = crate::stable_hash(&key);
        let result = self.d.sync_keyed(&ops::PUT, hash, (key, value), |owner, (k, v)| {
            self.core.parts[&owner].apply_put(k, v)
        });
        hist_return!(self.d, tok, &result, |newly| crate::DsRet::Inserted(*newly));
        result
    }

    /// Asynchronous insert (§III-C4). Remote inserts stage on the rank's op
    /// coalescer and may ride a batched message with neighbouring async ops
    /// to the same partition (§III-B request aggregation).
    pub fn put_async(&self, key: K, value: V) -> HclResult<HclFuture<bool>> {
        let owner = self.owner_now(crate::stable_hash(&key));
        self.d.dispatch_async(&ops::PUT, owner, (key, value), |(k, v)| {
            self.core.parts[&owner].apply_put(k, v)
        })
    }

    /// Look up `key` (Table I: `F + L + R`). Falls back to a replica when
    /// the owner has been marked down; with a [`LeaseConfig`], hot remote
    /// keys are served from the local lease cache (`F` elided entirely).
    pub fn get(&self, key: &K) -> HclResult<Option<V>> {
        let hash = crate::stable_hash(key);
        let owner = self.owner_now(hash);
        if let Some(cache) = &self.cache {
            if !self.d.is_local(owner) && !self.d.is_down(owner) {
                return self.get_cached(cache, hash, owner, key);
            }
        }
        let tok = hist_invoke!(self.d, crate::DsOp::MapGet { key: crate::history_enc(key) });
        // Without replicas there is nowhere to degrade to: dispatch normally
        // so the gate rejects the downed owner with `OwnerDown` immediately.
        let result = if self.d.is_down(owner) && self.core.cfg.replicas >= 1 {
            self.get_from_replica(hash, key)
        } else {
            self.d.sync_keyed_ref(&ops::GET, hash, key, |owner| {
                self.core.parts[&owner].apply_get(key)
            })
        };
        hist_return!(self.d, tok, &result, |v| crate::DsRet::Value(
            v.as_ref().map(crate::history_enc)
        ));
        result
    }

    /// The cached read path (remote, non-down owner, lease config set):
    /// serve from a live lease; otherwise grant one if the key is hot,
    /// steer to the replica if the owner is loaded, or fall through to a
    /// plain remote `get`.
    fn get_cached(
        &self,
        cache: &Arc<LeaseCache<K, V>>,
        hash: u64,
        owner: u32,
        key: &K,
    ) -> HclResult<Option<V>> {
        // Watermark slot = owner rank (matches the version sink). The epoch
        // is the unified membership/downed counter: a membership commit
        // invalidates every outstanding lease, so no lease can outlive the
        // map that granted it.
        let p = owner as usize;
        let epoch = self.d.epoch();
        if let Some((value, valid_from)) = cache.lookup(key, hash, p, epoch) {
            // Served locally without touching the fabric. The history op
            // carries the grant's invoke timestamp: the checker admits any
            // value that was current at some point in the lease window.
            #[cfg(not(feature = "history"))]
            let _ = valid_from;
            let tok = hist_invoke!(
                self.d,
                crate::DsOp::MapGetCached { key: crate::history_enc(key), valid_from }
            );
            let result = Ok(value);
            hist_return!(self.d, tok, &result, |v| crate::DsRet::Value(
                v.as_ref().map(crate::history_enc)
            ));
            return result;
        }
        if cache.is_hot(hash) {
            let tok =
                hist_invoke!(self.d, crate::DsOp::MapGet { key: crate::history_enc(key) });
            #[cfg(feature = "history")]
            let valid_from = tok.as_ref().map_or(0, |t| t.invoked_at());
            #[cfg(not(feature = "history"))]
            let valid_from = 0u64;
            // Deadline base taken *before* the RPC: the granted TTL bounds
            // staleness from the moment the server could have read the
            // value, not from when the response arrived.
            let granted = Instant::now();
            let result = self
                .d
                .sync_ref_keyed(&ops::GET_LEASED, owner, hash, key, || {
                    self.core.parts[&owner].apply_get_leased(key)
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
            hist_return!(self.d, tok, &result, |v| crate::DsRet::Value(
                v.as_ref().map(crate::history_enc)
            ));
            return result;
        }
        if self.core.cfg.replicas > 0 && cache.should_steer(owner) {
            // Replica reads may lag replication, so steered reads are
            // monotone-prefix (like owner-down degraded reads) and are not
            // recorded in linearizability histories.
            cache.metrics().steered_reads.inc();
            return self.get_from_replica(hash, key);
        }
        let tok = hist_invoke!(self.d, crate::DsOp::MapGet { key: crate::history_enc(key) });
        let result = self.d.sync_keyed_ref(&ops::GET, hash, key, |owner| {
            self.core.parts[&owner].apply_get(key)
        });
        hist_return!(self.d, tok, &result, |v| crate::DsRet::Value(
            v.as_ref().map(crate::history_enc)
        ));
        result
    }

    /// Asynchronous lookup; remote lookups stage on the op coalescer.
    pub fn get_async(&self, key: &K) -> HclResult<HclFuture<Option<V>>> {
        let owner = self.owner_now(crate::stable_hash(key));
        self.d.dispatch_async_ref(&ops::GET, owner, key, || {
            self.core.parts[&owner].apply_get(key)
        })
    }

    /// Atomically merge `value` into the entry for `key` using the
    /// registered [`Merger`]; returns the stored result. One remote
    /// invocation — the read-modify-write happens *at the target*, which is
    /// exactly what BCL's client-side model cannot express without a CAS
    /// retry loop.
    pub fn put_merge(&self, key: K, value: V) -> HclResult<V> {
        let hash = crate::stable_hash(&key);
        self.d.sync_keyed(&ops::MERGE, hash, (key, value), |owner, (k, v)| {
            self.core.parts[&owner].apply_merge(k, v)
        })
    }

    /// Asynchronous [`UnorderedMap::put_merge`]; remote merges stage on the
    /// op coalescer.
    pub fn put_merge_async(&self, key: K, value: V) -> HclResult<HclFuture<V>> {
        let owner = self.owner_now(crate::stable_hash(&key));
        self.d.dispatch_async(&ops::MERGE, owner, (key, value), |(k, v)| {
            self.core.parts[&owner].apply_merge(k, v)
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
            by_owner.entry(self.owner_now(crate::stable_hash(&k))).or_default().push((k, v));
        }
        let mut new_keys = 0u64;
        let mut pending = Vec::new();
        for (owner, group) in by_owner {
            let reply = self.d.bulk(&ops::PUT, owner, group, |(k, v)| {
                self.core.parts[&owner].apply_put(k, v)
            })?;
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
            by_owner.entry(self.owner_now(crate::stable_hash(k))).or_default().push(i);
        }
        let mut out: Vec<Option<V>> = (0..keys.len()).map(|_| None).collect();
        let mut pending = Vec::new();
        for (owner, idxs) in by_owner {
            let refs: Vec<&K> = idxs.iter().map(|&i| &keys[i]).collect();
            let reply = self.d.bulk_ref(&ops::GET, owner, &refs, |k| {
                self.core.parts[&owner].apply_get(k)
            })?;
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
        let tok = hist_invoke!(self.d, crate::DsOp::MapErase { key: crate::history_enc(key) });
        let hash = crate::stable_hash(key);
        let result = self.d.sync_keyed_ref(&ops::ERASE, hash, key, |owner| {
            self.core.parts[&owner].apply_erase(key)
        });
        hist_return!(self.d, tok, &result, |v| crate::DsRet::Value(
            v.as_ref().map(crate::history_enc)
        ));
        result
    }

    /// Presence check.
    pub fn contains(&self, key: &K) -> HclResult<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// Total entries across all partitions (collective-free; issues one
    /// call per remote partition).
    pub fn len(&self) -> HclResult<u64> {
        let map = self.d.owner_map().current();
        let mut total = 0u64;
        for &owner in map.members() {
            total +=
                self.d.sync_ref(&ops::LEN, owner, &(), || self.core.parts[&owner].apply_len())?;
        }
        Ok(total)
    }

    /// True when no partition holds entries.
    pub fn is_empty(&self) -> HclResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Resize one partition (the paper's `resize(partition_id, new_size)`;
    /// Table I: `F + N(R+W)`). "This operation is localized to the involved
    /// partition."
    pub fn resize(&self, partition_id: usize, new_buckets: usize) -> HclResult<bool> {
        let map = self.d.owner_map().current();
        let owner = *map
            .members()
            .get(partition_id)
            .ok_or(HclError::BadPartition(partition_id))?;
        self.d.sync_ref(&ops::RESIZE, owner, &(new_buckets as u64), || {
            self.core.parts[&owner].map.resize_to(new_buckets);
            true
        })
    }

    /// Bucket count of a partition (diagnostics).
    pub fn partition_buckets(&self, partition_id: usize) -> usize {
        let owner = self.d.owner_map().current().members()[partition_id];
        self.core.parts[&owner].map.buckets()
    }

    /// Clone out every entry of every partition (not atomic).
    pub fn snapshot_all(&self) -> HclResult<Vec<(K, V)>> {
        let map = self.d.owner_map().current();
        let mut out = Vec::new();
        for &owner in map.members() {
            let part: Vec<(K, V)> = self.d.sync_ref(&ops::SNAPSHOT, owner, &(), || {
                self.core.parts[&owner].apply_snapshot()
            })?;
            out.extend(part);
        }
        Ok(out)
    }

    /// Mark a partition owner as failed: `get`s for its keys are served
    /// from the replica on the next partition (requires `replicas >= 1`),
    /// and every other op targeting it degrades immediately with
    /// [`crate::HclError::OwnerDown`].
    pub fn mark_down(&self, owner_rank: u32) {
        self.d.mark_down(owner_rank);
    }

    /// Clear a failure mark.
    pub fn mark_up(&self, owner_rank: u32) {
        self.d.mark_up(owner_rank);
    }

    fn get_from_replica(&self, hash: u64, key: &K) -> HclResult<Option<V>> {
        // Replicas live on the *static* ring regardless of membership: the
        // ring successor of the key's home server backs it.
        let nparts = self.core.servers.len();
        let p = self.core.repl_map.member_index_of_hash(hash);
        let succ = p + 1;
        let succ = if succ >= nparts { succ - nparts } else { succ };
        let replica_owner = self.core.servers[succ];
        self.d.sync_ref(&ops::REPL_GET, replica_owner, key, || {
            self.core.parts[&replica_owner].replica.get(key)
        })
    }

    /// Wait until every partition's outstanding replication forwards have
    /// been acknowledged.
    pub fn flush_replication(&self) -> HclResult<()> {
        for &owner in &self.core.servers {
            let _: bool = self.d.sync_ref(&ops::REPL_FLUSH, owner, &(), || {
                self.core.parts[&owner].flush_replication();
                true
            })?;
        }
        Ok(())
    }

    /// Flush and compact every *local* partition's op log to a snapshot.
    pub fn compact_local_logs(&self) -> HclResult<()> {
        for &owner in &self.core.servers {
            if self.d.rank().same_node(owner) {
                let part = &self.core.parts[&owner];
                if let Some(log) = &part.log {
                    let snapshot: Vec<LogRec<K, V>> = part
                        .map
                        .iter_snapshot()
                        .into_iter()
                        .map(|(k, v)| (0u8, k, Some(v)))
                        .collect();
                    log.compact(snapshot.iter())
                        .map_err(|e| HclError::Persist(e.to_string()))?;
                }
            }
        }
        Ok(())
    }

    /// Client-side cost counters (Table I terms observed by this rank).
    pub fn costs(&self) -> CostSnapshot {
        self.d.costs()
    }

    /// Lease-cache counters of this handle (`None` when caching is off).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Aggregated server-side cost counters across all partitions.
    pub fn server_costs(&self) -> CostSnapshot {
        let mut out = CostSnapshot::default();
        for part in self.core.parts.values() {
            let s = part.costs.snapshot();
            out.f += s.f;
            out.l += s.l;
            out.r += s.r;
            out.w += s.w;
            out.fb += s.fb;
            out.fu += s.fu;
        }
        out
    }
}

/// Live-migration adapter for one elastic [`UnorderedMap`] instance:
/// translates the rebalance driver's shard-move callbacks into this
/// container's `MIG_*` control RPCs. All ops address explicit ranks (the
/// map mid-transition is exactly what they operate on), so none are
/// epoch-tagged; the copy itself rides the dispatcher's bulk path.
struct UmapMigrator<K, V>
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    core: Arc<Core<K, V>>,
}

impl<K, V> ShardMigrator for UmapMigrator<K, V>
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    fn name(&self) -> &str {
        "umap"
    }

    fn begin(&self, rank: &Rank, mv: &ShardMove) -> HclResult<()> {
        let d = Dispatcher::new(rank, "umap", self.core.fn_base, self.core.cfg.hybrid);
        let vp = mv.vpart as u64;
        // Arm the target first: its window bookkeeping must be clean before
        // the source starts forwarding writes into it.
        let _: bool = d.sync_ref(&ops::MIG_ARM, mv.to, &vp, || {
            self.core.parts[&mv.to].mig_arm(mv.vpart);
            true
        })?;
        let _: bool = d.sync_ref(&ops::MIG_BEGIN, mv.from, &(vp, mv.to), || {
            self.core.parts[&mv.from].mig_begin(mv.vpart, mv.to);
            true
        })?;
        Ok(())
    }

    fn transfer(&self, rank: &Rank, mv: &ShardMove) -> HclResult<(u64, u64)> {
        let d = Dispatcher::new(rank, "umap", self.core.fn_base, self.core.cfg.hybrid);
        let vp = mv.vpart as u64;
        let entries: Vec<(K, V)> = d.sync_ref(&ops::MIG_EXTRACT, mv.from, &vp, || {
            self.core.parts[&mv.from].mig_extract(mv.vpart)
        })?;
        let keys = entries.len() as u64;
        let bytes: u64 = entries.iter().map(|e| e.to_bytes().len() as u64).sum();
        if !entries.is_empty() {
            let to = mv.to;
            let reply = d.bulk(&ops::MIG_INSTALL, to, entries, |(k, v)| {
                self.core.parts[&to].mig_install(k, v)
            })?;
            let _: Vec<bool> = reply.wait()?;
        }
        Ok((keys, bytes))
    }

    fn end(&self, rank: &Rank, mv: &ShardMove, committed: bool) -> HclResult<()> {
        let d = Dispatcher::new(rank, "umap", self.core.fn_base, self.core.cfg.hybrid);
        let vp = mv.vpart as u64;
        // Source first: it stops forwarding, flushes in-flight forwards to
        // the target, then (on commit) purges the moved entries.
        let _: bool = d.sync_ref(&ops::MIG_END, mv.from, &(vp, committed, true), || {
            self.core.parts[&mv.from].mig_end(mv.vpart, committed, true);
            true
        })?;
        let _: bool = d.sync_ref(&ops::MIG_END, mv.to, &(vp, committed, false), || {
            self.core.parts[&mv.to].mig_end(mv.vpart, committed, false);
            true
        })?;
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_runtime::{World, WorldConfig};
    use std::cell::RefCell;

    /// A get must not return while the partition's log holds records that
    /// are appended but not durable — the value it read may be one of them —
    /// whether it runs on a NIC worker (barrier deferred to the request's ack
    /// scope) or on the owner's rank thread (hybrid bypass, inline commit).
    #[test]
    fn strict_reads_return_only_after_durable_catches_up() {
        let dir = std::env::temp_dir().join(format!("hcl-core-read-fence-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() };
        let dir2 = dir.clone();
        // Violations are collected and asserted after the world returns: a
        // rank that panics mid-run would strand its peer at the next barrier.
        let violations = World::run(cfg, move |rank| {
            let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
                rank,
                "fence",
                UnorderedMapConfig {
                    servers: Some(vec![0]),
                    persist: Some(PersistConfig::strict(&dir2)),
                    ..Default::default()
                },
            );
            let part = &map.core.parts[&0];
            let wal = Arc::clone(part.log.as_ref().expect("strict log").wal());
            let bad = RefCell::new(Vec::new());
            let check = |ok: bool, what: &str| {
                if !ok {
                    bad.borrow_mut().push(format!("rank {}: {what}", rank.id()));
                }
            };
            // What a put looks like halfway through its request on another
            // NIC worker: logged and applied, its commit still deferred.
            let half_done_put = |k: u64, v: u64| {
                wal.append_with(FN_PUT as u16, (7, k), |buf| (0u8, k, Some(v)).pack(buf)).unwrap();
                part.map.insert(k, v);
                check(wal.appended_lsn() > wal.durable_lsn(), "append_with committed by itself");
            };
            let caught_up = |what: &str| check(wal.durable_lsn() == wal.appended_lsn(), what);
            let fsyncs = || {
                let mine = rank.telemetry().registry().counter("hcl_persist_fsyncs").get();
                rank.allreduce(mine, |a, b| a + b)
            };
            let phase = |owner_side: &dyn Fn(), reader_side: &dyn Fn()| {
                if rank.id() == 0 {
                    owner_side();
                }
                rank.barrier();
                if rank.id() == 1 {
                    reader_side();
                }
                rank.barrier();
            };

            // NIC-worker path: rank 1 reads remotely.
            phase(&|| half_done_put(2, 20), &|| {
                check(map.get(&2).unwrap() == Some(20), "remote get missed the applied value");
                caught_up("remote get outran its barrier");
            });
            // Bypass path: the owner reads its own partition.
            phase(
                &|| {
                    half_done_put(3, 30);
                    check(map.get(&3).unwrap() == Some(30), "bypass get missed the applied value");
                    caught_up("bypass get outran its barrier");
                },
                &|| {},
            );
            // Every kind of read owes the barrier, not just `get`.
            phase(&|| half_done_put(4, 40), &|| {
                check(map.len().unwrap() == 3, "len");
                caught_up("len outran its barrier");
            });
            // With nothing pending a read costs no barrier at all.
            let before = fsyncs();
            check(map.get(&2).unwrap() == Some(20), "get of a durable key");
            check(!map.contains(&9).unwrap(), "contains of an absent key");
            check(fsyncs() == before, "a read of a fully durable partition fsynced");
            bad.into_inner()
        });
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(violations.concat(), Vec::<String>::new());
    }
}
