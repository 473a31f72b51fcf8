//! The shard pipeline: every container, written once per family.
//!
//! HCL's containers are the *same* procedural pipeline executed at the
//! target — only the local structure differs (paper §III-B/D). The
//! [`Dispatcher`] owns the access path of that statement; this module owns
//! both halves of each container family, generic over the local structure
//! by static dispatch:
//!
//! * [`KeyedShard`] over a [`KeyedStore`] (cuckoo hash, skiplist): every
//!   mutation is *log with recovery descriptor → apply → forward if the
//!   vpart is migrating*, its log and apply under the log's compaction
//!   gate; every read is taken under the strict read fence; the
//!   live-migration write-forwarding window
//!   (`mig_arm/begin/extract/install/apply/end`) lives here and only here,
//!   as do the handler bindings, the construction of the per-host shards
//!   (hosts, log open + replay, epoch gate) and the [`ShardMigrator`]. The
//!   public handle is [`KeyedContainer`] (`UnorderedMap`, `OrderedMap` are
//!   aliases of it), with every common op written once — the lease-cached
//!   `get` included: a lease is an epoch-tagged `get` kept for its TTL, and
//!   every write through the handle forgets its key's lease — and
//!   [`KeyedSet`] over it (`UnorderedSet`, `OrderedSet`), which records set
//!   history.
//! * [`SeqShard`] over a [`SeqStore`] (FIFO queue, priority queue): each of
//!   push/pop/bulk/len/snapshot/extract is one body, called from the NIC
//!   handler and from the hybrid bypass alike. The public handle is
//!   [`SeqContainer`] (`Queue`, `PriorityQueue`).
//!
//! A container file is what is left: a store impl, an op-descriptor table
//! ([`keyed_ops!`]/[`seq_ops!`] generate the common rows per prefix), its
//! config, and one impl block on its alias with the constructors and its
//! genuinely specific ops (DESIGN.md §10). `xtask lint`'s SHARD rule keeps
//! it that way: logging, read fences, migration forwards, compaction and
//! `mig_*` may not appear in any other file of this crate.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hcl_databox::DataBox;
use hcl_fabric::EpId;
use hcl_rpc::FnId;
use hcl_runtime::{Membership, PartitionMap, Rank, ShardMove, WorldShared};
use hcl_telemetry::CacheMetrics;
use parking_lot::{Mutex, RwLock};

use crate::cache::{CacheStats, LeaseCache, LeaseConfig};
use crate::cost::CostSnapshot;
use crate::dispatch::{
    hist_invoke, hist_return, Dispatcher, Forwarder, IssueMode, OpDescriptor, OpEvent, OwnerMap,
};
#[cfg(feature = "history")]
use crate::dispatch::Recording;
use crate::persist::{PersistConfig, ShardLog, Wal};
use crate::queue::QueueConfig;
use crate::rebalance::{MigratorRegistry, ShardMigrator};
use crate::unordered::Merger;
use crate::{HclError, HclFuture, HclResult};

/// Function-id offsets of the ops every keyed container serves; container-
/// specific ops start at [`KEYED_FNS`].
pub(crate) mod kfn {
    pub const PUT: u32 = 0;
    pub const GET: u32 = 1;
    pub const ERASE: u32 = 2;
    pub const LEN: u32 = 3;
    pub const SNAPSHOT: u32 = 4;
    pub const FLUSH_FORWARDS: u32 = 5;
    // Live-migration control plane (see [`crate::rebalance`]). These travel
    // untagged (the driver addresses explicit ranks, not hashed owners).
    pub const MIG_ARM: u32 = 6;
    pub const MIG_BEGIN: u32 = 7;
    pub const MIG_EXTRACT: u32 = 8;
    pub const MIG_INSTALL: u32 = 9;
    pub const MIG_APPLY: u32 = 10;
    pub const MIG_END: u32 = 11;
}
/// Number of common keyed fn ids.
pub(crate) const KEYED_FNS: u32 = 12;

/// Function-id offsets of the ops every single-partition container serves;
/// container-specific ops start at [`SEQ_FNS`].
pub(crate) mod sfn {
    pub const PUSH: u32 = 0;
    pub const POP: u32 = 1;
    pub const PUSH_BULK: u32 = 2;
    pub const POP_BULK: u32 = 3;
    pub const LEN: u32 = 4;
    pub const SNAPSHOT: u32 = 5;
    // Migration seam (host move): drain every element in one invocation. The
    // install half reuses `push_bulk` — such a shard is just its elements.
    pub const MIG_EXTRACT: u32 = 6;
}
/// Number of common single-partition fn ids.
pub(crate) const SEQ_FNS: u32 = 7;

/// Table I descriptors of the common keyed ops, one table per container
/// prefix ([`keyed_ops!`]).
pub(crate) struct KeyedOps {
    /// Container label (`"umap"`, `"omap"`): shared-object and migrator key
    /// prefix.
    pub prefix: &'static str,
    pub put: OpDescriptor,
    pub get: OpDescriptor,
    pub erase: OpDescriptor,
    pub len: OpDescriptor,
    pub snapshot: OpDescriptor,
    pub flush_forwards: OpDescriptor,
    pub mig_arm: OpDescriptor,
    pub mig_begin: OpDescriptor,
    pub mig_extract: OpDescriptor,
    pub mig_install: OpDescriptor,
    pub mig_end: OpDescriptor,
}

/// Table I descriptors of the common single-partition ops ([`seq_ops!`]).
pub(crate) struct SeqOps {
    /// Container label (`"queue"`, `"pq"`).
    pub prefix: &'static str,
    /// What `push` and `pop` record as (feature `history`).
    #[cfg(feature = "history")]
    pub hist: (fn(Vec<u8>) -> crate::DsOp, crate::DsOp),
    pub push: OpDescriptor,
    pub pop: OpDescriptor,
    pub push_bulk: OpDescriptor,
    pub pop_bulk: OpDescriptor,
    pub len: OpDescriptor,
    pub snapshot: OpDescriptor,
    pub mig_extract: OpDescriptor,
}

/// Build a descriptor table: one row per common op — `field: fn offset,
/// Table I local cost;` — named `"<prefix>.<field>"`, then any further
/// fields verbatim.
macro_rules! op_table {
    ($table:ident, $fns:ident, $p:literal, {
        $($op:ident: $off:ident, $cost:expr;)*
    } $($rest:tt)*) => {
        $crate::shard::$table {
            prefix: $p,
            $($op: $crate::dispatch::OpDescriptor {
                name: concat!($p, ".", stringify!($op)),
                fn_off: $crate::shard::$fns::$off,
                cost: $cost,
            },)*
            $($rest)*
        }
    };
}

/// The common keyed descriptor table for one container prefix. Migration
/// control ops are issued by the rebalance driver at explicit ranks, never
/// epoch-tagged (the map mid-transition is exactly what they operate on).
macro_rules! keyed_ops {
    ($p:literal) => {{
        use $crate::dispatch::CostSig;
        $crate::shard::op_table!(KeyedOps, kfn, $p, {
            put:            PUT,            CostSig::lrw(1, 0, 1);
            get:            GET,            CostSig::lrw(1, 1, 0);
            erase:          ERASE,          CostSig::lrw(1, 0, 1);
            len:            LEN,            CostSig::ZERO;
            snapshot:       SNAPSHOT,       CostSig::ZERO;
            flush_forwards: FLUSH_FORWARDS, CostSig::ZERO;
            mig_arm:        MIG_ARM,        CostSig::ZERO;
            mig_begin:      MIG_BEGIN,      CostSig::ZERO;
            mig_extract:    MIG_EXTRACT,    CostSig::ZERO;
            mig_install:    MIG_INSTALL,    CostSig::lrw(1, 0, 1);
            mig_end:        MIG_END,        CostSig::ZERO;
        })
    }};
}

/// The common single-partition descriptor table for one container prefix,
/// with the history ops its `push` and `pop` record as.
macro_rules! seq_ops {
    ($p:literal, $push:ident, $pop:ident) => {{
        use $crate::dispatch::CostSig;
        $crate::shard::op_table!(SeqOps, sfn, $p, {
            push:        PUSH,        CostSig::lrw(1, 0, 1);
            pop:         POP,         CostSig::lrw(1, 1, 0);
            push_bulk:   PUSH_BULK,   CostSig::write_scaled(1, 1);
            pop_bulk:    POP_BULK,    CostSig::read_scaled(1, 1);
            len:         LEN,         CostSig::ZERO;
            snapshot:    SNAPSHOT,    CostSig::ZERO;
            mig_extract: MIG_EXTRACT, CostSig::ZERO;
        } #[cfg(feature = "history")]
          hist: (|value| $crate::DsOp::$push { value }, $crate::DsOp::$pop),)
    }};
}

pub(crate) use {keyed_ops, op_table, seq_ops};

/// Key bound of the keyed pipeline: wire-codable, hashable to a vpart and a
/// tombstone set, shareable across NIC workers.
pub trait Key: DataBox + Hash + Eq + Clone + Send + Sync + 'static {}
impl<T: DataBox + Hash + Eq + Clone + Send + Sync + 'static> Key for T {}

/// Value/element bound of both pipelines.
pub trait Val: DataBox + Clone + Send + Sync + 'static {}
impl<T: DataBox + Clone + Send + Sync + 'static> Val for T {}

/// The local structure of a keyed shard. Implementations are concurrent and
/// linearizable per key; the shard adds everything distributed.
#[allow(clippy::len_without_is_empty)] // the pipeline only ever asks for `len`
pub trait KeyedStore<K, V>: Send + Sync + 'static {
    fn get(&self, key: &K) -> Option<V>;
    /// Insert or overwrite; returns the previous value.
    fn insert(&self, key: K, value: V) -> Option<V>;
    fn remove(&self, key: &K) -> Option<V>;
    fn len(&self) -> usize;
    /// Clone out every entry (not atomic).
    fn snapshot(&self) -> Vec<(K, V)>;
}

/// The local structure of a single-partition shard.
#[allow(clippy::len_without_is_empty)] // the pipeline only ever asks for `len`
pub trait SeqStore<T>: Send + Sync + 'static {
    fn push(&self, value: T);
    fn pop(&self) -> Option<T>;
    fn push_bulk(&self, values: Vec<T>) -> usize;
    fn pop_bulk(&self, max: usize) -> Vec<T>;
    fn len(&self) -> usize;
    /// Clone out the elements in pop order without consuming them.
    fn snapshot(&self) -> Vec<T>;
}

/// Keyed op-log record: `(tag, key, value)`; tag 0 = put, 1 = erase.
type KeyedRec<K, V> = (u8, K, Option<V>);
/// Single-partition op-log record: `(tag, element)`; tag 0 = push, 1 = pop.
type SeqRec<T> = (u8, Option<T>);
const TAG_ADD: u8 = 0;
const TAG_REMOVE: u8 = 1;

/// Compact a shard's log, if it has one: replace its history with what
/// `live` scans (see [`ShardLog::compact`]). A failure (already counted and
/// flight-recorded by the WAL) comes back as text so it can cross the wire
/// to whoever asked.
fn compact_to<Rec: DataBox>(
    log: &Option<ShardLog<Rec>>,
    live: impl FnOnce() -> Vec<Rec>,
) -> Result<(), String> {
    let Some(log) = log else { return Ok(()) };
    log.compact(live).map_err(|e| e.to_string())
}

/// Run one mutation — its log append and its apply — so that no compaction
/// of `log` falls between them ([`ShardLog::hold`]).
fn gated<Rec: DataBox, R>(log: &Option<ShardLog<Rec>>, mutate: impl FnOnce() -> R) -> R {
    let _held = log.as_ref().map(ShardLog::hold);
    mutate()
}

/// The strict read barrier of a shard's log, if it has one: called *after*
/// the observation it covers (see [`ShardLog::read_fence`]).
fn fence<Rec: DataBox>(log: &Option<ShardLog<Rec>>) {
    if let Some(log) = log {
        log.read_fence();
    }
}

/// A container's shards, indexed by host rank (`None` = not a host).
type Hosted<P> = Arc<Vec<Option<Arc<P>>>>;

/// Place `shards` at their host ranks in a world of `world_size` ranks.
fn hosted<P>(world_size: u32, shards: impl IntoIterator<Item = (u32, Arc<P>)>) -> Hosted<P> {
    let mut slots: Vec<Option<Arc<P>>> = (0..world_size).map(|_| None).collect();
    for (host, shard) in shards {
        slots[host as usize] = Some(shard);
    }
    Arc::new(slots)
}

/// Binds typed handlers for one container's fn-id range; `f` receives the
/// shard hosted on the serving rank. Every function is bound behind the
/// container's `epoch` cell, so the request envelope is gated the same way
/// whichever of its functions a request names.
pub(crate) struct Binder<'b, P> {
    world: &'b Arc<WorldShared>,
    fn_base: FnId,
    parts: &'b Hosted<P>,
    epoch: Option<Arc<AtomicU64>>,
}

impl<P: Send + Sync + 'static> Binder<'_, P> {
    pub(crate) fn bind<A, R>(&self, fn_off: u32, f: impl Fn(&P, A) -> R + Send + Sync + 'static)
    where
        A: DataBox + 'static,
        R: DataBox + 'static,
    {
        let parts = Arc::clone(self.parts);
        let id = self.fn_base + fn_off;
        self.world.registry().bind_guarded(id, self.epoch.clone(), move |server: EpId, _, args: A| {
            let shard = parts[server.rank as usize].as_deref();
            f(shard.expect("request served at a host of the container"), args)
        });
    }
}

/// New-owner bookkeeping of the write-forwarding window. One lock guards
/// both sets *and* is the window's write lock: copy-installs and forwarded
/// applies serialize on it (no store has to offer an atomic
/// insert-if-absent, and none is trusted to).
struct Window<K> {
    /// Keys erased by a forwarded write during the window. A tombstoned key
    /// must not be resurrected by a copy-install whose snapshot predates
    /// the erase.
    tombstones: HashSet<K>,
    /// Keys installed during the window (copy or forwarded put), retained
    /// so an aborted rebalance can purge exactly what the migration wrote.
    installed: Vec<K>,
}

/// Server-side state of one keyed partition on one host rank.
pub struct KeyedShard<K, V, S> {
    /// The rank hosting this shard.
    home: u32,
    store: S,
    log: Option<ShardLog<KeyedRec<K, V>>>,
    /// Sends the window's dual-applies (`MIG_APPLY`) to the new owner.
    fwd: Forwarder,
    /// The world's membership view — `Some` for elastic containers (no
    /// explicit `servers`), whose shards can move between ranks. `None`
    /// pins the partition forever (static placement).
    membership: Option<Arc<Membership>>,
    /// Old-owner side of live migration: virtual partitions currently in a
    /// write-forwarding window, mapped to their new owner. Mutations whose
    /// key hashes into a forwarding vpart are dual-applied at the target.
    forwarding: RwLock<HashMap<usize, u32>>,
    window: Mutex<Window<K>>,
}

impl<K: Key, V: Val, S: KeyedStore<K, V>> KeyedShard<K, V, S> {
    /// Log one mutation with its dispatch op index and recovery descriptor.
    /// The record is only built when there is a log to take it.
    fn log_op(&self, fn_off: u32, rec: impl FnOnce() -> KeyedRec<K, V>) {
        if let Some(log) = &self.log {
            log.record_op(&rec(), fn_off);
        }
    }

    /// Insert or overwrite; `true` when the key was newly inserted.
    pub(crate) fn apply_put(&self, key: K, value: V) -> bool {
        let newly = gated(&self.log, || {
            self.log_op(kfn::PUT, || (TAG_ADD, key.clone(), Some(value.clone())));
            self.store.insert(key.clone(), value.clone()).is_none()
        });
        self.forward_migration(&key, Some(&value));
        newly
    }

    /// Remove `key`, returning its value.
    pub(crate) fn apply_erase(&self, key: &K) -> Option<V> {
        let prev = gated(&self.log, || {
            self.log_op(kfn::ERASE, || (TAG_REMOVE, key.clone(), None));
            self.store.remove(key)
        });
        self.forward_migration(key, None);
        prev
    }

    /// A read-modify-write whose stored value is computed at the target
    /// (`put_merge`): `rmw` updates the store and returns the result, which
    /// is what gets logged — replay must not re-run the computation against
    /// recovered state. Known: the update is applied before it is logged.
    pub(crate) fn apply_rmw(&self, fn_off: u32, key: K, rmw: impl FnOnce(&S, &K) -> V) -> V {
        let stored = gated(&self.log, || {
            let stored = rmw(&self.store, &key);
            self.log_op(fn_off, || (TAG_ADD, key.clone(), Some(stored.clone())));
            stored
        });
        self.forward_migration(&key, Some(&stored));
        stored
    }

    /// The strict read barrier: run `read` against the live structure and
    /// hand its result back only under the barrier of whatever logged
    /// mutation it may reflect (see [`ShardLog::read_fence`]). Every
    /// read of a shard — common or container-specific — goes through here.
    pub(crate) fn read<R>(&self, read: impl FnOnce(&S) -> R) -> R {
        let out = read(&self.store);
        fence(&self.log);
        out
    }

    /// Look up `key`.
    pub(crate) fn apply_get(&self, key: &K) -> Option<V> {
        self.read(|s| s.get(key))
    }

    /// The live local structure (resize, diagnostics, tests).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The shard's write-ahead log, when the container is durable.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.log.as_ref().map(|l| l.wal())
    }

    /// Flush and compact this shard's log to a snapshot of its contents.
    fn compact_log(&self) -> Result<(), String> {
        compact_to(&self.log, || {
            self.store.snapshot().into_iter().map(|(k, v)| (TAG_ADD, k, Some(v))).collect()
        })
    }

    /// The virtual partition `key` hashes into (elastic containers only;
    /// `usize::MAX` for pinned shards, which never match a window).
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
    /// fallback arm catches that — if this shard no longer owns the key's
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
        self.fwd.forward(target, &(key.clone(), value.cloned()).to_bytes());
        m.counters().forwarded_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// New-owner side: clear window bookkeeping for `vpart` left by a
    /// previously aborted attempt, so this window starts clean.
    pub(crate) fn mig_arm(&self, vpart: usize) {
        let mut w = self.window.lock();
        w.tombstones.retain(|k| self.vpart_of(k) != vpart);
        w.installed.retain(|k| self.vpart_of(k) != vpart);
    }

    /// Old-owner side: open the forwarding window for `vpart` toward `to`.
    pub(crate) fn mig_begin(&self, vpart: usize, to: u32) {
        self.forwarding.write().insert(vpart, to);
    }

    /// Old-owner side: copy (do not remove) every entry of `vpart`. The
    /// shard stays fully served here until the transition commits.
    pub(crate) fn mig_extract(&self, vpart: usize) -> Vec<(K, V)> {
        let all = self.read(|s| s.snapshot());
        all.into_iter().filter(|(k, _)| self.vpart_of(k) == vpart).collect()
    }

    /// New-owner side: install one copied entry — insert-if-absent under
    /// the window lock, so a fresher forwarded put is never overwritten by
    /// the older copy and tombstoned keys (forwarded erases) stay dead.
    /// Durability follows ownership: the install is logged (before it is
    /// applied) at its new home, under the delivering RPC's identity.
    pub fn mig_install(&self, key: K, value: V) -> bool {
        let mut w = self.window.lock();
        if w.tombstones.contains(&key) || self.store.get(&key).is_some() {
            return false;
        }
        gated(&self.log, || {
            self.log_op(kfn::MIG_INSTALL, || (TAG_ADD, key.clone(), Some(value.clone())));
            self.store.insert(key.clone(), value)
        });
        w.installed.push(key);
        true
    }

    /// New-owner side: apply one forwarded write, under the window lock.
    /// Puts overwrite (the forward is fresher than any copy) and revive
    /// tombstones; erases tombstone the key against late-arriving copies.
    pub fn mig_apply(&self, key: K, value: Option<V>) {
        let mut w = self.window.lock();
        gated(&self.log, || match value {
            Some(v) => {
                self.log_op(kfn::MIG_APPLY, || (TAG_ADD, key.clone(), Some(v.clone())));
                w.tombstones.remove(&key);
                self.store.insert(key.clone(), v);
                w.installed.push(key);
            }
            None => {
                self.log_op(kfn::MIG_APPLY, || (TAG_REMOVE, key.clone(), None));
                self.store.remove(&key);
                w.tombstones.insert(key);
            }
        })
    }

    /// Close the window for `vpart`. At the source (old owner): stop
    /// forwarding, and on commit flush in-flight forwards then purge the
    /// moved entries. At the target (new owner): clear tombstones, and on
    /// abort purge exactly the keys the migration installed. Reports
    /// whether every forward since the last flush landed, then whether the
    /// log compacted.
    pub(crate) fn mig_end(&self, vpart: usize, committed: bool, source: bool) -> Closed {
        if source {
            self.forwarding.write().remove(&vpart);
            if !committed {
                return (Ok(()), Ok(()));
            }
            // Every dual-applied write must be acknowledged by the new
            // owner before the authoritative copy disappears here.
            let forwarded = self.fwd.flush();
            for (k, _) in self.store.snapshot() {
                if self.vpart_of(&k) == vpart {
                    self.store.remove(&k);
                }
            }
            // The moved shard now lives (and logs) at the new owner;
            // compact this side's log to the post-purge contents so a
            // crash here never resurrects the migrated keys.
            return (forwarded, self.compact_log());
        }
        let mut w = self.window.lock();
        let (moved, kept): (Vec<K>, Vec<K>) =
            std::mem::take(&mut w.installed).into_iter().partition(|k| self.vpart_of(k) == vpart);
        w.installed = kept;
        if !committed {
            for k in &moved {
                self.store.remove(k);
            }
        }
        w.tombstones.retain(|k| self.vpart_of(k) != vpart);
        (Ok(()), Ok(()))
    }
}

/// What closing a window reports ([`KeyedShard::mig_end`]): the forwards,
/// then the log's compaction.
type Closed = (Result<(), String>, Result<(), String>);

/// What a keyed container asks of the pipeline (its config, minus anything
/// container-specific).
pub(crate) struct KeyedSpec {
    /// Ranks owning a partition; `None` = elastic (the first rank of every
    /// node to start with, then wherever the membership puts them).
    pub servers: Option<Vec<u32>>,
    pub hybrid: bool,
    pub persist: Option<PersistConfig>,
    /// Lease-cached reads (`None` for the ordered map, which has no `lease`
    /// field): each handle's cache.
    pub lease: Option<LeaseConfig>,
}

/// World-shared core of one keyed container: its shards, one per host.
pub(crate) struct KeyedCore<K, V, S> {
    ops: &'static KeyedOps,
    fn_base: FnId,
    /// Function ids the container's op table spans from `fn_base`.
    fns: u32,
    /// The owner map of a pinned container (explicit `servers`, one slot
    /// each): `owner_of_hash` is bit-identical to the historical
    /// `servers[hash % len]` placement. `None` for elastic containers.
    pinned: Option<Arc<PartitionMap>>,
    parts: Hosted<KeyedShard<K, V, S>>,
    spec: KeyedSpec,
}

impl<K: Key, V: Val, S: KeyedStore<K, V>> KeyedCore<K, V, S> {
    /// Fetch-or-create the world-shared core of container `name`: build one
    /// shard per host (replaying its log), bind the common handlers plus
    /// whatever `bind_extra` adds at offsets `KEYED_FNS..KEYED_FNS +
    /// extra_fns`, every one behind the container's epoch gate.
    fn open(
        rank: &Rank,
        ops: &'static KeyedOps,
        name: &str,
        spec: KeyedSpec,
        extra_fns: u32,
        make_store: impl Fn() -> S,
        bind_extra: impl FnOnce(&Binder<'_, KeyedShard<K, V, S>>),
    ) -> Arc<Self> {
        let world = Arc::clone(rank.world());
        let pmetrics = crate::persist::metrics_for(rank);
        rank.get_or_create_shared(&format!("hcl.{}.{name}", ops.prefix), move || {
            // Elastic (no explicit `servers`): ownership follows the world's
            // membership (the node leaders to start with), so every rank
            // hosts a shard — any rank may be admitted as an owner later.
            // Pinned (explicit `servers`): exactly the historical static
            // placement.
            let elastic = spec.servers.is_none();
            let fns = KEYED_FNS + extra_fns;
            let fn_base = world.alloc_fn_ids(fns);
            let pinned = spec.servers.as_ref().map(|s| Arc::new(PartitionMap::round_robin(s, 1)));
            let hosts: Vec<u32> =
                spec.servers.clone().unwrap_or_else(|| (0..world.config().world_size()).collect());
            let mut shards = Vec::new();
            for &home in &hosts {
                // Non-member elastic hosts start empty — but under a persist
                // config they still open a log, because live rebalancing can
                // migrate shards onto them; durability follows ownership.
                let store = make_store();
                let log = spec.persist.as_ref().map(|p| {
                    ShardLog::open(p, name, home, pmetrics.clone(), world.deadlines(), |rec| {
                        match rec {
                            (TAG_ADD, k, Some(v)) => drop(store.insert(k, v)),
                            (TAG_REMOVE, k, None) => drop(store.remove(&k)),
                            _ => return false,
                        }
                        true
                    })
                    .expect("open partition op log")
                });
                let shard = KeyedShard {
                    home,
                    store,
                    log,
                    fwd: Forwarder::new(Arc::clone(&world), home, fn_base + kfn::MIG_APPLY),
                    membership: elastic.then(|| Arc::clone(world.membership())),
                    forwarding: RwLock::new(HashMap::new()),
                    window: Mutex::new(Window {
                        tombstones: HashSet::new(),
                        installed: Vec::new(),
                    }),
                };
                shards.push((home, Arc::new(shard)));
            }
            let parts = hosted(world.config().world_size(), shards);
            // Elastic containers gate on the membership epoch: the server
            // rejects mismatches typed (`WrongEpoch`) so an op routed by a
            // stale map is never served by the wrong rank.
            let epoch = elastic.then(|| world.membership().epoch_cell());
            let b = Binder { world: &world, fn_base, parts: &parts, epoch };
            b.bind(kfn::PUT, |s, (k, v): (K, V)| s.apply_put(k, v));
            b.bind(kfn::GET, |s, k: K| s.apply_get(&k));
            b.bind(kfn::ERASE, |s, k: K| s.apply_erase(&k));
            b.bind(kfn::LEN, |s, ()| s.read(|m| m.len() as u64));
            b.bind(kfn::SNAPSHOT, |s, ()| s.read(|m| m.snapshot()));
            b.bind(kfn::FLUSH_FORWARDS, |s, ()| s.fwd.flush());
            b.bind(kfn::MIG_ARM, |s, vpart: u64| {
                s.mig_arm(vpart as usize);
                true
            });
            b.bind(kfn::MIG_BEGIN, |s, (vpart, to): (u64, u32)| {
                s.mig_begin(vpart as usize, to);
                true
            });
            b.bind(kfn::MIG_EXTRACT, |s, vpart: u64| s.mig_extract(vpart as usize));
            b.bind(kfn::MIG_INSTALL, |s, (k, v): (K, V)| s.mig_install(k, v));
            b.bind(kfn::MIG_APPLY, |s, (k, v): (K, Option<V>)| {
                s.mig_apply(k, v);
                true
            });
            b.bind(kfn::MIG_END, |s, (vpart, committed, source): (u64, bool, bool)| {
                s.mig_end(vpart as usize, committed, source)
            });
            bind_extra(&b);
            KeyedCore { ops, fn_base, fns, pinned, parts, spec }
        })
    }

    /// The shard hosted on rank `host`.
    pub(crate) fn shard(&self, host: u32) -> &KeyedShard<K, V, S> {
        self.parts[host as usize].as_deref().expect("rank hosts a shard of this container")
    }

    /// The ranks hosting a shard: every rank of an elastic container, the
    /// `servers` of a pinned one.
    fn hosts(&self) -> impl Iterator<Item = u32> + '_ {
        (0..).zip(self.parts.iter()).filter_map(|(host, s)| s.as_ref().map(|_| host))
    }

    /// An engine addressing explicit ranks of this container.
    fn dispatcher<'r>(&self, rank: &'r Rank) -> Dispatcher<'r> {
        Dispatcher::new(rank, self.fn_base, self.fns, self.spec.hybrid)
    }
}

/// Live-migration adapter for one elastic keyed container instance:
/// translates the rebalance driver's shard-move callbacks into the `MIG_*`
/// control RPCs. All ops address explicit ranks (the map mid-transition is
/// exactly what they operate on), so none are epoch-tagged; the copy itself
/// rides the dispatcher's bulk path.
struct KeyedMigrator<K, V, S> {
    core: Arc<KeyedCore<K, V, S>>,
}

impl<K: Key, V: Val, S: KeyedStore<K, V>> ShardMigrator for KeyedMigrator<K, V, S> {
    fn name(&self) -> &str {
        self.core.ops.prefix
    }

    fn begin(&self, rank: &Rank, mv: &ShardMove) -> HclResult<()> {
        let (core, d) = (&self.core, self.core.dispatcher(rank));
        let vp = mv.vpart as u64;
        // Arm the target first: its window bookkeeping must be clean before
        // the source starts forwarding writes into it.
        let _: bool = d.sync(d.event(&core.ops.mig_arm, mv.to), IssueMode::Sync, &vp, |_| {
            core.shard(mv.to).mig_arm(mv.vpart);
            true
        })?;
        let begin = d.event(&core.ops.mig_begin, mv.from);
        let _: bool = d.sync(begin, IssueMode::Sync, &(vp, mv.to), |_| {
            core.shard(mv.from).mig_begin(mv.vpart, mv.to);
            true
        })?;
        Ok(())
    }

    fn transfer(&self, rank: &Rank, mv: &ShardMove) -> HclResult<(u64, u64)> {
        let (core, d) = (&self.core, self.core.dispatcher(rank));
        let extract = d.event(&core.ops.mig_extract, mv.from);
        let entries: Vec<(K, V)> = d.sync(extract, IssueMode::Sync, &(mv.vpart as u64), |_| {
            core.shard(mv.from).mig_extract(mv.vpart)
        })?;
        let keys = entries.len() as u64;
        let bytes: u64 = entries.iter().map(|e| e.to_bytes().len() as u64).sum();
        if !entries.is_empty() {
            let reply = d.bulk(&core.ops.mig_install, mv.to, entries, |(k, v)| {
                core.shard(mv.to).mig_install(k, v)
            })?;
            let _: Vec<bool> = reply.wait()?;
        }
        Ok((keys, bytes))
    }

    fn end(&self, rank: &Rank, mv: &ShardMove, committed: bool) -> HclResult<()> {
        let (core, d) = (&self.core, self.core.dispatcher(rank));
        let vp = mv.vpart as u64;
        // Source first: it stops forwarding, flushes in-flight forwards to
        // the target, then (on commit) purges the moved entries.
        let end_at = |host: u32, source: bool| {
            d.sync(d.event(&core.ops.mig_end, host), IssueMode::Sync, &(vp, committed, source), |_| {
                core.shard(host).mig_end(mv.vpart, committed, source)
            })
        };
        let (forwarded, at_source) = end_at(mv.from, true)?;
        let (_, at_target) = end_at(mv.to, false)?;
        forwarded.map_err(HclError::Rebalance)?;
        at_source.and(at_target).map_err(HclError::Persist)
    }
}

/// The public handle of a keyed container over the local structure `S`:
/// [`crate::UnorderedMap`] and [`crate::OrderedMap`] are this type, and
/// [`KeyedSet`] wraps it for both sets. It pairs the world-shared core with
/// the handle's dispatch engine, and every op whose body does not depend on
/// `S` is written here once; each store's module adds its constructors and
/// the ops only that container has.
pub struct KeyedContainer<'a, K, V, S> {
    core: Arc<KeyedCore<K, V, S>>,
    pub(crate) d: Dispatcher<'a>,
    /// Server-side merge function ([`crate::UnorderedMap::with_merger`]);
    /// only the hash map's impl reads it.
    pub(crate) merger: Option<Merger<V>>,
    /// This handle's lease cache (`KeyedSpec::lease`); `None` = caching off.
    cache: Option<LeaseCache<K, V>>,
}

impl<'a, K: Key, V: Val, S: KeyedStore<K, V>> KeyedContainer<'a, K, V, S> {
    /// Collective constructor: see [`KeyedCore::open`]. Pinned containers
    /// resolve owners through the fixed ring, untagged; elastic ones take
    /// part in live rebalances. With a lease config the handle gets a lease
    /// cache.
    pub(crate) fn open(
        rank: &'a Rank,
        ops: &'static KeyedOps,
        name: &str,
        spec: KeyedSpec,
        extra_fns: u32,
        make_store: impl Fn() -> S,
        bind_extra: impl FnOnce(&Binder<'_, KeyedShard<K, V, S>>),
    ) -> Self {
        let core = KeyedCore::open(rank, ops, name, spec, extra_fns, make_store, bind_extra);
        let mut d = core.dispatcher(rank);
        if let Some(pinned) = &core.pinned {
            d.set_owner_map(OwnerMap::Pinned(Arc::clone(pinned)));
        } else {
            // Registered outside the create closure — `get_or_create_shared`
            // holds the objects lock, and `MigratorRegistry::shared` needs
            // it too.
            MigratorRegistry::shared(rank).register_once(
                &format!("{}:{name}", ops.prefix),
                Arc::new(KeyedMigrator { core: Arc::clone(&core) }),
            );
        }
        let cache = core.spec.lease.clone().map(|lease| {
            let metrics = if rank.telemetry().enabled() {
                CacheMetrics::from_registry(rank.telemetry().registry())
            } else {
                CacheMetrics::detached()
            };
            LeaseCache::new(lease, metrics)
        });
        KeyedContainer { core, d, merger: None, cache }
    }

    /// Attach a shared history recorder: every synchronous `put`/`get`/
    /// `erase` through this handle is logged as an invoke/return pair for
    /// offline linearizability checking ([`crate::check`]). Asynchronous,
    /// bulk and range variants are not recorded; an op whose RPC fails
    /// never enters the log.
    #[cfg(feature = "history")]
    pub fn set_recorder(&mut self, rec: crate::HistoryRecorder) {
        self.d.set_recorder(rec);
    }

    /// Current owner of a key hash — a snapshot for async/batch paths,
    /// which stage work addressed at a fixed rank. Keyed sync ops instead
    /// resolve inside the dispatcher so `WrongEpoch` rejections re-route.
    pub(crate) fn owner_now(&self, hash: u64) -> u32 {
        self.d.resolve(hash).0
    }

    /// First-level hash: which partition (member index in the current
    /// ownership map) owns `key`.
    pub fn partition_of(&self, key: &K) -> usize {
        self.d.member_index_for(crate::stable_hash(key))
    }

    /// The current ownership map; its members are the partitions, in order.
    fn map(&self) -> Arc<PartitionMap> {
        self.d.owner_map().current()
    }

    /// Number of partitions (owning members of the current map).
    pub fn partitions(&self) -> usize {
        self.map().members().len()
    }

    /// The owner rank of partition `p`.
    pub fn server_of(&self, p: usize) -> u32 {
        self.map().members()[p]
    }

    /// The owner rank of partition `p`, if it exists.
    pub(crate) fn owner_of_partition(&self, p: usize) -> HclResult<u32> {
        self.map().members().get(p).copied().ok_or(HclError::BadPartition(p))
    }

    /// The server-side shard hosted on rank `host` (tests and diagnostics).
    #[doc(hidden)]
    pub fn shard_at(&self, host: u32) -> &KeyedShard<K, V, S> {
        self.core.shard(host)
    }

    /// Insert `key -> value`; returns `true` when the key was newly
    /// inserted (`false` = overwrite). One remote invocation worst case
    /// (Table I: `F + L + W`, `F + L·log(N) + W` on the ordered map).
    pub fn put(&self, key: K, value: V) -> HclResult<bool> {
        let tok = hist_invoke!(
            self.d,
            crate::DsOp::MapPut {
                key: crate::history_enc(&key),
                value: crate::history_enc(&value),
            }
        );
        let hash = crate::stable_hash(&key);
        let written = self.written(&key);
        let result = self.d.sync_keyed(&self.core.ops.put, hash, (key, value), |owner, (k, v)| {
            self.core.shard(owner).apply_put(k, v)
        });
        if let Some(key) = written {
            self.forget(&key, hash);
        }
        hist_return!(self.d, tok, &result, |newly| crate::DsRet::Inserted(*newly));
        result
    }

    /// Asynchronous insert (§III-C4). Remote inserts stage on the rank's op
    /// coalescer and may ride a batched message with neighbouring async ops
    /// to the same partition (§III-B request aggregation).
    pub fn put_async(&self, key: K, value: V) -> HclResult<HclFuture<bool>> {
        let hash = crate::stable_hash(&key);
        self.forget(&key, hash);
        let owner = self.owner_now(hash);
        self.d.dispatch_async(&self.core.ops.put, owner, (key, value), |(k, v)| {
            self.core.shard(owner).apply_put(k, v)
        })
    }

    /// What a sync or bulk write keeps to [`KeyedContainer::forget`] once
    /// it returns: its key, cloned only when the handle caches.
    pub(crate) fn written(&self, key: &K) -> Option<K> {
        self.cache.as_ref().map(|_| key.clone())
    }

    /// A write of `key` through this handle: drop its lease, if it has one,
    /// and refuse any grant in flight across the write (see
    /// [`LeaseCache::forget`]). Sync and bulk writes call it once they
    /// return, async writes as they are issued (DESIGN §14).
    pub(crate) fn forget(&self, key: &K, hash: u64) {
        if let Some(cache) = &self.cache {
            cache.forget(key, hash, self.d.epoch());
        }
    }

    /// Look up `key` (Table I: `F + L + R`). With a [`LeaseConfig`], hot
    /// remote keys are served from the local lease cache (`F` elided
    /// entirely); a marked-down owner fails it with [`HclError::OwnerDown`].
    pub fn get(&self, key: &K) -> HclResult<Option<V>> {
        let hash = crate::stable_hash(key);
        let owner = self.owner_now(hash);
        match &self.cache {
            Some(cache) if !self.d.is_local(owner) && !self.d.is_down(owner) => {
                self.get_cached(cache, hash, key)
            }
            _ => self.get_at(hash, key, None),
        }
    }

    /// `get` with the hash already in hand, dispatched to the key's owner.
    /// With `lease`, the value the owner returns is stored there as a lease:
    /// the grant is this very `get`, epoch-tagged like any keyed op.
    fn get_at(&self, hash: u64, key: &K, lease: Option<&LeaseCache<K, V>>) -> HclResult<Option<V>> {
        let tok = hist_invoke!(self.d, crate::DsOp::MapGet { key: crate::history_enc(key) });
        // Taken *before* the RPC: the epoch the lease is bound to, the write
        // generation it must not have straddled, and the deadline base — the
        // TTL bounds staleness from the moment the owner could have read the
        // value, not from when the response arrived.
        let grant = lease.map(|c| (c.generation(), self.d.epoch(), Instant::now()));
        let result = self.d.sync_keyed(&self.core.ops.get, hash, key, |owner, key| {
            self.core.shard(owner).apply_get(key)
        });
        if let (Some(cache), Some((generation, epoch, granted)), Ok(value)) =
            (lease, grant, &result)
        {
            // The grant's invoke timestamp is the left edge of the window the
            // lease checker admits its cached reads in.
            #[cfg(feature = "history")]
            let valid_from = tok.as_ref().map_or(0, |t| t.invoked_at());
            #[cfg(not(feature = "history"))]
            let valid_from = 0;
            let expires = granted + cache.ttl();
            cache.insert(key.clone(), hash, value.clone(), epoch, generation, expires, valid_from);
        }
        hist_return!(self.d, tok, &result, |v| crate::DsRet::Value(
            v.as_ref().map(crate::history_enc)
        ));
        result
    }

    /// The cached read path (remote, non-down owner, lease config set):
    /// serve from a live lease; otherwise a plain `get`, which becomes a
    /// lease grant if the key is hot.
    fn get_cached(&self, cache: &LeaseCache<K, V>, hash: u64, key: &K) -> HclResult<Option<V>> {
        // The epoch is the unified membership/downed counter: a membership
        // commit invalidates every outstanding lease, so no lease can
        // outlive the map that granted it.
        if let Some((value, valid_from)) = cache.lookup(key, hash, self.d.epoch()) {
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
        // A miss goes to the fabric and feeds the hot-key sketch — after
        // the hotness check, so the read that makes a key hot is not yet
        // the one that earns its lease.
        let hot = cache.is_hot(hash);
        cache.observe_read(hash);
        self.get_at(hash, key, hot.then_some(cache))
    }

    /// Asynchronous lookup; remote lookups stage on the op coalescer.
    pub fn get_async(&self, key: &K) -> HclResult<HclFuture<Option<V>>> {
        let owner = self.owner_now(crate::stable_hash(key));
        self.d.dispatch_async(&self.core.ops.get, owner, key, |key| {
            self.core.shard(owner).apply_get(key)
        })
    }

    /// Remove `key`, returning its value.
    pub fn erase(&self, key: &K) -> HclResult<Option<V>> {
        let tok = hist_invoke!(self.d, crate::DsOp::MapErase { key: crate::history_enc(key) });
        let hash = crate::stable_hash(key);
        let result = self.d.sync_keyed(&self.core.ops.erase, hash, key, |owner, key| {
            self.core.shard(owner).apply_erase(key)
        });
        self.forget(key, hash);
        hist_return!(self.d, tok, &result, |v| crate::DsRet::Value(
            v.as_ref().map(crate::history_enc)
        ));
        result
    }

    /// Presence check.
    pub fn contains(&self, key: &K) -> HclResult<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// One call per owning member (collective-free; remote members cost one
    /// RPC each), results in partition order.
    pub(crate) fn fan_out<A: DataBox, R: DataBox>(
        &self,
        op: &'static OpDescriptor,
        args: &A,
        local: impl Fn(&KeyedShard<K, V, S>) -> R,
    ) -> HclResult<Vec<R>> {
        let owners = self.map();
        let call = |&o: &u32| {
            self.d.sync(self.d.event(op, o), IssueMode::Sync, args, |_| local(self.core.shard(o)))
        };
        owners.members().iter().map(call).collect()
    }

    /// Total entries across all partitions (collective-free; issues one
    /// call per remote partition).
    pub fn len(&self) -> HclResult<u64> {
        let lens = self.fan_out(&self.core.ops.len, &(), |s| s.read(|m| m.len() as u64))?;
        Ok(lens.into_iter().sum())
    }

    /// True when no partition holds entries.
    pub fn is_empty(&self) -> HclResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Clone out every entry of every partition (not atomic).
    pub fn snapshot_all(&self) -> HclResult<Vec<(K, V)>> {
        let parts = self.fan_out(&self.core.ops.snapshot, &(), |s| s.read(|m| m.snapshot()))?;
        Ok(parts.into_iter().flatten().collect())
    }

    /// Mark a partition owner as failed: every op targeting it through this
    /// handle degrades immediately with [`HclError::OwnerDown`].
    pub fn mark_down(&self, owner_rank: u32) {
        self.d.mark_down(owner_rank);
    }

    /// Clear a failure mark set by [`KeyedContainer::mark_down`].
    pub fn mark_up(&self, owner_rank: u32) {
        self.d.mark_up(owner_rank);
    }

    /// Wait until every host's outstanding migration forwards have been
    /// acknowledged. Every host is flushed; the first failure is returned —
    /// [`HclError::Rebalance`] when a host saw a forward fail since its
    /// last flush.
    pub fn flush_forwards(&self) -> HclResult<()> {
        let mut flushed = Ok(());
        for host in self.core.hosts() {
            let flush = self.d.event(&self.core.ops.flush_forwards, host);
            let fwd = &self.core.shard(host).fwd;
            let at = self.d.sync(flush, IssueMode::Sync, &(), |_| fwd.flush());
            flushed = flushed.and(at.and_then(|at| at.map_err(HclError::Rebalance)));
        }
        flushed
    }

    /// Flush and compact the op log of every shard hosted on this rank's
    /// node to a snapshot.
    pub fn compact_local_logs(&self) -> HclResult<()> {
        let mut local = self.core.hosts().filter(|&h| self.d.rank().same_node(h));
        local.try_for_each(|h| self.core.shard(h).compact_log().map_err(HclError::Persist))
    }

    /// Client-side cost counters (Table I terms observed by this rank).
    pub fn costs(&self) -> CostSnapshot {
        self.d.costs()
    }

    /// Lease-cache counters of this handle (`None` when caching is off).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }
}

/// A keyed set over a [`KeyedContainer`] with unit values: the same
/// partitioned structure with key-only entries ("sets only contain a single
/// key per element, which reduces the serialization cost", §IV-C).
/// [`crate::UnorderedSet`] and [`crate::OrderedSet`] are this type. Set ops
/// record set history ops; the inner map records nothing.
pub struct KeyedSet<'a, K, S> {
    pub(crate) inner: KeyedContainer<'a, K, (), S>,
    #[cfg(feature = "history")]
    hist: Recording,
}

impl<'a, K: Key, S: KeyedStore<K, ()>> KeyedSet<'a, K, S> {
    /// Wrap a freshly opened unit-valued container.
    pub(crate) fn over(inner: KeyedContainer<'a, K, (), S>) -> Self {
        KeyedSet {
            inner,
            #[cfg(feature = "history")]
            hist: Recording::default(),
        }
    }

    /// Attach a shared history recorder: synchronous `insert`/`remove`/
    /// `contains` through this handle are logged as set operations.
    #[cfg(feature = "history")]
    pub fn set_recorder(&mut self, rec: crate::HistoryRecorder) {
        self.hist.0 = Some(rec);
    }

    /// Insert `key`; `true` when newly inserted.
    pub fn insert(&self, key: K) -> HclResult<bool> {
        let tok = hist_invoke!(self, crate::DsOp::SetInsert { key: crate::history_enc(&key) });
        let result = self.inner.put(key, ());
        hist_return!(self, tok, &result, |newly| crate::DsRet::Inserted(*newly));
        result
    }

    /// Asynchronous insert.
    pub fn insert_async(&self, key: K) -> HclResult<HclFuture<bool>> {
        self.inner.put_async(key, ())
    }

    /// Membership test (Table I: `F + L + R`).
    pub fn contains(&self, key: &K) -> HclResult<bool> {
        let tok = hist_invoke!(self, crate::DsOp::SetContains { key: crate::history_enc(key) });
        let result = self.inner.contains(key);
        hist_return!(self, tok, &result, |present| crate::DsRet::Contains(*present));
        result
    }

    /// Remove `key`; `true` when it was present.
    pub fn remove(&self, key: &K) -> HclResult<bool> {
        let tok = hist_invoke!(self, crate::DsOp::SetRemove { key: crate::history_enc(key) });
        let result = self.inner.erase(key).map(|v| v.is_some());
        hist_return!(self, tok, &result, |removed| crate::DsRet::Removed(*removed));
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

    /// All elements (not atomic).
    pub fn snapshot_all(&self) -> HclResult<Vec<K>> {
        Ok(self.inner.snapshot_all()?.into_iter().map(|(k, ())| k).collect())
    }

    /// Mark a partition owner as failed (see [`KeyedContainer::mark_down`]).
    pub fn mark_down(&self, owner_rank: u32) {
        self.inner.mark_down(owner_rank);
    }

    /// Clear a failure mark set by [`KeyedSet::mark_down`].
    pub fn mark_up(&self, owner_rank: u32) {
        self.inner.mark_up(owner_rank);
    }

    /// Client-side cost counters.
    pub fn costs(&self) -> CostSnapshot {
        self.inner.costs()
    }
}

/// Server-side state of a single-partition container on its owner rank.
pub struct SeqShard<T, S> {
    owner: u32,
    store: S,
    log: Option<ShardLog<SeqRec<T>>>,
}

impl<T: Val, S: SeqStore<T>> SeqShard<T, S> {
    pub(crate) fn push(&self, value: T) -> bool {
        gated(&self.log, || {
            if let Some(log) = &self.log {
                log.record_op(&(TAG_ADD, Some(value.clone())), sfn::PUSH);
            }
            self.store.push(value);
        });
        true
    }

    pub(crate) fn pop(&self) -> Option<T> {
        gated(&self.log, || {
            let v = self.store.pop();
            self.log_pops(v.is_some() as usize, |log, rec| log.record_op(rec, sfn::POP));
            v
        })
    }

    /// One record per element, each under its own local sequence (see
    /// [`ShardLog::record_local`]).
    pub(crate) fn push_bulk(&self, values: Vec<T>) -> u64 {
        gated(&self.log, || {
            if let Some(log) = &self.log {
                for v in &values {
                    log.record_local(&(TAG_ADD, Some(v.clone())), sfn::PUSH_BULK);
                }
            }
            self.store.push_bulk(values) as u64
        })
    }

    pub(crate) fn pop_bulk(&self, max: u64) -> Vec<T> {
        gated(&self.log, || {
            let vs = self.store.pop_bulk(max as usize);
            self.log_pops(vs.len(), |log, rec| log.record_local(rec, sfn::POP_BULK));
            vs
        })
    }

    /// Log a pop that removed `taken` elements: one `record` call each. A
    /// pop that found nothing logs nothing, but "empty" is an observation
    /// of the structure as well — it owes the read barrier.
    fn log_pops(&self, taken: usize, record: impl Fn(&ShardLog<SeqRec<T>>, &SeqRec<T>)) {
        let Some(log) = &self.log else { return };
        if taken == 0 {
            fence(&self.log);
        }
        (0..taken).for_each(|_| record(log, &(TAG_REMOVE, None)));
    }

    /// The strict read barrier (see [`KeyedShard::read`]).
    pub(crate) fn read<R>(&self, read: impl FnOnce(&S) -> R) -> R {
        let out = read(&self.store);
        fence(&self.log);
        out
    }

    /// Drain every element, in pop order. The shard moved wholesale, so the
    /// log is compacted to the (now empty) contents, with the drain as its
    /// scan — a restart must never resurrect migrated elements. If that
    /// fails nothing has moved: the elements go back and the error is the
    /// caller's.
    pub(crate) fn extract(&self) -> Result<Vec<T>, String> {
        let Some(log) = &self.log else { return Ok(self.store.pop_bulk(usize::MAX)) };
        let mut vs = Vec::new();
        match log.compact(|| {
            vs = self.store.pop_bulk(usize::MAX);
            Vec::new()
        }) {
            Ok(()) => Ok(vs),
            Err(e) => {
                self.store.push_bulk(vs);
                Err(e.to_string())
            }
        }
    }

    /// Compact the log down to a push-per-element snapshot of the live
    /// contents (no-op when persistence is off).
    fn compact_log(&self) -> Result<(), String> {
        compact_to(&self.log, || {
            self.store.snapshot().into_iter().map(|v| (TAG_ADD, Some(v))).collect()
        })
    }

    /// The live local structure (unlogged admin ops, tests).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The shard's write-ahead log, when the container is durable.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.log.as_ref().map(|l| l.wal())
    }
}

/// The public handle of a single-partition container over the local
/// structure `S`: [`crate::Queue`] and [`crate::PriorityQueue`] are this
/// type. It pairs the shard on the hosting rank with the handle's dispatch
/// engine, and every common op is written here once; each store's module
/// adds its constructors and the ops only that container has.
pub struct SeqContainer<'a, T, S> {
    ops: &'static SeqOps,
    shard: Arc<SeqShard<T, S>>,
    d: Dispatcher<'a>,
}

impl<'a, T: Val, S: SeqStore<T>> SeqContainer<'a, T, S> {
    /// Collective constructor: fetch-or-create the shard of container
    /// `name` on `cfg.owner` (replaying its log), binding the common
    /// handlers plus whatever `bind_extra` adds at `SEQ_FNS..SEQ_FNS +
    /// extra_fns`.
    pub(crate) fn open(
        rank: &'a Rank,
        ops: &'static SeqOps,
        name: &str,
        cfg: QueueConfig,
        extra_fns: u32,
        make_store: impl FnOnce() -> S,
        bind_extra: impl FnOnce(&Binder<'_, SeqShard<T, S>>),
    ) -> Self {
        let world = Arc::clone(rank.world());
        let pmetrics = crate::persist::metrics_for(rank);
        let (owner, hybrid) = (cfg.owner, cfg.hybrid);
        let shared = rank.get_or_create_shared(&format!("hcl.{}.{name}", ops.prefix), move || {
            let fn_base = world.alloc_fn_ids(SEQ_FNS + extra_fns);
            let store = make_store();
            let log = cfg.persist.as_ref().map(|p| {
                ShardLog::open(p, name, owner, pmetrics, world.deadlines(), |rec| {
                    match rec {
                        (TAG_ADD, Some(v)) => store.push(v),
                        (TAG_REMOVE, _) => drop(store.pop()),
                        _ => return false,
                    }
                    true
                })
                .expect("open single-partition op log")
            });
            let shard = Arc::new(SeqShard { owner, store, log });
            let parts = hosted(world.config().world_size(), [(owner, Arc::clone(&shard))]);
            let b = Binder { world: &world, fn_base, parts: &parts, epoch: None };
            b.bind(sfn::PUSH, |s, v: T| s.push(v));
            b.bind(sfn::POP, |s, ()| s.pop());
            b.bind(sfn::PUSH_BULK, |s, vs: Vec<T>| s.push_bulk(vs));
            b.bind(sfn::POP_BULK, |s, max: u64| s.pop_bulk(max));
            b.bind(sfn::LEN, |s, ()| s.read(|q| q.len() as u64));
            b.bind(sfn::SNAPSHOT, |s, ()| s.read(|q| q.snapshot()));
            b.bind(sfn::MIG_EXTRACT, |s, ()| s.extract());
            bind_extra(&b);
            (fn_base, shard)
        });
        let d = Dispatcher::new(rank, shared.0, SEQ_FNS + extra_fns, hybrid);
        SeqContainer { ops, shard: Arc::clone(&shared.1), d }
    }

    /// Attach a shared history recorder: synchronous `push`/`pop` through
    /// this handle are logged as invoke/return pairs for offline
    /// linearizability checking ([`crate::check`]); asynchronous and bulk
    /// variants are not recorded. The sequential priority-queue spec orders
    /// elements by their encoded bytes, so a recorded priority queue should
    /// hold a type whose `DataBox` encoding is order-preserving (e.g.
    /// fixed-width strings).
    #[cfg(feature = "history")]
    pub fn set_recorder(&mut self, rec: crate::HistoryRecorder) {
        self.d.set_recorder(rec);
    }

    /// The hosting rank.
    pub fn owner(&self) -> u32 {
        self.shard.owner
    }

    /// The server-side shard on the hosting rank (tests and diagnostics).
    #[doc(hidden)]
    pub fn shard(&self) -> &SeqShard<T, S> {
        &self.shard
    }

    /// Mark the hosting rank failed: subsequent ops through this handle
    /// degrade immediately with [`HclError::OwnerDown`] instead of issuing
    /// RPCs that cannot be served.
    pub fn mark_down(&self, owner_rank: u32) {
        self.d.mark_down(owner_rank);
    }

    /// Clear a failure mark set by [`SeqContainer::mark_down`].
    pub fn mark_up(&self, owner_rank: u32) {
        self.d.mark_up(owner_rank);
    }

    /// One unscaled op at the owner: handler remotely, `local` on the bypass.
    pub(crate) fn at_owner<R: DataBox>(
        &self,
        op: &'static OpDescriptor,
        local: impl FnOnce(&SeqShard<T, S>) -> R,
    ) -> HclResult<R> {
        self.d.sync(self.d.event(op, self.owner()), IssueMode::Sync, &(), |_| local(&self.shard))
    }

    /// Push one element (Table I: `F + L + W`; `F + L·log(N) + W` on the
    /// priority queue).
    pub fn push(&self, value: T) -> HclResult<bool> {
        let tok = hist_invoke!(self.d, (self.ops.hist.0)(crate::history_enc(&value)));
        let ev = self.d.event(&self.ops.push, self.owner());
        let result = self.d.sync(ev, IssueMode::Sync, value, |v| self.shard.push(v));
        hist_return!(self.d, tok, &result, |acked| crate::DsRet::Pushed(*acked));
        result
    }

    /// Asynchronous push. Remote pushes stage on the rank's op coalescer
    /// and may ride a batched message with neighbouring async ops.
    pub fn push_async(&self, value: T) -> HclResult<HclFuture<bool>> {
        self.d.dispatch_async(&self.ops.push, self.owner(), value, |v| self.shard.push(v))
    }

    /// Pop the front element — the minimum, on the priority queue (Table I:
    /// `F + L + R`).
    pub fn pop(&self) -> HclResult<Option<T>> {
        let tok = hist_invoke!(self.d, self.ops.hist.1.clone());
        let result = self.at_owner(&self.ops.pop, |s| s.pop());
        hist_return!(self.d, tok, &result, |v| crate::DsRet::Popped(
            v.as_ref().map(crate::history_enc)
        ));
        result
    }

    /// Bulk push (Table I: `F + L + E·W`): one aggregated message carries
    /// `E` elements.
    pub fn push_bulk(&self, values: Vec<T>) -> HclResult<u64> {
        let ev = OpEvent { n: values.len() as u64, ..self.d.event(&self.ops.push_bulk, self.owner()) };
        self.d.sync(ev, IssueMode::Bulk { ops: 1 }, values, |vs| self.shard.push_bulk(vs))
    }

    /// Bulk pop of up to `max` elements, in pop order (Table I:
    /// `F + L + E·R`).
    pub fn pop_bulk(&self, max: u64) -> HclResult<Vec<T>> {
        let ev = OpEvent { n: max, ..self.d.event(&self.ops.pop_bulk, self.owner()) };
        self.d.sync(ev, IssueMode::Bulk { ops: 1 }, max, |m| self.shard.pop_bulk(m))
    }

    /// Elements currently held (approximate under concurrency).
    pub fn len(&self) -> HclResult<u64> {
        self.at_owner(&self.ops.len, |s| s.read(|q| q.len() as u64))
    }

    /// True when the container appears empty.
    pub fn is_empty(&self) -> HclResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Clone out the elements in pop order without consuming them.
    pub fn snapshot(&self) -> HclResult<Vec<T>> {
        self.at_owner(&self.ops.snapshot, |s| s.read(|q| q.snapshot()))
    }

    /// Migration seam, extract half: drain *every* element from the hosting
    /// partition in one invocation, in pop order. Pair with
    /// [`SeqContainer::install_bulk`] against a twin hosted elsewhere to
    /// move the shard (the single-partition analogue of the maps'
    /// live-migration extract/install; see [`crate::rebalance`]). Fails —
    /// with nothing moved — when the host cannot compact its op log to the
    /// drained state.
    pub fn extract_all(&self) -> HclResult<Vec<T>> {
        self.at_owner(&self.ops.mig_extract, |s| s.extract())?.map_err(HclError::Persist)
    }

    /// Compact the op log down to a push-per-element snapshot of the live
    /// contents (no-op when persistence is off). Call from the owner rank.
    pub fn compact_log(&self) -> HclResult<()> {
        self.shard.compact_log().map_err(HclError::Persist)
    }

    /// Migration seam, install half: push extracted elements in order.
    pub fn install_bulk(&self, values: Vec<T>) -> HclResult<u64> {
        self.push_bulk(values)
    }

    /// Client-side cost counters.
    pub fn costs(&self) -> CostSnapshot {
        self.d.costs()
    }
}
