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
//! Every operation is one [`Dispatcher`] call against the table in [`ops`];
//! the global views are per-partition fan-outs of the same dispatch calls.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hcl_containers::SkipListMap;
use hcl_databox::DataBox;
use hcl_fabric::EpId;
use hcl_rpc::FnId;
use hcl_runtime::{Membership, PartitionMap, Rank, ShardMove, WorldShared};
use parking_lot::{Mutex, RwLock};

use crate::cost::CostSnapshot;
use crate::dispatch::{hist_invoke, hist_return, Dispatcher, OwnerMap, ReplForwarder};
use crate::persist::{Flusher, OpLog, PersistConfig};
use crate::rebalance::{MigratorRegistry, ShardMigrator};
use crate::{default_servers, HclError, HclFuture, HclResult};

const FN_PUT: u32 = 0;
const FN_GET: u32 = 1;
const FN_ERASE: u32 = 2;
const FN_LEN: u32 = 3;
const FN_FIRST: u32 = 4;
const FN_RANGE: u32 = 5;
const FN_SNAPSHOT: u32 = 6;
const FN_RESIZE: u32 = 7;
const FN_REPL_PUT: u32 = 8;
const FN_REPL_GET: u32 = 9;
const FN_REPL_FLUSH: u32 = 10;
// Live-migration control plane (see [`crate::rebalance`]); mirrors the
// unordered map's fn-id layout and semantics.
const FN_MIG_ARM: u32 = 11;
const FN_MIG_BEGIN: u32 = 12;
const FN_MIG_EXTRACT: u32 = 13;
const FN_MIG_INSTALL: u32 = 14;
const FN_MIG_APPLY: u32 = 15;
const FN_MIG_END: u32 = 16;
const N_FNS: u32 = 17;

/// Table I op descriptors for the ordered map.
mod ops {
    use crate::dispatch::{CostSig, OpClass, OpDescriptor};

    pub const PUT: OpDescriptor = OpDescriptor {
        name: "omap.put",
        class: OpClass::Write,
        fn_off: super::FN_PUT,
        cost: CostSig::lrw(1, 0, 1),
        idempotent: false,
        degradable: true,
    };
    pub const GET: OpDescriptor = OpDescriptor {
        name: "omap.get",
        class: OpClass::Read,
        fn_off: super::FN_GET,
        cost: CostSig::lrw(1, 1, 0),
        idempotent: true,
        degradable: true,
    };
    pub const ERASE: OpDescriptor = OpDescriptor {
        name: "omap.erase",
        class: OpClass::Write,
        fn_off: super::FN_ERASE,
        cost: CostSig::lrw(1, 0, 1),
        idempotent: false,
        degradable: true,
    };
    pub const LEN: OpDescriptor = OpDescriptor {
        name: "omap.len",
        class: OpClass::Admin,
        fn_off: super::FN_LEN,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const FIRST: OpDescriptor = OpDescriptor {
        name: "omap.first",
        class: OpClass::Read,
        fn_off: super::FN_FIRST,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const RANGE: OpDescriptor = OpDescriptor {
        name: "omap.range",
        class: OpClass::Read,
        fn_off: super::FN_RANGE,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const SNAPSHOT: OpDescriptor = OpDescriptor {
        name: "omap.snapshot",
        class: OpClass::Admin,
        fn_off: super::FN_SNAPSHOT,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const RESIZE: OpDescriptor = OpDescriptor {
        name: "omap.resize",
        class: OpClass::Admin,
        fn_off: super::FN_RESIZE,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    // Replica ops are non-degradable: they are the failover path, so they
    // must still reach hosts that back marked-down owners (mirrors the
    // unordered map's descriptors).
    pub const REPL_GET: OpDescriptor = OpDescriptor {
        name: "omap.repl_get",
        class: OpClass::Read,
        fn_off: super::FN_REPL_GET,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: false,
    };
    pub const REPL_FLUSH: OpDescriptor = OpDescriptor {
        name: "omap.repl_flush",
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
        name: "omap.mig_arm",
        class: OpClass::Admin,
        fn_off: super::FN_MIG_ARM,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const MIG_BEGIN: OpDescriptor = OpDescriptor {
        name: "omap.mig_begin",
        class: OpClass::Admin,
        fn_off: super::FN_MIG_BEGIN,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const MIG_EXTRACT: OpDescriptor = OpDescriptor {
        name: "omap.mig_extract",
        class: OpClass::Admin,
        fn_off: super::FN_MIG_EXTRACT,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const MIG_INSTALL: OpDescriptor = OpDescriptor {
        name: "omap.mig_install",
        class: OpClass::Write,
        fn_off: super::FN_MIG_INSTALL,
        cost: CostSig::lrw(1, 0, 1),
        idempotent: true,
        degradable: true,
    };
    pub const MIG_END: OpDescriptor = OpDescriptor {
        name: "omap.mig_end",
        class: OpClass::Admin,
        fn_off: super::FN_MIG_END,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
}

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

/// On-log record of one ordered-map mutation: `(0, k, Some(v))` = put,
/// `(1, k, None)` = erase.
type LogRec<K, V> = (u8, K, Option<V>);

/// Server-side state of one ordered partition.
struct Part<K, V>
where
    K: DataBox + Ord + Hash + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    index: usize,
    /// The rank hosting this part (the key of `Core::parts`).
    home: u32,
    map: SkipListMap<K, V>,
    /// Entries replicated *to* this partition from others.
    replica: SkipListMap<K, V>,
    log: Option<OpLog<LogRec<K, V>>>,
    /// Recovery-descriptor sequence for mutations applied outside an RPC
    /// worker (the hybrid local bypass); see [`crate::persist::op_identity`].
    local_seq: AtomicU64,
    repl: ReplForwarder,
    world: Arc<WorldShared>,
    fn_base: FnId,
    servers: Vec<u32>,
    replicas: usize,
    /// The world's membership view — `Some` for elastic containers (no
    /// explicit `servers`), whose shards can move between ranks.
    membership: Option<Arc<Membership>>,
    /// Old-owner side of live migration: vparts in a write-forwarding
    /// window, mapped to their new owner.
    forwarding: RwLock<HashMap<usize, u32>>,
    /// New-owner side: keys erased by a forwarded write during the window.
    tombstones: Mutex<HashSet<K>>,
    /// New-owner side: keys the migration wrote during the window (also the
    /// window's write lock — installs and forwarded applies serialize on it
    /// because the skiplist has no atomic insert-if-absent).
    installed: Mutex<Vec<K>>,
}

impl<K, V> Part<K, V>
where
    K: DataBox + Ord + Hash + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    /// Log one mutation with its dispatch op index and recovery descriptor.
    fn log_op(&self, rec: &LogRec<K, V>, fn_off: u32) {
        if let Some(log) = &self.log {
            let ident = crate::persist::op_identity(self.home, &self.local_seq);
            log.log_mutation(rec, fn_off as u16, ident);
        }
    }

    /// The strict read barrier: run `read` against the live structure and
    /// hand its result back only under the barrier of whatever logged
    /// mutation it may reflect (see [`OpLog::read_fence`]).
    fn read<R>(&self, read: impl FnOnce(&SkipListMap<K, V>) -> R) -> R {
        let out = read(&self.map);
        if let Some(log) = &self.log {
            log.read_fence();
        }
        out
    }

    fn apply_put(&self, key: K, value: V) -> bool {
        self.log_op(&(0, key.clone(), Some(value.clone())), FN_PUT);
        let newly = self.map.insert(key.clone(), value.clone()).is_none();
        self.forward_migration(&key, Some(&value));
        if self.replicas > 0 {
            self.replicate((key, Some(value)));
        }
        newly
    }

    fn apply_erase(&self, key: &K) -> Option<V> {
        self.log_op(&(1, key.clone(), None), FN_ERASE);
        let prev = self.map.remove(key);
        self.forward_migration(key, None);
        if self.replicas > 0 {
            self.replicate((key.clone(), None::<V>));
        }
        prev
    }

    /// Forward a mutation asynchronously to the next `replicas` partitions
    /// (§III-A4), via the engine's [`ReplForwarder`].
    fn replicate(&self, args: (K, Option<V>)) {
        self.repl.forward(
            &self.world,
            self.index,
            &self.servers,
            self.replicas,
            self.fn_base + FN_REPL_PUT,
            &args.to_bytes(),
        );
    }

    fn flush_replication(&self) {
        self.repl.flush();
    }

    /// The virtual partition `key` hashes into (`usize::MAX` for pinned
    /// parts, which never match a window).
    fn vpart_of(&self, key: &K) -> usize {
        self.membership
            .as_ref()
            .map_or(usize::MAX, |m| m.current().vpart_of_hash(crate::stable_hash(key)))
    }

    /// Old-owner side of the write-forwarding window (see the unordered
    /// map's twin for the full race matrix).
    /// See the unordered map's `forward_migration`: dual-apply at the new
    /// owner during the window, and — because the hybrid bypass is not
    /// epoch-gated — also when this part no longer owns the key's vpart
    /// (a bypass that raced the commit), so the write is never stranded.
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

    /// New-owner side: clear window bookkeeping left by an aborted attempt.
    fn mig_arm(&self, vpart: usize) {
        self.tombstones.lock().retain(|k| self.vpart_of(k) != vpart);
        self.installed.lock().retain(|k| self.vpart_of(k) != vpart);
    }

    /// Old-owner side: open the forwarding window for `vpart` toward `to`.
    fn mig_begin(&self, vpart: usize, to: u32) {
        self.forwarding.write().insert(vpart, to);
    }

    /// Old-owner side: copy (do not remove) every entry of `vpart`.
    fn mig_extract(&self, vpart: usize) -> Vec<(K, V)> {
        self.read(|m| m.iter_snapshot())
            .into_iter()
            .filter(|(k, _)| self.vpart_of(k) == vpart)
            .collect()
    }

    /// New-owner side: install one copied entry — insert-if-absent under
    /// the window lock, so a fresher forwarded put is never overwritten by
    /// the older copy and tombstoned keys stay dead.
    fn mig_install(&self, key: K, value: V) -> bool {
        let mut installed = self.installed.lock();
        if self.tombstones.lock().contains(&key) {
            return false;
        }
        if self.map.get(&key).is_some() {
            return false;
        }
        // Durability follows the shard: the install is logged at its new
        // owner under the delivering RPC's identity.
        self.log_op(&(0, key.clone(), Some(value.clone())), FN_MIG_INSTALL);
        self.map.insert(key.clone(), value);
        installed.push(key);
        true
    }

    /// New-owner side: apply one forwarded write (fresher than any copy).
    fn mig_apply(&self, key: K, value: Option<V>) {
        let mut installed = self.installed.lock();
        match value {
            Some(v) => {
                self.log_op(&(0, key.clone(), Some(v.clone())), FN_MIG_APPLY);
                self.tombstones.lock().remove(&key);
                self.map.insert(key.clone(), v);
                installed.push(key);
            }
            None => {
                self.log_op(&(1, key.clone(), None), FN_MIG_APPLY);
                self.map.remove(&key);
                self.tombstones.lock().insert(key);
            }
        }
    }

    /// Close the window for `vpart` (same contract as the unordered twin).
    fn mig_end(&self, vpart: usize, committed: bool, source: bool) {
        if source {
            self.forwarding.write().remove(&vpart);
            if committed {
                self.repl.flush();
                for (k, _) in self.map.iter_snapshot() {
                    if self.vpart_of(&k) == vpart {
                        self.map.remove(&k);
                    }
                }
                // Compact the log down to the post-purge contents so a
                // crash-restart never resurrects keys that migrated away.
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
        }
    }
}

struct Core<K, V>
where
    K: DataBox + Ord + Hash + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    fn_base: FnId,
    servers: Vec<u32>,
    /// Static replica ring over `servers`; doubles as the owner map for
    /// pinned containers (bit-identical to `servers[hash % len]`).
    repl_map: Arc<PartitionMap>,
    parts: HashMap<u32, Arc<Part<K, V>>>,
    cfg: OrderedConfig,
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
    K: DataBox + Ord + Hash + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    let reg = world.registry();
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_PUT, move |server: EpId, _, (k, v): (K, V)| {
        p[&server.rank].apply_put(k, v)
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_GET, move |server: EpId, _, k: K| {
        p[&server.rank].read(|m| m.get(&k))
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_ERASE, move |server: EpId, _, k: K| {
        p[&server.rank].apply_erase(&k)
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_LEN, move |server: EpId, _, ()| {
        p[&server.rank].read(|m| m.len() as u64)
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_FIRST, move |server: EpId, _, ()| {
        p[&server.rank].read(|m| m.first())
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_RANGE, move |server: EpId, _, (lo, hi): (K, K)| {
        p[&server.rank].read(|m| m.range_snapshot(&lo, &hi))
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_SNAPSHOT, move |server: EpId, _, ()| {
        p[&server.rank].read(|m| m.iter_snapshot())
    });
    // Skiplist partitions grow node-by-node; the paper's realloc-style
    // resize is satisfied trivially, but the surface is kept for parity.
    reg.bind_typed(fn_base + FN_RESIZE, move |_: EpId, _, _new_size: u64| true);
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
}

/// A distributed ordered map.
pub struct OrderedMap<'a, K, V>
where
    K: DataBox + Ord + Hash + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    core: Arc<Core<K, V>>,
    d: Dispatcher<'a>,
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
        let core = rank.get_or_create_shared(&format!("hcl.omap.{name}"), move || {
            // Elastic (no explicit `servers`): every rank hosts a Part so
            // any rank can be admitted as an owner later. Pinned: exactly
            // the historical static placement.
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
                let leader = servers.iter().position(|&s| s == owner);
                let map = SkipListMap::new();
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
                        replica: SkipListMap::new(),
                        log,
                        local_seq: AtomicU64::new(0),
                        repl: ReplForwarder::new(owner),
                        world: Arc::clone(&world),
                        fn_base,
                        servers: servers.clone(),
                        replicas: if leader.is_some() { cfg2.replicas } else { 0 },
                        membership: elastic.then(|| Arc::clone(world.membership())),
                        forwarding: RwLock::new(HashMap::new()),
                        tombstones: Mutex::new(HashSet::new()),
                        installed: Mutex::new(Vec::new()),
                    }),
                );
            }
            bind_handlers(&world, fn_base, &parts);
            if elastic {
                let cell = world.membership().epoch_cell();
                world
                    .registry()
                    .set_epoch_gate(fn_base, N_FNS, move || cell.load(Ordering::Acquire));
            }
            Core { fn_base, servers, repl_map, parts, cfg: cfg2, flusher }
        });
        let mut d = Dispatcher::new(rank, "omap", core.fn_base, core.cfg.hybrid);
        if core.cfg.servers.is_some() {
            d.set_owner_map(OwnerMap::Pinned(Arc::clone(&core.repl_map)));
        } else {
            // Registered outside the create closure — `get_or_create_shared`
            // holds the objects lock, and `MigratorRegistry::shared` needs
            // it too.
            MigratorRegistry::shared(rank).register_once(
                &format!("omap:{name}"),
                Arc::new(OmapMigrator { core: Arc::clone(&core) }),
            );
        }
        OrderedMap { core, d }
    }

    /// Attach a shared history recorder: every synchronous `put`/`get`/
    /// `erase` through this handle is logged as an invoke/return pair for
    /// offline linearizability checking ([`crate::check`]). Asynchronous
    /// variants and range scans are not recorded.
    #[cfg(feature = "history")]
    pub fn set_recorder(&mut self, rec: crate::HistoryRecorder) {
        self.d.set_recorder(rec);
    }

    /// Which partition (member index in the current ownership map) owns
    /// `key`.
    pub fn partition_of(&self, key: &K) -> usize {
        self.d.member_index_for(crate::stable_hash(key))
    }

    /// Number of partitions (owning members of the current map).
    pub fn partitions(&self) -> usize {
        self.d.owner_map().current().members().len()
    }

    /// Current owner of a key hash — a snapshot for async paths; keyed sync
    /// ops resolve inside the dispatcher so `WrongEpoch` re-routes.
    fn owner_now(&self, hash: u64) -> u32 {
        self.d.resolve(hash).0
    }

    /// Mark a partition-owner rank failed: subsequent ops targeting it
    /// degrade immediately with [`crate::HclError::OwnerDown`].
    pub fn mark_down(&self, owner_rank: u32) {
        self.d.mark_down(owner_rank);
    }

    /// Clear a failure mark set by [`OrderedMap::mark_down`].
    pub fn mark_up(&self, owner_rank: u32) {
        self.d.mark_up(owner_rank);
    }

    /// Insert (Table I: `F + L·log(N) + W`); `true` when newly inserted.
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

    /// Asynchronous insert. Remote inserts stage on the rank's op coalescer
    /// and may ride a batched message with neighbouring async ops.
    pub fn put_async(&self, key: K, value: V) -> HclResult<HclFuture<bool>> {
        let owner = self.owner_now(crate::stable_hash(&key));
        self.d.dispatch_async(&ops::PUT, owner, (key, value), |(k, v)| {
            self.core.parts[&owner].apply_put(k, v)
        })
    }

    /// Look up (Table I: `F + L·log(N) + R`). Falls back to a replica when
    /// the owner has been marked down (requires `replicas >= 1`) — the same
    /// degraded-read contract as the unordered map.
    pub fn get(&self, key: &K) -> HclResult<Option<V>> {
        let tok = hist_invoke!(self.d, crate::DsOp::MapGet { key: crate::history_enc(key) });
        let hash = crate::stable_hash(key);
        let owner = self.owner_now(hash);
        // Without replicas there is nowhere to degrade to: dispatch normally
        // so the gate rejects the downed owner with `OwnerDown` immediately.
        let result = if self.d.is_down(owner) && self.core.cfg.replicas >= 1 {
            self.get_from_replica(hash, key)
        } else {
            self.d.sync_keyed_ref(&ops::GET, hash, key, |owner| {
                self.core.parts[&owner].read(|m| m.get(key))
            })
        };
        hist_return!(self.d, tok, &result, |v| crate::DsRet::Value(
            v.as_ref().map(crate::history_enc)
        ));
        result
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

    /// Remove `key`.
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

    /// Total entries.
    pub fn len(&self) -> HclResult<u64> {
        let map = self.d.owner_map().current();
        let mut total = 0;
        for &owner in map.members() {
            total += self.d.sync_ref(&ops::LEN, owner, &(), || {
                self.core.parts[&owner].read(|m| m.len() as u64)
            })?;
        }
        Ok(total)
    }

    /// True when empty.
    pub fn is_empty(&self) -> HclResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Global minimum entry: the minimum of every partition's first.
    pub fn first(&self) -> HclResult<Option<(K, V)>> {
        let map = self.d.owner_map().current();
        let mut best: Option<(K, V)> = None;
        for &owner in map.members() {
            let cand: Option<(K, V)> =
                self.d.sync_ref(&ops::FIRST, owner, &(), || {
                    self.core.parts[&owner].read(|m| m.first())
                })?;
            if let Some((k, v)) = cand {
                if best.as_ref().is_none_or(|(bk, _)| k < *bk) {
                    best = Some((k, v));
                }
            }
        }
        Ok(best)
    }

    /// All entries with keys in `[lo, hi)`, globally sorted.
    pub fn range(&self, lo: &K, hi: &K) -> HclResult<Vec<(K, V)>> {
        let map = self.d.owner_map().current();
        let args = (lo.clone(), hi.clone());
        let mut out = Vec::new();
        for &owner in map.members() {
            let part: Vec<(K, V)> = self.d.sync_ref(&ops::RANGE, owner, &args, || {
                self.core.parts[&owner].read(|m| m.range_snapshot(lo, hi))
            })?;
            out.extend(part);
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Every entry, globally sorted (merging the per-partition orders).
    pub fn snapshot_sorted(&self) -> HclResult<Vec<(K, V)>> {
        let map = self.d.owner_map().current();
        let mut out = Vec::new();
        for &owner in map.members() {
            let part: Vec<(K, V)> = self.d.sync_ref(&ops::SNAPSHOT, owner, &(), || {
                self.core.parts[&owner].read(|m| m.iter_snapshot())
            })?;
            out.extend(part);
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Partition resize surface (Table I parity; skiplist partitions grow
    /// node-by-node so this is trivially satisfied).
    pub fn resize(&self, partition_id: usize, new_size: usize) -> HclResult<bool> {
        let map = self.d.owner_map().current();
        let owner = *map
            .members()
            .get(partition_id)
            .ok_or(HclError::BadPartition(partition_id))?;
        self.d.sync_ref(&ops::RESIZE, owner, &(new_size as u64), || true)
    }

    /// Persist a globally sorted snapshot of the whole map to `path`
    /// (§III-C6 durability for ordered structures).
    pub fn persist_snapshot(&self, path: impl AsRef<std::path::Path>) -> HclResult<()> {
        let snap = self.snapshot_sorted()?;
        std::fs::write(path, &snap.to_bytes())
            .map_err(|e| crate::HclError::Persist(e.to_string()))
    }

    /// Reload a snapshot written by [`OrderedMap::persist_snapshot`],
    /// re-inserting every entry (keys re-distribute over the current
    /// partitions). Returns the number of restored entries.
    pub fn restore_snapshot(&self, path: impl AsRef<std::path::Path>) -> HclResult<u64> {
        let bytes =
            std::fs::read(path).map_err(|e| crate::HclError::Persist(e.to_string()))?;
        let snap: Vec<(K, V)> = hcl_databox::DataBox::from_bytes(&bytes)
            .map_err(|e| crate::HclError::Persist(e.to_string()))?;
        let n = snap.len() as u64;
        for (k, v) in snap {
            self.put(k, v)?;
        }
        Ok(n)
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

    /// Client-side cost counters.
    pub fn costs(&self) -> CostSnapshot {
        self.d.costs()
    }
}

/// Live-migration adapter for one elastic [`OrderedMap`] instance (the
/// ordered twin of the unordered map's adapter — same five-phase window).
struct OmapMigrator<K, V>
where
    K: DataBox + Ord + Hash + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    core: Arc<Core<K, V>>,
}

impl<K, V> ShardMigrator for OmapMigrator<K, V>
where
    K: DataBox + Ord + Hash + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    fn name(&self) -> &str {
        "omap"
    }

    fn begin(&self, rank: &Rank, mv: &ShardMove) -> HclResult<()> {
        let d = Dispatcher::new(rank, "omap", self.core.fn_base, self.core.cfg.hybrid);
        let vp = mv.vpart as u64;
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
        let d = Dispatcher::new(rank, "omap", self.core.fn_base, self.core.cfg.hybrid);
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
        let d = Dispatcher::new(rank, "omap", self.core.fn_base, self.core.cfg.hybrid);
        let vp = mv.vpart as u64;
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
