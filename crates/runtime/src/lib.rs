//! # hcl-runtime — the SPMD substrate (MPI-rank model) for the HCL
//! reproduction
//!
//! The paper runs every experiment as an MPI program: `R` ranks spread over
//! `N` nodes (Ares: 40 ranks/node, up to 64 nodes). This crate provides that
//! execution model with **threads as ranks**:
//!
//! * [`World::run`] spawns one OS thread per rank and hands each a [`Rank`]
//!   handle carrying its identity, an RPC client stub, and the shared
//!   fabric;
//! * every rank also *hosts* an RPC server (HCL's "one or more processes in
//!   the node can create a shared memory segment that other processes ...
//!   can read and write to by invoking functions", §III);
//! * node-locality is modeled by the `node` component of [`EpId`]: ranks on
//!   the same node may share state directly (that *is* the shared-memory
//!   segment of a real deployment), ranks on different nodes must go through
//!   the fabric;
//! * collectives (barrier / broadcast / allgather / allreduce) are provided
//!   for test/benchmark orchestration.
//!
//! The object store ([`Rank::get_or_create_shared`]) is how containers
//! materialize their per-node partitions: the first rank of a node creates
//! the partition, every other rank of that node attaches to it — mirroring
//! `shm_open`+attach in the C++ original.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use hcl_databox::DataBox;
use hcl_fabric::memory::MemoryFabric;
use hcl_fabric::tcp::TcpFabric;
use hcl_fabric::{EpId, Fabric, LatencyModel, TrafficSnapshot};
use hcl_rpc::client::RpcClient;
use hcl_rpc::coalesce::{CoalesceConfig, CoalesceSnapshot, CoalescedFuture, Coalescer};
use hcl_rpc::deadline::{DeadlineThread, Deadlines};
use hcl_rpc::server::{RpcServer, ServerConfig, ServerStatsSnapshot};
use hcl_rpc::{FnId, RetryPolicy, RpcRegistry, RpcResult};
use hcl_telemetry::{CoalesceMetrics, RpcMetrics, Telemetry, TelemetryConfig, TelemetrySnapshot};
use parking_lot::{Condvar, Mutex};

pub mod membership;

pub use membership::{
    Membership, MembershipCounters, MembershipSnapshot, PartitionMap, ShardMove, Transition,
    DEFAULT_VPARTS_PER_MEMBER,
};

/// Environment variable naming a directory where each rank writes its
/// `telemetry-rank<N>.json` snapshot when its SPMD closure returns.
pub const TELEMETRY_DIR_ENV: &str = "HCL_TELEMETRY_DIR";

/// Which fabric provider a world runs on.
#[derive(Debug, Clone, Copy)]
pub enum FabricKind {
    /// In-process provider (optionally with injected latency).
    Memory(LatencyModel),
    /// Loopback-TCP provider with agent threads as NICs.
    Tcp,
}

/// World configuration.
#[derive(Debug, Clone, Copy)]
pub struct WorldConfig {
    /// Number of (emulated) nodes.
    pub nodes: u32,
    /// Ranks per node.
    pub ranks_per_node: u32,
    /// Fabric provider.
    pub fabric: FabricKind,
    /// Response-slot capacity for the RoR servers.
    pub slot_cap: usize,
    /// NIC cores (worker threads) per rank's server.
    pub nic_cores: usize,
    /// Retry policy installed on every rank's RPC client.
    /// [`RetryPolicy::none`] (the default) keeps single-attempt semantics.
    pub retry: RetryPolicy,
    /// Op-coalescing policy for every rank's async submission path.
    pub coalesce: CoalesceConfig,
    /// Telemetry policy: per-rank metrics registry + flight recorder.
    pub telemetry: TelemetryConfig,
    /// Virtual partitions per membership member (the ownership map's
    /// granularity; see [`membership::Membership`]).
    pub vparts_per_member: u32,
}

impl WorldConfig {
    /// A small default world: 2 nodes × 2 ranks over the memory fabric.
    pub fn small() -> Self {
        WorldConfig {
            nodes: 2,
            ranks_per_node: 2,
            fabric: FabricKind::Memory(LatencyModel::NONE),
            slot_cap: hcl_rpc::DEFAULT_SLOT_CAP,
            nic_cores: 1,
            retry: RetryPolicy::none(),
            coalesce: CoalesceConfig::default(),
            telemetry: TelemetryConfig::default(),
            vparts_per_member: DEFAULT_VPARTS_PER_MEMBER,
        }
    }

    /// Total number of ranks.
    pub fn world_size(&self) -> u32 {
        self.nodes * self.ranks_per_node
    }

    /// The endpoint of a global rank id.
    pub fn ep_of(&self, rank: u32) -> EpId {
        EpId { node: rank / self.ranks_per_node, rank }
    }
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// Client-side registry of partition owners marked as failed.
///
/// Marks are a *local simulation* of owner failure: the dispatch engine
/// consults this before issuing any operation, so a marked-down owner
/// produces an immediate typed error (graceful degradation) instead of an
/// RPC that would hang or time out.
#[derive(Debug, Default)]
pub struct DownedRegistry {
    /// Fast path: number of currently marked ranks. Zero (the overwhelmingly
    /// common case) means `is_down` never takes the lock.
    marked: AtomicU32,
    set: Mutex<std::collections::HashSet<u32>>,
    /// Ownership-coherence epoch: bumped on every effective down/up
    /// transition. Client-side lease caches snapshot it at grant time and
    /// treat any change as wholesale invalidation — a lease must never
    /// survive an ownership change it did not witness. When built with
    /// [`DownedRegistry::with_epoch_cell`], this is the world's *unified*
    /// epoch cell ([`Membership::epoch_cell`]) — membership commits and
    /// down/up marks then move one number.
    epoch: Arc<AtomicU64>,
}

impl DownedRegistry {
    /// An empty registry (nothing marked down) with a private epoch cell —
    /// standalone use; dispatchers use [`DownedRegistry::with_epoch_cell`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry sharing `cell` as its epoch: every effective
    /// down/up transition bumps the same counter that membership commits
    /// bump, so clients watch one unified ownership epoch.
    pub fn with_epoch_cell(cell: Arc<AtomicU64>) -> Self {
        DownedRegistry { epoch: cell, ..Self::default() }
    }

    /// Mark `rank` as failed.
    pub fn mark_down(&self, rank: u32) {
        if self.set.lock().insert(rank) {
            // ORDERING: Relaxed — the count is a fast-path hint; the set
            // mutex (still held here) is the source of truth.
            self.marked.fetch_add(1, Ordering::Relaxed);
            // ORDERING: Release pairs with the Acquire in `epoch()`: a
            // reader that observes the new epoch also observes the mark.
            self.epoch.fetch_add(1, Ordering::Release);
        }
    }

    /// Clear a failure mark.
    pub fn mark_up(&self, rank: u32) {
        if self.set.lock().remove(&rank) {
            // ORDERING: Relaxed — see mark_down.
            self.marked.fetch_sub(1, Ordering::Relaxed);
            // ORDERING: Release — see mark_down.
            self.epoch.fetch_add(1, Ordering::Release);
        }
    }

    /// The current ownership epoch (see the `epoch` field).
    #[inline]
    pub fn epoch(&self) -> u64 {
        // ORDERING: Acquire pairs with the Release bumps in mark_down/up.
        self.epoch.load(Ordering::Acquire)
    }

    /// True when `rank` is currently marked down.
    #[inline]
    pub fn is_down(&self, rank: u32) -> bool {
        if self.marked.load(Ordering::Relaxed) == 0 {
            return false;
        }
        self.set.lock().contains(&rank)
    }

    /// True when any rank is marked down.
    pub fn any_down(&self) -> bool {
        self.marked.load(Ordering::Relaxed) > 0
    }
}

/// The world's rank barrier. Unlike `std::sync::Barrier` it can be
/// poisoned: when a rank thread panics, every rank waiting at the barrier,
/// or arriving at it later, panics naming that rank instead of waiting
/// forever for it.
struct RankBarrier {
    ranks: usize,
    /// `(ranks arrived this round, round, first rank that panicked)`.
    state: Mutex<(usize, u64, Option<u32>)>,
    round_done: Condvar,
}

impl RankBarrier {
    fn wait(&self) {
        let mut s = self.state.lock();
        let round = s.1;
        s.0 += 1;
        if s.0 == self.ranks {
            *s = (0, round + 1, s.2);
            self.round_done.notify_all();
        }
        while s.1 == round {
            if let Some(failed) = s.2 {
                panic!("rank {failed} panicked, so this barrier can never complete");
            }
            self.round_done.wait(&mut s);
        }
    }

    fn poison(&self, rank: u32) {
        self.state.lock().2.get_or_insert(rank);
        self.round_done.notify_all();
    }
}

/// Poisons the world's barrier when its rank thread unwinds.
struct PoisonOnPanic(Arc<WorldShared>, u32);

impl Drop for PoisonOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.collectives.barrier.poison(self.1);
        }
    }
}

struct Collectives {
    barrier: RankBarrier,
    slots: Mutex<Vec<Option<Box<dyn Any + Send>>>>,
}

/// State shared by all ranks of a world.
pub struct WorldShared {
    cfg: WorldConfig,
    fabric: Arc<dyn Fabric>,
    registry: Arc<RpcRegistry>,
    collectives: Collectives,
    objects: Mutex<HashMap<String, Arc<dyn Any + Send + Sync>>>,
    next_fn_id: AtomicU32,
    /// The world's one timer thread: coalescer age flushes and relaxed-log
    /// flush gaps are deadlines on it. Started on first use (by the first
    /// rank to start), so it runs where the rank threads were placed. It is
    /// declared before `servers` so that its final pass, on drop, still
    /// reaches them.
    deadline_thread: OnceLock<DeadlineThread>,
    servers: Mutex<Vec<RpcServer>>,
    membership: Arc<Membership>,
    /// Per rank, the client its shards forward writes through
    /// ([`WorldShared::forward_client`]).
    forward_clients: Vec<OnceLock<RpcClient>>,
}

impl WorldShared {
    /// World configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    /// The shared fabric.
    pub fn fabric(&self) -> &Arc<dyn Fabric> {
        &self.fabric
    }

    /// The shared invocation registry (all servers of the world dispatch
    /// from it; handlers receive the server endpoint to select partition
    /// state).
    pub fn registry(&self) -> &Arc<RpcRegistry> {
        &self.registry
    }

    /// Allocate a contiguous range of `n` fresh function ids.
    pub fn alloc_fn_ids(&self, n: u32) -> FnId {
        self.next_fn_id.fetch_add(n, Ordering::Relaxed)
    }

    /// Aggregate server-side profiling counters across all rank servers.
    pub fn server_stats(&self) -> ServerStatsSnapshot {
        let servers = self.servers.lock();
        let mut out = ServerStatsSnapshot::default();
        for s in servers.iter() {
            let st = s.stats();
            out.requests += st.requests;
            out.busy_ns += st.busy_ns;
            out.overflow_responses += st.overflow_responses;
            out.deduped += st.deduped;
            out.wrong_epoch += st.wrong_epoch;
            out.ack_failures += st.ack_failures;
            out.malformed += st.malformed;
        }
        out
    }

    /// Total bytes currently held by all response buffers.
    pub fn response_buffer_bytes(&self) -> usize {
        self.servers.lock().iter().map(|s| s.response_buffer_bytes()).sum()
    }

    /// Fabric traffic counters.
    pub fn traffic(&self) -> TrafficSnapshot {
        self.fabric.stats()
    }

    /// The world's membership view: the epoch-versioned partition map plus
    /// the unified ownership-epoch cell. Initial members are the node-leader
    /// ranks (one per node).
    pub fn membership(&self) -> &Arc<Membership> {
        &self.membership
    }

    /// Where the world's timed duties are armed ([`hcl_rpc::deadline`]).
    pub fn deadlines(&self) -> &Arc<Deadlines> {
        self.deadline_thread.get_or_init(DeadlineThread::spawn).deadlines()
    }

    /// The client through which every shard hosted on rank `home` forwards
    /// its migration writes, created on first use at the auxiliary
    /// endpoint `world_size + home` (the servers reserve slots for one such
    /// client per rank). There is one per rank because the servers track
    /// request ids per calling endpoint: two clients numbering from 1 at
    /// one endpoint would reuse ids whose replies count as published.
    pub fn forward_client(&self, home: u32) -> &RpcClient {
        self.forward_clients[home as usize].get_or_init(|| {
            let cfg = &self.cfg;
            let ep = EpId { node: home / cfg.ranks_per_node, rank: cfg.world_size() + home };
            RpcClient::new(ep, Arc::clone(&self.fabric), cfg.slot_cap)
        })
    }
}

/// Handle given to each rank's closure.
pub struct Rank {
    id: u32,
    world: Arc<WorldShared>,
    client: Arc<RpcClient>,
    coalescer: Arc<Coalescer>,
    telemetry: Arc<Telemetry>,
}

impl Rank {
    /// Global rank id (0-based, dense).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Node this rank lives on.
    pub fn node(&self) -> u32 {
        self.id / self.world.cfg.ranks_per_node
    }

    /// This rank's endpoint.
    pub fn ep(&self) -> EpId {
        self.world.cfg.ep_of(self.id)
    }

    /// Total ranks in the world.
    pub fn world_size(&self) -> u32 {
        self.world.cfg.world_size()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.world.cfg.nodes
    }

    /// Ranks per node.
    pub fn ranks_per_node(&self) -> u32 {
        self.world.cfg.ranks_per_node
    }

    /// True when `other_rank` is on this rank's node (the hybrid access
    /// model's test).
    pub fn same_node(&self, other_rank: u32) -> bool {
        self.node() == other_rank / self.world.cfg.ranks_per_node
    }

    /// The RPC client stub for this rank.
    pub fn client(&self) -> &RpcClient {
        &self.client
    }

    /// This rank's op coalescer (async container ops stage through it).
    pub fn coalescer(&self) -> &Arc<Coalescer> {
        &self.coalescer
    }

    /// Coalescer counter snapshot for this rank.
    pub fn coalesce_stats(&self) -> CoalesceSnapshot {
        self.coalescer.stats()
    }

    /// This rank's telemetry (metrics registry + flight recorder).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Full telemetry snapshot for this rank, with the externally-maintained
    /// counters — coalescer, server dedup, fabric traffic, chaos faults —
    /// folded in as gauges so one export carries the whole picture. (Server
    /// and fabric numbers are world-wide aggregates; they repeat identically
    /// in every rank's snapshot.)
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let reg = self.telemetry.registry();
        let c = self.coalescer.stats();
        reg.gauge("hcl_rpc_coalesce_batches").set(c.batches);
        reg.gauge("hcl_rpc_coalesce_ops").set(c.coalesced_ops);
        reg.gauge("hcl_rpc_coalesce_size_flushes").set(c.size_flushes);
        reg.gauge("hcl_rpc_coalesce_age_flushes").set(c.age_flushes);
        reg.gauge("hcl_rpc_coalesce_demand_flushes").set(c.demand_flushes);
        let s = self.world.server_stats();
        reg.gauge("hcl_rpc_server_requests").set(s.requests);
        reg.gauge("hcl_rpc_server_deduped").set(s.deduped);
        reg.gauge("hcl_rpc_server_overflow_responses").set(s.overflow_responses);
        reg.gauge("hcl_rpc_server_wrong_epoch").set(s.wrong_epoch);
        reg.gauge("hcl_rpc_server_ack_failures").set(s.ack_failures);
        reg.gauge("hcl_rpc_server_malformed").set(s.malformed);
        let m = self.world.membership.snapshot();
        reg.gauge("hcl_runtime_membership_epoch").set(m.epoch);
        reg.gauge("hcl_runtime_membership_generation").set(m.generation);
        reg.gauge("hcl_runtime_membership_members").set(m.members);
        reg.gauge("hcl_runtime_membership_vparts").set(m.vparts);
        reg.gauge("hcl_runtime_membership_commits").set(m.commits);
        reg.gauge("hcl_runtime_membership_migrated_keys").set(m.migrated_keys);
        reg.gauge("hcl_runtime_membership_migrated_bytes").set(m.migrated_bytes);
        reg.gauge("hcl_runtime_membership_wrong_epoch_rejects").set(m.wrong_epoch_rejects);
        reg.gauge("hcl_runtime_membership_forwarded_writes").set(m.forwarded_writes);
        reg.gauge("hcl_runtime_membership_forward_failures").set(m.forward_failures);
        let t = self.world.traffic();
        reg.gauge("hcl_fabric_sends").set(t.sends);
        reg.gauge("hcl_fabric_send_bytes").set(t.send_bytes);
        reg.gauge("hcl_fabric_reads").set(t.reads);
        reg.gauge("hcl_fabric_read_bytes").set(t.read_bytes);
        reg.gauge("hcl_fabric_writes").set(t.writes);
        reg.gauge("hcl_fabric_write_bytes").set(t.write_bytes);
        reg.gauge("hcl_fabric_intra_node_ops").set(t.intra_node_ops);
        reg.gauge("hcl_fabric_inter_node_ops").set(t.inter_node_ops);
        if let Some(f) = self.world.fabric.fault_stats() {
            reg.gauge("hcl_fabric_chaos_drops").set(f.drops);
            reg.gauge("hcl_fabric_chaos_duplicates").set(f.duplicates);
            reg.gauge("hcl_fabric_chaos_injected_errors").set(f.injected_errors);
            reg.gauge("hcl_fabric_chaos_delayed_ops").set(f.delayed_ops);
            reg.gauge("hcl_fabric_chaos_slowed_ops").set(f.slowed_ops);
        }
        self.telemetry.snapshot()
    }

    /// Synchronous remote invocation with flush-before-sync semantics: any
    /// ops staged for `server` are sent (in submission order) before the
    /// sync request, so a sync op observes every async op this rank issued
    /// earlier to the same destination.
    pub fn invoke<A, R>(&self, server: EpId, fn_id: FnId, args: &A) -> RpcResult<R>
    where
        A: DataBox,
        R: DataBox,
    {
        self.invoke_tagged(server, fn_id, None, args)
    }

    /// [`Rank::invoke`] tagged with the caller's ownership `epoch`
    /// ([`RpcClient::invoke_tagged`]); a stale epoch surfaces as
    /// [`hcl_rpc::RpcError::WrongEpoch`].
    pub fn invoke_tagged<A, R>(
        &self,
        server: EpId,
        fn_id: FnId,
        epoch: Option<u64>,
        args: &A,
    ) -> RpcResult<R>
    where
        A: DataBox,
        R: DataBox,
    {
        self.coalescer.flush(server);
        self.client.invoke_tagged(server, fn_id, epoch, args)
    }

    /// Stage an asynchronous remote invocation on the coalescer: it rides a
    /// batched [`hcl_rpc::FLAG_BATCH`] message when concurrent ops to the
    /// same destination are in flight (paper §III-B request aggregation).
    pub fn invoke_coalesced<A, R>(
        &self,
        server: EpId,
        fn_id: FnId,
        args: &A,
    ) -> CoalescedFuture<R>
    where
        A: DataBox,
        R: DataBox,
    {
        self.coalescer.submit_typed(server, fn_id, args)
    }

    /// Send every staged op now (all destinations).
    pub fn flush_ops(&self) {
        self.coalescer.flush_all();
    }

    /// Shared world state.
    pub fn world(&self) -> &Arc<WorldShared> {
        &self.world
    }

    /// Block until every rank reaches the barrier. Staged async ops are
    /// flushed first: anything issued before the barrier is on the wire
    /// before any rank proceeds past it (matching the pre-coalescer send
    /// ordering).
    pub fn barrier(&self) {
        self.coalescer.flush_all();
        self.world.collectives.barrier.wait();
    }

    /// Broadcast `value` from `root` to all ranks.
    pub fn broadcast<T: Clone + Send + 'static>(&self, root: u32, value: Option<T>) -> T {
        if self.id == root {
            let mut slots = self.world.collectives.slots.lock();
            slots[root as usize] = Some(Box::new(value.expect("root must supply a value")));
        }
        self.barrier();
        let out = {
            let slots = self.world.collectives.slots.lock();
            slots[root as usize]
                .as_ref()
                .and_then(|b| b.downcast_ref::<T>())
                .expect("broadcast type mismatch")
                .clone()
        };
        self.barrier();
        if self.id == root {
            self.world.collectives.slots.lock()[root as usize] = None;
        }
        out
    }

    /// Gather one value from every rank; everyone receives the full vector
    /// indexed by rank.
    pub fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        {
            let mut slots = self.world.collectives.slots.lock();
            slots[self.id as usize] = Some(Box::new(value));
        }
        self.barrier();
        let out: Vec<T> = {
            let slots = self.world.collectives.slots.lock();
            slots
                .iter()
                .map(|s| {
                    s.as_ref()
                        .and_then(|b| b.downcast_ref::<T>())
                        .expect("allgather type mismatch")
                        .clone()
                })
                .collect()
        };
        self.barrier();
        {
            let mut slots = self.world.collectives.slots.lock();
            slots[self.id as usize] = None;
        }
        self.barrier();
        out
    }

    /// Reduce across ranks with `op`; every rank receives the result.
    pub fn allreduce<T: Clone + Send + 'static>(&self, value: T, op: impl Fn(T, T) -> T) -> T {
        let all = self.allgather(value);
        let mut it = all.into_iter();
        let first = it.next().expect("non-empty world");
        it.fold(first, op)
    }

    /// Fetch-or-create a world-shared object by name. The closure runs in
    /// exactly one rank (whichever arrives first); everyone else attaches.
    /// This is the shared-memory-segment attach of a real deployment.
    pub fn get_or_create_shared<T: Send + Sync + 'static>(
        &self,
        name: &str,
        create: impl FnOnce() -> T,
    ) -> Arc<T> {
        let mut objects = self.world.objects.lock();
        let entry = objects
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(create()) as Arc<dyn Any + Send + Sync>);
        Arc::clone(entry).downcast::<T>().expect("shared object type mismatch")
    }
}

/// The world runner.
pub struct World;

impl World {
    /// Construct the shared state (fabric, registry, servers) for `cfg`.
    pub fn shared(cfg: WorldConfig) -> Arc<WorldShared> {
        let fabric: Arc<dyn Fabric> = match cfg.fabric {
            FabricKind::Memory(latency) => Arc::new(MemoryFabric::with_latency(latency)),
            FabricKind::Tcp => Arc::new(TcpFabric::new()),
        };
        Self::shared_with_fabric(cfg, fabric)
    }

    /// Construct the shared state over a caller-supplied fabric provider
    /// (e.g. a [`hcl_fabric::chaos::ChaosFabric`] wrapping the one
    /// `cfg.fabric` would pick). `cfg.fabric` is ignored.
    pub fn shared_with_fabric(cfg: WorldConfig, fabric: Arc<dyn Fabric>) -> Arc<WorldShared> {
        let registry = Arc::new(RpcRegistry::new());
        let shared = Arc::new(WorldShared {
            cfg,
            fabric: Arc::clone(&fabric),
            registry: Arc::clone(&registry),
            collectives: Collectives {
                barrier: RankBarrier {
                    ranks: cfg.world_size() as usize,
                    state: Mutex::new((0, 0, None)),
                    round_done: Condvar::new(),
                },
                slots: Mutex::new((0..cfg.world_size()).map(|_| None).collect()),
            },
            objects: Mutex::new(HashMap::new()),
            next_fn_id: AtomicU32::new(1_000),
            deadline_thread: OnceLock::new(),
            servers: Mutex::new(Vec::new()),
            membership: Arc::new(Membership::new(
                (0..cfg.nodes).map(|n| n * cfg.ranks_per_node).collect(),
                cfg.vparts_per_member,
            )),
            forward_clients: (0..cfg.world_size()).map(|_| OnceLock::new()).collect(),
        });
        // Every rank hosts a server (any rank may own partitions).
        {
            let mut servers = shared.servers.lock();
            for r in 0..cfg.world_size() {
                servers.push(RpcServer::start(
                    cfg.ep_of(r),
                    Arc::clone(&fabric),
                    Arc::clone(&registry),
                    ServerConfig {
                        // Extra slots beyond the rank count serve auxiliary
                        // clients: one forward client per rank
                        // (`world_size + rank`), plus headroom.
                        max_clients: cfg.world_size() * 2 + 64,
                        slot_cap: cfg.slot_cap,
                        nic_cores: cfg.nic_cores,
                        ..ServerConfig::default()
                    },
                ));
            }
        }
        shared
    }

    /// Run an SPMD closure on every rank; returns the per-rank results
    /// ordered by rank id.
    pub fn run<R, F>(cfg: WorldConfig, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&Rank) -> R + Send + Sync,
    {
        let shared = Self::shared(cfg);
        Self::run_on(shared, f)
    }

    /// Run an SPMD closure on a pre-built world (lets callers inspect the
    /// shared state — traffic counters, server stats — afterwards).
    pub fn run_on<R, F>(shared: Arc<WorldShared>, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&Rank) -> R + Send + Sync,
    {
        let cfg = shared.cfg;
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(cfg.world_size() as usize);
            for r in 0..cfg.world_size() {
                let shared = Arc::clone(&shared);
                let f = &f;
                handles.push(s.spawn(move || {
                    let _poison = PoisonOnPanic(Arc::clone(&shared), r);
                    let telemetry = Arc::new(Telemetry::new(r, cfg.telemetry));
                    let mut client =
                        RpcClient::new(cfg.ep_of(r), Arc::clone(&shared.fabric), cfg.slot_cap);
                    client.set_timeout(Duration::from_secs(120));
                    client.set_retry_policy(cfg.retry);
                    if telemetry.enabled() {
                        client.set_metrics(RpcMetrics::from_registry(
                            telemetry.registry(),
                            Arc::clone(telemetry.flight()),
                        ));
                        hcl_telemetry::flight::dump_on_panic(telemetry.flight());
                    }
                    let client = Arc::new(client);
                    let metrics = telemetry.enabled().then(|| {
                        CoalesceMetrics::from_registry(
                            telemetry.registry(),
                            Arc::clone(telemetry.flight()),
                        )
                    });
                    let deadlines = Arc::clone(shared.deadlines());
                    let coalescer =
                        Coalescer::new(Arc::clone(&client), cfg.coalesce, deadlines, metrics);
                    let rank = Rank { id: r, world: shared, client, coalescer, telemetry };
                    let out = f(&rank);
                    write_rank_snapshot(&rank);
                    out
                }));
            }
            handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
        })
    }
}

/// Write `telemetry-rank<N>.json` into `$HCL_TELEMETRY_DIR` (if set) as the
/// rank's SPMD closure returns. Failures are reported but never fatal —
/// telemetry export must not take a world down.
fn write_rank_snapshot(rank: &Rank) {
    if !rank.telemetry.enabled() {
        return;
    }
    let Ok(dir) = std::env::var(TELEMETRY_DIR_ENV) else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let path = std::path::Path::new(&dir).join(format!("telemetry-rank{}.json", rank.id));
    let json = rank.telemetry_snapshot().to_json();
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("telemetry: failed to write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_get_correct_identity() {
        let cfg = WorldConfig { nodes: 3, ranks_per_node: 4, ..WorldConfig::small() };
        let ids = World::run(cfg, |rank| (rank.id(), rank.node(), rank.world_size()));
        assert_eq!(ids.len(), 12);
        for (i, (id, node, ws)) in ids.into_iter().enumerate() {
            assert_eq!(id as usize, i);
            assert_eq!(node, id / 4);
            assert_eq!(ws, 12);
        }
    }

    #[test]
    fn a_panicking_rank_fails_the_world_instead_of_hanging_it() {
        // Rank 1 dies before the barrier rank 0 waits at: `World::run` must
        // panic, not wait forever for rank 1.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cfg = WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() };
            let run = std::panic::catch_unwind(|| {
                World::run(cfg, |rank| {
                    assert_ne!(rank.id(), 1, "rank 1 fails before the barrier");
                    rank.barrier();
                })
            });
            let _ = tx.send(run.is_err());
        });
        let failed = rx.recv_timeout(Duration::from_secs(10)).expect("World::run hung");
        assert!(failed, "World::run returned although a rank panicked");
    }

    #[test]
    fn same_node_check() {
        let cfg = WorldConfig { nodes: 2, ranks_per_node: 2, ..WorldConfig::small() };
        let got = World::run(cfg, |rank| (rank.same_node(0), rank.same_node(3)));
        assert_eq!(got, vec![(true, false), (true, false), (false, true), (false, true)]);
    }

    #[test]
    fn broadcast_delivers_to_all() {
        let cfg = WorldConfig { nodes: 2, ranks_per_node: 3, ..WorldConfig::small() };
        let got = World::run(cfg, |rank| {
            let v = if rank.id() == 2 { Some("payload".to_string()) } else { None };
            rank.broadcast(2, v)
        });
        assert!(got.iter().all(|v| v == "payload"));
    }

    #[test]
    fn allgather_orders_by_rank() {
        let cfg = WorldConfig { nodes: 2, ranks_per_node: 2, ..WorldConfig::small() };
        let got = World::run(cfg, |rank| rank.allgather(rank.id() * 10));
        for v in got {
            assert_eq!(v, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn allreduce_sums() {
        let cfg = WorldConfig { nodes: 2, ranks_per_node: 2, ..WorldConfig::small() };
        let got = World::run(cfg, |rank| rank.allreduce(rank.id() as u64 + 1, |a, b| a + b));
        assert!(got.iter().all(|&v| v == 1 + 2 + 3 + 4));
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        let cfg = WorldConfig { nodes: 1, ranks_per_node: 4, ..WorldConfig::small() };
        World::run(cfg, |rank| {
            for round in 0..50u64 {
                let sum = rank.allreduce(round + rank.id() as u64, |a, b| a + b);
                assert_eq!(sum, 4 * round + 6);
                let root_val = rank.broadcast(
                    (round % 4) as u32,
                    (rank.id() as u64 == round % 4).then_some(round),
                );
                assert_eq!(root_val, round);
            }
        });
    }

    #[test]
    fn shared_object_created_once() {
        use std::sync::atomic::AtomicU64;
        let cfg = WorldConfig { nodes: 2, ranks_per_node: 4, ..WorldConfig::small() };
        let got = World::run(cfg, |rank| {
            let counter = rank.get_or_create_shared("counter", || AtomicU64::new(0));
            counter.fetch_add(1, Ordering::Relaxed);
            rank.barrier();
            counter.load(Ordering::Relaxed)
        });
        assert!(got.iter().all(|&v| v == 8));
    }

    #[test]
    fn rpc_between_ranks_works_inside_world() {
        let cfg = WorldConfig { nodes: 2, ranks_per_node: 2, ..WorldConfig::small() };
        let shared = World::shared(cfg);
        let fn_id = shared.alloc_fn_ids(1);
        shared.registry().bind_typed(fn_id, |server: EpId, caller: EpId, x: u64| {
            x + (server.rank as u64) * 100 + caller.rank as u64
        });
        let got = World::run_on(shared, move |rank| {
            // Every rank invokes on rank 3's server.
            let target = rank.world().config().ep_of(3);
            let r: u64 = rank.client().invoke(target, fn_id, &7u64).unwrap();
            r
        });
        assert_eq!(got, vec![300 + 7, 301 + 7, 302 + 7, 303 + 7]);
    }

    #[test]
    fn world_over_tcp_fabric() {
        let cfg = WorldConfig {
            nodes: 2,
            ranks_per_node: 2,
            fabric: FabricKind::Tcp,
            ..WorldConfig::small()
        };
        let shared = World::shared(cfg);
        let fn_id = shared.alloc_fn_ids(1);
        shared.registry().bind_typed(fn_id, |_, _, x: u64| x * 3);
        let got = World::run_on(shared, move |rank| {
            let target = rank.world().config().ep_of(0);
            let r: u64 = rank.client().invoke(target, fn_id, &(rank.id() as u64)).unwrap();
            r
        });
        assert_eq!(got, vec![0, 3, 6, 9]);
    }

    #[test]
    fn downed_registry_epoch_counts_effective_transitions() {
        let d = DownedRegistry::new();
        let e0 = d.epoch();
        d.mark_down(3);
        assert_eq!(d.epoch(), e0 + 1);
        d.mark_down(3); // no transition — no bump
        assert_eq!(d.epoch(), e0 + 1);
        d.mark_up(3);
        assert_eq!(d.epoch(), e0 + 2);
        d.mark_up(3); // no transition
        assert_eq!(d.epoch(), e0 + 2);
    }

    #[test]
    fn shared_epoch_cell_unifies_membership_and_downed_registry() {
        // One source of truth: a mark-down and a membership commit bump the
        // same counter, so every epoch watcher (lease caches, servers) sees
        // both kinds of ownership movement.
        let m = Membership::new(vec![0, 2], 8);
        let d = DownedRegistry::with_epoch_cell(m.epoch_cell());
        let e0 = m.epoch();
        d.mark_down(2);
        assert_eq!(m.epoch(), e0 + 1, "mark_down moves the unified epoch");
        assert_eq!(d.epoch(), m.epoch());
        let t = m.plan_remove(2).unwrap();
        assert!(m.commit(&t));
        assert_eq!(d.epoch(), e0 + 2, "membership commit visible through the registry");
    }

    #[test]
    fn world_membership_initial_members_are_node_leaders() {
        let cfg = WorldConfig { nodes: 3, ranks_per_node: 4, ..WorldConfig::small() };
        let shared = World::shared(cfg);
        let map = shared.membership().current();
        assert_eq!(map.members(), &[0, 4, 8]);
        assert_eq!(map.vparts(), 3 * cfg.vparts_per_member as usize);
    }

    #[test]
    fn downed_registry_marks_and_clears() {
        let d = DownedRegistry::new();
        assert!(!d.any_down());
        assert!(!d.is_down(2));
        d.mark_down(2);
        d.mark_down(2); // idempotent
        d.mark_down(5);
        assert!(d.any_down());
        assert!(d.is_down(2) && d.is_down(5) && !d.is_down(0));
        d.mark_up(2);
        d.mark_up(2); // idempotent
        assert!(!d.is_down(2) && d.is_down(5));
        d.mark_up(5);
        assert!(!d.any_down());
    }

    #[test]
    fn traffic_counters_visible_after_run() {
        let cfg = WorldConfig { nodes: 2, ranks_per_node: 2, ..WorldConfig::small() };
        let shared = World::shared(cfg);
        let fn_id = shared.alloc_fn_ids(1);
        shared.registry().bind_typed(fn_id, |_, _, ()| 1u64);
        let shared2 = Arc::clone(&shared);
        World::run_on(shared2, move |rank| {
            let target = rank.world().config().ep_of(0);
            let _: u64 = rank.client().invoke(target, fn_id, &()).unwrap();
        });
        let t = shared.traffic();
        assert!(t.sends >= 4, "each rank sent one request");
        assert!(t.reads >= 4, "each rank pulled one response");
        assert!(shared.server_stats().requests >= 4);
    }
}
