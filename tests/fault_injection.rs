//! Container-level fault-injection suite: every HCL container runs its
//! workload over a [`ChaosFabric`] that drops, duplicates, delays, and
//! errors request sends, while the RPC layer's retry/timeout/dedup
//! machinery keeps the semantics exact.
//!
//! Invariants checked here:
//! * no acknowledged write is ever lost (a `put`/`push` that returned `Ok`
//!   is visible to every later reader);
//! * no queue element is popped twice, even when retransmission delivers a
//!   request more than once;
//! * the fault plan is deterministic — two runs with the same seed observe
//!   the identical fault counters;
//! * a fully partitioned endpoint surfaces a typed, timeout-derived error
//!   after the retry budget is exhausted, instead of hanging;
//! * real workloads — the mixed-op driver, leased reads, a strict-WAL
//!   restart, the ISx and k-mer kernels — finish error-free under a
//!   drop+delay plan that demonstrably fires (the chaos twins).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcl::ordered::OrderedConfig;
use hcl::queue::QueueConfig;
use hcl::unordered::UnorderedMapConfig;
use hcl::{HclError, OrderedMap, OrderedSet, PriorityQueue, Queue, UnorderedMap};
use hcl_bench::workload::{
    run_on_unordered_map, run_scenario, value_of, ContainerKind, KeyDist, Mix, WorkloadSpec,
};
use hcl_fabric::chaos::{ChaosFabric, ChaosSnapshot, FaultPlan, FaultRule, OpClass};
use hcl_fabric::memory::MemoryFabric;
use hcl_fabric::Fabric;
use hcl_rpc::coalesce::CoalesceConfig;
use hcl_rpc::{RetryPolicy, RpcError};
use hcl_runtime::{World, WorldConfig, WorldShared};

/// Ops per container per rank. Kept modest: every dropped send costs one
/// `attempt_timeout` before the client retransmits.
const N: u64 = 16;

fn retrying(cfg: WorldConfig, seed: u64) -> WorldConfig {
    WorldConfig {
        retry: RetryPolicy::resilient(6, seed).with_attempt_timeout(Duration::from_millis(300)),
        ..cfg
    }
}

/// 5% drop plus sub-millisecond jittered delay (and a sprinkle of
/// duplication and transient errors) on every request send.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).for_class(
        OpClass::Send,
        FaultRule::NONE
            .drop(0.05)
            .dup(0.02)
            .error(0.02)
            .delay(Duration::from_micros(300))
            .jitter(Duration::from_micros(300)),
    )
}

fn chaos_shared(cfg: WorldConfig, plan: FaultPlan) -> (Arc<ChaosFabric>, Arc<WorldShared>) {
    let chaos = Arc::new(ChaosFabric::wrap(Arc::new(MemoryFabric::new()), plan));
    let shared = World::shared_with_fabric(cfg, Arc::clone(&chaos) as Arc<dyn Fabric>);
    (chaos, shared)
}

/// Run the full five-container workload on a 2x2 world over a lossy fabric
/// and return the fault counters the run observed.
fn run_lossy_workload(seed: u64) -> ChaosSnapshot {
    let cfg = retrying(
        WorldConfig { nodes: 2, ranks_per_node: 2, ..WorldConfig::small() },
        seed,
    );
    let (chaos, shared) = chaos_shared(cfg, lossy_plan(seed));
    World::run_on(shared, move |rank| {
        let me = rank.id() as u64;
        let ws = rank.world_size() as u64;
        let no_hybrid = QueueConfig { owner: 0, hybrid: false, ..Default::default() };

        let umap: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "faults.umap");
        let uset = hcl::UnorderedSet::<u64>::new(rank, "faults.uset");
        let omap: OrderedMap<u64, u64> = OrderedMap::new(rank, "faults.omap");
        let oset: OrderedSet<u64> = OrderedSet::new(rank, "faults.oset");
        let q: Queue<u64> = Queue::with_config(rank, "faults.q", no_hybrid.clone());
        let pq: PriorityQueue<u64> = PriorityQueue::with_config(rank, "faults.pq", no_hybrid);
        rank.barrier();

        for i in 0..N {
            let k = me * N + i;
            umap.put(k, k * 3 + 1).unwrap();
            uset.insert(k).unwrap();
            omap.put(k, k * 7 + 2).unwrap();
            oset.insert(k).unwrap();
            assert!(q.push(k).unwrap());
            assert!(pq.push(k).unwrap());
        }
        rank.barrier();

        // No lost acknowledged writes: every key every rank put is visible.
        for r in 0..ws {
            for i in 0..N {
                let k = r * N + i;
                assert_eq!(umap.get(&k).unwrap(), Some(k * 3 + 1), "umap lost write {k}");
                assert!(uset.contains(&k).unwrap(), "uset lost insert {k}");
                assert_eq!(omap.get(&k).unwrap(), Some(k * 7 + 2), "omap lost write {k}");
                assert!(oset.contains(&k).unwrap(), "oset lost insert {k}");
            }
        }

        // Each rank pops exactly N entries; globally the pops must be the
        // pushed set — nothing lost, nothing popped twice.
        let mut mine = Vec::with_capacity(N as usize);
        for _ in 0..N {
            mine.push(q.pop().unwrap().expect("queue lost an acknowledged push"));
        }
        let flat: Vec<u64> = rank.allgather(mine).into_iter().flatten().collect();
        let uniq: BTreeSet<u64> = flat.iter().copied().collect();
        assert_eq!(flat.len() as u64, ws * N, "queue pop count mismatch");
        assert_eq!(uniq.len(), flat.len(), "duplicate queue pop detected");
        assert_eq!(uniq, (0..ws * N).collect::<BTreeSet<u64>>());
        assert_eq!(q.pop().unwrap(), None);

        // Priority queue: concurrent min-pops. With removals only, the
        // global minimum is nondecreasing, so each rank's own pop sequence
        // must be sorted; the union must be exactly the pushed set.
        let mut mine = Vec::with_capacity(N as usize);
        for _ in 0..N {
            let v = pq.pop().unwrap().expect("pqueue lost an acknowledged push");
            if let Some(&prev) = mine.last() {
                assert!(v >= prev, "pqueue pops went backwards: {prev} then {v}");
            }
            mine.push(v);
        }
        let flat: Vec<u64> = rank.allgather(mine).into_iter().flatten().collect();
        let uniq: BTreeSet<u64> = flat.iter().copied().collect();
        assert_eq!(uniq.len(), flat.len(), "duplicate pqueue pop detected");
        assert_eq!(uniq, (0..ws * N).collect::<BTreeSet<u64>>());
        assert_eq!(pq.pop().unwrap(), None);
        rank.barrier();
    });
    chaos.chaos_stats()
}

/// Tentpole acceptance: all five containers complete correct workloads
/// under 5% drop + delay, and the fault sequence is a pure function of the
/// plan seed — two runs, identical counters.
#[test]
fn containers_survive_lossy_fabric_deterministically() {
    let a = run_lossy_workload(0xC1A05);
    let b = run_lossy_workload(0xC1A05);
    assert_eq!(a, b, "same seed must observe the same fault sequence");
    assert!(a.drops > 0, "plan was expected to drop some sends: {a:?}");
    assert!(a.delayed_ops > 0, "plan was expected to delay sends: {a:?}");
    let c = run_lossy_workload(0x0DDBA11);
    assert!(c.total_faults() > 0);
    assert_ne!(a, c, "different seeds should see different fault sequences");
}

/// Duplicated deliveries must not re-execute handlers: server-side merge
/// counters stay exact under an aggressive duplication plan because the
/// dedup window answers repeats from the response cache.
#[test]
fn duplicate_deliveries_execute_handlers_once() {
    let seed = 0xD0D0;
    let cfg = retrying(
        WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() },
        seed,
    );
    let plan = FaultPlan::new(seed).for_class(OpClass::Send, FaultRule::NONE.dup(0.25));
    let (chaos, shared) = chaos_shared(cfg, plan);
    let shared2 = Arc::clone(&shared);
    World::run_on(shared, move |rank| {
        let m: UnorderedMap<u64, u64> = UnorderedMap::with_merger(
            rank,
            "dup.hist",
            UnorderedMapConfig { hybrid: false, ..UnorderedMapConfig::default() },
            Arc::new(|old: Option<&u64>, d: &u64| old.copied().unwrap_or(0) + d),
        );
        rank.barrier();
        for _ in 0..N {
            for k in 0..4u64 {
                m.put_merge(k, 1).unwrap();
            }
        }
        rank.barrier();
        // Every rank contributed exactly N increments per key; a re-executed
        // duplicate would overshoot.
        for k in 0..4u64 {
            assert_eq!(m.get(&k).unwrap(), Some(N * rank.world_size() as u64));
        }
        rank.barrier();
    });
    assert!(chaos.chaos_stats().duplicates > 0, "plan was expected to duplicate sends");
    assert!(
        shared2.server_stats().deduped > 0,
        "servers should have answered duplicates from the dedup window"
    );
}

/// A fully partitioned endpoint (100% request drop) must fail with a typed,
/// timeout-derived error once the retry budget is exhausted — bounded
/// latency, no hang — while the healthy direction keeps working.
#[test]
fn full_partition_exhausts_retries_without_hanging() {
    let seed = 0xBAD;
    let cfg = retrying(
        WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() },
        seed,
    );
    let cfg = WorldConfig {
        retry: RetryPolicy { max_attempts: 3, ..cfg.retry }
            .with_attempt_timeout(Duration::from_millis(150)),
        ..cfg
    };
    let plan = FaultPlan::new(seed).for_pair_class(
        cfg.ep_of(1),
        cfg.ep_of(0),
        OpClass::Send,
        FaultRule::NONE.drop(1.0),
    );
    let (chaos, shared) = chaos_shared(cfg, plan);
    World::run_on(shared, move |rank| {
        let q: Queue<u64> = Queue::with_config(
            rank,
            "part.q",
            QueueConfig { owner: 0, hybrid: false, ..Default::default() },
        );
        rank.barrier();
        if rank.id() == 1 {
            let start = Instant::now();
            let err = q.push(42).expect_err("push across a full partition must fail, not hang");
            let elapsed = start.elapsed();
            match err {
                HclError::Rpc(RpcError::RetriesExhausted { attempts, last }) => {
                    assert_eq!(attempts, 3);
                    assert!(last.is_timeout(), "expected a timeout-derived error, got: {last}");
                }
                other => panic!("expected RetriesExhausted, got: {other}"),
            }
            assert!(
                elapsed < Duration::from_secs(5),
                "retry budget must bound latency, took {elapsed:?}"
            );
        } else {
            // The 0 -> 0 self path is healthy; the owner is unaffected.
            assert!(q.push(7).unwrap());
            assert_eq!(q.pop().unwrap(), Some(7));
        }
        rank.barrier();
        // After rank 1 gave up, the queue holds only what rank 0 acked.
        if rank.id() == 0 {
            assert_eq!(q.pop().unwrap(), None);
        }
        rank.barrier();
    });
    // 3 attempts, every one dropped.
    assert!(chaos.chaos_stats().drops >= 3);
}

/// Coalesced async ops under a lossy fabric: a flushed batch travels (and
/// retries) as ONE idempotent unit — drops retransmit the whole batch, the
/// server dedups on its request id, and every op lands exactly once and in
/// submission order relative to the flush-before-sync barrier.
#[test]
fn coalesced_batches_retry_as_one_idempotent_unit() {
    let seed = 0xBA7C;
    let cfg = retrying(
        WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() },
        seed,
    );
    let (chaos, shared) = chaos_shared(cfg, lossy_plan(seed));
    World::run_on(shared, move |rank| {
        let me = rank.id() as u64;
        let ws = rank.world_size() as u64;
        let q: Queue<u64> =
            Queue::with_config(rank, "chaos.coal.q", QueueConfig { owner: 0, hybrid: false, ..Default::default() });
        let umap: UnorderedMap<u64, u64> = UnorderedMap::with_config(
            rank,
            "chaos.coal.umap",
            UnorderedMapConfig { hybrid: false, ..UnorderedMapConfig::default() },
        );
        rank.barrier();

        // Stage async ops; nothing is awaited until after the loop, so
        // consecutive ops to one destination coalesce into batches.
        let qfuts: Vec<_> = (0..N).map(|i| q.push_async(me * N + i).unwrap()).collect();
        let mfuts: Vec<_> = (0..N)
            .map(|i| {
                let k = me * N + i;
                umap.put_async(k, k * 5 + 3).unwrap()
            })
            .collect();
        for f in &qfuts {
            assert!(f.wait().unwrap(), "acknowledged coalesced push reported false");
        }
        for f in &mfuts {
            f.wait().unwrap();
        }
        // The coalescing path was actually exercised and observable.
        assert!(q.costs().batch_hit_rate() > 0.0, "queue ops never rode a batch");
        assert!(umap.costs().batch_hit_rate() > 0.0, "map ops never rode a batch");
        assert!(rank.coalesce_stats().batches > 0, "coalescer sent no batches");
        rank.barrier();

        // Exactly-once: every coalesced op landed once, none lost, none
        // duplicated by batch retransmission.
        for r in 0..ws {
            for i in 0..N {
                let k = r * N + i;
                assert_eq!(umap.get(&k).unwrap(), Some(k * 5 + 3), "coalesced put lost: {k}");
            }
        }
        let mut mine = Vec::with_capacity(N as usize);
        for _ in 0..N {
            mine.push(q.pop().unwrap().expect("coalesced push lost"));
        }
        let flat: Vec<u64> = rank.allgather(mine).into_iter().flatten().collect();
        let uniq: BTreeSet<u64> = flat.iter().copied().collect();
        assert_eq!(uniq.len(), flat.len(), "batch retransmission duplicated a push");
        assert_eq!(uniq, (0..ws * N).collect::<BTreeSet<u64>>());
        assert_eq!(q.pop().unwrap(), None);
        rank.barrier();
    });
    let snap = chaos.chaos_stats();
    assert!(snap.total_faults() > 0, "plan injected no faults: {snap:?}");
}

/// Flush-before-sync under faults: async ops staged for a destination are
/// observed by a subsequent synchronous op to the same destination even
/// when the fabric drops and delays sends (per-destination FIFO survives
/// retransmission because the batch is one request).
#[test]
fn flush_before_sync_order_survives_lossy_fabric() {
    let seed = 0xF1055;
    let cfg = retrying(
        WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() },
        seed,
    );
    // Pin the coalescer so neither the size trigger nor the age flusher can
    // send the staged ops: only the sync op's flush-before-sync may.
    let cfg = WorldConfig {
        coalesce: CoalesceConfig {
            max_ops: 64,
            adaptive: false,
            max_delay: Duration::from_secs(30),
            ..CoalesceConfig::default()
        },
        ..cfg
    };
    let (chaos, shared) = chaos_shared(cfg, lossy_plan(seed));
    World::run_on(shared, move |rank| {
        let umap: UnorderedMap<u64, u64> = UnorderedMap::with_config(
            rank,
            "chaos.fbs.umap",
            UnorderedMapConfig { hybrid: false, ..UnorderedMapConfig::default() },
        );
        rank.barrier();
        if rank.id() == 1 {
            // Stage async puts, then read each back with a *sync* get
            // WITHOUT waiting the futures: flush-before-sync must have
            // pushed the staged batch out ahead of the get.
            let futs: Vec<_> =
                (0..N).map(|k| umap.put_async(k, k + 100).unwrap()).collect();
            for k in 0..N {
                assert_eq!(
                    umap.get(&k).unwrap(),
                    Some(k + 100),
                    "sync get overtook staged async put for key {k}"
                );
            }
            for f in futs {
                f.wait().unwrap();
            }
        }
        rank.barrier();
    });
    assert!(chaos.chaos_stats().total_faults() > 0);
}

/// A rank marked down degrades every container op immediately with a typed
/// [`HclError::OwnerDown`] — no RPC is issued and no retry budget is burned.
/// Before the shared dispatcher, only `UnorderedMap` honoured failure marks;
/// `Queue::pop` and `OrderedMap::get` against a downed owner would hang out
/// the full retry schedule. `hybrid: false` forces the remote path so the
/// degradation check is what short-circuits, not the local bypass.
#[test]
fn marked_down_owner_degrades_instead_of_hanging() {
    let cfg = retrying(
        WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() },
        0xD04,
    );
    World::run(cfg, |rank| {
        let q: Queue<u64> = Queue::with_config(
            rank,
            "deg-q",
            QueueConfig { hybrid: false, ..QueueConfig::default() },
        );
        let m: OrderedMap<u64, u64> = OrderedMap::with_config(
            rank,
            "deg-m",
            OrderedConfig { hybrid: false, ..OrderedConfig::default() },
        );
        // With a lease config `get` takes the cached path first.
        let leased: UnorderedMap<u64, u64> = UnorderedMap::with_config(
            rank,
            "deg-u",
            UnorderedMapConfig {
                hybrid: false,
                lease: Some(hcl::LeaseConfig { hot_threshold: 1, ..hcl::LeaseConfig::default() }),
                ..UnorderedMapConfig::default()
            },
        );
        rank.barrier();
        if rank.id() == 1 {
            q.push(7).unwrap();
            m.put(42, 7).unwrap();
            leased.put(42, 7).unwrap();
            for _ in 0..3 {
                assert_eq!(leased.get(&42).unwrap(), Some(7));
            }

            // Mark every owner down; each handle keeps its own registry.
            q.mark_down(0);
            m.mark_down(0);
            m.mark_down(1);
            leased.mark_down(0);
            leased.mark_down(1);

            let t0 = Instant::now();
            match q.pop() {
                Err(HclError::OwnerDown(0)) => {}
                other => panic!("queue pop against downed owner: {other:?}"),
            }
            match m.get(&42) {
                Err(HclError::OwnerDown(_)) => {}
                other => panic!("map get against downed owner: {other:?}"),
            }
            match leased.get(&42) {
                Err(HclError::OwnerDown(_)) => {}
                other => panic!("leased get against downed owner: {other:?}"),
            }
            // Degradation must be immediate: well under one 300ms attempt
            // timeout, let alone the six-attempt resilient schedule.
            assert!(
                t0.elapsed() < Duration::from_millis(250),
                "degraded ops consumed the retry budget: {:?}",
                t0.elapsed()
            );

            // Clearing the mark restores service and the data is intact.
            q.mark_up(0);
            m.mark_up(0);
            m.mark_up(1);
            leased.mark_up(0);
            leased.mark_up(1);
            assert_eq!(q.pop().unwrap(), Some(7));
            assert_eq!(m.get(&42).unwrap(), Some(7));
            assert_eq!(leased.get(&42).unwrap(), Some(7));
        }
        rank.barrier();
    });
}

/// The flight recorder must turn a fault-injection run into a legible
/// post-mortem: after a full partition exhausts a push's retry budget, the
/// failing rank's dump names the failed op, shows the retransmission
/// attempts the RPC layer made, and ends in the `RetriesExhausted` outcome;
/// after the owner is marked down, a rejected pop adds the `OwnerDown`
/// trail. (ISSUE 5 acceptance: ChaosFabric drop plan -> flight dump.)
#[test]
fn flight_recorder_captures_partition_failure_and_owner_down() {
    let seed = 0xF11;
    let cfg = retrying(
        WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() },
        seed,
    );
    let cfg = WorldConfig {
        retry: RetryPolicy { max_attempts: 3, ..cfg.retry }
            .with_attempt_timeout(Duration::from_millis(150)),
        ..cfg
    };
    let plan = FaultPlan::new(seed).for_pair_class(
        cfg.ep_of(1),
        cfg.ep_of(0),
        OpClass::Send,
        FaultRule::NONE.drop(1.0),
    );
    let (chaos, shared) = chaos_shared(cfg, plan);
    World::run_on(shared, move |rank| {
        let q: Queue<u64> = Queue::with_config(
            rank,
            "flight.q",
            QueueConfig { owner: 0, hybrid: false, ..Default::default() },
        );
        rank.barrier();
        if rank.id() == 1 {
            q.push(42).expect_err("push across a full partition must fail");
            let dump = rank
                .telemetry()
                .flight()
                .last_dump()
                .expect("retry exhaustion must dump the flight recorder");
            assert!(dump.contains("queue.push"), "dump must name the failed op:\n{dump}");
            assert!(
                dump.contains("retransmit"),
                "dump must show the retry attempts:\n{dump}"
            );
            assert!(
                dump.contains("retries-exhausted"),
                "dump must record the final outcome:\n{dump}"
            );

            // Owner marked down: the rejected op extends the same ring.
            q.mark_down(0);
            match q.pop() {
                Err(HclError::OwnerDown(0)) => {}
                other => panic!("pop against downed owner: {other:?}"),
            }
            let dump = rank.telemetry().flight().last_dump().expect("owner-down must dump");
            assert!(dump.contains("queue.pop"), "dump must name the rejected op:\n{dump}");
            assert!(dump.contains("owner-down"), "dump must record OwnerDown:\n{dump}");
            // The earlier failure trail is still in the ring.
            assert!(dump.contains("queue.push") && dump.contains("retries-exhausted"));

            // And the registry counted both failure modes.
            let snap = rank.telemetry_snapshot();
            let counter = |name: &str| {
                snap.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0)
            };
            assert!(counter("hcl_rpc_retransmits") >= 2, "2 of 3 attempts are retransmits");
            assert_eq!(counter("hcl_rpc_retries_exhausted"), 1);
            assert_eq!(counter("hcl_core_ops_owner_down"), 1);
        }
        rank.barrier();
    });
    assert!(chaos.chaos_stats().drops >= 3);
}

/// Both map containers behave identically against downed owners, over a
/// duplicating, delaying (but lossless) fabric: before the marks every put
/// lands exactly once (`len` is `N`, every `get` exact); with every owner
/// marked down, `put` and `get` alike reject fast with the typed
/// [`HclError::OwnerDown`]; once the marks are cleared every `get` is exact
/// again.
#[test]
fn maps_reject_downed_owners_typed_and_recover_exact() {
    let seed = 0x0D0;
    let cfg = retrying(
        WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() },
        seed,
    );
    let plan = FaultPlan::new(seed).for_class(
        OpClass::Send,
        FaultRule::NONE
            .dup(0.05)
            .delay(Duration::from_micros(300))
            .jitter(Duration::from_micros(300)),
    );
    let (chaos, shared) = chaos_shared(cfg, plan);
    World::run_on(shared, move |rank| {
        let omap: OrderedMap<u64, u64> = OrderedMap::with_config(
            rank,
            "down.omap",
            OrderedConfig { hybrid: false, ..OrderedConfig::default() },
        );
        let umap: UnorderedMap<u64, u64> = UnorderedMap::with_config(
            rank,
            "down.umap",
            UnorderedMapConfig { hybrid: false, ..UnorderedMapConfig::default() },
        );
        rank.barrier();
        if rank.id() == 0 {
            for k in 0..N {
                omap.put(k, k * 9 + 1).unwrap();
                umap.put(k, k * 9 + 1).unwrap();
            }
        }
        rank.barrier();
        let exact = |when: &str| {
            assert_eq!(omap.len().unwrap(), N, "omap {when}: a put landed twice or not at all");
            assert_eq!(umap.len().unwrap(), N, "umap {when}: a put landed twice or not at all");
            for k in 0..N {
                assert_eq!(omap.get(&k).unwrap(), Some(k * 9 + 1), "omap {when}: {k}");
                assert_eq!(umap.get(&k).unwrap(), Some(k * 9 + 1), "umap {when}: {k}");
            }
        };
        exact("before the marks");

        // Every partition owner fails: writes and reads reject immediately
        // on both containers.
        for owner in [0u32, 1] {
            omap.mark_down(owner);
            umap.mark_down(owner);
        }
        for k in [0, N / 2, 999] {
            assert!(matches!(omap.put(k, 1), Err(HclError::OwnerDown(_))), "omap put {k}");
            assert!(matches!(umap.put(k, 1), Err(HclError::OwnerDown(_))), "umap put {k}");
            assert!(matches!(omap.get(&k), Err(HclError::OwnerDown(_))), "omap get {k}");
            assert!(matches!(umap.get(&k), Err(HclError::OwnerDown(_))), "umap get {k}");
        }
        for owner in [0u32, 1] {
            omap.mark_up(owner);
            umap.mark_up(owner);
        }
        exact("after the marks");
        rank.barrier();
    });
    assert!(chaos.chaos_stats().total_faults() > 0);
}

/// A migration forward that cannot be sent is counted, not dropped. Rank 1
/// hosts a shard without leading its node, and is admitted as an owner;
/// its forward client cannot reach rank 0 (every send on that pair fails),
/// so a put into a window from rank 1 toward rank 0 is applied at rank 1
/// but its dual-apply never leaves. The failure lands on
/// `forward_failures`, `flush_forwards` — which flushes every host, not
/// just the node leaders — reports it as [`HclError::Rebalance`] (once: a
/// flush resets the tally), and so does a committed close of the window.
#[test]
fn failed_forwards_are_counted_and_reported() {
    use hcl::{admit_rank, MigratorRegistry, ShardMigrator};
    use hcl_fabric::EpId;
    use hcl_runtime::ShardMove;

    let cfg = WorldConfig { nodes: 1, ranks_per_node: 2, ..WorldConfig::small() };
    // Rank 1's shards forward from the auxiliary endpoint `world_size + 1`.
    let forwarder = EpId { node: 0, rank: cfg.world_size() + 1 };
    let plan = FaultPlan::new(0xF0D).for_pair_class(
        forwarder,
        cfg.ep_of(0),
        OpClass::Send,
        FaultRule::NONE.error(1.0),
    );
    let (chaos, shared) = chaos_shared(cfg, plan);
    World::run_on(shared, move |rank| {
        let umap: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "fwd.fail.umap");
        assert!(admit_rank(rank, 1).unwrap().committed);
        if rank.id() == 1 {
            let membership = Arc::clone(rank.world().membership());
            let vpart_of = |k: &u64| membership.current().vpart_of_hash(hcl::stable_hash(k));
            let k = (0u64..).find(|k| umap.server_of(umap.partition_of(k)) == 1).unwrap();
            let mv = ShardMove { vpart: vpart_of(&k), from: 1, to: 0 };
            let mig: Arc<dyn ShardMigrator> =
                MigratorRegistry::shared(rank).migrators().pop().expect("one elastic map");
            let failures = || membership.snapshot().forward_failures;

            mig.begin(rank, &mv).unwrap();
            umap.put(k, 1).unwrap();
            assert_eq!(failures(), 1, "the unsendable forward was not counted");
            match umap.flush_forwards() {
                Err(HclError::Rebalance(msg)) => assert!(msg.contains("1 forwarded"), "{msg}"),
                other => panic!("flush after a failed forward: {other:?}"),
            }
            umap.flush_forwards().expect("a flush reports each failure once");

            umap.put(k, 2).unwrap();
            match mig.end(rank, &mv, true) {
                Err(HclError::Rebalance(msg)) => assert!(msg.contains("1 forwarded"), "{msg}"),
                other => panic!("committed close after a failed forward: {other:?}"),
            }
            assert_eq!(failures(), 2);
        }
        rank.barrier();
    });
    assert_eq!(chaos.chaos_stats().total_faults(), 2, "the error rule fired elsewhere");
}

/// Soak entry point for `just test-faults-soak`: seed comes from the
/// environment so CI can sweep many fault schedules.
#[test]
#[ignore = "soak target; run via `just test-faults-soak`"]
fn soak_lossy_workload_env_seed() {
    let seed = std::env::var("HCL_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1u64);
    let snap = run_lossy_workload(seed);
    assert!(snap.total_faults() > 0, "soak run observed no faults: {snap:?}");
}

/// Scenario satellite: a delay-only plan (every send slowed, nothing
/// dropped) must degrade latency smoothly, not trip the retry machinery
/// into livelock. The mixed-op scenario driver runs an async-window
/// zipfian workload; afterwards the op p99 must sit well under one
/// attempt timeout (a retried op costs at least one full timeout, so a
/// bounded p99 proves the retry path stayed cold) and every rank's
/// flight recorder must hold `BatchFlush` flush-cause events from the
/// async update windows.
#[test]
fn delay_plan_scenario_has_bounded_p99_and_flush_events() {
    use hcl_telemetry::{EventKind, TelemetryConfig};

    let seed = 0xDE1A;
    let cfg = retrying(
        WorldConfig { nodes: 2, ranks_per_node: 2, ..WorldConfig::small() },
        seed,
    );
    // A deep flight ring so the batch flushes from early windows are still
    // resident after the tail of sync reads churns the ring.
    let cfg = WorldConfig {
        telemetry: TelemetryConfig { flight_capacity: 4096, ..TelemetryConfig::default() },
        ..cfg
    };
    let plan = FaultPlan::new(seed).for_class(
        OpClass::Send,
        FaultRule::NONE
            .delay(Duration::from_micros(400))
            .jitter(Duration::from_micros(400)),
    );
    let (chaos, shared) = chaos_shared(cfg, plan);
    let spec = WorkloadSpec {
        seed,
        ops_per_rank: 120,
        key_space: 64,
        value_bytes: 32,
        dist: KeyDist::Zipfian { theta: 0.99 },
        mix: Mix::UPDATE_HEAVY,
        async_window: 8,
        scan_width: 4,
    };
    let per_rank = World::run_on(shared, move |rank| {
        let stats = run_scenario(rank, ContainerKind::UnorderedMap, "chaos.delay.umap", &spec);
        let flushes = rank
            .telemetry()
            .flight()
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::BatchFlush)
            .count();
        (stats, flushes)
    });

    let attempt_timeout_ns = 300_000_000u64; // matches `retrying` above
    for (rank_id, (stats, flushes)) in per_rank.into_iter().enumerate() {
        assert_eq!(stats.errors, 0, "rank {rank_id} surfaced errors under delay-only faults");
        assert_eq!(stats.ops, spec.ops_per_rank, "rank {rank_id} fell short of its op count");
        let p99 = stats.latency.p99();
        assert!(
            p99 < attempt_timeout_ns,
            "rank {rank_id} p99 {p99} ns >= one attempt timeout: retry livelock under delay plan"
        );
        assert!(
            flushes > 0,
            "rank {rank_id} recorded no BatchFlush events despite async windows"
        );
    }
    let snap = chaos.chaos_stats();
    assert!(snap.delayed_ops > 0, "delay plan never fired: {snap:?}");
    assert_eq!(snap.drops, 0, "delay-only plan must not drop: {snap:?}");
}

// ------------------------------------------------------------ chaos twins
//
// Each twin runs a real workload — the mixed-op driver, leased reads, a
// strict-WAL restart, the app kernels — over one drop+delay plan under the
// resilient retry policy. The plan must demonstrably fire and no error may
// reach the workload.

const TWIN_SEED: u64 = 42;

/// 2% request drops (each costs a full attempt timeout before the
/// retransmit) plus a 200±200 µs jittered delay on every surviving send.
fn twin_plan() -> FaultPlan {
    FaultPlan::new(TWIN_SEED).for_class(
        OpClass::Send,
        FaultRule::NONE
            .drop(0.02)
            .delay(Duration::from_micros(200))
            .jitter(Duration::from_micros(200)),
    )
}

/// A `nodes × ranks_per_node` world over [`twin_plan`] with 6 attempts of
/// 250 ms each.
fn twin_world(nodes: u32, ranks_per_node: u32) -> (Arc<ChaosFabric>, Arc<WorldShared>) {
    let cfg = WorldConfig {
        nodes,
        ranks_per_node,
        retry: RetryPolicy::resilient(6, TWIN_SEED)
            .with_attempt_timeout(Duration::from_millis(250)),
        ..WorldConfig::small()
    };
    chaos_shared(cfg, twin_plan())
}

/// The plan dropped or delayed at least one send.
fn assert_fired(twin: &str, chaos: &ChaosFabric) {
    let snap = chaos.chaos_stats();
    assert!(snap.drops + snap.delayed_ops > 0, "{twin}: the plan injected nothing: {snap:?}");
}

/// Errors a twin's ranks counted must be zero: the retry policy absorbs
/// every fault the plan injects.
fn assert_no_errors(twin: &str, errors: impl Iterator<Item = u64>) {
    assert_eq!(errors.sum::<u64>(), 0, "{twin}: an error reached the workload");
}

/// Four ranks, one per node, so every op crosses the dispatcher's remote
/// path.
const TWIN_RANKS: u32 = 4;

fn twin_spec(mix: Mix, dist: KeyDist, ops_per_rank: u64) -> WorkloadSpec {
    WorkloadSpec {
        seed: TWIN_SEED,
        ops_per_rank,
        key_space: 256,
        value_bytes: 64,
        dist,
        mix,
        async_window: 0,
        scan_width: 8,
    }
}

const ZIPF: KeyDist = KeyDist::Zipfian { theta: 0.99 };

/// The mixed-op driver over three containers and mixes — update-heavy
/// zipfian map, scan-heavy zipfian ordered map, push/pop queue — finishes
/// every op under the drop plan.
#[test]
fn mixed_op_driver_absorbs_drop_plan() {
    for (kind, mix, dist) in [
        (ContainerKind::UnorderedMap, Mix::UPDATE_HEAVY, ZIPF),
        (ContainerKind::OrderedMap, Mix::SCAN_HEAVY, ZIPF),
        (ContainerKind::Queue, Mix::QUEUE_MIX, KeyDist::Uniform),
    ] {
        let (chaos, shared) = twin_world(TWIN_RANKS, 1);
        let spec = twin_spec(mix, dist, 120);
        let name = format!("twin.{}", kind.label());
        let per_rank = World::run_on(shared, move |rank| run_scenario(rank, kind, &name, &spec));
        for s in &per_rank {
            assert_eq!(
                s.ops,
                spec.ops_per_rank,
                "{}: a rank fell short of its op count",
                kind.label()
            );
        }
        assert_fired(kind.label(), &chaos);
        assert_no_errors(kind.label(), per_rank.iter().map(|s| s.errors));
    }
}

/// Leased reads under the drop plan: the read-heavy zipfian driver hits the
/// lease cache, and a live lease granted before an ownership-epoch bump
/// never serves after it. Every rank leases a probe key, the owner
/// overwrites it (no piggyback reaches the other ranks), `mark_down` /
/// `mark_up` bump the epoch, and the next read must see the overwrite. The
/// 250 ms TTL outlives the probe, so expiry cannot be what saves it.
#[test]
fn leased_reads_survive_chaos_and_die_at_epoch_bump() {
    const PROBE: u64 = u64::MAX - 7; // outside the driver's key space
    let (chaos, shared) = twin_world(TWIN_RANKS, 1);
    let spec = twin_spec(Mix::READ_HEAVY, ZIPF, 150);
    let per_rank = World::run_on(shared, move |rank| {
        let lease = hcl::LeaseConfig {
            ttl: Duration::from_millis(250),
            hot_threshold: 1,
            topk: 256,
            ..hcl::LeaseConfig::default()
        };
        let cfg = UnorderedMapConfig { hybrid: false, lease: Some(lease), ..Default::default() };
        let map: UnorderedMap<u64, Vec<u8>> = UnorderedMap::with_config(rank, "twin.leased", cfg);
        let stats = run_on_unordered_map(rank, &map, &spec);
        let hits = map.cache_stats().expect("lease cache configured").hits;
        rank.barrier();

        let owner = map.server_of(map.partition_of(&PROBE));
        if rank.id() == owner {
            map.put(PROBE, vec![1]).unwrap();
        }
        rank.barrier();
        // Heat, lease, hit: after three reads every rank holds a live lease.
        for _ in 0..3 {
            assert_eq!(map.get(&PROBE).unwrap(), Some(vec![1]), "probe prefill lost");
        }
        rank.barrier();
        if rank.id() == owner {
            map.put(PROBE, vec![2]).unwrap();
        }
        rank.barrier();
        let before = map.cache_stats().unwrap().stale_epoch;
        map.mark_down(owner);
        map.mark_up(owner);
        let got = map.get(&PROBE).unwrap();
        let kills = map.cache_stats().unwrap().stale_epoch - before;
        assert_eq!(
            got,
            Some(vec![2]),
            "rank {} read a stale lease across an epoch bump",
            rank.id()
        );
        rank.barrier();
        (stats.errors, hits, kills)
    });
    let hits: u64 = per_rank.iter().map(|r| r.1).sum();
    let kills: u64 = per_rank.iter().map(|r| r.2).sum();
    assert!(hits > 0, "read-heavy zipfian must hit the lease cache");
    assert!(kills >= TWIN_RANKS as u64 - 1, "the epoch bump killed only {kills} leases");
    assert_fired("leased", &chaos);
    assert_no_errors("leased", per_rank.iter().map(|r| r.0));
}

/// Crash-restart under the drop plan. Phase 1 writes a 64-key probe block
/// and a driver pass under strict sync epochs on a clean fabric, then
/// exits. Phase 2 reopens the same logs on a faulted fabric, replays them,
/// and runs the driver in two halves with a `drain_rank` / `admit_rank`
/// cycle of the last rank between them. The probe block must come back
/// bit-exact.
#[test]
fn strict_restart_under_chaos_survives_drain_admit() {
    use hcl::{admit_rank, drain_rank};
    use hcl_runtime::Rank;
    use std::path::Path;

    const PROBE_BASE: u64 = u64::MAX - 512; // outside the driver's key space
    const PROBES: u64 = 64;
    let dir = std::env::temp_dir().join(format!("hcl-twin-strict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    fn strict<'r>(rank: &'r Rank, dir: &Path) -> UnorderedMap<'r, u64, Vec<u8>> {
        let persist = Some(hcl::PersistConfig::strict(dir));
        let cfg = UnorderedMapConfig { hybrid: false, persist, ..Default::default() };
        UnorderedMap::with_config(rank, "twin.strict", cfg)
    }
    fn counter(rank: &Rank, name: &str) -> u64 {
        rank.telemetry().registry().counter(name).get()
    }
    let spec = twin_spec(Mix::UPDATE_HEAVY, ZIPF, 120);
    let probe = move |k: u64| value_of(k, 0, 0xD0, spec.value_bytes);

    let d = dir.clone();
    let written = World::run(
        WorldConfig { nodes: TWIN_RANKS, ranks_per_node: 1, ..WorldConfig::small() },
        move |rank| {
            let map = strict(rank, &d);
            rank.barrier();
            if rank.id() == 0 {
                for k in PROBE_BASE..PROBE_BASE + PROBES {
                    map.put(k, probe(k)).unwrap();
                }
            }
            rank.barrier();
            let stats = run_on_unordered_map(rank, &map, &spec);
            rank.barrier();
            (
                stats.errors,
                counter(rank, "hcl_persist_appended"),
                counter(rank, "hcl_persist_fsyncs"),
            )
        },
    );
    assert_no_errors("clean strict pass", written.iter().map(|w| w.0));
    let appended: u64 = written.iter().map(|w| w.1).sum();
    let fsyncs: u64 = written.iter().map(|w| w.2).sum();
    assert!(appended > 0, "the strict pass logged nothing");
    assert!(fsyncs >= appended, "strict epochs must fsync every flush barrier");

    let (chaos, shared) = twin_world(TWIN_RANKS, 1);
    let victim = TWIN_RANKS - 1;
    let d = dir.clone();
    let restarted = World::run_on(shared, move |rank| {
        let map = strict(rank, &d);
        rank.barrier();
        let replayed = counter(rank, "hcl_persist_replayed");
        let recovered = counter(rank, "hcl_persist_recovered_ops");
        let half = WorkloadSpec { ops_per_rank: spec.ops_per_rank / 2, ..spec };
        let mut errors = run_on_unordered_map(rank, &map, &half).errors;
        assert!(drain_rank(rank, victim).expect("drain the victim").committed);
        assert!(admit_rank(rank, victim).expect("re-admit the victim").committed);
        errors += run_on_unordered_map(rank, &map, &half).errors;
        rank.barrier();
        if rank.id() == 0 {
            for k in PROBE_BASE..PROBE_BASE + PROBES {
                assert_eq!(
                    map.get(&k).unwrap(),
                    Some(probe(k)),
                    "probe key {k} lost across the restart"
                );
            }
        }
        rank.barrier();
        (errors, replayed, recovered)
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert!(restarted.iter().map(|r| r.1).sum::<u64>() > 0, "the restart replayed no WAL records");
    assert!(
        restarted.iter().map(|r| r.2).sum::<u64>() > 0,
        "the restart recovered no distinct ops"
    );
    assert_fired("strict restart", &chaos);
    assert_no_errors("strict restart", restarted.iter().map(|r| r.0));
}

/// The ISx and k-mer kernels on a 2×2 world under the drop plan: ISx output
/// validates, and every rank's k-mer histogram agrees and is non-empty.
/// The kernels `expect` every op, so a surfaced error fails the run.
#[test]
fn app_kernels_valid_under_chaos() {
    use hcl_apps::genome::{sample_reads, synth_genome};
    use hcl_apps::isx::{run_hcl, validate, IsxConfig};
    use hcl_apps::meraculous::count_kmers_hcl;

    let isx = IsxConfig { keys_per_rank: 300, key_space: 1 << 20, seed: TWIN_SEED };
    let (chaos, shared) = twin_world(2, 2);
    let sorted = World::run_on(shared, move |rank| run_hcl(rank, &isx));
    assert!(validate(&sorted, &isx, 4, 2), "ISx output invalid under chaos");
    assert_fired("isx", &chaos);

    let genome = synth_genome(2_000, TWIN_SEED);
    let (chaos, shared) = twin_world(2, 2);
    let counts = World::run_on(shared, move |rank| {
        let reads = sample_reads(&genome, 120, 40, 0.0, TWIN_SEED + rank.id() as u64);
        count_kmers_hcl(rank, "twin.kmer", &reads, 15)
    });
    assert!(!counts[0].is_empty(), "k-mer counting produced nothing");
    assert!(counts.iter().all(|c| *c == counts[0]), "ranks disagree on the k-mer histogram");
    assert_fired("kmer", &chaos);
}

/// Shared body for the mid-migration kill scenario: the driver (rank 0)
/// cannot reach the drain victim (rank 2) — every request send on that
/// pair is dropped — so the copy phase exhausts its retry budget. The
/// rebalance must abort with the *same* typed [`HclError::Rebalance`] on
/// every rank within the retry budget, leave the membership (and its
/// epoch) untouched, and lose no data.
fn run_partitioned_victim_drain(seed: u64) {
    use hcl::drain_rank;

    let cfg = retrying(
        WorldConfig {
            nodes: 2,
            ranks_per_node: 2,
            vparts_per_member: 2,
            ..WorldConfig::small()
        },
        seed,
    );
    let cfg = WorldConfig {
        retry: RetryPolicy { max_attempts: 3, ..cfg.retry }
            .with_attempt_timeout(Duration::from_millis(150)),
        ..cfg
    };
    // Kill exactly the driver -> victim direction: the shard copy cannot
    // start, but every other path (including the victim serving reads)
    // stays healthy.
    let plan = FaultPlan::new(seed).for_pair_class(
        cfg.ep_of(0),
        cfg.ep_of(2),
        OpClass::Send,
        FaultRule::NONE.drop(1.0),
    );
    let (chaos, shared) = chaos_shared(cfg, plan);
    World::run_on(shared, move |rank| {
        let umap: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "mig.kill.umap");
        rank.barrier();
        // Rank 1 seeds: its path to both owners (0 local-node, 2 remote)
        // is healthy. Rank 0 must stay quiet — its sends to rank 2 vanish.
        if rank.id() == 1 {
            for k in 0..64u64 {
                umap.put(k, k + 5).unwrap();
            }
        }
        rank.barrier();
        let membership = Arc::clone(rank.world().membership());
        let e0 = membership.epoch();
        let members0 = membership.current().members().to_vec();

        let start = Instant::now();
        let err = drain_rank(rank, 2)
            .expect_err("drain across a partitioned driver->victim pair must abort");
        let elapsed = start.elapsed();
        match &err {
            HclError::Rebalance(msg) => {
                assert!(
                    msg.contains("begin failed") || msg.contains("transfer failed"),
                    "abort must name the failed copy step, got: {msg}"
                );
            }
            other => panic!("expected HclError::Rebalance, got: {other}"),
        }
        assert!(
            elapsed < Duration::from_secs(30),
            "retry budget must bound the abort, took {elapsed:?}"
        );
        // Every rank observed the identical typed outcome.
        let msgs = rank.allgather(format!("{err}"));
        assert!(msgs.iter().all(|m| *m == msgs[0]), "ranks disagree on the abort: {msgs:?}");

        // Nothing committed: same members, same epoch, no keys moved.
        assert_eq!(membership.epoch(), e0, "an aborted rebalance must not bump the epoch");
        assert_eq!(membership.current().members(), &members0[..]);
        rank.barrier();
        // Ranks 1 and 3 can reach both owners (the chaos pair is only
        // 0 -> 2); every seeded key must still be there.
        if rank.id() == 1 || rank.id() == 3 {
            for k in 0..64u64 {
                assert_eq!(umap.get(&k).unwrap(), Some(k + 5), "key {k} lost in aborted drain");
            }
        }
        rank.barrier();
    });
    // The copy phase burned its whole budget against the dead pair.
    assert!(chaos.chaos_stats().drops >= 3, "the drop rule never fired");
}

/// A rank "killed" mid-migration (all driver->victim sends dropped) must
/// produce a typed, bounded, collective abort — not a hang, not a partial
/// commit. See `run_partitioned_victim_drain` for the invariants.
#[test]
fn drain_with_unreachable_victim_aborts_typed_and_bounded() {
    run_partitioned_victim_drain(0x9A7E);
}

/// Soak entry point for `just test-membership-soak`: sweep the kill
/// scenario across environment-chosen seeds.
#[test]
#[ignore = "soak target; run via `just test-membership-soak`"]
fn soak_partitioned_victim_drain_env_seed() {
    let seed = std::env::var("HCL_MEMBERSHIP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2u64);
    for round in 0..4 {
        run_partitioned_victim_drain(seed.wrapping_add(round * 0x9E37_79B9));
    }
}
