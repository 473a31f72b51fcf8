//! Epoch-versioned membership and live shard rebalancing (PR 9).
//!
//! Invariants checked here:
//! * elastic containers (no explicit `servers`) start on the node-leader
//!   ranks — bit-identical placement to the historical static default;
//! * every container resolves owners through the *same* world partition
//!   map: cross-container key→owner agreement (the regression pin for the
//!   old `UnorderedMap::get` bug that partitioned by `servers.len()`);
//! * a live [`drain_rank`]/[`admit_rank`] loses no keys and duplicates
//!   none — extract∪install is a permutation — and every rank observes the
//!   identical [`RebalanceReport`];
//! * operations racing an epoch commit either succeed or fail with a
//!   *typed* error, and every acknowledged write survives the rebalance;
//! * leases granted before a membership commit are dead after it (the
//!   unified ownership epoch invalidates the client read cache);
//! * the single-partition containers' host-move seam
//!   (`extract_all`/`install_bulk`) preserves contents and order.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hcl::queue::QueueConfig;
use hcl::unordered::UnorderedMapConfig;
use hcl::{
    admit_rank, drain_rank, stable_hash, HclError, LeaseConfig, OrderedMap, PriorityQueue,
    Queue, UnorderedMap,
};
use hcl_runtime::{World, WorldConfig};
use proptest::prelude::*;

fn ww(nodes: u32, ranks_per_node: u32) -> WorldConfig {
    WorldConfig { nodes, ranks_per_node, ..WorldConfig::small() }
}

/// Elastic containers start exactly where the static default placed them:
/// one partition per node, owned by the node-leader ranks. Until a
/// rebalance, the membership layer is placement-invisible.
#[test]
fn elastic_default_placement_matches_node_leaders() {
    World::run(ww(2, 2), |rank| {
        let m: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "mem.place");
        rank.barrier();
        let map = rank.world().membership().current();
        assert_eq!(map.members(), &[0, 2], "initial members must be the node leaders");
        assert_eq!(m.partitions(), 2);
        for p in 0..m.partitions() {
            assert_eq!(m.server_of(p), map.members()[p]);
        }
        let k = rank.id() as u64;
        m.put(k, k + 1).unwrap();
        rank.barrier();
        for r in 0..rank.world_size() as u64 {
            assert_eq!(m.get(&r).unwrap(), Some(r + 1));
        }
        rank.barrier();
    });
}

/// Cross-container agreement pin: with 3 members × 8 vparts each, a
/// container still computing `hash % members` disagrees with the vpart map
/// for most keys — both maps must resolve every key identically, and to the
/// same rank the membership map names.
#[test]
fn cross_container_key_owner_agreement() {
    World::run(ww(3, 2), |rank| {
        let umap: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "mem.agree.u");
        let omap: OrderedMap<u64, u64> = OrderedMap::new(rank, "mem.agree.o");
        rank.barrier();
        let map = rank.world().membership().current();
        assert_eq!(map.members().len(), 3);
        assert!(map.vparts() > map.members().len(), "vparts must outnumber members");
        for k in 0..256u64 {
            let pu = umap.partition_of(&k);
            assert_eq!(pu, omap.partition_of(&k), "containers disagree on key {k}");
            assert_eq!(
                umap.server_of(pu),
                map.owner_of_hash(stable_hash(&k)),
                "container owner diverges from the partition map for key {k}"
            );
        }
        // And the agreement holds end-to-end: disjoint writers, every rank
        // reads every key back through both containers.
        let me = rank.id() as u64;
        for i in 0..32u64 {
            let k = me * 1000 + i;
            umap.put(k, k ^ 0xABCD).unwrap();
            omap.put(k, k ^ 0xABCD).unwrap();
        }
        rank.barrier();
        for r in 0..rank.world_size() as u64 {
            for i in 0..32u64 {
                let k = r * 1000 + i;
                assert_eq!(umap.get(&k).unwrap(), Some(k ^ 0xABCD), "umap misrouted {k}");
                assert_eq!(omap.get(&k).unwrap(), Some(k ^ 0xABCD), "omap misrouted {k}");
            }
        }
        rank.barrier();
    });
}

/// The tentpole acceptance path: drain a member, admit a brand-new rank,
/// re-admit the victim — after every committed transition both maps hold
/// exactly the same key multiset as before, every rank reports the same
/// numbers, and the victim owns nothing.
#[test]
fn drain_and_admit_preserve_every_key() {
    World::run(ww(2, 2), |rank| {
        let umap: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "mem.move.u");
        let omap: OrderedMap<u64, u64> = OrderedMap::new(rank, "mem.move.o");
        rank.barrier();
        let me = rank.id() as u64;
        let ws = rank.world_size() as u64;
        for i in 0..48u64 {
            let k = me * 100 + i;
            umap.put(k, k * 3).unwrap();
            omap.put(k, k * 7).unwrap();
        }
        rank.barrier();
        let mut base_u = umap.snapshot_all().unwrap();
        base_u.sort();
        let base_o = omap.snapshot_sorted().unwrap();
        let membership = Arc::clone(rank.world().membership());
        let e0 = membership.epoch();

        // Leave: rank 2 hands its shards to the survivors.
        let rep = drain_rank(rank, 2).unwrap();
        assert!(rep.committed);
        assert!(rep.moves > 0, "the victim owned vparts; something must move");
        assert!(rep.migrated_keys > 0, "the victim's vparts held keys");
        assert!(membership.epoch() > e0, "a commit must bump the epoch");
        let reports =
            rank.allgather((rep.epoch, rep.moves, rep.migrated_keys, rep.migrated_bytes));
        assert!(
            reports.iter().all(|r| *r == reports[0]),
            "ranks disagree on the rebalance report: {reports:?}"
        );
        let map = membership.current();
        assert!(!map.members().contains(&2));
        assert!(map.vparts_owned_by(2).is_empty(), "a drained rank owns nothing");

        let mut now_u = umap.snapshot_all().unwrap();
        now_u.sort();
        assert_eq!(now_u, base_u, "unordered keys lost or duplicated by the drain");
        assert_eq!(omap.snapshot_sorted().unwrap(), base_o, "ordered keys lost or duplicated");
        for r in 0..ws {
            for i in 0..48 {
                let k = r * 100 + i;
                assert_eq!(umap.get(&k).unwrap(), Some(k * 3), "umap lost {k} in the drain");
                assert_eq!(omap.get(&k).unwrap(), Some(k * 7), "omap lost {k} in the drain");
            }
        }
        // Barrier: no rank may write the post-drain keys below while another
        // is still snapshotting the pre-drain state.
        rank.barrier();
        // New writes route off the victim.
        let nk = 9_000 + me;
        umap.put(nk, nk).unwrap();
        assert_ne!(umap.server_of(umap.partition_of(&nk)), 2);
        rank.barrier();
        let mut base_u = umap.snapshot_all().unwrap();
        base_u.sort();

        // Join: rank 1 was never a member; it takes a fair share.
        let rep = admit_rank(rank, 1).unwrap();
        assert!(rep.committed);
        let map = membership.current();
        assert!(map.members().contains(&1));
        assert!(!map.vparts_owned_by(1).is_empty(), "an admitted rank owns a share");
        let mut now_u = umap.snapshot_all().unwrap();
        now_u.sort();
        assert_eq!(now_u, base_u, "keys lost or duplicated by the join");
        assert_eq!(omap.snapshot_sorted().unwrap(), base_o);

        // Re-admit the drained victim.
        let rep = admit_rank(rank, 2).unwrap();
        assert!(rep.committed);
        let mut now_u = umap.snapshot_all().unwrap();
        now_u.sort();
        assert_eq!(now_u, base_u, "keys lost or duplicated by the re-admit");
        assert_eq!(omap.snapshot_sorted().unwrap(), base_o);
        rank.barrier();

        // Telemetry: the membership gauges carry the story.
        let snap = rank.telemetry_snapshot();
        let gauge = |name: &str| {
            snap.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0)
        };
        assert_eq!(gauge("hcl_runtime_membership_commits"), 3);
        assert_eq!(gauge("hcl_runtime_membership_epoch"), membership.epoch());
        assert!(gauge("hcl_runtime_membership_migrated_keys") > 0);
        assert!(gauge("hcl_runtime_membership_migrated_bytes") > 0);
        rank.barrier();

        // The driver's flight recorder names the commits and the transfers.
        if rank.id() == 0 {
            let events = rank.telemetry().flight().events();
            assert!(
                events.iter().any(|e| e.op == "rebalance.commit"),
                "driver must record epoch commits"
            );
            assert!(
                events.iter().any(|e| e.op == "rebalance.transfer"),
                "driver must record shard transfers"
            );
        }
        rank.barrier();
    });
}

/// Operations racing the epoch commit: a writer thread churns puts and gets
/// through the rebalance; every op either succeeds or fails with a *typed*
/// epoch/rebalance error, reads never observe a hole, and every
/// acknowledged write is still there after the double rebalance.
#[test]
fn ops_straddling_epoch_commits_see_only_typed_errors() {
    World::run(ww(2, 2), |rank| {
        let umap: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "mem.straddle");
        rank.barrier();
        let me = rank.id() as u64;
        for i in 0..32u64 {
            umap.put(me * 100 + i, 1).unwrap();
        }
        rank.barrier();

        let stop = AtomicBool::new(false);
        let acked = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                // A second handle to the same world-shared container, owned
                // by this thread.
                let m: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "mem.straddle");
                let mut acked = Vec::new();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = 10_000 + me * 100_000 + i;
                    match m.put(k, k) {
                        Ok(_) => acked.push(k),
                        Err(HclError::WrongEpoch { .. }) | Err(HclError::Rebalance(_)) => {}
                        Err(e) => panic!("non-typed put failure during rebalance: {e}"),
                    }
                    let rk = me * 100 + (i % 32);
                    match m.get(&rk) {
                        Ok(v) => assert_eq!(v, Some(1), "read lost key {rk} mid-rebalance"),
                        Err(HclError::WrongEpoch { .. }) | Err(HclError::Rebalance(_)) => {}
                        Err(e) => panic!("non-typed get failure during rebalance: {e}"),
                    }
                    i += 1;
                }
                acked
            });
            // Live rebalance under the churn: leave, join, rejoin.
            assert!(drain_rank(rank, 2).unwrap().committed);
            assert!(admit_rank(rank, 3).unwrap().committed);
            assert!(admit_rank(rank, 2).unwrap().committed);
            stop.store(true, Ordering::Relaxed);
            writer.join().unwrap()
        });
        assert!(!acked.is_empty(), "the writer thread never got an op through");
        umap.flush_forwards().unwrap();
        rank.barrier();
        for k in &acked {
            assert_eq!(umap.get(k).unwrap(), Some(*k), "acknowledged write {k} lost");
        }
        rank.barrier();
    });
}

/// An op whose stale-epoch attempt is rejected and whose re-resolved
/// attempt then succeeds is *one* op, and the meter completes it once:
/// after enough drain/admit rounds under a put/get thread to provoke at
/// least one `WrongEpoch` rejection, each rank's `hcl_core_ops_err` equals
/// the number of `Err`s its client thread actually got back.
#[test]
fn wrong_epoch_rejections_complete_each_op_once() {
    const MAX_ROUNDS: usize = 40;
    let per_rank = World::run(ww(2, 2), |rank| {
        let _umap: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "mem.meter");
        rank.barrier();
        let (me, mut seen) = (rank.id() as u64, 0u64);
        let ops_err = || {
            let snap = rank.telemetry().snapshot();
            snap.counters.iter().find(|(k, _)| k == "hcl_core_ops_err").map_or(0, |(_, v)| *v)
        };
        let err0 = ops_err();
        for round in 1..=MAX_ROUNDS {
            let stop = AtomicBool::new(false);
            seen += std::thread::scope(|s| {
                let client = s.spawn(|| {
                    let m: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "mem.meter");
                    let mut errs = 0u64;
                    for k in (me * 1_000_000..).take_while(|_| !stop.load(Ordering::Relaxed)) {
                        errs += m.put(k, k).is_err() as u64 + m.get(&k).is_err() as u64;
                    }
                    errs
                });
                assert!(drain_rank(rank, 2).unwrap().committed);
                assert!(admit_rank(rank, 2).unwrap().committed);
                stop.store(true, Ordering::Relaxed);
                client.join().unwrap()
            });
            // Every client has stopped: the world-wide reject count is
            // settled, and rank 0's reading decides for everyone.
            rank.barrier();
            let counters = rank.world().membership().counters();
            let rejects = counters.wrong_epoch_rejects.load(Ordering::Relaxed);
            if rank.broadcast(0, (rank.id() == 0).then_some(rejects)) > 0 {
                break;
            }
            assert!(round < MAX_ROUNDS, "no op straddled an epoch commit in {MAX_ROUNDS} rounds");
        }
        (ops_err() - err0, seen)
    });
    // Asserted once every rank is done, so one rank's mismatch cannot leave
    // the others waiting at a barrier.
    for (r, (metered, returned)) in per_rank.into_iter().enumerate() {
        assert_eq!(metered, returned, "rank {r}: hcl_core_ops_err vs Errs returned");
    }
}

/// Leases are epoch-scoped: a 30-second lease granted before a membership
/// commit must not serve another read after it — the unified ownership
/// epoch (failure marks *and* membership commits share one cell) kills it.
#[test]
fn epoch_bump_invalidates_live_leases() {
    World::run(ww(2, 2), |rank| {
        let cfg = UnorderedMapConfig {
            hybrid: false, // force the remote path so every rank caches
            lease: Some(LeaseConfig {
                ttl: Duration::from_secs(30),
                hot_threshold: 2,
                ..LeaseConfig::default()
            }),
            ..UnorderedMapConfig::default()
        };
        let m: UnorderedMap<u64, u64> = UnorderedMap::with_config(rank, "mem.lease", cfg);
        rank.barrier();
        const K: u64 = 7;
        if rank.id() == 0 {
            m.put(K, 1).unwrap();
        }
        rank.barrier();
        // Warm a lease on every rank: enough repeats to cross hot_threshold
        // and then serve from the cache.
        for _ in 0..8 {
            assert_eq!(m.get(&K).unwrap(), Some(1));
        }
        let stats = m.cache_stats().expect("lease cache is configured");
        assert!(stats.lease_grants > 0, "the hot key never earned a lease");
        assert!(stats.hits > 0, "warm reads never hit the lease");
        let owner0 = m.server_of(m.partition_of(&K));
        rank.barrier();

        // Move the key's shard by draining its owner, then overwrite it at
        // the new owner.
        assert!(drain_rank(rank, owner0).unwrap().committed);
        assert_ne!(m.server_of(m.partition_of(&K)), owner0);
        if rank.id() == 1 {
            m.put(K, 2).unwrap();
        }
        rank.barrier();
        // TTL says the old lease is good for another ~30s. The epoch says
        // otherwise — every rank must read the new value now.
        assert_eq!(m.get(&K).unwrap(), Some(2), "a stale lease survived the epoch bump");
        assert!(
            m.cache_stats().expect("lease cache is configured").stale_epoch > 0,
            "the cache must count the epoch invalidation"
        );
        rank.barrier();
        admit_rank(rank, owner0).unwrap();
        rank.barrier();
    });
}

/// Host-move seam of the single-partition containers: extract∪install is a
/// permutation, and the queue's FIFO order survives the move.
#[test]
fn queue_and_pqueue_host_move_preserves_contents() {
    World::run(ww(2, 2), |rank| {
        let old_q: Queue<u64> =
            Queue::with_config(rank, "mem.q.old", QueueConfig { owner: 0, hybrid: true, ..Default::default() });
        let new_q: Queue<u64> =
            Queue::with_config(rank, "mem.q.new", QueueConfig { owner: 2, hybrid: true, ..Default::default() });
        let old_pq: PriorityQueue<u64> =
            PriorityQueue::with_config(rank, "mem.pq.old", QueueConfig { owner: 0, hybrid: true, ..Default::default() });
        let new_pq: PriorityQueue<u64> =
            PriorityQueue::with_config(rank, "mem.pq.new", QueueConfig { owner: 2, hybrid: true, ..Default::default() });
        rank.barrier();
        if rank.id() == 0 {
            for i in 0..20u64 {
                old_q.push(i).unwrap();
                old_pq.push(19 - i).unwrap();
            }
        }
        rank.barrier();
        if rank.id() == 1 {
            // Any rank may drive the move; the seam is one extract and one
            // bulk install per container.
            let moved = old_q.extract_all().unwrap();
            assert_eq!(moved.len(), 20);
            new_q.install_bulk(moved).unwrap();
            let moved = old_pq.extract_all().unwrap();
            assert_eq!(moved.len(), 20);
            new_pq.install_bulk(moved).unwrap();
        }
        rank.barrier();
        assert_eq!(old_q.len().unwrap(), 0, "extract must empty the old host");
        assert_eq!(old_pq.len().unwrap(), 0);
        if rank.id() == 3 {
            assert_eq!(
                new_q.snapshot().unwrap(),
                (0..20).collect::<Vec<u64>>(),
                "FIFO order must survive the move"
            );
            let mut popped = Vec::new();
            while let Some(v) = new_pq.pop().unwrap() {
                popped.push(v);
            }
            assert_eq!(popped, (0..20).collect::<Vec<u64>>(), "priority order lost");
        }
        rank.barrier();
    });
}

/// Interpreter for the proptest sequences: apply `ops` as a deterministic
/// join/leave schedule on a 2×2 world, interleave writes, and after every
/// committed transition compare the container against the model multiset.
fn check_sequence(ops: &[u8]) {
    let ops = ops.to_vec();
    World::run(ww(2, 2), move |rank| {
        let m: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "mem.seq");
        rank.barrier();
        let me = rank.id() as u64;
        let ws = rank.world_size();
        for i in 0..24u64 {
            let k = me * 1000 + i;
            m.put(k, k).unwrap();
        }
        rank.barrier();
        let membership = Arc::clone(rank.world().membership());
        let mut expected: BTreeSet<(u64, u64)> = (0..ws as u64)
            .flat_map(|r| (0..24u64).map(move |i| (r * 1000 + i, r * 1000 + i)))
            .collect();
        for (step, &b) in ops.iter().enumerate() {
            // Same decision on every rank, derived from the same map.
            let members = membership.current().members().to_vec();
            let subject = b as u32 % ws;
            let rep = if !members.contains(&subject) {
                admit_rank(rank, subject).unwrap()
            } else if members.len() > 1 {
                drain_rank(rank, subject).unwrap()
            } else {
                admit_rank(rank, (subject + 1) % ws).unwrap()
            };
            assert!(rep.committed, "step {step} did not commit");

            let k = 100_000 + step as u64 * 100 + me;
            m.put(k, k).unwrap();
            rank.barrier();
            for r in 0..ws as u64 {
                let k = 100_000 + step as u64 * 100 + r;
                expected.insert((k, k));
            }
            if rank.id() == 0 {
                let mut snap = m.snapshot_all().unwrap();
                snap.sort();
                let want: Vec<(u64, u64)> = expected.iter().copied().collect();
                assert_eq!(snap, want, "step {step}: keys lost or duplicated");
            }
            rank.barrier();
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any join/leave/migrate sequence loses no keys and duplicates none.
    #[test]
    fn any_join_leave_sequence_preserves_the_key_multiset(
        ops in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        check_sequence(&ops);
    }
}

/// Soak entry point for `just test-membership-soak`: a longer seeded
/// schedule, seed from the environment so CI can sweep.
#[test]
#[ignore = "soak target; run via `just test-membership-soak`"]
fn soak_membership_schedule_env_seed() {
    let seed = std::env::var("HCL_MEMBERSHIP_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(1);
    // Derive a 24-step schedule from the seed (splitmix-ish).
    let mut x = seed;
    let ops: Vec<u8> = (0..24)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect();
    check_sequence(&ops);
}

/// A migrator that refuses its first `fail_budget` begin() calls — a
/// deterministic stand-in for a transient mid-migration fault. Only the
/// driver calls begin(), so the countdown is driver-local and exact.
struct FlakyMigrator {
    remaining: std::sync::atomic::AtomicU64,
}

impl hcl::ShardMigrator for FlakyMigrator {
    fn name(&self) -> &str {
        "test.flaky"
    }
    fn begin(&self, _rank: &hcl_runtime::Rank, _mv: &hcl_runtime::ShardMove) -> hcl::HclResult<()> {
        if self
            .remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(HclError::Rebalance("injected transient begin fault".into()));
        }
        Ok(())
    }
    fn transfer(
        &self,
        _rank: &hcl_runtime::Rank,
        _mv: &hcl_runtime::ShardMove,
    ) -> hcl::HclResult<(u64, u64)> {
        Ok((0, 0))
    }
    fn end(
        &self,
        _rank: &hcl_runtime::Rank,
        _mv: &hcl_runtime::ShardMove,
        _committed: bool,
    ) -> hcl::HclResult<()> {
        Ok(())
    }
}

/// An aborted rebalance leaves no residue: after a transient copy-phase
/// fault (injected deterministically by a flaky migrator) the same drain
/// retried succeeds, with the data intact through both attempts and the
/// epoch bumped exactly once.
#[test]
fn aborted_rebalance_retries_cleanly_after_fault_clears() {
    World::run(ww(2, 2), |rank| {
        let umap: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "mem.retry.u");
        hcl::MigratorRegistry::shared(rank).register_once(
            "test.flaky",
            Arc::new(FlakyMigrator { remaining: std::sync::atomic::AtomicU64::new(1) }),
        );
        rank.barrier();
        let me = rank.id() as u64;
        for i in 0..32u64 {
            let k = me * 100 + i;
            umap.put(k, k + 9).unwrap();
        }
        rank.barrier();
        let membership = Arc::clone(rank.world().membership());
        let e0 = membership.epoch();

        // First attempt: the flaky migrator kills the copy phase on every
        // rank with the same typed error; nothing commits.
        let err = drain_rank(rank, 2).expect_err("flaky begin must abort the drain");
        assert!(
            matches!(&err, HclError::Rebalance(m) if m.contains("injected transient")),
            "unexpected abort error: {err}"
        );
        assert_eq!(membership.epoch(), e0, "aborted drain must not bump the epoch");
        assert!(membership.current().members().contains(&2));
        for r in 0..rank.world_size() as u64 {
            for i in 0..32 {
                let k = r * 100 + i;
                assert_eq!(umap.get(&k).unwrap(), Some(k + 9), "key {k} lost in the abort");
            }
        }
        rank.barrier();

        // The fault has cleared: the identical retried collective succeeds.
        let rep = drain_rank(rank, 2).unwrap();
        assert!(rep.committed);
        assert_eq!(membership.epoch(), e0 + 1, "retried drain commits exactly one epoch");
        assert!(!membership.current().members().contains(&2));
        for r in 0..rank.world_size() as u64 {
            for i in 0..32 {
                let k = r * 100 + i;
                assert_eq!(umap.get(&k).unwrap(), Some(k + 9), "key {k} lost in the retry");
            }
        }
        rank.barrier();
        admit_rank(rank, 2).unwrap();
        rank.barrier();
    });
}
