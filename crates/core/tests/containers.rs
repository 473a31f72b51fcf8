//! SPMD integration tests for every HCL container.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use hcl::{
    admit_rank, MigratorRegistry, OrderedMap, OrderedSet, PersistConfig, PriorityQueue, Queue,
    UnorderedMap, UnorderedMapConfig, UnorderedSet,
};
use hcl_runtime::{FabricKind, ShardMove, World, WorldConfig};

fn small_world() -> WorldConfig {
    WorldConfig { nodes: 2, ranks_per_node: 2, ..WorldConfig::small() }
}

#[test]
fn unordered_map_put_get_across_nodes() {
    World::run(small_world(), |rank| {
        let map: UnorderedMap<String, u64> = UnorderedMap::new(rank, "m1");
        map.put(format!("key-{}", rank.id()), rank.id() as u64 * 11).unwrap();
        rank.barrier();
        for r in 0..rank.world_size() {
            assert_eq!(map.get(&format!("key-{r}")).unwrap(), Some(r as u64 * 11));
        }
        assert_eq!(map.get(&"missing".to_string()).unwrap(), None);
        rank.barrier();
        assert_eq!(map.len().unwrap(), rank.world_size() as u64);
    });
}

#[test]
fn unordered_map_erase_and_overwrite() {
    World::run(small_world(), |rank| {
        let map: UnorderedMap<u64, String> = UnorderedMap::new(rank, "m2");
        if rank.id() == 0 {
            for k in 0..20u64 {
                assert!(map.put(k, format!("v{k}")).unwrap());
            }
            // Overwrite returns false (not newly inserted).
            assert!(!map.put(3, "replaced".into()).unwrap());
        }
        rank.barrier();
        assert_eq!(map.get(&3).unwrap(), Some("replaced".to_string()));
        rank.barrier();
        if rank.id() == rank.world_size() - 1 {
            assert_eq!(map.erase(&3).unwrap(), Some("replaced".to_string()));
            assert_eq!(map.erase(&3).unwrap(), None);
        }
        rank.barrier();
        assert_eq!(map.get(&3).unwrap(), None);
        assert_eq!(map.len().unwrap(), 19);
    });
}

#[test]
fn unordered_map_async_futures() {
    World::run(small_world(), |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "m3");
        let futs: Vec<_> = (0..50u64)
            .map(|i| map.put_async(rank.id() as u64 * 1000 + i, i).unwrap())
            .collect();
        for f in &futs {
            f.wait().unwrap();
        }
        rank.barrier();
        let gets: Vec<_> = (0..50u64)
            .map(|i| {
                let peer = ((rank.id() + 1) % rank.world_size()) as u64;
                map.get_async(&(peer * 1000 + i)).unwrap()
            })
            .collect();
        for (i, f) in gets.iter().enumerate() {
            assert_eq!(f.wait().unwrap(), Some(i as u64));
        }
    });
}

#[test]
fn unordered_map_concurrent_all_ranks_hammer() {
    let cfg = WorldConfig { nodes: 2, ranks_per_node: 4, ..WorldConfig::small() };
    let results = World::run(cfg, |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "m4");
        let n = 500u64;
        for i in 0..n {
            map.put(rank.id() as u64 * n + i, i).unwrap();
        }
        rank.barrier();
        // Every rank verifies every entry.
        let mut ok = 0u64;
        for r in 0..rank.world_size() as u64 {
            for i in 0..n {
                if map.get(&(r * n + i)).unwrap() == Some(i) {
                    ok += 1;
                }
            }
        }
        ok
    });
    for ok in results {
        assert_eq!(ok, 8 * 500);
    }
}

#[test]
fn unordered_map_resize_preserves_data() {
    World::run(small_world(), |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
            rank,
            "m5",
            UnorderedMapConfig { initial_buckets: 4, ..Default::default() },
        );
        if rank.id() == 0 {
            for k in 0..200u64 {
                map.put(k, k * 3).unwrap();
            }
            // Explicit per-partition resize on top of automatic growth.
            for p in 0..map.partitions() {
                assert!(map.resize(p, 1024).unwrap());
                assert!(map.partition_buckets(p) >= 1024);
            }
        }
        rank.barrier();
        for k in 0..200u64 {
            assert_eq!(map.get(&k).unwrap(), Some(k * 3), "lost key {k} after resize");
        }
    });
}

#[test]
fn unordered_map_hybrid_vs_rpc_same_results() {
    World::run(small_world(), |rank| {
        let hybrid: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "m6h");
        let rpc_only: UnorderedMap<u64, u64> = UnorderedMap::with_config(
            rank,
            "m6r",
            UnorderedMapConfig { hybrid: false, ..Default::default() },
        );
        for i in 0..100u64 {
            let k = rank.id() as u64 * 100 + i;
            hybrid.put(k, i).unwrap();
            rpc_only.put(k, i).unwrap();
        }
        rank.barrier();
        for r in 0..rank.world_size() as u64 {
            for i in 0..100 {
                let k = r * 100 + i;
                assert_eq!(hybrid.get(&k).unwrap(), rpc_only.get(&k).unwrap());
            }
        }
        // The hybrid map must have made strictly fewer remote invocations.
        assert!(hybrid.costs().f < rpc_only.costs().f);
        // The rpc-only map performed zero local-path ops.
        assert_eq!(rpc_only.costs().l, 0);
    });
}

#[test]
fn unordered_map_snapshot_all_sees_everything() {
    World::run(small_world(), |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "m7");
        map.put(rank.id() as u64, rank.id() as u64).unwrap();
        rank.barrier();
        let snap = map.snapshot_all().unwrap();
        let keys: HashSet<u64> = snap.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys.len(), rank.world_size() as usize);
    });
}

#[test]
fn unordered_set_semantics() {
    World::run(small_world(), |rank| {
        let set: UnorderedSet<String> = UnorderedSet::new(rank, "s1");
        let newly = set.insert(format!("item-{}", rank.id() % 2)).unwrap();
        // Two ranks insert "item-0", two insert "item-1": exactly one of
        // each pair sees `true`... but races make that unverifiable here;
        // verify final membership instead.
        let _ = newly;
        rank.barrier();
        assert!(set.contains(&"item-0".to_string()).unwrap());
        assert!(set.contains(&"item-1".to_string()).unwrap());
        assert!(!set.contains(&"item-9".to_string()).unwrap());
        assert_eq!(set.len().unwrap(), 2);
        rank.barrier();
        if rank.id() == 0 {
            assert!(set.remove(&"item-0".to_string()).unwrap());
            assert!(!set.remove(&"item-0".to_string()).unwrap());
        }
        rank.barrier();
        assert_eq!(set.len().unwrap(), 1);
    });
}

#[test]
fn ordered_map_global_order() {
    World::run(small_world(), |rank| {
        let map: OrderedMap<u64, String> = OrderedMap::new(rank, "o1");
        // Interleaved keys from all ranks.
        for i in 0..25u64 {
            let k = i * rank.world_size() as u64 + rank.id() as u64;
            map.put(k, format!("v{k}")).unwrap();
        }
        rank.barrier();
        assert_eq!(map.len().unwrap(), 100);
        assert_eq!(map.first().unwrap(), Some((0, "v0".to_string())));
        let all = map.snapshot_sorted().unwrap();
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "global sort violated");
        let r = map.range(&10, &20).unwrap();
        assert_eq!(r.len(), 10);
        assert!(r.iter().all(|(k, _)| (10..20).contains(k)));
    });
}

#[test]
fn ordered_map_erase_and_contains() {
    World::run(small_world(), |rank| {
        let map: OrderedMap<String, u64> = OrderedMap::new(rank, "o2");
        if rank.id() == 1 {
            map.put("alpha".into(), 1).unwrap();
            map.put("beta".into(), 2).unwrap();
        }
        rank.barrier();
        assert!(map.contains(&"alpha".to_string()).unwrap());
        rank.barrier();
        if rank.id() == 2 {
            assert_eq!(map.erase(&"alpha".to_string()).unwrap(), Some(1));
        }
        rank.barrier();
        assert!(!map.contains(&"alpha".to_string()).unwrap());
        assert!(map.contains(&"beta".to_string()).unwrap());
    });
}

#[test]
fn ordered_set_sorted_snapshot() {
    World::run(small_world(), |rank| {
        let set: OrderedSet<u32> = OrderedSet::new(rank, "os1");
        set.insert(100 - rank.id()).unwrap();
        set.insert(rank.id()).unwrap();
        rank.barrier();
        let snap = set.snapshot_sorted().unwrap();
        assert!(snap.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(snap.len(), 2 * rank.world_size() as usize);
        assert_eq!(set.first().unwrap(), Some(0));
        let r = set.range(&0, &4).unwrap();
        assert_eq!(r, vec![0, 1, 2, 3]);
    });
}

#[test]
fn fifo_queue_mwmr() {
    let cfg = WorldConfig { nodes: 2, ranks_per_node: 2, ..WorldConfig::small() };
    let results = World::run(cfg, |rank| {
        let q: Queue<u64> = Queue::new(rank, "q1");
        let per = 100u64;
        for i in 0..per {
            q.push(rank.id() as u64 * per + i).unwrap();
        }
        rank.barrier();
        // Everyone pops their share; total must conserve.
        let mut got = Vec::new();
        for _ in 0..per {
            if let Some(v) = q.pop().unwrap() {
                got.push(v);
            }
        }
        rank.barrier();
        // Drain leftovers from rank 0.
        if rank.id() == 0 {
            while let Some(v) = q.pop().unwrap() {
                got.push(v);
            }
        }
        got
    });
    let all: Vec<u64> = results.into_iter().flatten().collect();
    assert_eq!(all.len(), 400);
    let set: HashSet<u64> = all.iter().copied().collect();
    assert_eq!(set.len(), 400, "queue duplicated or lost elements");
}

#[test]
fn fifo_queue_bulk_ops_and_remote_owner() {
    World::run(small_world(), |rank| {
        // Host the queue on the last rank so node-0 ranks go remote.
        let q: Queue<String> = Queue::with_config(
            rank,
            "q2",
            hcl::queue::QueueConfig { owner: 3, hybrid: true, ..Default::default() },
        );
        if rank.id() == 0 {
            let n = q.push_bulk((0..10).map(|i| format!("e{i}")).collect()).unwrap();
            assert_eq!(n, 10);
            // Remote push from node 0 to owner on node 1 must count F.
            assert!(q.costs().f >= 1);
        }
        rank.barrier();
        if rank.id() == 3 {
            let got = q.pop_bulk(4).unwrap();
            assert_eq!(got, vec!["e0", "e1", "e2", "e3"]);
            assert_eq!(q.len().unwrap(), 6);
            // Owner-side ops are local (hybrid): no F.
            assert_eq!(q.costs().f, 0);
        }
        rank.barrier();
    });
}

#[test]
fn priority_queue_global_min_order() {
    World::run(small_world(), |rank| {
        let pq: PriorityQueue<u64> = PriorityQueue::new(rank, "pq1");
        // Each rank pushes a stripe, unsorted.
        let vals: Vec<u64> =
            (0..50u64).map(|i| (i * 7919 + rank.id() as u64 * 13) % 10_000).collect();
        for v in &vals {
            pq.push(*v).unwrap();
        }
        rank.barrier();
        assert_eq!(pq.len().unwrap(), 200);
        rank.barrier();
        if rank.id() == 0 {
            let mut drained = Vec::new();
            while let Some(v) = pq.pop().unwrap() {
                drained.push(v);
            }
            assert_eq!(drained.len(), 200);
            assert!(drained.windows(2).all(|w| w[0] <= w[1]), "pop order not sorted");
        }
        rank.barrier();
    });
}

#[test]
fn priority_queue_peek_purge_bulk() {
    World::run(small_world(), |rank| {
        let pq: PriorityQueue<(u32, String)> = PriorityQueue::new(rank, "pq2");
        if rank.id() == 1 {
            pq.push_bulk(vec![
                (3, "low".into()),
                (1, "high".into()),
                (2, "mid".into()),
            ])
            .unwrap();
        }
        rank.barrier();
        assert_eq!(pq.peek().unwrap(), Some((1, "high".to_string())));
        rank.barrier();
        if rank.id() == 2 {
            let two = pq.pop_bulk(2).unwrap();
            assert_eq!(two, vec![(1, "high".to_string()), (2, "mid".to_string())]);
            let _ = pq.purge().unwrap();
            assert_eq!(pq.len().unwrap(), 1);
        }
        rank.barrier();
    });
}

#[test]
fn persistence_survives_world_restart() {
    let dir = std::env::temp_dir().join(format!("hcl-persist-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pcfg = PersistConfig::strict(&dir);
    // First world: write.
    {
        let pcfg = pcfg.clone();
        World::run(small_world(), move |rank| {
            let map: UnorderedMap<u64, String> = UnorderedMap::with_config(
                rank,
                "pm",
                UnorderedMapConfig { persist: Some(pcfg.clone()), ..Default::default() },
            );
            map.put(rank.id() as u64, format!("durable-{}", rank.id())).unwrap();
            rank.barrier();
            if rank.id() == 0 {
                map.put(100, "to-be-erased".into()).unwrap();
                map.erase(&100).unwrap();
            }
            rank.barrier();
        });
    }
    // Second world: recover by replaying the logs.
    {
        let pcfg = pcfg.clone();
        World::run(small_world(), move |rank| {
            let map: UnorderedMap<u64, String> = UnorderedMap::with_config(
                rank,
                "pm",
                UnorderedMapConfig { persist: Some(pcfg.clone()), ..Default::default() },
            );
            rank.barrier();
            for r in 0..rank.world_size() {
                assert_eq!(
                    map.get(&(r as u64)).unwrap(),
                    Some(format!("durable-{r}")),
                    "entry of rank {r} lost across restart"
                );
            }
            assert_eq!(map.get(&100).unwrap(), None, "erase was not replayed");
        });
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every keyed container hosted on a rank forwards through that rank's one
/// forward client. With a client per container, two maps on one host both
/// numbered their forwards from 1 at the same auxiliary endpoint; the target
/// server skips a reply whose request id its slot has already passed, so the
/// second map's first forward was never answered and its flush waited out
/// the 30 s client timeout. Timed inside the world, asserted after it ends.
#[test]
fn maps_on_one_host_share_its_forward_client() {
    let cfg = WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() };
    let flushed = World::run(cfg, |rank| {
        let a: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "fwd-a");
        let b: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "fwd-b");
        rank.barrier();
        let mut flushed = (Duration::ZERO, Ok(()));
        if rank.id() == 0 {
            // One vpart rank 0 owns, in a write-forwarding window toward rank
            // 1 on both maps: the bypass applies each put here, and rank 0's
            // shard forwards it to rank 1.
            let membership = rank.world().membership();
            let vpart_of = |k: &u64| membership.current().vpart_of_hash(hcl::stable_hash(k));
            let k0 = (0u64..).find(|k| a.server_of(a.partition_of(k)) == 0).unwrap();
            let mv = ShardMove { vpart: vpart_of(&k0), from: 0, to: 1 };
            let migrators = MigratorRegistry::shared(rank).migrators();
            migrators.iter().for_each(|m| m.begin(rank, &mv).unwrap());
            let mut window = (k0..).filter(|k| vpart_of(k) == mv.vpart);
            for k in window.by_ref().take(5) {
                a.put(k, k).unwrap();
            }
            let k = window.next().unwrap();
            b.put(k, k).unwrap();
            let t = Instant::now();
            let done = b.flush_forwards().and(a.flush_forwards());
            flushed = (t.elapsed(), done);
            migrators.iter().for_each(|m| m.end(rank, &mv, false).unwrap());
        }
        rank.barrier();
        flushed
    });
    let (took, done) = &flushed[0];
    assert!(*took < Duration::from_secs(5), "forward flush took {took:?}");
    assert_eq!(*done, Ok(()), "a forward failed");
}

#[test]
fn log_compaction_keeps_recoverability() {
    let dir = std::env::temp_dir().join(format!("hcl-compact-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pcfg = PersistConfig::strict(&dir);
    {
        let pcfg = pcfg.clone();
        World::run(small_world(), move |rank| {
            let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
                rank,
                "cm",
                UnorderedMapConfig { persist: Some(pcfg.clone()), ..Default::default() },
            );
            if rank.id() == 0 {
                // Lots of overwrites -> log much bigger than live set.
                for round in 0..10u64 {
                    for k in 0..20u64 {
                        map.put(k, round * 100 + k).unwrap();
                    }
                }
            }
            rank.barrier();
            map.compact_local_logs().unwrap();
            rank.barrier();
        });
    }
    {
        let pcfg = pcfg.clone();
        World::run(small_world(), move |rank| {
            let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
                rank,
                "cm",
                UnorderedMapConfig { persist: Some(pcfg.clone()), ..Default::default() },
            );
            rank.barrier();
            for k in 0..20u64 {
                assert_eq!(map.get(&k).unwrap(), Some(900 + k));
            }
        });
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `compact_local_logs` compacts every shard hosted on the caller's node:
/// rank 1 leads no node, but once admitted as an owner its shard logs
/// writes like any other, and its log must shrink to its live entries too.
#[test]
fn compaction_reaches_shards_of_non_leader_hosts() {
    let dir = std::env::temp_dir().join(format!("hcl-compact-hosts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = WorldConfig { nodes: 1, ranks_per_node: 2, ..WorldConfig::small() };
    let pcfg = PersistConfig::strict(&dir);
    World::run(cfg, move |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
            rank,
            "compact-hosts",
            UnorderedMapConfig { persist: Some(pcfg.clone()), ..Default::default() },
        );
        assert!(admit_rank(rank, 1).unwrap().committed);
        if rank.id() == 0 {
            for (v, k) in (0..3u64).flat_map(|v| (0..200u64).map(move |k| (v, k))) {
                map.put(k, k + v).unwrap();
            }
        }
        rank.barrier();
        let records = |h: u32| map.shard_at(h).wal().unwrap().records();
        let live = |h: u32| map.shard_at(h).store().len() as u64;
        assert_eq!(records(1), 3 * live(1), "rank 1's shard logged its overwrites");
        map.compact_local_logs().unwrap();
        rank.barrier();
        for h in [0, 1] {
            assert_eq!(records(h), live(h), "shard {h}'s log was not compacted");
        }
        rank.barrier();
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn containers_over_tcp_fabric() {
    let cfg = WorldConfig {
        nodes: 2,
        ranks_per_node: 2,
        fabric: FabricKind::Tcp,
        ..WorldConfig::small()
    };
    World::run(cfg, |rank| {
        let map: UnorderedMap<u64, String> = UnorderedMap::new(rank, "tcp-m");
        let q: Queue<u64> = Queue::new(rank, "tcp-q");
        map.put(rank.id() as u64, format!("tcp-{}", rank.id())).unwrap();
        q.push(rank.id() as u64).unwrap();
        rank.barrier();
        for r in 0..rank.world_size() {
            assert_eq!(map.get(&(r as u64)).unwrap(), Some(format!("tcp-{r}")));
        }
        rank.barrier();
        if rank.id() == 0 {
            let mut seen = HashSet::new();
            while let Some(v) = q.pop().unwrap() {
                seen.insert(v);
            }
            assert_eq!(seen.len(), 4);
        }
        rank.barrier();
    });
}

#[test]
fn complex_value_types_roundtrip() {
    World::run(small_world(), |rank| {
        // Nested, variable-length values: the DataBox surface end-to-end.
        type Val = (String, Vec<u64>, Option<Vec<String>>);
        let map: UnorderedMap<String, Val> = UnorderedMap::new(rank, "cx");
        let v: Val = (
            format!("rank {}", rank.id()),
            (0..rank.id() as u64 + 1).collect(),
            if rank.id() % 2 == 0 { Some(vec!["a".into(), "b".into()]) } else { None },
        );
        map.put(format!("k{}", rank.id()), v.clone()).unwrap();
        rank.barrier();
        let peer = (rank.id() + 2) % rank.world_size();
        let got = map.get(&format!("k{peer}")).unwrap().unwrap();
        assert_eq!(got.0, format!("rank {peer}"));
        assert_eq!(got.1.len() as u32, peer + 1);
    });
}

#[test]
fn batch_ops_aggregate_requests() {
    World::run(small_world(), |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
            rank,
            "batch",
            UnorderedMapConfig { hybrid: false, ..Default::default() },
        );
        if rank.id() == 0 {
            let entries: Vec<(u64, u64)> = (0..100).map(|k| (k, k * 7)).collect();
            let before_f = map.costs().f;
            let newly = map.put_batch(entries).unwrap();
            assert_eq!(newly, 100);
            let batch_f = map.costs().f - before_f;
            // With 2 partitions, at most 2 aggregated invocations instead
            // of 100 (the paper's request aggregation).
            assert!(batch_f <= 2, "batch used {batch_f} invocations");
            let keys: Vec<u64> = (0..110).collect();
            let before_f = map.costs().f;
            let got = map.get_batch(&keys).unwrap();
            assert!(map.costs().f - before_f <= 2);
            for (k, v) in keys.iter().zip(&got) {
                if *k < 100 {
                    assert_eq!(*v, Some(k * 7));
                } else {
                    assert_eq!(*v, None);
                }
            }
            // Re-inserting the same keys is all overwrites.
            let again = map.put_batch((0..100).map(|k| (k, k)).collect()).unwrap();
            assert_eq!(again, 0);
        }
        rank.barrier();
        // Everyone sees the batched data.
        assert_eq!(map.get(&42).unwrap(), Some(42));
        rank.barrier();
    });
}

#[test]
fn queue_snapshot_matches_contents_without_consuming() {
    World::run(small_world(), |rank| {
        let q: Queue<u64> = Queue::new(rank, "snapview");
        if rank.id() == 0 {
            for i in 0..10 {
                q.push(i).unwrap();
            }
        }
        rank.barrier();
        let snap = q.snapshot().unwrap();
        assert_eq!(snap, (0..10).collect::<Vec<u64>>());
        rank.barrier();
        assert_eq!(q.len().unwrap(), 10, "snapshot must not consume");
    });
}

#[test]
fn async_variants_on_every_container() {
    World::run(small_world(), |rank| {
        let om: OrderedMap<u64, u64> = OrderedMap::new(rank, "async.om");
        let q: Queue<u64> = Queue::with_config(
            rank,
            "async.q",
            hcl::queue::QueueConfig { owner: 2, hybrid: true, ..Default::default() },
        );
        let pq: PriorityQueue<u64> = PriorityQueue::with_config(
            rank,
            "async.pq",
            hcl::queue::QueueConfig { owner: 2, hybrid: true, ..Default::default() },
        );
        let us: UnorderedSet<u64> = UnorderedSet::new(rank, "async.us");
        // Fire a wave of async ops and wait them all.
        let f1 = om.put_async(rank.id() as u64, rank.id() as u64 * 2).unwrap();
        let f2 = q.push_async(rank.id() as u64).unwrap();
        let f3 = pq.push_async(rank.id() as u64).unwrap();
        let f4 = us.insert_async(rank.id() as u64).unwrap();
        assert!(f1.wait().is_ok());
        assert!(f2.wait().unwrap());
        assert!(f3.wait().unwrap());
        f4.wait().unwrap();
        // A completed future reports ready and can be awaited repeatedly.
        assert!(f1.is_ready());
        assert!(f1.wait().is_ok());
        rank.barrier();
        for r in 0..rank.world_size() as u64 {
            assert_eq!(om.get(&r).unwrap(), Some(r * 2));
            assert!(us.contains(&r).unwrap());
        }
        assert_eq!(q.len().unwrap(), 4);
        assert_eq!(pq.len().unwrap(), 4);
        rank.barrier();
    });
}

#[test]
fn partition_distribution_is_reasonably_uniform() {
    World::run(small_world(), |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "dist");
        if rank.id() == 0 {
            let n = 10_000u64;
            let parts = map.partitions();
            let mut counts = vec![0u64; parts];
            for k in 0..n {
                counts[map.partition_of(&k)] += 1;
            }
            let expect = n / parts as u64;
            for (p, &c) in counts.iter().enumerate() {
                assert!(
                    c > expect / 2 && c < expect * 2,
                    "partition {p} got {c} of {n} keys (expected ~{expect})"
                );
            }
        }
        rank.barrier();
    });
}

#[test]
fn server_stats_reflect_handler_executions() {
    let shared = World::shared(small_world());
    let s2 = std::sync::Arc::clone(&shared);
    World::run_on(s2, |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
            rank,
            "stats",
            UnorderedMapConfig { hybrid: false, ..Default::default() },
        );
        for i in 0..50u64 {
            map.put(rank.id() as u64 * 100 + i, i).unwrap();
        }
        rank.barrier();
    });
    let stats = shared.server_stats();
    assert!(stats.requests >= 200, "4 ranks x 50 rpc puts, got {}", stats.requests);
    assert!(stats.busy_ns > 0);
    assert!(shared.response_buffer_bytes() > 0);
}
