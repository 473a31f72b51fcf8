//! Cross-crate integration tests: the whole stack (databox → fabric → rpc →
//! runtime → containers) exercised end-to-end, plus HCL-vs-BCL semantic
//! equivalence on identical workloads.

use std::collections::HashMap;

use hcl::{UnorderedMap, UnorderedMapConfig};
use hcl_runtime::{FabricKind, World, WorldConfig};

fn mem_world(nodes: u32, rpn: u32) -> WorldConfig {
    WorldConfig { nodes, ranks_per_node: rpn, ..WorldConfig::small() }
}

#[test]
fn hcl_and_bcl_agree_on_identical_workload() {
    // The same key/value stream applied to both libraries must produce the
    // same final mapping — the semantics half of the paper's comparison.
    let results = World::run(mem_world(2, 2), |rank| {
        let h: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "agree.h");
        let b: bcl::BclHashMap<u64, u64> = bcl::BclHashMap::with_config(
            rank,
            "agree.b",
            bcl::BclMapConfig { buckets_per_partition: 4096, ..Default::default() },
        );
        let n = 200u64;
        for i in 0..n {
            let k = rank.id() as u64 * n + i;
            h.put(k, k * 3).unwrap();
            b.insert(&k, &(k * 3)).unwrap();
        }
        rank.barrier();
        let mut mismatches = 0;
        for r in 0..rank.world_size() as u64 {
            for i in 0..n {
                let k = r * n + i;
                if h.get(&k).unwrap() != b.find(&k).unwrap() {
                    mismatches += 1;
                }
            }
        }
        rank.barrier();
        mismatches
    });
    assert!(results.iter().all(|&m| m == 0));
}

#[test]
fn full_stack_over_tcp_with_complex_types() {
    // TCP provider end-to-end with nested DataBox values and async ops.
    let cfg = WorldConfig {
        nodes: 2,
        ranks_per_node: 2,
        fabric: FabricKind::Tcp,
        ..WorldConfig::small()
    };
    World::run(cfg, |rank| {
        type V = (String, Vec<(u32, String)>, Option<Vec<u8>>);
        let m: UnorderedMap<String, V> = UnorderedMap::new(rank, "tcp.complex");
        let v: V = (
            format!("rank {}", rank.id()),
            (0..5).map(|i| (i, format!("item-{i}"))).collect(),
            Some(vec![rank.id() as u8; 32]),
        );
        let fut = m.put_async(format!("k{}", rank.id()), v).unwrap();
        fut.wait().unwrap();
        rank.barrier();
        for r in 0..rank.world_size() {
            let got = m.get(&format!("k{r}")).unwrap().unwrap();
            assert_eq!(got.0, format!("rank {r}"));
            assert_eq!(got.1.len(), 5);
            assert_eq!(got.2.as_deref(), Some(&vec![r as u8; 32][..]));
        }
        rank.barrier();
    });
}

#[test]
fn merger_histogram_is_exact_under_full_concurrency() {
    // All ranks hammer overlapping hot keys through put_merge; totals must
    // be exact (server-side atomicity, unlike client-side RMW). The second
    // input issues the same increments through put_merge_async in windows of
    // 64: merges at a node-local owner take the bypass, remote ones stage on
    // the coalescer, and both reach the same server-side merger.
    let per_rank = 2_000u64;
    let hot_keys = 7u64;
    for async_merge in [false, true] {
        let results = World::run(mem_world(2, 4), move |rank| {
            let m: UnorderedMap<u64, u64> = UnorderedMap::with_merger(
                rank,
                "hist",
                UnorderedMapConfig::default(),
                std::sync::Arc::new(|old: Option<&u64>, d: &u64| old.copied().unwrap_or(0) + d),
            );
            rank.barrier();
            let mut window = Vec::new();
            for i in 0..per_rank {
                if !async_merge {
                    m.put_merge(i % hot_keys, 1).unwrap();
                    continue;
                }
                window.push(m.put_merge_async(i % hot_keys, 1).unwrap());
                if window.len() == 64 || i + 1 == per_rank {
                    for f in window.drain(..) {
                        f.wait().unwrap();
                    }
                }
            }
            rank.barrier();
            let total: u64 = (0..hot_keys).map(|k| m.get(&k).unwrap().unwrap()).sum();
            rank.barrier();
            total
        });
        for t in results {
            assert_eq!(t, 8 * per_rank, "increments lost under concurrency (async: {async_merge})");
        }
    }
}

#[test]
fn world_traffic_reflects_hybrid_savings() {
    // Run the same op mix with and without the hybrid model; the fabric's
    // send counter must show the difference (fewer RPCs with hybrid on).
    let run = |hybrid: bool| -> u64 {
        let shared = World::shared(mem_world(2, 2));
        let s2 = std::sync::Arc::clone(&shared);
        World::run_on(s2, move |rank| {
            let m: UnorderedMap<u64, u64> = UnorderedMap::with_config(
                rank,
                "traffic",
                UnorderedMapConfig { hybrid, ..Default::default() },
            );
            for i in 0..200u64 {
                m.put(rank.id() as u64 * 1000 + i, i).unwrap();
            }
            rank.barrier();
        });
        shared.traffic().sends
    };
    let with_hybrid = run(true);
    let without = run(false);
    assert!(
        with_hybrid < without,
        "hybrid {with_hybrid} sends must be < rpc-only {without}"
    );
}

#[test]
fn async_ops_coalesce_and_bulk_paths_report_batch_hit_rate() {
    // Request aggregation end-to-end: a burst of async puts from each rank
    // rides batched messages (observable in the rank's coalescer stats and
    // in the container's fb/fu cost split), bulk ops count as batched, and
    // the barrier's flush-before-sync makes everything visible afterwards.
    World::run(mem_world(2, 1), |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
            rank,
            "coal.map",
            UnorderedMapConfig { hybrid: false, ..UnorderedMapConfig::default() },
        );
        let q: hcl::Queue<u64> = hcl::Queue::with_config(
            rank,
            "coal.q",
            hcl::queue::QueueConfig { owner: 0, hybrid: false, ..Default::default() },
        );
        rank.barrier();
        let me = rank.id() as u64;
        let n = 64u64;
        // Async burst — never awaited individually; the barrier flushes.
        let futs: Vec<_> = (0..n).map(|i| map.put_async(me * n + i, i).unwrap()).collect();
        rank.barrier();
        for f in futs {
            f.wait().unwrap();
        }
        // Everything staged before the barrier is visible after it.
        for r in 0..rank.world_size() as u64 {
            for i in 0..n {
                assert_eq!(map.get(&(r * n + i)).unwrap(), Some(i));
            }
        }
        // Bulk path: one aggregated message, counted as batched.
        let pushed = q.push_bulk((0..n).map(|i| me * n + i).collect()).unwrap();
        assert_eq!(pushed, n);
        rank.barrier();

        let mc = map.costs();
        assert!(mc.fb > 0, "async puts never classified as batched: {mc}");
        assert!(mc.batch_hit_rate() > 0.0, "map batch hit rate is zero: {mc}");
        let qc = q.costs();
        assert!(qc.batch_hit_rate() > 0.0, "bulk push hit rate is zero: {qc}");
        let cs = rank.coalesce_stats();
        assert!(cs.batches > 0, "no batched messages were sent: {cs:?}");
        assert!(
            cs.avg_batch_size() > 1.0,
            "coalescer never merged concurrent ops: {cs:?}"
        );
        rank.barrier();
    });
}

#[test]
fn many_containers_coexist_in_one_world() {
    // fn-id allocation and the object store must isolate containers.
    World::run(mem_world(2, 2), |rank| {
        let maps: Vec<UnorderedMap<u64, u64>> =
            (0..8).map(|i| UnorderedMap::new(rank, &format!("multi{i}"))).collect();
        let qs: Vec<hcl::Queue<u64>> =
            (0..4).map(|i| hcl::Queue::new(rank, &format!("mq{i}"))).collect();
        rank.barrier();
        for (i, m) in maps.iter().enumerate() {
            m.put(rank.id() as u64, i as u64 * 1_000 + rank.id() as u64).unwrap();
        }
        for (i, q) in qs.iter().enumerate() {
            q.push(i as u64 * 10 + rank.id() as u64).unwrap();
        }
        rank.barrier();
        for (i, m) in maps.iter().enumerate() {
            for r in 0..rank.world_size() as u64 {
                assert_eq!(
                    m.get(&r).unwrap(),
                    Some(i as u64 * 1_000 + r),
                    "cross-container contamination in map {i}"
                );
            }
        }
        rank.barrier();
        if rank.id() == 0 {
            for (i, q) in qs.iter().enumerate() {
                let mut got = Vec::new();
                while let Some(v) = q.pop().unwrap() {
                    got.push(v);
                }
                assert_eq!(got.len(), 4);
                assert!(got.iter().all(|v| v / 10 == i as u64));
            }
        }
        rank.barrier();
    });
}

#[test]
fn isx_pipeline_end_to_end_both_libraries() {
    use hcl_apps::isx::{run_bcl, run_hcl, validate, IsxConfig};
    let cfg = IsxConfig { keys_per_rank: 400, key_space: 1 << 20, seed: 99 };
    let h = World::run(mem_world(2, 2), move |rank| run_hcl(rank, &cfg));
    assert!(validate(&h, &cfg, 4, 2));
    let b = World::run(mem_world(2, 2), move |rank| run_bcl(rank, &cfg));
    assert!(validate(&b, &cfg, 4, 2));
    // Identical sorted output.
    let hk: Vec<u64> = h.into_iter().flat_map(|r| r.sorted).collect();
    let bk: Vec<u64> = b.into_iter().flat_map(|r| r.sorted).collect();
    let mut hs = hk.clone();
    hs.sort_unstable();
    let mut bs = bk.clone();
    bs.sort_unstable();
    assert_eq!(hs, bs);
}

#[test]
fn kmer_counting_matches_reference_over_tcp() {
    use hcl_apps::genome::{kmers_of, sample_reads, synth_genome};
    use hcl_apps::meraculous::count_kmers_hcl;
    let genome = synth_genome(600, 4242);
    let cfg = WorldConfig {
        nodes: 2,
        ranks_per_node: 2,
        fabric: FabricKind::Tcp,
        ..WorldConfig::small()
    };
    let g2 = genome.clone();
    let results = World::run(cfg, move |rank| {
        let reads = sample_reads(&g2, 40, 10, 0.0, 9_000 + rank.id() as u64);
        count_kmers_hcl(rank, "tcp.kmer", &reads, 13)
    });
    let mut reference: HashMap<u64, u64> = HashMap::new();
    for r in 0..4u64 {
        for read in sample_reads(&genome, 40, 10, 0.0, 9_000 + r) {
            for km in kmers_of(&read.bases, 13) {
                *reference.entry(km).or_default() += 1;
            }
        }
    }
    assert_eq!(results[0], reference);
}
