//! Property: live-vs-recovered equivalence, per container (PR 10).
//!
//! For every container a random op sequence is applied to a durable
//! instance in one world; a second world over the same log directory then
//! recovers purely by WAL replay. The recovered contents must be
//! *byte-identical* (compared through each container's canonical snapshot
//! encoding) to the live contents the first world ended with — puts,
//! erases, pushes, pops and compaction included.

use std::time::Duration;

use hcl::queue::QueueConfig;
use hcl::unordered::UnorderedMapConfig;
use hcl::{OrderedConfig, PersistConfig, PriorityQueue, Queue, SyncPolicy, UnorderedMap};
use hcl_databox::DataBox;
use hcl_runtime::{World, WorldConfig};
use proptest::prelude::*;

fn ww() -> WorldConfig {
    WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hcl-prop-persist-{}-{tag}-{:016x}",
        std::process::id(),
        proptest::current_case_seed().expect("inside a proptest case")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Alternate policies case to case: replay correctness must not depend on
/// the sync epoch (relaxed logs are made durable by the final pass of the
/// world's deadline thread at teardown + drop sync).
fn policy_for(seed: u64) -> SyncPolicy {
    if seed % 2 == 0 {
        SyncPolicy::Strict
    } else {
        SyncPolicy::Relaxed { interval: Duration::from_millis(5) }
    }
}

/// The relaxed policy promises durability one flush gap after an append, not
/// at its ack, and the live world's containers are leaked rather than
/// dropped — the relaxed gap, a deadline on the world's `hcl-deadline`
/// thread, is what carries the tail to disk. Wait the gap out before
/// reopening. (This used to be hidden by world set-up taking
/// longer than the gap.)
fn wait_out_flush_gap(policy: SyncPolicy) {
    if let Some(gap) = policy.interval() {
        std::thread::sleep(gap * 4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// UnorderedMap: random put/erase/compact stream; recovered contents
    /// encode byte-identically to the live contents.
    #[test]
    fn unordered_map_replay_matches_live(
        ops in proptest::collection::vec((0u8..3, 0u64..48, any::<u64>()), 1..120)
    ) {
        let dir = scratch("umap");
        let pcfg = PersistConfig {
            policy: policy_for(proptest::current_case_seed().unwrap()),
            ..PersistConfig::strict(&dir)
        };
        let ops2 = ops.clone();
        let pcfg1 = pcfg.clone();
        let live = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let live2 = std::sync::Arc::clone(&live);
        World::run(ww(), move |rank| {
            let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
                rank,
                "prop.umap",
                UnorderedMapConfig { persist: Some(pcfg1.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                for (op, k, v) in &ops2 {
                    match op {
                        0 => { map.put(*k, *v).unwrap(); }
                        1 => { map.erase(k).unwrap(); }
                        _ => { map.compact_local_logs().unwrap(); }
                    }
                }
            }
            rank.barrier();
            // Other ranks compact too: every rank's local parts, some empty.
            map.compact_local_logs().unwrap();
            rank.barrier();
            if rank.id() == 0 {
                let mut snap = map.snapshot_all().unwrap();
                snap.sort();
                *live2.lock() = snap.to_bytes().to_vec();
            }
            rank.barrier();
        });
        wait_out_flush_gap(pcfg.policy);
        let recovered = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let recovered2 = std::sync::Arc::clone(&recovered);
        World::run(ww(), move |rank| {
            let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
                rank,
                "prop.umap",
                UnorderedMapConfig { persist: Some(pcfg.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                let mut snap = map.snapshot_all().unwrap();
                snap.sort();
                *recovered2.lock() = snap.to_bytes().to_vec();
            }
            rank.barrier();
        });
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(&*live.lock(), &*recovered.lock());
    }

    /// OrderedMap: same contract over the skiplist partitions.
    #[test]
    fn ordered_map_replay_matches_live(
        ops in proptest::collection::vec((0u8..2, 0u64..48, any::<u64>()), 1..120)
    ) {
        let dir = scratch("omap");
        let pcfg = PersistConfig {
            policy: policy_for(proptest::current_case_seed().unwrap()),
            ..PersistConfig::strict(&dir)
        };
        let ops2 = ops.clone();
        let pcfg1 = pcfg.clone();
        let live = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let live2 = std::sync::Arc::clone(&live);
        World::run(ww(), move |rank| {
            let map: hcl::OrderedMap<u64, u64> = hcl::OrderedMap::with_config(
                rank,
                "prop.omap",
                OrderedConfig { persist: Some(pcfg1.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                for (op, k, v) in &ops2 {
                    match op {
                        0 => { map.put(*k, *v).unwrap(); }
                        _ => { map.erase(k).unwrap(); }
                    }
                }
            }
            rank.barrier();
            if rank.id() == 0 {
                *live2.lock() = map.snapshot_sorted().unwrap().to_bytes().to_vec();
            }
            rank.barrier();
        });
        wait_out_flush_gap(pcfg.policy);
        let recovered = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let recovered2 = std::sync::Arc::clone(&recovered);
        World::run(ww(), move |rank| {
            let map: hcl::OrderedMap<u64, u64> = hcl::OrderedMap::with_config(
                rank,
                "prop.omap",
                OrderedConfig { persist: Some(pcfg.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                *recovered2.lock() = map.snapshot_sorted().unwrap().to_bytes().to_vec();
            }
            rank.barrier();
        });
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(&*live.lock(), &*recovered.lock());
    }

    /// Queue: pushes and pops replay to the identical FIFO order.
    #[test]
    fn queue_replay_matches_live(
        ops in proptest::collection::vec((0u8..3, any::<u64>()), 1..120)
    ) {
        let dir = scratch("queue");
        let pcfg = PersistConfig {
            policy: policy_for(proptest::current_case_seed().unwrap()),
            ..PersistConfig::strict(&dir)
        };
        let ops2 = ops.clone();
        let pcfg1 = pcfg.clone();
        let live = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let live2 = std::sync::Arc::clone(&live);
        World::run(ww(), move |rank| {
            let q: Queue<u64> = Queue::with_config(
                rank,
                "prop.q",
                QueueConfig { persist: Some(pcfg1.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                for (op, v) in &ops2 {
                    match op {
                        0 => { q.push(*v).unwrap(); }
                        1 => { q.pop().unwrap(); }
                        _ => { q.push_bulk(vec![*v, v ^ 1]).unwrap(); }
                    }
                }
            }
            rank.barrier();
            if rank.id() == 0 {
                *live2.lock() = q.snapshot().unwrap().to_bytes().to_vec();
            }
            rank.barrier();
        });
        wait_out_flush_gap(pcfg.policy);
        let recovered = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let recovered2 = std::sync::Arc::clone(&recovered);
        World::run(ww(), move |rank| {
            let q: Queue<u64> = Queue::with_config(
                rank,
                "prop.q",
                QueueConfig { persist: Some(pcfg.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                *recovered2.lock() = q.snapshot().unwrap().to_bytes().to_vec();
            }
            rank.barrier();
        });
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(&*live.lock(), &*recovered.lock());
    }

    /// PriorityQueue: pops always take the minimum, so replaying the
    /// logged push/pop stream lands on the identical surviving set.
    #[test]
    fn priority_queue_replay_matches_live(
        ops in proptest::collection::vec((0u8..2, any::<u64>()), 1..120)
    ) {
        let dir = scratch("pq");
        let pcfg = PersistConfig {
            policy: policy_for(proptest::current_case_seed().unwrap()),
            ..PersistConfig::strict(&dir)
        };
        let ops2 = ops.clone();
        let pcfg1 = pcfg.clone();
        let live = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let live2 = std::sync::Arc::clone(&live);
        World::run(ww(), move |rank| {
            let pq: PriorityQueue<u64> = PriorityQueue::with_config(
                rank,
                "prop.pq",
                QueueConfig { persist: Some(pcfg1.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                for (op, v) in &ops2 {
                    match op {
                        0 => { pq.push(*v).unwrap(); }
                        _ => { pq.pop().unwrap(); }
                    }
                }
            }
            rank.barrier();
            if rank.id() == 0 {
                *live2.lock() = pq.snapshot().unwrap().to_bytes().to_vec();
            }
            rank.barrier();
        });
        wait_out_flush_gap(pcfg.policy);
        let recovered = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let recovered2 = std::sync::Arc::clone(&recovered);
        World::run(ww(), move |rank| {
            let pq: PriorityQueue<u64> = PriorityQueue::with_config(
                rank,
                "prop.pq",
                QueueConfig { persist: Some(pcfg.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                *recovered2.lock() = pq.snapshot().unwrap().to_bytes().to_vec();
            }
            rank.barrier();
        });
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(&*live.lock(), &*recovered.lock());
    }
}
