//! Dispatch-engine conformance: every container's client-side Table I cost
//! signature, observed through the shared `Dispatcher`, must match the cost
//! model exactly — per op, per locality, and over random op sequences.
//!
//! These tests pin the engine's accounting to the pre-engine behaviour:
//! local bypasses charge the descriptor's `L`/`R`/`W` signature, remote ops
//! charge `F` plus a batched/unbatched classification derived from the issue
//! mode, and control-plane ops charge nothing locally.

use hcl::{CostSnapshot, OrderedMap, PriorityQueue, Queue, UnorderedMap, UnorderedMapConfig};
use hcl_runtime::{World, WorldConfig};
use proptest::prelude::*;

/// Two nodes, one rank each: rank 0 is node-local to partition owner 0 and
/// remote to owner 1, so both dispatch paths are exercised deterministically.
fn two_node_world() -> WorldConfig {
    WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() }
}

/// Delta between two snapshots.
fn delta(after: CostSnapshot, before: CostSnapshot) -> CostSnapshot {
    after.since(&before)
}

fn local_sig(l: u64, r: u64, w: u64) -> CostSnapshot {
    CostSnapshot { f: 0, l, r, w, fb: 0, fu: 0 }
}

const REMOTE_SYNC: CostSnapshot = CostSnapshot { f: 1, l: 0, r: 0, w: 0, fb: 0, fu: 1 };
const REMOTE_BULK: CostSnapshot = CostSnapshot { f: 1, l: 0, r: 0, w: 0, fb: 1, fu: 0 };

/// A key owned by `owner` under the map's first-level hash.
fn key_owned_by(map: &UnorderedMap<u64, u64>, owner: u32) -> u64 {
    (0..).find(|k| map.server_of(map.partition_of(k)) == owner).unwrap()
}

#[test]
fn unordered_map_per_op_cost_signatures() {
    World::run(two_node_world(), |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::with_merger(
            rank,
            "conf-umap",
            UnorderedMapConfig::default(),
            std::sync::Arc::new(|old: Option<&u64>, new: &u64| old.copied().unwrap_or(0) + new),
        );
        rank.barrier();
        if rank.id() == 0 {
            let lk = key_owned_by(&map, 0);
            let rk = key_owned_by(&map, 1);

            // put: local L+W, remote F (unbatched).
            let s = map.costs();
            map.put(lk, 1).unwrap();
            assert_eq!(delta(map.costs(), s), local_sig(1, 0, 1));
            let s = map.costs();
            map.put(rk, 2).unwrap();
            assert_eq!(delta(map.costs(), s), REMOTE_SYNC);

            // get: local L+R, remote F.
            let s = map.costs();
            assert_eq!(map.get(&lk).unwrap(), Some(1));
            assert_eq!(delta(map.costs(), s), local_sig(1, 1, 0));
            let s = map.costs();
            assert_eq!(map.get(&rk).unwrap(), Some(2));
            assert_eq!(delta(map.costs(), s), REMOTE_SYNC);

            // put_merge: local L+R+W, remote F.
            let s = map.costs();
            assert_eq!(map.put_merge(lk, 10).unwrap(), 11);
            assert_eq!(delta(map.costs(), s), local_sig(1, 1, 1));
            let s = map.costs();
            assert_eq!(map.put_merge(rk, 10).unwrap(), 12);
            assert_eq!(delta(map.costs(), s), REMOTE_SYNC);

            // erase: local L+W, remote F.
            let s = map.costs();
            map.erase(&lk).unwrap();
            assert_eq!(delta(map.costs(), s), local_sig(1, 0, 1));
            let s = map.costs();
            map.erase(&rk).unwrap();
            assert_eq!(delta(map.costs(), s), REMOTE_SYNC);

            // len: control-plane — one unbatched F per *remote* partition,
            // nothing for the local one.
            let s = map.costs();
            map.len().unwrap();
            assert_eq!(delta(map.costs(), s), REMOTE_SYNC);

            // put_batch: per-element L+W locally, one aggregated message
            // (F + E batched ops) per remote partition.
            let local_batch: Vec<(u64, u64)> =
                (0..).filter(|k| map.server_of(map.partition_of(k)) == 0).take(4).zip(0..).collect();
            let s = map.costs();
            map.put_batch(local_batch).unwrap();
            assert_eq!(delta(map.costs(), s), local_sig(4, 0, 4));
            let remote_batch: Vec<(u64, u64)> =
                (0..).filter(|k| map.server_of(map.partition_of(k)) == 1).take(5).zip(0..).collect();
            let s = map.costs();
            map.put_batch(remote_batch).unwrap();
            assert_eq!(
                delta(map.costs(), s),
                CostSnapshot { f: 1, l: 0, r: 0, w: 0, fb: 5, fu: 0 }
            );
        }
        rank.barrier();
    });
}

#[test]
fn queue_and_pqueue_per_op_cost_signatures() {
    World::run(two_node_world(), |rank| {
        let q: Queue<u64> = Queue::new(rank, "conf-q");
        let pq: PriorityQueue<u64> = PriorityQueue::new(rank, "conf-pq");
        rank.barrier();
        // Owner is rank 0: local for rank 0, remote for rank 1.
        if rank.id() == 0 {
            let s = q.costs();
            q.push(7).unwrap();
            assert_eq!(delta(q.costs(), s), local_sig(1, 0, 1));
            let s = q.costs();
            q.pop().unwrap();
            assert_eq!(delta(q.costs(), s), local_sig(1, 1, 0));
            // Bulk ops scale R/W by the element count, L stays 1.
            let s = q.costs();
            q.push_bulk(vec![1, 2, 3]).unwrap();
            assert_eq!(delta(q.costs(), s), local_sig(1, 0, 3));
            let s = q.costs();
            q.pop_bulk(5).unwrap();
            assert_eq!(delta(q.costs(), s), local_sig(1, 5, 0));
            // Control-plane ops charge nothing locally.
            let s = q.costs();
            q.len().unwrap();
            q.snapshot().unwrap();
            assert_eq!(delta(q.costs(), s), CostSnapshot::default());

            let s = pq.costs();
            pq.push(3).unwrap();
            assert_eq!(delta(pq.costs(), s), local_sig(1, 0, 1));
            let s = pq.costs();
            pq.peek().unwrap();
            assert_eq!(delta(pq.costs(), s), local_sig(1, 1, 0));
            let s = pq.costs();
            pq.pop().unwrap();
            assert_eq!(delta(pq.costs(), s), local_sig(1, 1, 0));
        }
        rank.barrier();
        if rank.id() == 1 {
            let s = q.costs();
            q.push(9).unwrap();
            assert_eq!(delta(q.costs(), s), REMOTE_SYNC);
            let s = q.costs();
            q.pop().unwrap();
            assert_eq!(delta(q.costs(), s), REMOTE_SYNC);
            // Bulk ops travel as one aggregated (batched) invocation.
            let s = q.costs();
            q.push_bulk(vec![4, 5]).unwrap();
            assert_eq!(delta(q.costs(), s), REMOTE_BULK);
            let s = q.costs();
            q.pop_bulk(8).unwrap();
            assert_eq!(delta(q.costs(), s), REMOTE_BULK);
            let s = q.costs();
            q.len().unwrap();
            assert_eq!(delta(q.costs(), s), REMOTE_SYNC);

            let s = pq.costs();
            pq.push(4).unwrap();
            assert_eq!(delta(pq.costs(), s), REMOTE_SYNC);
            let s = pq.costs();
            pq.purge().unwrap();
            assert_eq!(delta(pq.costs(), s), REMOTE_SYNC);
        }
        rank.barrier();
    });
}

#[test]
fn ordered_map_per_op_cost_signatures() {
    World::run(two_node_world(), |rank| {
        let map: OrderedMap<u64, u64> = OrderedMap::new(rank, "conf-omap");
        rank.barrier();
        if rank.id() == 0 {
            let lk = (0..).find(|k: &u64| map.partition_of(k) == 0).unwrap();
            let rk = (0..).find(|k: &u64| map.partition_of(k) == 1).unwrap();
            let s = map.costs();
            map.put(lk, 1).unwrap();
            assert_eq!(delta(map.costs(), s), local_sig(1, 0, 1));
            let s = map.costs();
            map.put(rk, 2).unwrap();
            assert_eq!(delta(map.costs(), s), REMOTE_SYNC);
            let s = map.costs();
            map.get(&lk).unwrap();
            assert_eq!(delta(map.costs(), s), local_sig(1, 1, 0));
            let s = map.costs();
            map.get(&rk).unwrap();
            assert_eq!(delta(map.costs(), s), REMOTE_SYNC);
            let s = map.costs();
            map.erase(&rk).unwrap();
            assert_eq!(delta(map.costs(), s), REMOTE_SYNC);
            // Global views: one unbatched F per remote partition.
            let s = map.costs();
            map.first().unwrap();
            assert_eq!(delta(map.costs(), s), REMOTE_SYNC);
            let s = map.costs();
            map.snapshot_sorted().unwrap();
            assert_eq!(delta(map.costs(), s), REMOTE_SYNC);
        }
        rank.barrier();
    });
}

#[test]
fn async_remote_ops_classified_by_coalescing_state() {
    World::run(two_node_world(), |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "conf-async");
        rank.barrier();
        if rank.id() == 0 {
            let rk = key_owned_by(&map, 1);
            // Async remote op: F + one batched op (it stages on the coalescer).
            let s = map.costs();
            let f = map.put_async(rk, 1).unwrap();
            let issued = delta(map.costs(), s);
            assert_eq!(issued.f, 1);
            assert_eq!((issued.fb, issued.fu), (1, 0));
            f.wait().unwrap();
            // Async local op: pure bypass, resolves immediately.
            let lk = key_owned_by(&map, 0);
            let s = map.costs();
            let f = map.put_async(lk, 2).unwrap();
            assert!(f.is_ready());
            assert_eq!(delta(map.costs(), s), local_sig(1, 0, 1));
        }
        rank.barrier();
    });
}

/// Regression (PR 5): a rank marked down and then marked back up must be
/// served through the dispatcher's cached endpoint exactly as before the
/// failure — the down/up cycle must not leave a stale route. The down phase
/// must fail fast *without issuing anything* (no cost terms charged), and
/// the restored phase must charge exactly one fresh remote invocation that
/// observes pre-failure state.
#[test]
fn downed_then_restored_owner_is_not_served_a_stale_endpoint() {
    World::run(two_node_world(), |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "conf-downup");
        rank.barrier();
        if rank.id() == 0 {
            let rk = key_owned_by(&map, 1);
            map.put(rk, 7).unwrap();

            map.mark_down(1);
            // An op against a downed owner: typed error, zero cost —
            // the gate rejects it before any endpoint is resolved.
            let s = map.costs();
            assert_eq!(map.put(rk, 99), Err(hcl::HclError::OwnerDown(1)));
            assert_eq!(delta(map.costs(), s), CostSnapshot::default());

            map.mark_up(1);
            // Restored: the op routes to the owner again and sees the
            // pre-failure value (the rejected put never landed).
            let s = map.costs();
            assert_eq!(map.get(&rk).unwrap(), Some(7));
            assert_eq!(delta(map.costs(), s), REMOTE_SYNC);
            let s = map.costs();
            map.put(rk, 8).unwrap();
            assert_eq!(delta(map.costs(), s), REMOTE_SYNC);
            assert_eq!(map.get(&rk).unwrap(), Some(8));
        }
        rank.barrier();
    });
}

/// Reference cost model for a random op sequence against a hybrid
/// `UnorderedMap` on a 2-node world: replays Table I per op.
fn predict(map: &UnorderedMap<u64, u64>, ops: &[(u8, u64)]) -> CostSnapshot {
    let mut c = CostSnapshot::default();
    for &(op, key) in ops {
        let local = map.server_of(map.partition_of(&key)) == 0;
        match (op % 3, local) {
            // put / erase: L + W local, F + unbatched remote.
            (0 | 2, true) => {
                c.l += 1;
                c.w += 1;
            }
            // get: L + R local.
            (_, true) => {
                c.l += 1;
                c.r += 1;
            }
            (_, false) => {
                c.f += 1;
                c.fu += 1;
            }
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random synchronous op sequences produce counters byte-identical to
    /// the Table I reference model — the engine neither drops nor double-
    /// counts any term.
    #[test]
    fn random_op_sequences_match_reference_cost_model(
        ops in proptest::collection::vec((0u8..3, 0u64..64), 1..40),
        seq in 0u32..1000,
    ) {
        World::run(two_node_world(), move |rank| {
            let map: UnorderedMap<u64, u64> =
                UnorderedMap::new(rank, &format!("conf-prop-{seq}"));
            rank.barrier();
            if rank.id() == 0 {
                let before = map.costs();
                for &(op, key) in &ops {
                    match op % 3 {
                        0 => {
                            map.put(key, key).unwrap();
                        }
                        1 => {
                            map.get(&key).unwrap();
                        }
                        _ => {
                            map.erase(&key).unwrap();
                        }
                    }
                }
                let got = map.costs().since(&before);
                let want = predict(&map, &ops);
                assert_eq!(got, want, "cost divergence for ops {ops:?}");
            }
            rank.barrier();
        });
    }
}
