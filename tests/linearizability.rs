//! Linearizability of the public containers, checked on real histories.
//!
//! Requires the `history` feature:
//!
//! ```text
//! cargo test --features history --test linearizability
//! ```
//!
//! Every rank attaches the same shared [`Recorder`] to its container handle,
//! runs a contended workload, and after the world tears down the drained
//! history is replayed against the matching sequential spec with
//! [`hcl::check`] (Wing–Gong with P-compositionality for keyed structures).
#![cfg(feature = "history")]

use std::sync::Arc;

use hcl::queue::QueueConfig;
use hcl::shard::{KeyedSet, KeyedStore};
use hcl::{
    check, DsSpec, HistoryRecorder, OrderedMap, OrderedSet, PriorityQueue, Queue, Recorder,
    UnorderedMap, UnorderedMapConfig, UnorderedSet,
};
use hcl_bench::workload::{
    run_on_queue, run_on_unordered_map, run_on_unordered_set, KeyDist, Mix, WorkloadSpec,
};
use hcl_runtime::{Rank, World, WorldConfig};

fn mem_world(nodes: u32, rpn: u32) -> WorldConfig {
    WorldConfig { nodes, ranks_per_node: rpn, ..WorldConfig::small() }
}

fn recorder() -> HistoryRecorder {
    Arc::new(Recorder::new())
}

#[test]
fn unordered_map_history_is_linearizable() {
    let rec = recorder();
    let rec2 = Arc::clone(&rec);
    World::run(mem_world(2, 2), move |rank| {
        let mut map: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "lin.umap");
        map.set_recorder(Arc::clone(&rec2));
        rank.barrier();
        let me = rank.id() as u64;
        for i in 0..40u64 {
            let k = i % 8; // eight keys contended by all four ranks
            map.put(k, me * 1000 + i).unwrap();
            map.get(&k).unwrap();
            if i % 4 == 3 {
                map.erase(&k).unwrap();
            }
        }
        rank.barrier();
    });
    let hist = rec.take();
    assert!(hist.len() >= 4 * 90, "expected a dense history, got {} ops", hist.len());
    check(&DsSpec::map(), &hist).expect("unordered_map history must be linearizable");
}

/// One contended insert/contains/remove workload over a set opened by
/// `open`, its history checked against the set spec.
fn check_set_history<S: KeyedStore<u64, ()>>(
    name: &'static str,
    open: for<'r> fn(&'r Rank, &str) -> KeyedSet<'r, u64, S>,
) {
    let rec = recorder();
    let rec2 = Arc::clone(&rec);
    World::run(mem_world(2, 2), move |rank| {
        let mut set = open(rank, name);
        set.set_recorder(Arc::clone(&rec2));
        rank.barrier();
        for i in 0..40u64 {
            let k = i % 6;
            set.insert(k).unwrap();
            set.contains(&k).unwrap();
            if i % 3 == 2 {
                set.remove(&k).unwrap();
            }
        }
        rank.barrier();
    });
    let hist = rec.take();
    assert!(!hist.is_empty(), "{name}: no set ops recorded");
    check(&DsSpec::set(), &hist).unwrap_or_else(|e| panic!("{name} must be linearizable: {e:?}"));
}

/// Both set aliases record through the one `KeyedSet` path.
#[test]
fn unordered_set_history_is_linearizable() {
    check_set_history("lin.uset", |rank, name| {
        UnorderedSet::with_config(rank, name, hcl::UnorderedMapConfig::default())
    });
    check_set_history("lin.oset", |rank, name| OrderedSet::new(rank, name));
}

#[test]
fn ordered_map_history_is_linearizable() {
    let rec = recorder();
    let rec2 = Arc::clone(&rec);
    World::run(mem_world(2, 2), move |rank| {
        let mut map: OrderedMap<u64, u64> = OrderedMap::new(rank, "lin.omap");
        map.set_recorder(Arc::clone(&rec2));
        rank.barrier();
        let me = rank.id() as u64;
        for i in 0..30u64 {
            let k = i % 5;
            map.put(k, me * 1000 + i).unwrap();
            map.get(&k).unwrap();
            if i % 5 == 4 {
                map.erase(&k).unwrap();
            }
        }
        rank.barrier();
    });
    let hist = rec.take();
    assert!(!hist.is_empty());
    check(&DsSpec::map(), &hist).expect("ordered_map history must be linearizable");
}

#[test]
fn queue_history_is_linearizable() {
    // The queue spec is not keyed, so this exercises the single-partition
    // Wing–Gong search over the whole history; the workload is sized to keep
    // that tractable while still racing four ranks on one FIFO.
    let rec = recorder();
    let rec2 = Arc::clone(&rec);
    World::run(mem_world(2, 2), move |rank| {
        let mut q: Queue<u64> = Queue::new(rank, "lin.q");
        q.set_recorder(Arc::clone(&rec2));
        rank.barrier();
        let me = rank.id() as u64;
        for i in 0..12u64 {
            q.push(me * 100 + i).unwrap();
            if i % 2 == 1 {
                q.pop().unwrap();
            }
        }
        rank.barrier();
        if rank.id() == 0 {
            while q.pop().unwrap().is_some() {}
        }
        rank.barrier();
    });
    let hist = rec.take();
    assert!(!hist.is_empty());
    check(&DsSpec::queue(), &hist).expect("queue history must be linearizable");
}

#[test]
fn priority_queue_history_is_linearizable() {
    // The pq spec orders by encoded bytes, so use fixed-width ASCII strings:
    // their DataBox encoding preserves the String `Ord` the real structure
    // pops by.
    let rec = recorder();
    let rec2 = Arc::clone(&rec);
    World::run(mem_world(2, 2), move |rank| {
        let mut pq: PriorityQueue<String> = PriorityQueue::new(rank, "lin.pq");
        pq.set_recorder(Arc::clone(&rec2));
        rank.barrier();
        for i in 0..10u32 {
            pq.push(format!("{:02}-{:02}", i, rank.id())).unwrap();
            if i % 2 == 1 {
                pq.pop().unwrap();
            }
        }
        rank.barrier();
        if rank.id() == 0 {
            while pq.pop().unwrap().is_some() {}
        }
        rank.barrier();
    });
    let hist = rec.take();
    assert!(!hist.is_empty());
    check(&DsSpec::pq(), &hist).expect("priority_queue history must be linearizable");
}

// ---------------------------------------------------------------------------
// Scenario-driver histories: the YCSB-style mixed-op workload driver from
// `hcl-bench` runs its zipfian mixes against recorder-instrumented handles,
// so the exact op streams the benchmark suite measures are the streams the
// Wing–Gong checker replays. Only scan-free mixes with `async_window: 0`
// are used: every op the driver issues on those paths is history-recorded
// (scans and async puts are not, and an unrecorded mutation would make the
// history unsatisfiable by construction).

/// A small contended spec: zipfian over a handful of keys so all four
/// ranks keep colliding on the hot head.
fn driver_spec(seed: u64, ops_per_rank: u64, mix: Mix) -> WorkloadSpec {
    WorkloadSpec {
        seed,
        ops_per_rank,
        key_space: 8,
        value_bytes: 8,
        dist: KeyDist::Zipfian { theta: 0.99 },
        mix,
        async_window: 0,
        scan_width: 4,
    }
}

#[test]
fn zipfian_churn_map_history_is_linearizable() {
    let rec = recorder();
    let rec2 = Arc::clone(&rec);
    World::run(mem_world(2, 2), move |rank| {
        let mut map: UnorderedMap<u64, Vec<u8>> = UnorderedMap::with_config(
            rank,
            "lin.drv.umap",
            UnorderedMapConfig { hybrid: false, ..UnorderedMapConfig::default() },
        );
        map.set_recorder(Arc::clone(&rec2));
        rank.barrier();
        let stats = run_on_unordered_map(rank, &map, &driver_spec(11, 60, Mix::CHURN));
        assert_eq!(stats.errors, 0);
        rank.barrier();
    });
    let hist = rec.take();
    // 4 ranks × (prefill share + 60 mixed ops), all of them recorded.
    assert!(hist.len() >= 4 * 60, "sparse history: {} ops", hist.len());
    check(&DsSpec::map(), &hist).expect("zipfian churn map history must be linearizable");
}

#[test]
fn zipfian_update_heavy_set_history_is_linearizable() {
    let rec = recorder();
    let rec2 = Arc::clone(&rec);
    World::run(mem_world(2, 2), move |rank| {
        let mut set: UnorderedSet<u64> = UnorderedSet::with_config(
            rank,
            "lin.drv.uset",
            UnorderedMapConfig { hybrid: false, ..UnorderedMapConfig::default() },
        );
        set.set_recorder(Arc::clone(&rec2));
        rank.barrier();
        let stats = run_on_unordered_set(rank, &set, &driver_spec(13, 60, Mix::UPDATE_HEAVY));
        assert_eq!(stats.errors, 0);
        rank.barrier();
    });
    let hist = rec.take();
    assert!(!hist.is_empty());
    check(&DsSpec::set(), &hist).expect("zipfian set history must be linearizable");
}

#[test]
fn queue_mix_history_is_linearizable() {
    // Unkeyed spec → whole-history search; kept small to stay tractable.
    let rec = recorder();
    let rec2 = Arc::clone(&rec);
    World::run(mem_world(2, 2), move |rank| {
        let mut q: Queue<Vec<u8>> =
            Queue::with_config(rank, "lin.drv.q", QueueConfig { owner: 0, hybrid: false, ..Default::default() });
        q.set_recorder(Arc::clone(&rec2));
        rank.barrier();
        let spec = WorkloadSpec {
            key_space: 4,
            ..driver_spec(17, 10, Mix::QUEUE_MIX)
        };
        let stats = run_on_queue(rank, &q, &spec);
        assert_eq!(stats.errors, 0);
        rank.barrier();
    });
    let hist = rec.take();
    assert!(!hist.is_empty());
    check(&DsSpec::queue(), &hist).expect("queue mix history must be linearizable");
}

// ---------------------------------------------------------------------------
// Lease-bounded staleness (PR 8): with the client-side lease cache on,
// repeat reads of hot keys are served locally and recorded as
// `MapGetCached` carrying their grant stamp. Such histories are *not*
// strictly linearizable in general — a cached read may return a value that
// was overwritten after the lease was granted — but they must satisfy the
// lease contract checked by [`check_lease`]: every cached read's value was
// current at some point inside its own lease window, and all non-cached
// operations keep strict real-time order.

fn lease_driver_world(
    seed: u64,
    ops_per_rank: u64,
    rec: HistoryRecorder,
    hits_out: Arc<std::sync::atomic::AtomicU64>,
) {
    World::run(mem_world(2, 2), move |rank| {
        let mut map: UnorderedMap<u64, Vec<u8>> = UnorderedMap::with_config(
            rank,
            "lin.lease.umap",
            UnorderedMapConfig {
                hybrid: false,
                lease: Some(hcl::LeaseConfig {
                    ttl: std::time::Duration::from_millis(40),
                    // Lease on the second sighting: the zipfian head keys
                    // go hot almost immediately.
                    hot_threshold: 1,
                    ..hcl::LeaseConfig::default()
                }),
                ..UnorderedMapConfig::default()
            },
        );
        map.set_recorder(Arc::clone(&rec));
        rank.barrier();
        let stats = run_on_unordered_map(rank, &map, &driver_spec(seed, ops_per_rank, Mix::READ_HEAVY));
        assert_eq!(stats.errors, 0);
        rank.barrier();
        if let Some(cs) = map.cache_stats() {
            hits_out.fetch_add(cs.hits, std::sync::atomic::Ordering::Relaxed);
        }
        rank.barrier();
    });
}

#[test]
fn cached_zipfian_history_satisfies_lease_bound() {
    let rec = recorder();
    let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
    lease_driver_world(23, 80, Arc::clone(&rec), Arc::clone(&hits));
    let hist = rec.take();
    assert!(hist.len() >= 4 * 80, "sparse history: {} ops", hist.len());
    assert!(
        hits.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "the zipfian read-heavy run must serve some reads from the lease cache"
    );
    hcl::check_lease(&DsSpec::map(), &hist)
        .expect("cached zipfian history must satisfy lease-bounded staleness");
}

/// Lease-mode seeded soak: many cached-read histories across fresh worlds.
/// Run via `just check-lin-lease-soak`; `HCL_LIN_SEED` pins the base seed
/// and `HCL_LIN_SOAK_ITERS` the round count.
#[test]
#[ignore = "soak: run via `just check-lin-lease-soak`"]
fn lease_soak_many_seeds() {
    let base: u64 = std::env::var("HCL_LIN_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x1EA5E);
    let iters: u64 = std::env::var("HCL_LIN_SOAK_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    for round in 0..iters {
        let seed = base.wrapping_add(round.wrapping_mul(0x9E37_79B9));
        let rec = recorder();
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        lease_driver_world(seed, 100, Arc::clone(&rec), Arc::clone(&hits));
        hcl::check_lease(&DsSpec::map(), &rec.take())
            .unwrap_or_else(|e| panic!("lease soak seed {seed} (round {round}): {e:?}"));
    }
}

/// Seeded soak: many driver histories across fresh worlds. Run via
/// `just check-lin-soak`; `HCL_LIN_SEED` pins the base seed and
/// `HCL_LIN_SOAK_ITERS` the round count, so a failing seed replays exactly.
#[test]
#[ignore = "soak: run via `just check-lin-soak`"]
fn zipfian_soak_many_seeds() {
    let base: u64 = std::env::var("HCL_LIN_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xD15C0);
    let iters: u64 = std::env::var("HCL_LIN_SOAK_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    for round in 0..iters {
        let seed = base.wrapping_add(round.wrapping_mul(0x9E37_79B9));
        let rec = recorder();
        let rec2 = Arc::clone(&rec);
        World::run(mem_world(2, 2), move |rank| {
            let mut map: UnorderedMap<u64, Vec<u8>> = UnorderedMap::with_config(
                rank,
                "lin.soak.umap",
                UnorderedMapConfig { hybrid: false, ..UnorderedMapConfig::default() },
            );
            map.set_recorder(Arc::clone(&rec2));
            rank.barrier();
            run_on_unordered_map(rank, &map, &driver_spec(seed, 80, Mix::CHURN));
            rank.barrier();
        });
        check(&DsSpec::map(), &rec.take())
            .unwrap_or_else(|e| panic!("soak seed {seed} (round {round}): {e:?}"));
    }
}
