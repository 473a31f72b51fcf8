//! A fault-tolerant distributed key-value store: the paper's durability
//! story (§III-C6) end to end, and the only one this library tells —
//! per-partition write-ahead logs, replayed on restart.
//!
//! 1. Every rank writes sessions under the strict sync policy: each put is
//!    on disk before it is acknowledged.
//! 2. A partition owner is marked down: ops on its keys fail fast with the
//!    typed `OwnerDown`, and the other partitions keep serving.
//! 3. Restart: the logs replay every session; the logs are compacted to
//!    snapshots and more sessions are written on top.
//! 4. Restart again: snapshot plus the log written after it replay every
//!    session of both runs.
//!
//! Run with: `cargo run --release --example fault_tolerant_store`

use hcl::{HclError, PersistConfig, UnorderedMap, UnorderedMapConfig};
use hcl_runtime::{Rank, World, WorldConfig};

/// Sessions each rank writes per run.
const PER_RUN: usize = 25;

fn key(rank: u32, i: usize) -> String {
    format!("user-{rank}-{i}")
}

fn token(rank: u32, i: usize) -> String {
    format!("session-token-{}", rank as usize * 1000 + i)
}

fn open<'a>(rank: &'a Rank, pcfg: &PersistConfig) -> UnorderedMap<'a, String, String> {
    let cfg = UnorderedMapConfig { persist: Some(pcfg.clone()), ..Default::default() };
    UnorderedMap::with_config(rank, "sessions", cfg)
}

/// Write this rank's sessions `runs` (of `PER_RUN` each).
fn write(rank: &Rank, store: &UnorderedMap<String, String>, runs: std::ops::Range<usize>) {
    for i in runs.start * PER_RUN..runs.end * PER_RUN {
        store.put(key(rank.id(), i), token(rank.id(), i)).unwrap();
    }
}

/// Every rank's sessions of the first `runs` runs, exactly.
fn check_all(rank: &Rank, store: &UnorderedMap<String, String>, runs: usize) -> usize {
    let mut seen = 0;
    for r in 0..rank.world_size() {
        for i in 0..runs * PER_RUN {
            let k = key(r, i);
            assert_eq!(store.get(&k).unwrap(), Some(token(r, i)), "lost {k}");
            seen += 1;
        }
    }
    seen
}

fn main() {
    let cfg = WorldConfig { nodes: 2, ranks_per_node: 2, ..WorldConfig::small() };
    let dir = std::env::temp_dir().join(format!("hcl-ft-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pcfg = PersistConfig::strict(&dir);

    // Run 1: strict writes, then lose an owner.
    let p = pcfg.clone();
    World::run(cfg, move |rank| {
        let store = open(rank, &p);
        write(rank, &store, 0..1);
        rank.barrier();

        // Disaster drill on rank 0's handle (marks are per handle): mark
        // partition 0's owner down. Its keys fail fast, typed (and the flight
        // recorder dumps the trail to stderr); every other partition keeps
        // serving.
        if rank.id() == 0 {
            let down = store.server_of(0);
            store.mark_down(down);
            let keys = (0..rank.world_size()).flat_map(|r| (0..PER_RUN).map(move |i| (r, i)));
            let (lost, kept): (Vec<_>, Vec<_>) =
                keys.partition(|&(r, i)| store.partition_of(&key(r, i)) == 0);
            let (r, i) = lost[0];
            assert_eq!(store.get(&key(r, i)), Err(HclError::OwnerDown(down)));
            assert_eq!(store.put(key(r, i), String::new()), Err(HclError::OwnerDown(down)));
            for &(r, i) in &kept {
                assert_eq!(store.get(&key(r, i)).unwrap(), Some(token(r, i)));
            }
            store.mark_up(down);
            let (lost, kept) = (lost.len(), kept.len());
            println!("run 1: 100 sessions written; owner {down} down: {lost} refused, {kept} kept");
        }
        rank.barrier();
    });

    // Run 2 (a fresh "process"): replay, compact, write more.
    let p = pcfg.clone();
    World::run(cfg, move |rank| {
        let store = open(rank, &p);
        rank.barrier();
        let recovered = check_all(rank, &store, 1);
        rank.barrier();
        store.compact_local_logs().unwrap();
        rank.barrier();
        write(rank, &store, 1..2);
        if rank.id() == 0 {
            println!("run 2: {recovered} sessions replayed, logs compacted, 100 more written");
        }
        rank.barrier();
    });

    // Run 3: the snapshots plus what was logged after them.
    World::run(cfg, move |rank| {
        let store = open(rank, &pcfg);
        rank.barrier();
        let recovered = check_all(rank, &store, 2);
        if rank.id() == 0 {
            println!("run 3: {recovered} sessions replayed from snapshots and logs");
        }
        rank.barrier();
    });

    std::fs::remove_dir_all(&dir).unwrap();
    println!("fault_tolerant_store verified: strict logs, typed owner-down, replay, compaction");
}
