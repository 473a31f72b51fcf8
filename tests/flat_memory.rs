//! Memory stays flat under a steady overwrite load through the hybrid
//! bypass: a 1×1 world's `put` over 4 096 keys holding 64 B values. Each put
//! retires the entry it overwrites, so RSS after the last put must be within
//! 8 MiB of RSS after the first batch; a reclamation that leaks grows by
//! about 128 B per put, 30 MiB over this run.
//!
//! This is its own test binary because RSS is process-wide: another test
//! running beside it would be counted too.

use hcl::{UnorderedMap, UnorderedMapConfig};
use hcl_runtime::{World, WorldConfig};

/// Keys overwritten round-robin.
const KEYS: u64 = 4096;
/// Puts before the first reading: the map, the world and the allocator's
/// arenas are at their working size by then.
const WARM: u64 = 50_000;
/// Puts in all; sized for a few seconds in a debug build.
const TOTAL: u64 = 300_000;

/// Resident set size of this process (`VmRSS` in `/proc/self/status`), KiB.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("status has VmRSS");
    line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmRSS in kB")
}

#[test]
fn bypass_puts_keep_memory_flat() {
    let cfg = WorldConfig { nodes: 1, ranks_per_node: 1, ..WorldConfig::small() };
    let (early, late) = World::run(cfg, |rank| {
        let map: UnorderedMap<u64, Vec<u8>> = UnorderedMap::with_config(
            rank,
            "flat",
            UnorderedMapConfig { hybrid: true, ..Default::default() },
        );
        let put = |from: u64, to: u64| {
            for i in from..to {
                map.put(i % KEYS, vec![i as u8; 64]).expect("bypass put");
            }
        };
        put(0, WARM);
        let early = vm_rss_kib();
        put(WARM, TOTAL);
        (early, vm_rss_kib())
    })
    .pop()
    .expect("one rank");
    assert!(
        late <= early + 8 * 1024,
        "RSS grew from {early} KiB to {late} KiB over {} puts",
        TOTAL - WARM
    );
}
