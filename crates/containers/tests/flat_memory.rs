//! Memory stays flat under a steady overwrite load: one thread overwrites
//! 4 096 keys holding 64 B values 2M times, and RSS after the last overwrite
//! is within 8 MiB of RSS after 500k. A reclamation that leaks grows by
//! about 128 B per overwrite, 180 MiB over this run.
//!
//! This is its own test binary because RSS is process-wide: another test
//! running beside it would be counted too.
#![cfg(not(conc_check))]

use hcl_containers::cuckoo::CuckooMap;

const KEYS: u64 = 4096;
const EARLY: u64 = 500_000;
const TOTAL: u64 = 2_000_000;

/// Resident set size of this process (`VmRSS` in `/proc/self/status`), KiB.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("status has VmRSS");
    line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmRSS in kB")
}

#[test]
fn overwrites_keep_memory_flat() {
    let map = CuckooMap::new();
    let mut early = 0;
    for i in 0..TOTAL {
        map.insert(i % KEYS, vec![i as u8; 64]);
        if i + 1 == EARLY {
            early = vm_rss_kib();
        }
    }
    let late = vm_rss_kib();
    assert!(
        late <= early + 8 * 1024,
        "RSS grew from {early} KiB to {late} KiB over {} overwrites",
        TOTAL - EARLY
    );
}
