//! Allocation accounting for the lease-cache hit path.
//!
//! A cache hit is the op the whole read-path scale-out exists for: it must
//! cost a shard lock, a `HashMap` probe, two invalidation checks and a
//! couple of atomic metric bumps — never a heap allocation. A counting
//! global allocator (same harness as the telemetry record-path pin) makes
//! that claim checkable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hcl::{LeaseCache, LeaseConfig};
use hcl_telemetry::CacheMetrics;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every allocation verbatim to `System`; the counter is
// the only addition and does not affect layout or pointer validity.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn lease_cache_hit_path_is_allocation_free() {
    let cache: LeaseCache<u64, u64> =
        LeaseCache::new(LeaseConfig::default(), CacheMetrics::detached());
    let far = Instant::now() + Duration::from_secs(3600);
    for k in 0..64u64 {
        let hash = k.wrapping_mul(2_654_435_761);
        cache.insert(k, hash, Some(k * 3), 0, 0, far, 0);
    }
    // Warm-up hits so anything lazy resolves before the pinned window.
    for k in 0..64u64 {
        let hash = k.wrapping_mul(2_654_435_761);
        assert!(cache.lookup(&k, hash, 0).is_some());
    }
    let before = allocs();
    let mut hits = 0u64;
    for i in 0..10_000u64 {
        let k = i % 64;
        let hash = k.wrapping_mul(2_654_435_761);
        if let Some((v, _)) = cache.lookup(&k, hash, 0) {
            assert_eq!(v, Some(k * 3));
            hits += 1;
        }
    }
    let delta = allocs() - before;
    assert_eq!(delta, 0, "cache hit touched the heap {delta} times over 10k lookups");
    assert_eq!(hits, 10_000, "every pinned lookup must be a live-lease hit");
}
