//! The containers give back what they retire: after N overwrites, removes,
//! replaces or pops and a quiet `pin().flush()` loop, at most about one bag
//! of retirements is still allocated. A reclamation that leaks keeps all N.
#![cfg(not(conc_check))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::epoch;
use hcl_containers::cuckoo::CuckooMap;
use hcl_containers::pq::SkipListPq;
use hcl_containers::queue::LockFreeQueue;
use hcl_containers::skiplist::SkipListMap;

/// Retirements per test.
const N: usize = 4096;
/// What a quiet flush loop may leave behind: the shim seals a thread's bag
/// every 64 retirements, so one unsealed bag at most, with a little slack.
const BAG_BOUND: isize = 2 * 64;

/// A value that counts its live instances, clones included.
#[derive(Debug)]
struct Tracked {
    live: Arc<AtomicIsize>,
    id: usize,
}

impl Tracked {
    fn new(live: &Arc<AtomicIsize>, id: usize) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        Tracked { live: Arc::clone(live), id }
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        Tracked::new(&self.live, self.id)
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

impl PartialEq for Tracked {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Tracked {}

impl PartialOrd for Tracked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tracked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

/// Flush with quiet pins until `count()` is at most `target`, for at most
/// 10 s (tests beside this one may hold an advance back for a moment), and
/// return the last count.
fn settle(target: isize, count: impl Fn() -> isize) -> isize {
    let deadline = Instant::now() + Duration::from_secs(10);
    while count() > target && Instant::now() < deadline {
        epoch::pin().flush();
        std::thread::yield_now();
    }
    count()
}

fn live_after(target: isize, live: &AtomicIsize) -> isize {
    settle(target, || live.load(Ordering::SeqCst))
}

#[test]
fn cuckoo_insert_overwrites_drop_the_old_values() {
    let live = Arc::new(AtomicIsize::new(0));
    let m = CuckooMap::new();
    for i in 0..N {
        drop(m.insert(1u64, Tracked::new(&live, i)));
    }
    assert!(live_after(1, &live) <= 1 + BAG_BOUND, "{} values alive", live.load(Ordering::SeqCst));
}

#[test]
fn cuckoo_upserts_drop_the_old_values() {
    let live = Arc::new(AtomicIsize::new(0));
    let m = CuckooMap::new();
    for i in 0..N {
        drop(m.upsert(1u64, |_| Tracked::new(&live, i)));
    }
    assert!(live_after(1, &live) <= 1 + BAG_BOUND, "{} values alive", live.load(Ordering::SeqCst));
}

#[test]
fn cuckoo_removes_drop_the_values() {
    let live = Arc::new(AtomicIsize::new(0));
    let m = CuckooMap::new();
    for i in 0..N {
        m.insert(i as u64 % 8, Tracked::new(&live, i));
        drop(m.remove(&(i as u64 % 8)));
    }
    assert!(live_after(0, &live) <= BAG_BOUND, "{} values alive", live.load(Ordering::SeqCst));
}

#[test]
fn skiplist_replaces_drop_the_old_values() {
    let live = Arc::new(AtomicIsize::new(0));
    let m = SkipListMap::new();
    for i in 0..N {
        drop(m.insert(1u64, Tracked::new(&live, i)));
    }
    assert!(live_after(1, &live) <= 1 + BAG_BOUND, "{} values alive", live.load(Ordering::SeqCst));
}

#[test]
fn skiplist_removes_drop_the_nodes_and_their_values() {
    let live = Arc::new(AtomicIsize::new(0));
    let m = SkipListMap::new();
    for i in 0..N {
        m.insert(Tracked::new(&live, i), Tracked::new(&live, i));
        drop(m.remove(&Tracked::new(&live, i)));
    }
    assert!(live_after(0, &live) <= 2 * BAG_BOUND, "{} values alive", live.load(Ordering::SeqCst));
}

#[test]
fn pq_pops_drop_the_nodes() {
    let live = Arc::new(AtomicIsize::new(0));
    let pq = SkipListPq::new();
    for i in 0..N {
        pq.push(Tracked::new(&live, i));
        drop(pq.pop());
    }
    assert!(live_after(0, &live) <= BAG_BOUND, "{} values alive", live.load(Ordering::SeqCst));
}

/// Heap blocks the calling thread allocated and not yet freed. A popped
/// queue node holds no value, so the queue's nodes are counted as blocks;
/// per thread, so that the tests beside this one do not count.
struct PerThreadBlocks;

thread_local! {
    static NET_BLOCKS: Cell<isize> = const { Cell::new(0) };
}

// SAFETY: forwards to `System` unchanged; the counter is a const-initialised
// thread local with no destructor, so touching it never allocates.
unsafe impl GlobalAlloc for PerThreadBlocks {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = NET_BLOCKS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `alloc` contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = NET_BLOCKS.try_with(|n| n.set(n.get() - 1));
        // SAFETY: the caller's `dealloc` contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PerThreadBlocks = PerThreadBlocks;

#[test]
fn queue_pops_free_the_old_sentinels() {
    let q = LockFreeQueue::new();
    epoch::pin().flush();
    let before = NET_BLOCKS.with(Cell::get);
    for i in 0..N {
        q.push(i);
        assert_eq!(q.pop(), Some(i));
    }
    let left = settle(before + BAG_BOUND, || NET_BLOCKS.with(Cell::get)) - before;
    assert!(left <= BAG_BOUND, "{left} blocks still allocated after {N} pops");
}
