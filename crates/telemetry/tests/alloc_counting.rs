//! Allocation accounting for the telemetry record path.
//!
//! The whole point of the telemetry subsystem is that it can stay on in
//! benches: recording a histogram observation is a handful of relaxed
//! atomics, and recording a flight event is a `Copy` store into a ring
//! whose storage was reserved at construction. A counting global allocator
//! makes both claims checkable — the test fails if any steady-state record
//! touches the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hcl_telemetry::{EventKind, FlightEvent, FlightRecorder, Histogram, Outcome, Registry};

struct CountingAlloc;

thread_local! {
    /// Heap calls made by this thread: the tests of this file run on
    /// parallel threads, and only the measuring thread's own calls count.
    /// Const-initialised and drop-free, so touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every allocation verbatim to `System`; the counter is
// the only addition and does not affect layout or pointer validity.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn histogram_record_is_allocation_free() {
    let h = Histogram::new();
    // Warm-up (there is nothing lazy in Histogram, but keep the harness
    // shape uniform with the rpc codec test).
    for i in 0..64u64 {
        h.record(i * 37);
    }
    let before = allocs();
    for i in 0..10_000u64 {
        h.record(i.wrapping_mul(2_654_435_761));
    }
    let delta = allocs() - before;
    assert_eq!(delta, 0, "histogram record touched the heap {delta} times over 10k observations");
    assert_eq!(h.snapshot().count, 10_064);
}

#[test]
fn counter_record_through_registry_handle_is_allocation_free() {
    let reg = Registry::new();
    // Name resolution allocates once, up front — layers cache the handle.
    let c = reg.counter("hcl_test_steady_ops");
    c.inc();
    let before = allocs();
    for _ in 0..10_000 {
        c.inc();
    }
    let delta = allocs() - before;
    assert_eq!(delta, 0, "counter inc touched the heap {delta} times over 10k increments");
    assert_eq!(c.get(), 10_001);
}

#[test]
fn flight_event_record_is_allocation_free() {
    // Capacity reserved up front; drive the ring well past one full wrap.
    let rec = FlightRecorder::new(0, 256);
    for i in 0..256u32 {
        rec.record(FlightEvent::op(EventKind::Issue, "umap.put", i % 4, 8, 1, Outcome::Pending, 0));
    }
    let before = allocs();
    for i in 0..10_000u32 {
        rec.record(FlightEvent::op(
            EventKind::Complete,
            "umap.put",
            i % 4,
            8,
            1,
            Outcome::Ok,
            1_000 + i as u64,
        ));
    }
    let delta = allocs() - before;
    assert_eq!(delta, 0, "flight-recorder record touched the heap {delta} times over 10k events");
    assert_eq!(rec.events().len(), 256);
}
