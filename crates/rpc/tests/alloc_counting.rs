//! Steady-state allocation accounting for the zero-copy request codec.
//!
//! The hot path of a small-value remote op is: encode the request header and
//! argument bytes into a reusable builder. After warm-up (the builder grown
//! to its high-water mark), that path must allocate NOTHING — every byte
//! lands in pre-reserved space. A counting global allocator makes the claim
//! checkable: the test fails if any steady-state iteration touches the heap.
//!
//! (The final `freeze()` that hands the message to the fabric necessarily
//! allocates once per request — it is the single retained allocation the
//! codec overhaul left in place — so it sits outside the measured region.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::BytesMut;
use hcl_databox::DataBox;
use hcl_rpc::{encode_batch_into, encode_request_header_into};

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

/// Encode one small-value request (header + `(k, v)` args) into `buf`.
fn encode_one(buf: &mut BytesMut, req_id: u64, kv: &(u64, u64)) {
    buf.clear();
    encode_request_header_into(req_id, (req_id % 4) as u32, 0, &[7], buf);
    kv.encode_into(buf);
}

#[test]
fn small_value_encode_path_is_allocation_free_at_steady_state() {
    let mut buf = BytesMut::with_capacity(256);
    // Warm-up: let the builder reach its high-water mark.
    for i in 0..64u64 {
        encode_one(&mut buf, i, &(i, i * 3));
    }
    let baseline_len = buf.len();
    let before = allocs();
    for i in 0..10_000u64 {
        encode_one(&mut buf, i, &(i, i * 3));
    }
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "steady-state small-value encode touched the heap {delta} times over 10k ops"
    );
    assert_eq!(buf.len(), baseline_len, "encoded frame size drifted");
}

#[test]
fn batch_encode_path_is_allocation_free_at_steady_state() {
    // The coalescer's flush path: N staged arg windows borrowed from one
    // arena, batch-encoded into a reusable payload buffer.
    let mut arena: Vec<u8> = Vec::with_capacity(1024);
    let mut ends: Vec<usize> = Vec::with_capacity(16);
    let mut payload: Vec<u8> = Vec::with_capacity(2048);
    let stage = |arena: &mut Vec<u8>, ends: &mut Vec<usize>| {
        arena.clear();
        ends.clear();
        for i in 0..16u64 {
            (i, i * 5).pack(arena);
            ends.push(arena.len());
        }
    };
    // Warm-up.
    for _ in 0..8 {
        stage(&mut arena, &mut ends);
        payload.clear();
        let calls = (0..ends.len()).map(|i| {
            let start = if i == 0 { 0 } else { ends[i - 1] };
            (7u32, &arena[start..ends[i]])
        });
        encode_batch_into(calls, &mut payload);
    }
    let before = allocs();
    for _ in 0..1_000 {
        stage(&mut arena, &mut ends);
        payload.clear();
        let calls = (0..ends.len()).map(|i| {
            let start = if i == 0 { 0 } else { ends[i - 1] };
            (7u32, &arena[start..ends[i]])
        });
        encode_batch_into(calls, &mut payload);
    }
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "steady-state batch encode touched the heap {delta} times over 1k flushes"
    );
}
