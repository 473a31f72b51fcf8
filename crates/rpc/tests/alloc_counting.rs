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

mod support;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::BytesMut;
use hcl_databox::DataBox;
use hcl_fabric::EpId;
use hcl_rpc::server::NicCore;
use hcl_rpc::{
    encode_batch_into, encode_request_header_into, BatchArena, RequestHeader, RpcRegistry,
    FLAG_EPOCH,
};

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
    // The coalescer's flush path: N calls staged in one reused arena,
    // batch-encoded into a reusable payload buffer.
    let mut arena = BatchArena::with_capacity(16, 16);
    let mut payload: Vec<u8> = Vec::with_capacity(2048);
    let mut flush = || {
        arena.clear();
        for i in 0..16u64 {
            arena.push_with(7, |out| (i, i * 5).pack(out));
        }
        payload.clear();
        encode_batch_into(arena.calls(), &mut payload);
    };
    // Warm-up.
    for _ in 0..8 {
        flush();
    }
    let before = allocs();
    for _ in 0..1_000 {
        flush();
    }
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "steady-state batch encode touched the heap {delta} times over 1k flushes"
    );
}

#[test]
fn serving_a_tagged_single_call_is_allocation_free_at_steady_state() {
    // The whole server pipeline for the sync path's fullest envelope: decode,
    // epoch gate, execute, settle and frame, run in-thread.
    let registry = Arc::new(RpcRegistry::new());
    support::bind_guarded(&registry, 7, 3, |x| x ^ 6);
    let mut nic = NicCore::new(EpId::new(0, 0), registry);
    let caller = EpId::new(0, 1);
    let hdr = RequestHeader { req_id: 1, slot: 1, flags: FLAG_EPOCH, chain: vec![7] };
    let msg = hdr.encode(&[3u64.to_le_bytes(), 5u64.to_le_bytes()].concat());
    let want = [&[0u8][..], &3u64.to_le_bytes()].concat();
    // Warm-up.
    for _ in 0..64 {
        assert_eq!(nic.serve(caller, &msg).expect("answered").bytes, &want[..]);
    }
    let before = allocs();
    for _ in 0..10_000 {
        assert!(nic.serve(caller, &msg).is_some());
    }
    let delta = allocs() - before;
    assert_eq!(delta, 0, "steady-state serve touched the heap {delta} times over 10k requests");
}
