//! # hcl-mem — shared-memory substrate for the HCL reproduction
//!
//! HCL (Devarajan et al., CLUSTER 2020) places every distributed data
//! structure partition inside a *shared memory segment* that is globally
//! visible: local ranks access it directly, remote ranks access it through
//! one-sided RMA verbs or RPC handlers executing on the NIC. This crate
//! provides that substrate:
//!
//! * [`Segment`] — a growable region of memory whose bytes may be read and
//!   written **concurrently from many threads without locks**, exactly like
//!   RDMA-registered memory. Storage is word-atomic (`AtomicU64`), so
//!   concurrent conflicting access is a data *race* in the application sense
//!   but never undefined behaviour, matching the semantics of real RDMA
//!   hardware (which also gives no ordering guarantees for overlapping
//!   one-sided ops).
//! * [`SegmentAllocator`] — a coalescing free-list allocator used for
//!   variable-length entries; this is what lets HCL avoid BCL's "static
//!   predefined data entry size" limitation (§I(f) of the paper).
//!
//! Segments are volatile. The paper's memory-mapped NVMe persistence
//! (§III-C6) is reproduced one layer up, as per-partition write-ahead logs
//! (`hcl-persist`; DESIGN.md substitution #7 and §16).

pub mod alloc;
pub mod segment;

pub use alloc::{AllocError, SegmentAllocator};
pub use segment::{MemError, Segment};

/// Round `n` up to the next multiple of 8 (the word size used by [`Segment`]).
#[inline]
pub fn align8(n: usize) -> usize {
    (n + 7) & !7
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align8_basics() {
        assert_eq!(align8(0), 0);
        assert_eq!(align8(1), 8);
        assert_eq!(align8(7), 8);
        assert_eq!(align8(8), 8);
        assert_eq!(align8(9), 16);
        assert_eq!(align8(63), 64);
    }
}
