//! # hcl-containers — the local concurrent building blocks of HCL
//!
//! HCL's distributed data structures are assembled from *lock-free local*
//! structures that live inside each partition (paper §III-A3: "utilizing
//! lock-free and consistent local data structures ... which are the building
//! block of DDSs within HCL"). This crate provides those blocks:
//!
//! | paper (§III-D) | here | notes |
//! |---|---|---|
//! | lock-free Cuckoo hash \[30\] | [`CuckooMap`] | two-choice hashing, 4-slot buckets, lock-free reads, striped-lock writers, displacement, in-place resize (DESIGN.md substitution #4) |
//! | wait-free red-black tree \[31\] | [`SkipListMap`] | lock-free skiplist with the same O(log n) ordered semantics (substitution #5) |
//! | optimistic lock-free FIFO \[32\] | [`LockFreeQueue`] | Michael–Scott queue with epoch reclamation |
//! | MDList priority queue \[33\]  | [`SkipListPq`] | logical-deletion priority queue; traversals and an on-demand `purge` pass unlink marked nodes (substitution #6) |
//!
//! All structures are `Send + Sync`, safe under any number of concurrent
//! readers and writers (MWMR, §III-D), and reclaim memory through
//! crossbeam's epoch scheme.

pub mod cuckoo;
pub mod pq;
pub mod queue;
pub mod skiplist;

pub use cuckoo::CuckooMap;
pub use pq::SkipListPq;
pub use queue::LockFreeQueue;
pub use skiplist::SkipListMap;
