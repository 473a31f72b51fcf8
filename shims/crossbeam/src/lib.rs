//! Offline stand-in for the `crossbeam` crate (see `shims/README.md`).
//!
//! Three submodules cover the workspace's usage:
//!
//! * [`channel`] — unbounded MPMC channels with timeout receive, built on a
//!   mutex + condvar queue;
//! * [`epoch`] — the `crossbeam_epoch` pointer API (`Atomic` / `Owned` /
//!   `Shared` / `Guard`, tagged pointers, `compare_exchange`) and epoch-based
//!   reclamation: `defer_destroy` reclaims a retired pointer once no thread
//!   pinned before its retirement is still pinned, as the real crate does.
//!   Under `--cfg conc_check` it leaks instead, quarantining the addresses
//!   it would have freed (see the module docs);
//! * [`utils`] — `CachePadded`.

pub mod channel;
pub mod epoch;
pub mod utils;
