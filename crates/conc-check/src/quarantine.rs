//! Freed-memory quarantine for `--cfg conc_check` builds.
//!
//! The epoch shim (`shims/crossbeam`) records here each allocation it would
//! free, and keeps it allocated instead. Every audited access — a `Shared`
//! dereference in the shim, a [`crate::RaceCell`] read or write — then fails
//! the schedule when it lands inside a recorded allocation, and so does a
//! second free of one allocation. Nothing recorded is ever freed, so no
//! address is reused and the happens-before checker's per-address history
//! stays sound (DESIGN.md §13).

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Start address → length of every allocation freed so far, process-wide.
static FREED: Mutex<BTreeMap<usize, usize>> = Mutex::new(BTreeMap::new());

/// Record the `len`-byte allocation at `addr` as freed; fail on a second
/// free of it. Zero-sized allocations share dangling addresses and are not
/// recorded.
pub fn free(addr: usize, len: usize) {
    if len == 0 {
        return;
    }
    let first = FREED.lock().unwrap_or_else(PoisonError::into_inner).insert(addr, len).is_none();
    assert!(first, "conc-check: double free — {addr:#x} was retired twice");
}

/// Fail when `addr` lies inside an allocation recorded as freed.
pub fn check(addr: usize) {
    let freed = FREED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((&start, &len)) = freed.range(..=addr).next_back() {
        assert!(
            addr >= start + len,
            "conc-check: use after free — {addr:#x} lies in {start:#x}+{len}, which epoch \
             reclamation freed"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accesses_inside_a_freed_allocation_fail_and_beside_it_pass() {
        // A leaked buffer: its addresses can never be handed out again.
        let buf: &'static mut [u8; 64] = Box::leak(Box::new([0u8; 64]));
        let base = buf.as_ptr() as usize;
        free(base + 16, 16);
        check(base + 15);
        check(base + 32);
        assert!(std::panic::catch_unwind(|| check(base + 16)).is_err());
        assert!(std::panic::catch_unwind(|| check(base + 31)).is_err());
        assert!(std::panic::catch_unwind(|| free(base + 16, 16)).is_err());
        free(base + 48, 0); // zero-sized: not recorded
        check(base + 48);
    }
}
