//! Operation-cost accounting for Table I.
//!
//! Table I of the paper gives each container operation's worst-case cost in
//! terms of: `F` — the cost of invoking a function on remote memory, `L` —
//! a local memory operation, `R` — a local read, `W` — a local write, `N` —
//! entries, `E` — elements in a bulk op. The headline property is that
//! *"each high-level data structure operation is compiled down to only one
//! remote invocation and a few local operations"*.
//!
//! Every container handle carries a [`CostCounters`] block in its
//! dispatcher's op meter, counted on the client side: `F` (one per RPC
//! issued, split batched/unbatched) and the `L`/`R`/`W` terms of ops the
//! hybrid bypass serves. The `table1` bench binary and
//! `crates/core/tests/dispatch_conformance.rs` read these to verify the
//! cost model empirically.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters for the Table I cost terms.
#[derive(Debug, Default)]
pub struct CostCounters {
    /// `F`: remote function invocations issued.
    pub remote_invocations: AtomicU64,
    /// `L`: local memory operations (hash computations, bucket walks,
    /// tree descents).
    pub local_ops: AtomicU64,
    /// `R`: local reads of entry payloads.
    pub local_reads: AtomicU64,
    /// `W`: local writes of entry payloads.
    pub local_writes: AtomicU64,
    /// Remote ops that rode an aggregated (coalesced or bulk) message.
    pub batched_remote_ops: AtomicU64,
    /// Remote ops that went out as their own message.
    pub unbatched_remote_ops: AtomicU64,
}

impl CostCounters {
    /// Count one remote invocation (`F`).
    #[inline]
    pub fn f(&self) {
        self.remote_invocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` local memory operations (`L`).
    #[inline]
    pub fn l(&self, n: u64) {
        self.local_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` local reads (`R`).
    #[inline]
    pub fn r(&self, n: u64) {
        self.local_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` local writes (`W`).
    #[inline]
    pub fn w(&self, n: u64) {
        self.local_writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` remote ops that were aggregated into a batched message
    /// (the coalescer's async path and explicit bulk ops). Counted in
    /// addition to `F`, never instead of it.
    #[inline]
    pub fn fb(&self, n: u64) {
        self.batched_remote_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one remote op that traveled as its own message.
    #[inline]
    pub fn fu(&self) {
        self.unbatched_remote_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the counters out.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            f: self.remote_invocations.load(Ordering::Relaxed),
            l: self.local_ops.load(Ordering::Relaxed),
            r: self.local_reads.load(Ordering::Relaxed),
            w: self.local_writes.load(Ordering::Relaxed),
            fb: self.batched_remote_ops.load(Ordering::Relaxed),
            fu: self.unbatched_remote_ops.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`CostCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostSnapshot {
    /// Remote invocations (`F`).
    pub f: u64,
    /// Local memory ops (`L`).
    pub l: u64,
    /// Local reads (`R`).
    pub r: u64,
    /// Local writes (`W`).
    pub w: u64,
    /// Remote ops that rode an aggregated message (subset of `F`).
    pub fb: u64,
    /// Remote ops sent as their own message (subset of `F`).
    pub fu: u64,
}

impl CostSnapshot {
    /// Difference since `earlier` (counters are monotonic).
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            f: self.f - earlier.f,
            l: self.l - earlier.l,
            r: self.r - earlier.r,
            w: self.w - earlier.w,
            fb: self.fb - earlier.fb,
            fu: self.fu - earlier.fu,
        }
    }

    /// Fraction of classified remote ops that were batched — the
    /// coalescer's observable hit rate (0 when no remote op was issued).
    pub fn batch_hit_rate(&self) -> f64 {
        let total = self.fb + self.fu;
        if total == 0 {
            0.0
        } else {
            self.fb as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CostSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "F={} (batched={} unbatched={}) L={} R={} W={}",
            self.f, self.fb, self.fu, self.l, self.r, self.w
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = CostCounters::default();
        c.f();
        c.f();
        c.l(3);
        c.r(1);
        c.w(2);
        let s = c.snapshot();
        assert_eq!(s, CostSnapshot { f: 2, l: 3, r: 1, w: 2, fb: 0, fu: 0 });
        let s2 = c.snapshot().since(&s);
        assert_eq!(s2, CostSnapshot::default());
    }

    #[test]
    fn batch_classification_and_hit_rate() {
        let c = CostCounters::default();
        assert_eq!(c.snapshot().batch_hit_rate(), 0.0);
        c.fb(3);
        c.fu();
        let s = c.snapshot();
        assert_eq!(s.fb, 3);
        assert_eq!(s.fu, 1);
        assert!((s.batch_hit_rate() - 0.75).abs() < 1e-9);
    }
}
