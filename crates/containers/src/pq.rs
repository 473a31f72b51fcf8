//! A lock-free priority queue, standing in for the paper's
//! multi-dimensional-linked-list PQ \[33\] (DESIGN.md substitution #6).
//!
//! Structure follows the paper's description exactly at the API level:
//! `push` places the new node in order, `pop` locates the minimum and
//! *marks it for deletion* (logical removal), and "a background process is
//! used to delete all the marked nodes and compact" — here, traversals
//! physically unlink the marked skiplist nodes they pass, and
//! [`SkipListPq::purge`] (the distributed queue's Table I `purge` op) runs
//! one full unlinking pass on demand. No thread of its own.
//!
//! Duplicate priorities are allowed: each pushed element is keyed by
//! `(value, sequence)` where the sequence is a global counter, making the
//! pop order stable for equal priorities.

use conc_check::sync::{AtomicU64, Ordering};

use crate::skiplist::SkipListMap;

/// A lock-free min-priority queue (smallest value pops first).
pub struct SkipListPq<T>
where
    T: Ord + Clone + Send + Sync + 'static,
{
    inner: SkipListMap<(T, u64), ()>,
    seq: AtomicU64,
}

impl<T> Default for SkipListPq<T>
where
    T: Ord + Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SkipListPq<T>
where
    T: Ord + Clone + Send + Sync + 'static,
{
    /// Create an empty priority queue.
    pub fn new() -> Self {
        SkipListPq { inner: SkipListMap::new(), seq: AtomicU64::new(0) }
    }

    /// Insert `value`. Equal values pop in insertion order.
    pub fn push(&self, value: T) {
        // ORDERING: Relaxed is enough — the sequence number only needs to be
        // unique, not ordered with respect to the insert that publishes it.
        let s = self.seq.fetch_add(1, Ordering::Relaxed);
        self.inner.insert((value, s), ());
    }

    /// Remove and return the minimum element.
    pub fn pop(&self) -> Option<T> {
        self.inner.remove_min().map(|((v, _), ())| v)
    }

    /// Clone of the minimum element without removing it.
    pub fn peek(&self) -> Option<T> {
        self.inner.first().map(|((v, _), ())| v)
    }

    /// Bulk push (paper's `push(const std::vector&)`).
    pub fn push_bulk(&self, values: impl IntoIterator<Item = T>) -> usize {
        let mut n = 0;
        for v in values {
            self.push(v);
            n += 1;
        }
        n
    }

    /// Bulk pop of up to `max` elements, in priority order.
    pub fn pop_bulk(&self, max: usize) -> Vec<T> {
        // `max` may be usize::MAX ("drain everything"); clamp the
        // preallocation to what is actually queued.
        let mut out = Vec::with_capacity(max.min(self.len()));
        for _ in 0..max {
            match self.pop() {
                Some(v) => out.push(v),
                None => break,
            }
        }
        out
    }

    /// Number of live elements (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Run one physical-unlink pass; returns marked nodes encountered.
    pub fn purge(&self) -> usize {
        self.inner.purge()
    }

    /// Clone out the live elements in priority order (snapshot persistence).
    pub fn iter_snapshot(&self) -> Vec<T> {
        self.inner.iter_snapshot().into_iter().map(|((v, _), ())| v).collect()
    }

    /// Drain everything into a sorted `Vec` (convenience for sinks like the
    /// ISx sort — the receive side pops an already-sorted stream).
    pub fn drain_sorted(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(v) = self.pop() {
            out.push(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pops_in_priority_order() {
        let pq = SkipListPq::new();
        for v in [5u64, 1, 9, 3, 7] {
            pq.push(v);
        }
        assert_eq!(pq.peek(), Some(1));
        assert_eq!(pq.drain_sorted(), vec![1, 3, 5, 7, 9]);
        assert_eq!(pq.pop(), None);
    }

    #[test]
    fn equal_priorities_fifo() {
        let pq = SkipListPq::new();
        pq.push((1u32, "first".to_string()));
        pq.push((1, "second".to_string()));
        pq.push((0, "zeroth".to_string()));
        assert_eq!(pq.pop(), Some((0, "zeroth".to_string())));
        assert_eq!(pq.pop(), Some((1, "first".to_string())));
        assert_eq!(pq.pop(), Some((1, "second".to_string())));
    }

    #[test]
    fn bulk_ops() {
        let pq = SkipListPq::new();
        assert_eq!(pq.push_bulk([3u8, 1, 2]), 3);
        assert_eq!(pq.pop_bulk(2), vec![1, 2]);
        assert_eq!(pq.pop_bulk(10), vec![3]);
    }

    #[test]
    fn concurrent_push_pop_conserves_elements() {
        let pq = Arc::new(SkipListPq::new());
        let producers = 4u64;
        let per = 5_000u64;
        let mut handles = Vec::new();
        for p in 0..producers {
            let pq = Arc::clone(&pq);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    pq.push(p * per + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pq.len() as u64, producers * per);
        let drained = pq.drain_sorted();
        assert_eq!(drained.len() as u64, producers * per);
        assert!(drained.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn concurrent_poppers_each_see_increasing_values() {
        let pq = Arc::new(SkipListPq::new());
        for i in 0..20_000u64 {
            pq.push(i);
        }
        let total = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pq = Arc::clone(&pq);
                let total = Arc::clone(&total);
                s.spawn(move || {
                    let mut last: i64 = -1;
                    while let Some(v) = pq.pop() {
                        assert!((v as i64) > last);
                        last = v as i64;
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 20_000);
    }

    #[test]
    fn mixed_push_pop_interleaved() {
        let pq = Arc::new(SkipListPq::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let pq = Arc::clone(&pq);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        pq.push(t * 1_000_000 + i);
                        if i % 2 == 1 {
                            pq.pop();
                        }
                    }
                });
            }
        });
        // 4 threads × 2000 pushes − 4 × 1000 pops
        assert_eq!(pq.len(), 4 * 2_000 - 4 * 1_000);
    }
}
