//! A lock-free MPMC FIFO queue (Michael–Scott construction).
//!
//! HCL's `HCL::queue` (§III-D3A) uses "a state-of-the-art algorithm that
//! maintains a list of pointers to allow concurrent lock-free operations"
//! (the optimistic queue of Ladan-Mozes & Shavit). We implement the classic
//! Michael–Scott CAS queue, which provides the identical interface and
//! progress guarantee; the optimistic variant's backwards "fix-list" pass is
//! an optimisation of the same list-of-pointers design (it reduces the number
//! of CASes per push from 2 to 1 in the common case), not a semantic change.
//!
//! Atomics come from the `conc_check::sync` facade: a plain re-export of
//! `std::sync::atomic` in normal builds, and schedule-exploring wrappers
//! under `--cfg conc_check` (see `crates/conc-check`). The value slot sits
//! in a `conc_check::RaceCell` — a zero-cost passthrough by default, an
//! audited shadow cell under the happens-before checker, which fails any
//! schedule where a slot is read without a real publication edge.

use std::mem::MaybeUninit;

use conc_check::sync::{AtomicIsize, Ordering};
use conc_check::RaceCell;
use crossbeam::epoch::{self, Atomic, Owned, Shared};
use crossbeam::utils::CachePadded;

struct Node<T> {
    /// Initialised for every node except the sentinel; consumed by `pop`.
    value: RaceCell<MaybeUninit<T>>,
    next: Atomic<Node<T>>,
}

/// A lock-free multi-producer multi-consumer FIFO queue.
pub struct LockFreeQueue<T> {
    head: CachePadded<Atomic<Node<T>>>,
    tail: CachePadded<Atomic<Node<T>>>,
    /// Signed on purpose: `pop` may decrement before the racing `push` that
    /// linked the node has incremented, so the counter can transiently dip
    /// below zero. `len()` clamps at 0 instead of wrapping to 2^64-1.
    len: AtomicIsize,
}

// SAFETY: the queue owns its nodes and hands out values only once (pop moves
// them out); all shared-node access is synchronized through epoch-protected
// atomics, so it is Send/Sync whenever T itself may move between threads.
unsafe impl<T: Send> Send for LockFreeQueue<T> {}
// SAFETY: see the Send impl above; &LockFreeQueue only exposes atomic ops.
unsafe impl<T: Send> Sync for LockFreeQueue<T> {}

impl<T> Default for LockFreeQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LockFreeQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        let sentinel =
            Owned::new(Node { value: RaceCell::new(MaybeUninit::uninit()), next: Atomic::null() });
        let guard = epoch::pin();
        let sentinel = sentinel.into_shared(&guard);
        LockFreeQueue {
            head: CachePadded::new(Atomic::from(sentinel)),
            tail: CachePadded::new(Atomic::from(sentinel)),
            len: AtomicIsize::new(0),
        }
    }

    /// Append `value` at the tail. Lock-free; never blocks.
    pub fn push(&self, value: T) {
        let guard = epoch::pin();
        let new =
            Owned::new(Node { value: RaceCell::new(MaybeUninit::new(value)), next: Atomic::null() });
        // Declare the write at the slot's final heap address, before the
        // node is published: the releasing link CAS below is the edge every
        // consumer's read must be ordered after.
        new.value.mark_write();
        let new = new.into_shared(&guard);
        loop {
            let tail = self.tail.load(Ordering::Acquire, &guard);
            // SAFETY: `tail` was loaded from a live queue pointer under the
            // epoch guard, so the node cannot be reclaimed while we hold it.
            let t = unsafe { tail.deref() };
            let next = t.next.load(Ordering::Acquire, &guard);
            if !next.is_null() {
                // Tail is lagging: help advance it, then retry.
                // ORDERING: failure is Relaxed — a lost helping CAS carries
                // no data; the retry re-loads tail with Acquire.
                let _ = self.tail.compare_exchange(
                    tail,
                    next,
                    Ordering::Release,
                    Ordering::Relaxed,
                    &guard,
                );
                continue;
            }
            // ORDERING: success is Release so the node's value is published
            // before the link becomes visible; failure is Relaxed because we
            // discard the observed value and retry from a fresh Acquire load.
            if t.next
                .compare_exchange(
                    Shared::null(),
                    new,
                    Ordering::Release,
                    Ordering::Relaxed,
                    &guard,
                )
                .is_ok()
            {
                // ORDERING: failure is Relaxed — if another thread already
                // swung the tail past us, there is nothing left to publish.
                let _ = self.tail.compare_exchange(
                    tail,
                    new,
                    Ordering::Release,
                    Ordering::Relaxed,
                    &guard,
                );
                // ORDERING: Relaxed — `len` is a monotonic statistic with no
                // release/acquire obligations; readers tolerate staleness.
                self.len.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Remove and return the head element, or `None` when empty.
    pub fn pop(&self) -> Option<T> {
        let guard = epoch::pin();
        loop {
            let head = self.head.load(Ordering::Acquire, &guard);
            // SAFETY: `head` is the current sentinel, loaded under the epoch
            // guard; it is only retired after head is CASed away, and never
            // freed before our guard unpins.
            let h = unsafe { head.deref() };
            let next = h.next.load(Ordering::Acquire, &guard);
            // SAFETY: `next` was read from the live sentinel under the same
            // guard; if non-null it points at a node that cannot be
            // reclaimed before the guard drops.
            let n = unsafe { next.as_ref() }?;
            // Keep the tail from pointing at the node we are about to retire.
            let tail = self.tail.load(Ordering::Acquire, &guard);
            if tail == head {
                // ORDERING: failure is Relaxed — helping CAS, value unused.
                let _ = self.tail.compare_exchange(
                    tail,
                    next,
                    Ordering::Release,
                    Ordering::Relaxed,
                    &guard,
                );
            }
            // ORDERING: success is Release to order the sentinel swap with
            // the subsequent value read; failure is Relaxed (pure retry).
            if self
                .head
                .compare_exchange(head, next, Ordering::Release, Ordering::Relaxed, &guard)
                .is_ok()
            {
                // ORDERING: Relaxed statistic. This decrement may race ahead
                // of the linking push's increment — hence the signed counter
                // and the clamp in `len()`.
                self.len.fetch_sub(1, Ordering::Relaxed);
                // SAFETY: `next` becomes the new sentinel; the winning CAS
                // grants us unique ownership of its value slot, which is
                // moved out exactly once here and never read or dropped
                // again (sentinel value slots are treated as vacant). The
                // slot was initialised before the push published the node.
                let value = unsafe { n.value.with(|v| v.assume_init_read()) };
                // SAFETY: our CAS took `head` out of `self.head`, so this
                // thread is its one retirer and no new reference can be
                // created; defer_destroy waits for all current guards. Its
                // value slot is `MaybeUninit` and was moved out when it
                // became the sentinel, so freeing the node drops no `T`.
                unsafe { guard.defer_destroy(head) };
                return Some(value);
            }
        }
    }

    /// Push a batch (the paper's `push(const std::vector<T>&)` bulk form).
    pub fn push_bulk(&self, values: impl IntoIterator<Item = T>) -> usize {
        let mut n = 0;
        for v in values {
            self.push(v);
            n += 1;
        }
        n
    }

    /// Pop up to `max` elements (the paper's bulk pop form).
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

    /// Approximate number of elements (exact when quiescent). Clamped at 0:
    /// a pop's decrement can land before the racing push's increment, making
    /// the raw counter transiently negative.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed).max(0) as usize
    }

    /// Clone out the queued elements front-to-back (exact when quiescent;
    /// used for snapshot persistence).
    pub fn iter_snapshot(&self) -> Vec<T>
    where
        T: Clone,
    {
        let guard = epoch::pin();
        let mut out = Vec::with_capacity(self.len());
        let head = self.head.load(Ordering::Acquire, &guard);
        // The sentinel's value slot is vacant; elements start at its next.
        // SAFETY: the sentinel is live while the guard is held.
        let mut curr = unsafe { head.deref() }.next.load(Ordering::Acquire, &guard);
        // SAFETY: each node was reached through live links under the guard,
        // so it is not reclaimed while we iterate.
        while let Some(node) = unsafe { curr.as_ref() } {
            // SAFETY: every non-sentinel node's value is initialised by push
            // and only vacated when the node becomes the sentinel, which
            // requires unlinking it from the position we just traversed.
            out.push(unsafe { node.value.with(|v| v.assume_init_ref().clone()) });
            curr = node.next.load(Ordering::Acquire, &guard);
        }
        out
    }

    /// True when the queue appears empty.
    pub fn is_empty(&self) -> bool {
        let guard = epoch::pin();
        let head = self.head.load(Ordering::Acquire, &guard);
        // SAFETY: the sentinel is live while the guard is held.
        unsafe { head.deref() }.next.load(Ordering::Acquire, &guard).is_null()
    }
}

impl<T> Drop for LockFreeQueue<T> {
    fn drop(&mut self) {
        // Drain remaining values, then free the sentinel.
        while self.pop().is_some() {}
        let guard = epoch::pin();
        let head = self.head.load(Ordering::Relaxed, &guard);
        // SAFETY: we hold &mut self, so no other thread can touch the queue;
        // after the drain the only remaining node is the sentinel, whose
        // value slot is uninitialised — we free the node without dropping it.
        unsafe {
            drop(head.into_owned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let q = LockFreeQueue::new();
        for i in 0..100 {
            q.push(i);
        }
        assert_eq!(q.len(), 100);
        for i in 0..100 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn bulk_ops() {
        let q = LockFreeQueue::new();
        assert_eq!(q.push_bulk(0..10), 10);
        let got = q.pop_bulk(4);
        assert_eq!(got, vec![0, 1, 2, 3]);
        let rest = q.pop_bulk(100);
        assert_eq!(rest.len(), 6);
        assert!(q.pop_bulk(5).is_empty());
    }

    #[test]
    fn values_dropped_on_queue_drop() {
        // Arc strong counts tell us every element was dropped exactly once.
        let marker = Arc::new(());
        {
            let q = LockFreeQueue::new();
            for _ in 0..50 {
                q.push(Arc::clone(&marker));
            }
            let _ = q.pop();
        }
        // Retired sentinels are freed by later collections; flush a few
        // pins so any the drain left behind are gone too.
        for _ in 0..256 {
            epoch::pin().flush();
        }
        // Every clone was dropped exactly once: the popped one at once, the
        // rest by the queue's drain. None stayed behind in a retired node.
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    #[test]
    fn mpmc_no_loss_no_duplication() {
        use std::sync::atomic::Ordering;
        let q = Arc::new(LockFreeQueue::new());
        let producers = 4;
        let consumers = 4;
        let per_producer = 10_000u64;
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    q.push(p as u64 * per_producer + i);
                }
            }));
        }
        let collected: Arc<parking_lot::Mutex<Vec<u64>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let total = producers as u64 * per_producer;
        let popped = Arc::new(AtomicUsize::new(0));
        for _ in 0..consumers {
            let q = Arc::clone(&q);
            let collected = Arc::clone(&collected);
            let popped = Arc::clone(&popped);
            handles.push(std::thread::spawn(move || {
                let mut local = Vec::new();
                while (popped.load(Ordering::Relaxed) as u64) < total {
                    if let Some(v) = q.pop() {
                        popped.fetch_add(1, Ordering::Relaxed);
                        local.push(v);
                    } else {
                        std::thread::yield_now();
                    }
                }
                collected.lock().extend(local);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let all = collected.lock();
        assert_eq!(all.len() as u64, total);
        let set: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(set.len() as u64, total, "duplicated element detected");
    }

    #[test]
    fn per_producer_order_preserved() {
        // FIFO per producer: a single consumer must see each producer's
        // elements in increasing order.
        let q = Arc::new(LockFreeQueue::new());
        let producers = 3usize;
        let n = 5_000u64;
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..n {
                    q.push((p as u64, i));
                }
            }));
        }
        let mut last = vec![-1i64; producers];
        let mut seen = 0;
        while seen < producers as u64 * n {
            if let Some((p, i)) = q.pop() {
                assert!(last[p as usize] < i as i64, "producer {p} reordered");
                last[p as usize] = i as i64;
                seen += 1;
            }
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
