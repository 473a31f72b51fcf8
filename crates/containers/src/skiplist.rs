//! A lock-free ordered map (skiplist), standing in for the paper's
//! wait-free red-black tree \[31\] (DESIGN.md substitution #5).
//!
//! Design: the classic Harris/Herlihy–Shavit lock-free skiplist.
//!
//! * Each node carries a tower of `next` pointers; the *tag bit* of a level's
//!   next pointer is the deletion mark for that level.
//! * `find` walks top-down, physically unlinking marked nodes it passes
//!   (helping), and returns the pred link / successor per level.
//! * `insert` publishes at level 0 with a CAS (the linearization point),
//!   then links higher levels; links race deletion via CAS on the node's own
//!   next pointers.
//! * `remove` marks top-down; the successful level-0 mark CAS is the unique
//!   claim (exactly one thread wins a concurrent remove of the same node) —
//!   this claim is also what [`SkipListMap::remove_min`] uses to implement a
//!   lock-free priority-queue pop.
//! * Values live behind their own atomic pointer so `insert` on an existing
//!   key is a lock-free value swap.
//! * Reclamation: each node counts the levels it is linked at, plus one
//!   held by its inserting thread until that thread stops linking. The
//!   release that drops the count to zero retires the node through the
//!   crossbeam epoch scheme, so a node is never freed while any level still
//!   reaches it, nor relinked after it was retired.
//! * One retirer per pointer: the thread whose read-modify-write takes a
//!   pointer out of a cell retires it. A value replace's CAS takes the old
//!   value out, so the replacer retires it, even when a remove races it; the
//!   value a node holds last is never taken out, and is freed with the node.

use conc_check::sync::{AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use conc_check::RaceCell;
use crossbeam::epoch::{self, Atomic, Guard, Owned, Shared};

/// Maximum tower height. 2^16 expected elements per partition is far beyond
/// the per-partition sizes HCL's evaluation uses.
const MAX_HEIGHT: usize = 16;

struct Node<K, V> {
    key: K,
    /// The pointee is a `RaceCell` so the happens-before checker audits
    /// every value read against the publication edge that released it. The
    /// node owns the value it holds: `Drop` frees it.
    value: Atomic<RaceCell<V>>,
    /// Levels currently linked, plus one for the inserting thread while it
    /// links (2 after the level-0 publish). The release that brings this to
    /// 0 retires the node.
    links: AtomicUsize,
    height: usize,
    tower: [Atomic<Node<K, V>>; MAX_HEIGHT],
}

impl<K, V> Node<K, V> {
    fn new(key: K, value: Shared<'_, RaceCell<V>>, height: usize) -> Owned<Self> {
        Owned::new(Node {
            key,
            value: Atomic::from(value.as_raw() as *const RaceCell<V>),
            links: AtomicUsize::new(2),
            height,
            tower: Default::default(),
        })
    }
}

impl<K, V> Drop for Node<K, V> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` means no other thread can reach the node, so
        // none can reach the value it holds last: replaced values left the
        // cell through their replacer's CAS, which retired them.
        unsafe {
            let guard = epoch::unprotected();
            let val = self.value.load(Ordering::Relaxed, guard);
            if !val.is_null() {
                drop(val.into_owned());
            }
        }
    }
}

struct FindResult<'g, K, V> {
    /// Per level: the link (an `Atomic`) whose successor is `succs[level]`.
    preds: [*const Atomic<Node<K, V>>; MAX_HEIGHT],
    succs: [Shared<'g, Node<K, V>>; MAX_HEIGHT],
    /// The node with exactly the searched key at level 0, if present.
    found: Option<Shared<'g, Node<K, V>>>,
}

/// A lock-free concurrent ordered map.
pub struct SkipListMap<K, V> {
    head: [Atomic<Node<K, V>>; MAX_HEIGHT],
    /// Signed on purpose: a remover can claim a freshly published node (and
    /// decrement) before the inserting thread's increment lands, so the raw
    /// counter can transiently dip below zero. `len()` clamps at 0.
    len: AtomicIsize,
    rng: AtomicU64,
}

// SAFETY: nodes are shared between threads via epoch-protected atomics and
// values are cloned out of shared nodes, so K and V must be Send + Sync; all
// mutation goes through tagged-pointer CAS with epoch reclamation.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for SkipListMap<K, V> {}
// SAFETY: see the Send impl above; &SkipListMap only exposes atomic ops.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for SkipListMap<K, V> {}

impl<K, V> Default for SkipListMap<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> SkipListMap<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create an empty map.
    pub fn new() -> Self {
        SkipListMap {
            head: Default::default(),
            len: AtomicIsize::new(0),
            rng: AtomicU64::new(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Number of live entries (approximate under concurrency). Clamped at 0:
    /// a remove's decrement can land before the racing insert's increment,
    /// making the raw counter transiently negative.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed).max(0) as usize
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate a value cell and declare the write at its final heap
    /// address, before any pointer to it is published.
    fn alloc_value<'g>(value: &V, guard: &'g Guard) -> Shared<'g, RaceCell<V>> {
        let cell = Owned::new(RaceCell::new(value.clone()));
        cell.mark_write();
        cell.into_shared(guard)
    }

    fn random_height(&self) -> usize {
        // SplitMix64 step; geometric with p = 1/2, capped at MAX_HEIGHT.
        // ORDERING: Relaxed — the RNG state carries no cross-thread data
        // dependency; any interleaving of increments is an acceptable seed.
        let mut x = self.rng.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        ((x.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    }

    /// Drop one of a node's link references; retire the node (and with it
    /// the value it holds) when none is left.
    ///
    /// # Safety
    /// The caller must have just won the CAS that unlinked `node` at one
    /// level, or be the inserting thread giving up its linking reference;
    /// each may release exactly once. `node` must still be protected by
    /// `guard`.
    unsafe fn release_link(node: Shared<'_, Node<K, V>>, guard: &Guard) {
        // SAFETY: `node` is protected by `guard` per this fn's contract.
        let n = unsafe { node.deref() };
        if n.links.fetch_sub(1, Ordering::AcqRel) == 1 {
            // SAFETY: the count hit zero: no level links the node and its
            // inserter stopped linking, so no future traversal can reach it
            // and nothing relinks it; ours is the one release that saw zero.
            // defer_destroy waits out current guards.
            unsafe { guard.defer_destroy(node) };
        }
    }

    fn find<'g>(&self, key: &K, guard: &'g Guard) -> FindResult<'g, K, V> {
        'retry: loop {
            let mut preds: [*const Atomic<Node<K, V>>; MAX_HEIGHT] =
                [std::ptr::null(); MAX_HEIGHT];
            let mut succs: [Shared<'g, Node<K, V>>; MAX_HEIGHT] = [Shared::null(); MAX_HEIGHT];
            let mut pred_link: &Atomic<Node<K, V>> = &self.head[MAX_HEIGHT - 1];
            for level in (0..MAX_HEIGHT).rev() {
                let mut curr = pred_link.load(Ordering::Acquire, guard);
                if curr.tag() == 1 {
                    // Our pred was deleted under us; restart from the top.
                    continue 'retry;
                }
                loop {
                    // SAFETY: `curr` was loaded from a live link under the
                    // pin; nodes are only freed after every link to them is
                    // severed and all guards drain.
                    let Some(c) = (unsafe { curr.as_ref() }) else { break };
                    let succ = c.tower[level].load(Ordering::Acquire, guard);
                    if succ.tag() == 1 {
                        // `c` is marked at this level: help unlink it.
                        match pred_link.compare_exchange(
                            curr,
                            succ.with_tag(0),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                            guard,
                        ) {
                            Ok(_) => {
                                // SAFETY: we just won the unlink CAS for this
                                // level, which is exactly release_link's
                                // contract; `curr` is guard-protected.
                                unsafe { Self::release_link(curr, guard) };
                                curr = succ.with_tag(0);
                                continue;
                            }
                            Err(_) => continue 'retry,
                        }
                    }
                    if c.key < *key {
                        pred_link = &c.tower[level];
                        curr = succ;
                    } else {
                        break;
                    }
                }
                preds[level] = pred_link as *const _;
                succs[level] = curr;
                if level > 0 {
                    // Descend: continue from the same pred at the next level.
                    // `pred_link` currently points at this level's link of the
                    // pred node (or head); move to the level below.
                    // SAFETY: `preds[level]` was written this iteration from
                    // a live `&Atomic` (head slot or guard-protected node
                    // tower entry), so the pointer is valid here.
                    pred_link = match unsafe { preds[level].as_ref() } {
                        Some(link) => {
                            // Identify whether this link belongs to head or a node:
                            // head links are contiguous in `self.head`.
                            let head_start = self.head.as_ptr();
                            // SAFETY: one-past-the-end pointer of the head
                            // array, used only for the range comparison.
                            let head_end = unsafe { head_start.add(MAX_HEIGHT) };
                            let p = link as *const Atomic<Node<K, V>>;
                            if p >= head_start && p < head_end {
                                &self.head[level - 1]
                            } else {
                                // The link is `&node.tower[level]`; step to
                                // `&node.tower[level-1]` within the same node.
                                // SAFETY: `p` points into a node's tower array
                                // at index `level` ≥ 1, so `p - 1` stays in
                                // bounds of the same array; the node is
                                // guard-protected for the whole find.
                                unsafe { &*p.sub(1) }
                            }
                        }
                        None => &self.head[level - 1],
                    };
                }
            }
            // SAFETY: `succs[0]` was read from a live link under the pin.
            let found = match unsafe { succs[0].as_ref() } {
                Some(c) if c.key == *key => Some(succs[0]),
                _ => None,
            };
            return FindResult { preds, succs, found };
        }
    }

    /// Insert `key -> value`; returns the previous value if the key was
    /// present (whose replacement is a lock-free pointer swap).
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        let guard = &epoch::pin();
        'outer: loop {
            let f = self.find(&key, guard);
            if let Some(node) = f.found {
                // SAFETY: `found` nodes are guard-protected (see find).
                let n = unsafe { node.deref() };
                // Replace the value in place.
                loop {
                    if n.tower[0].load(Ordering::Acquire, guard).tag() == 1 {
                        // Node is being removed; insert a fresh one.
                        continue 'outer;
                    }
                    let old = n.value.load(Ordering::Acquire, guard);
                    let new = Self::alloc_value(&value, guard);
                    match n.value.compare_exchange(
                        old,
                        new,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    ) {
                        Ok(_) => {
                            if n.tower[0].load(Ordering::Acquire, guard).tag() == 1 {
                                // Lost to a concurrent remove: our value dies
                                // with the node. Re-insert fresh.
                                // SAFETY: our CAS took `old` out of the cell,
                                // so this thread is its one retirer; the node
                                // frees only the value it holds last.
                                unsafe { guard.defer_destroy(old) };
                                continue 'outer;
                            }
                            // SAFETY: `old` was the node's live value until
                            // our CAS; values are never null for live nodes.
                            let prev = unsafe { old.deref().with(V::clone) };
                            // SAFETY: our winning CAS took `old` out of the
                            // cell, making this thread its unique retirer.
                            unsafe { guard.defer_destroy(old) };
                            return Some(prev);
                        }
                        Err(e) => {
                            // Another replace won; retry with current.
                            // SAFETY: our speculative value never became
                            // visible to other threads; we still own it.
                            drop(unsafe { e.new.into_owned() });
                            continue;
                        }
                    }
                }
            }
            // Publish a new node at level 0.
            let height = self.random_height();
            let value_ptr = Self::alloc_value(&value, guard);
            let mut node = Node::new(key.clone(), value_ptr, height);
            node.tower[0] = Atomic::from(f.succs[0].as_raw() as *const Node<K, V>);
            let node_shared = node.into_shared(guard);
            // SAFETY: `preds[0]` points at a live link (head slot or a
            // guard-protected node's tower entry) found by this find pass.
            let pred0 = unsafe { &*f.preds[0] };
            if pred0
                .compare_exchange(
                    f.succs[0],
                    node_shared,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    guard,
                )
                .is_err()
            {
                // Lost the publish race; free the speculative node, and with
                // it the value it holds.
                // SAFETY: neither was ever published, so we still own both.
                unsafe { drop(node_shared.into_owned()) };
                continue 'outer;
            }
            // ORDERING: Relaxed — `len` is a statistic; a racing remover may
            // decrement before this lands (hence the signed clamp in len()).
            self.len.fetch_add(1, Ordering::Relaxed);
            // Link the higher levels.
            // SAFETY: just published; guard-protected.
            let n = unsafe { node_shared.deref() };
            let mut last_set: Shared<'_, Node<K, V>> = Shared::null();
            for level in 1..height {
                loop {
                    let f2 = self.find(&key, guard);
                    match f2.found {
                        Some(fnode) if fnode == node_shared => {}
                        _ => break, // our node is gone; stop linking
                    }
                    let succ = f2.succs[level];
                    // Set our own next pointer first; a failed CAS means a
                    // remover marked us — stop linking.
                    if last_set != succ
                        && n.tower[level]
                            .compare_exchange(
                                last_set,
                                succ,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                                guard,
                            )
                            .is_err()
                    {
                        break;
                    }
                    last_set = succ;
                    n.links.fetch_add(1, Ordering::AcqRel);
                    // SAFETY: `preds[level]` comes from the find pass above
                    // and points at a live, guard-protected link.
                    let predl = unsafe { &*f2.preds[level] };
                    match predl.compare_exchange(
                        succ,
                        node_shared,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    ) {
                        Ok(_) => break,
                        Err(_) => {
                            n.links.fetch_sub(1, Ordering::AcqRel);
                            continue;
                        }
                    }
                }
                if n.tower[0].load(Ordering::Acquire, guard).tag() == 1 {
                    break; // node removed while we were linking
                }
                last_set = Shared::null();
                // (each level starts from our null/previous pointer)
            }
            // SAFETY: this thread inserted the node and stops linking here,
            // giving up its linking reference once; the pin protects it.
            unsafe { Self::release_link(node_shared, guard) };
            return None;
        }
    }

    /// Look up `key`, returning a clone of its value.
    pub fn get(&self, key: &K) -> Option<V> {
        let guard = &epoch::pin();
        let f = self.find(key, guard);
        let node = f.found?;
        // SAFETY: `found` nodes are guard-protected (see find).
        let n = unsafe { node.deref() };
        if n.tower[0].load(Ordering::Acquire, guard).tag() == 1 {
            return None;
        }
        let v = n.value.load(Ordering::Acquire, guard);
        // SAFETY: the node was unmarked just above; live nodes always hold a
        // non-null value, and the pin keeps it alive while we clone.
        Some(unsafe { v.deref().with(V::clone) })
    }

    /// True when `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Mark `node` for deletion; returns true when this call won the claim.
    fn claim<'g>(&self, node: Shared<'g, Node<K, V>>, guard: &'g Guard) -> Option<V> {
        // SAFETY: callers pass nodes reached through live links under
        // `guard`, so the node outlives this call.
        let n = unsafe { node.deref() };
        // Mark the upper levels top-down.
        for level in (1..n.height).rev() {
            loop {
                let next = n.tower[level].load(Ordering::Acquire, guard);
                if next.tag() == 1 {
                    break;
                }
                if n.tower[level]
                    .compare_exchange(
                        next,
                        next.with_tag(1),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    )
                    .is_ok()
                {
                    break;
                }
            }
        }
        // Level 0 is the claim.
        loop {
            let next = n.tower[0].load(Ordering::Acquire, guard);
            if next.tag() == 1 {
                return None; // someone else claimed it
            }
            if n.tower[0]
                .compare_exchange(
                    next,
                    next.with_tag(1),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    guard,
                )
                .is_ok()
            {
                // ORDERING: Relaxed statistic; may precede the inserter's
                // increment (see the signed-counter note on `len`).
                self.len.fetch_sub(1, Ordering::Relaxed);
                let v = n.value.load(Ordering::Acquire, guard);
                // SAFETY: we won the claim, so the value pointer cannot be
                // retired before our guard drops; it is non-null for any
                // node that was live when we began.
                return Some(unsafe { v.deref().with(V::clone) });
            }
        }
    }

    /// Remove `key`; returns its value when this call performed the removal.
    pub fn remove(&self, key: &K) -> Option<V> {
        let guard = &epoch::pin();
        loop {
            let f = self.find(key, guard);
            let node = f.found?;
            match self.claim(node, guard) {
                Some(v) => {
                    // Physically unlink (helping): one more find pass.
                    let _ = self.find(key, guard);
                    return Some(v);
                }
                None => {
                    // Lost the claim; the key may have been re-inserted as a
                    // fresh node — retry until find says absent.
                    continue;
                }
            }
        }
    }

    /// Remove and return the smallest entry — the lock-free priority-queue
    /// pop (§III-D3B): locate the minimum, logically delete it (mark), let
    /// traversals purge it physically.
    pub fn remove_min(&self) -> Option<(K, V)> {
        let guard = &epoch::pin();
        loop {
            let mut curr = self.head[0].load(Ordering::Acquire, guard);
            let mut claimed = None;
            // SAFETY: each node is reached through live links under the pin.
            while let Some(c) = unsafe { curr.as_ref() } {
                let next = c.tower[0].load(Ordering::Acquire, guard);
                if next.tag() == 0 {
                    if let Some(v) = self.claim(curr, guard) {
                        claimed = Some((c.key.clone(), v));
                        let _ = self.find(&c.key, guard); // physical unlink
                        break;
                    }
                }
                curr = next.with_tag(0);
            }
            match claimed {
                Some(kv) => return Some(kv),
                None => {
                    // Either empty, or every node we saw was claimed by
                    // someone else; if the list head is now empty, give up.
                    if self.head[0].load(Ordering::Acquire, guard).is_null() {
                        return None;
                    }
                    // A full pass found nothing claimable: the remaining
                    // marked nodes belong to other removers. Report empty.
                    return None;
                }
            }
        }
    }

    /// Clone of the smallest entry without removing it.
    pub fn first(&self) -> Option<(K, V)> {
        let guard = &epoch::pin();
        let mut curr = self.head[0].load(Ordering::Acquire, guard);
        // SAFETY: each node is reached through live links under the pin.
        while let Some(c) = unsafe { curr.as_ref() } {
            let next = c.tower[0].load(Ordering::Acquire, guard);
            if next.tag() == 0 {
                let v = c.value.load(Ordering::Acquire, guard);
                // SAFETY: unmarked node observed under the pin ⇒ its value
                // is non-null and cannot be reclaimed before the guard drops.
                return Some((c.key.clone(), unsafe { v.deref().with(V::clone) }));
            }
            curr = next.with_tag(0);
        }
        None
    }

    /// Snapshot of all live entries in key order (not atomic).
    pub fn iter_snapshot(&self) -> Vec<(K, V)> {
        let guard = &epoch::pin();
        let mut out = Vec::new();
        let mut curr = self.head[0].load(Ordering::Acquire, guard);
        // SAFETY: each node is reached through live links under the pin.
        while let Some(c) = unsafe { curr.as_ref() } {
            let next = c.tower[0].load(Ordering::Acquire, guard);
            if next.tag() == 0 {
                let v = c.value.load(Ordering::Acquire, guard);
                // SAFETY: unmarked ⇒ non-null value, guard-protected.
                out.push((c.key.clone(), unsafe { v.deref().with(V::clone) }));
            }
            curr = next.with_tag(0);
        }
        out
    }

    /// Snapshot of live entries with keys in `[lo, hi)`.
    pub fn range_snapshot(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        let guard = &epoch::pin();
        let f = self.find(lo, guard);
        let mut out = Vec::new();
        let mut curr = f.succs[0];
        // SAFETY: each node is reached through live links under the pin.
        while let Some(c) = unsafe { curr.as_ref() } {
            if c.key >= *hi {
                break;
            }
            let next = c.tower[0].load(Ordering::Acquire, guard);
            if next.tag() == 0 {
                let v = c.value.load(Ordering::Acquire, guard);
                // SAFETY: unmarked ⇒ non-null value, guard-protected.
                out.push((c.key.clone(), unsafe { v.deref().with(V::clone) }));
            }
            curr = next.with_tag(0);
        }
        out
    }

    /// Physically unlink every logically deleted node reachable at level 0 —
    /// the paper's "background purge methodology". Returns how many marked
    /// nodes were encountered.
    pub fn purge(&self) -> usize {
        let guard = &epoch::pin();
        let mut marked = 0;
        let mut curr = self.head[0].load(Ordering::Acquire, guard);
        let mut keys = Vec::new();
        // SAFETY: each node is reached through live links under the pin.
        while let Some(c) = unsafe { curr.as_ref() } {
            let next = c.tower[0].load(Ordering::Acquire, guard);
            if next.tag() == 1 {
                marked += 1;
                keys.push(c.key.clone());
            }
            curr = next.with_tag(0);
        }
        for k in keys {
            let _ = self.find(&k, guard);
        }
        marked
    }
}

impl<K, V> Drop for SkipListMap<K, V> {
    fn drop(&mut self) {
        // Single-threaded teardown. A node that was claimed but only
        // partially unlinked may be absent from level 0 yet still reachable
        // at a higher level, so walk every level and free each distinct
        // node exactly once.
        // SAFETY: `&mut self` proves no other thread can touch the list, so
        // an unprotected guard is sound for the teardown walk.
        let guard = unsafe { epoch::unprotected() };
        let mut seen = std::collections::HashSet::new();
        for level in 0..MAX_HEIGHT {
            let mut curr = self.head[level].load(Ordering::Relaxed, guard).with_tag(0);
            // SAFETY: exclusive access; every reachable node is still allocated.
            while let Some(c) = unsafe { curr.as_ref() } {
                let next = c.tower[level].load(Ordering::Relaxed, guard).with_tag(0);
                seen.insert(curr.as_raw() as usize);
                curr = next;
            }
        }
        for &addr in &seen {
            let node: Shared<'_, Node<K, V>> = Shared::from(addr as *const Node<K, V>);
            // SAFETY: `addr` came from the reachability walk above and `seen`
            // holds it once, so each node (and, through its `Drop`, the value
            // it holds) is freed exactly once.
            unsafe { drop(node.into_owned()) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn insert_get_remove_basic() {
        let m = SkipListMap::new();
        assert_eq!(m.insert(5u64, "five".to_string()), None);
        assert_eq!(m.insert(3, "three".to_string()), None);
        assert_eq!(m.insert(8, "eight".to_string()), None);
        assert_eq!(m.get(&5), Some("five".to_string()));
        assert_eq!(m.get(&4), None);
        assert_eq!(m.len(), 3);
        assert_eq!(m.insert(5, "FIVE".to_string()), Some("five".to_string()));
        assert_eq!(m.get(&5), Some("FIVE".to_string()));
        assert_eq!(m.len(), 3);
        assert_eq!(m.remove(&5), Some("FIVE".to_string()));
        assert_eq!(m.remove(&5), None);
        assert_eq!(m.get(&5), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn ordered_iteration() {
        let m = SkipListMap::new();
        for k in [9u32, 1, 7, 3, 5, 2, 8, 4, 6] {
            m.insert(k, k * 10);
        }
        let snap = m.iter_snapshot();
        let keys: Vec<u32> = snap.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn range_snapshot_bounds() {
        let m = SkipListMap::new();
        for k in 0u32..20 {
            m.insert(k, ());
        }
        let r = m.range_snapshot(&5, &9);
        let keys: Vec<u32> = r.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![5, 6, 7, 8]);
        assert!(m.range_snapshot(&25, &30).is_empty());
    }

    #[test]
    fn first_and_remove_min_order() {
        let m = SkipListMap::new();
        for k in [5u64, 2, 9, 1, 7] {
            m.insert(k, k as i64);
        }
        assert_eq!(m.first(), Some((1, 1)));
        assert_eq!(m.remove_min(), Some((1, 1)));
        assert_eq!(m.remove_min(), Some((2, 2)));
        assert_eq!(m.first(), Some((5, 5)));
        assert_eq!(m.remove_min(), Some((5, 5)));
        assert_eq!(m.remove_min(), Some((7, 7)));
        assert_eq!(m.remove_min(), Some((9, 9)));
        assert_eq!(m.remove_min(), None);
    }

    #[test]
    fn matches_btreemap_oracle_sequential() {
        let m = SkipListMap::new();
        let mut oracle = BTreeMap::new();
        let mut x = 12345u64;
        for _ in 0..5_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = (x >> 33) % 200;
            match (x >> 1) % 3 {
                0 => assert_eq!(m.insert(k, x), oracle.insert(k, x)),
                1 => assert_eq!(m.get(&k), oracle.get(&k).copied()),
                _ => assert_eq!(m.remove(&k), oracle.remove(&k)),
            }
        }
        let snap: Vec<(u64, u64)> = m.iter_snapshot();
        let want: Vec<(u64, u64)> = oracle.into_iter().collect();
        assert_eq!(snap, want);
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let m = Arc::new(SkipListMap::new());
        let threads = 8u64;
        let per = 2_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..per {
                        assert_eq!(m.insert(t * per + i, i), None);
                    }
                });
            }
        });
        assert_eq!(m.len() as u64, threads * per);
        let snap = m.iter_snapshot();
        assert_eq!(snap.len() as u64, threads * per);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "keys sorted & unique");
    }

    #[test]
    fn concurrent_same_key_contention() {
        let m = Arc::new(SkipListMap::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let k = i % 10;
                        if t % 2 == 0 {
                            m.insert(k, t);
                        } else {
                            m.remove(&k);
                        }
                        let _ = m.get(&k);
                    }
                });
            }
        });
        // All remaining entries must have valid keys/values.
        for (k, v) in m.iter_snapshot() {
            assert!(k < 10);
            assert!(v < 8);
        }
    }

    #[test]
    fn concurrent_remove_claims_are_unique() {
        // N threads all try to remove the same pre-inserted keys; each key
        // must be claimed by exactly one thread.
        let m = Arc::new(SkipListMap::new());
        let keys = 2_000u64;
        for k in 0..keys {
            m.insert(k, k);
        }
        let claimed = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                let claimed = Arc::clone(&claimed);
                s.spawn(move || {
                    for k in 0..keys {
                        if m.remove(&k).is_some() {
                            claimed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(claimed.load(Ordering::Relaxed) as u64, keys);
        assert_eq!(m.len(), 0);
        assert!(m.iter_snapshot().is_empty());
    }

    #[test]
    fn concurrent_remove_min_drains_in_order_per_thread() {
        let m = Arc::new(SkipListMap::new());
        let n = 10_000u64;
        for k in 0..n {
            m.insert(k, ());
        }
        let total = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                let total = Arc::clone(&total);
                s.spawn(move || {
                    let mut last: i64 = -1;
                    while let Some((k, ())) = m.remove_min() {
                        // Each thread's claims must be increasing.
                        assert!((k as i64) > last, "thread saw {k} after {last}");
                        last = k as i64;
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed) as u64, n);
        assert!(m.is_empty());
    }

    #[test]
    fn purge_unlinks_marked_nodes() {
        let m = SkipListMap::new();
        for k in 0u64..100 {
            m.insert(k, ());
        }
        for k in 0u64..100 {
            if k % 2 == 0 {
                m.remove(&k);
            }
        }
        // After removes + the find() helping inside them, purge should find
        // nothing left to do.
        let residual = m.purge();
        assert_eq!(residual, 0);
        assert_eq!(m.len(), 50);
    }

    #[test]
    fn string_keys_and_values() {
        let m = SkipListMap::new();
        m.insert("banana".to_string(), 2u32);
        m.insert("apple".to_string(), 1);
        m.insert("cherry".to_string(), 3);
        let keys: Vec<String> = m.iter_snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["apple", "banana", "cherry"]);
    }
}
