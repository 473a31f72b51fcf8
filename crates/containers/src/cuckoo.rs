//! A concurrent cuckoo hash map — the local building block of HCL's
//! `unordered_map`/`unordered_set` (paper §III-D1).
//!
//! The paper uses the lock-free cuckoo hash of Nguyen & Tsigas \[30\]. We
//! implement the libcuckoo-style design (DESIGN.md substitution #4) that
//! preserves every property HCL relies on:
//!
//! * **two-choice hashing** — every key lives in one of two candidate
//!   buckets of [`SLOTS`] slots ("resolves cache collisions using a
//!   secondary array of buckets");
//! * **lock-free reads** — `get` never takes a lock: slots are epoch-managed
//!   atomic pointers, readers just traverse them;
//! * **fine-grained writers** — writers serialize per bucket *stripe*, not
//!   globally, so disjoint inserts proceed in parallel;
//! * **displacement** — a full bucket pair relocates a resident entry to its
//!   alternate bucket before giving up and resizing;
//! * **in-place resize** — the table doubles when the load factor crosses
//!   [`LOAD_FACTOR`] (0.75 in the paper), moving entry pointers (not data).

use std::hash::{BuildHasher, Hash, Hasher, RandomState};

use conc_check::sync::{AtomicUsize, Mutex, MutexGuard, Ordering};
use conc_check::RaceCell;
use crossbeam::epoch::{self, Atomic, Guard, Owned, Shared};

/// Slots per bucket.
pub const SLOTS: usize = 4;
/// Resize threshold: grow when `len > LOAD_FACTOR * capacity`.
pub const LOAD_FACTOR: f64 = 0.75;
/// Writer lock stripes.
const STRIPES: usize = 64;
/// Default bucket count (the paper's containers "start with a default size
/// of 128 buckets").
pub const DEFAULT_BUCKETS: usize = 128;

struct Entry<K, V> {
    key: K,
    /// Audited under the happens-before checker: the slot's `Release` store
    /// (or the resize table swap) must order every reader after this write.
    value: RaceCell<V>,
}

impl<K, V> Entry<K, V> {
    /// Allocate an entry and declare the value write at its final heap
    /// address, *before* the caller publishes the pointer.
    fn alloc(key: K, value: V) -> Owned<Entry<K, V>> {
        let e = Owned::new(Entry { key, value: RaceCell::new(value) });
        e.value.mark_write();
        e
    }

    /// Clone the value out of a shared entry.
    ///
    /// # Safety
    /// `self` must have been reached through a live slot pointer under an
    /// epoch pin (the usual reader contract); no `&mut` access can be in
    /// progress because entries are never mutated after publication.
    unsafe fn value_clone(&self) -> V
    where
        V: Clone,
    {
        // SAFETY: per the function contract above.
        unsafe { self.value.with(V::clone) }
    }
}

struct Bucket<K, V> {
    slots: [Atomic<Entry<K, V>>; SLOTS],
}

impl<K, V> Bucket<K, V> {
    fn empty() -> Self {
        Bucket { slots: Default::default() }
    }
}

struct Table<K, V> {
    buckets: Box<[Bucket<K, V>]>,
    mask: usize,
}

impl<K, V> Table<K, V> {
    fn with_buckets(n: usize) -> Self {
        let n = n.next_power_of_two().max(2);
        let buckets = (0..n).map(|_| Bucket::empty()).collect();
        Table { buckets, mask: n - 1 }
    }
}

/// A concurrent hash map with lock-free reads and striped-lock writers.
pub struct CuckooMap<K, V> {
    table: Atomic<Table<K, V>>,
    stripes: Box<[Mutex<()>]>,
    resize_lock: Mutex<()>,
    len: AtomicUsize,
    h1: RandomState,
    h2: RandomState,
}

// SAFETY: entries are shared across threads through epoch-protected atomic
// pointers and cloned (never moved) out of shared slots, so both K and V must
// be Send + Sync; all interior mutation goes through atomics or stripe locks.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for CuckooMap<K, V> {}
// SAFETY: see the Send impl above; &CuckooMap exposes only atomic/locked ops.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for CuckooMap<K, V> {}

impl<K, V> Default for CuckooMap<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> CuckooMap<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create a map with the paper's default 128 buckets.
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKETS)
    }

    /// Create a map with at least `buckets` buckets (rounded to a power of
    /// two).
    pub fn with_buckets(buckets: usize) -> Self {
        CuckooMap {
            table: Atomic::new(Table::with_buckets(buckets)),
            stripes: (0..STRIPES).map(|_| Mutex::new(())).collect(),
            resize_lock: Mutex::new(()),
            len: AtomicUsize::new(0),
            h1: RandomState::new(),
            h2: RandomState::new(),
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current bucket count (capacity is `buckets() * SLOTS`).
    pub fn buckets(&self) -> usize {
        let guard = &epoch::pin();
        let t = self.table.load(Ordering::Acquire, guard);
        // SAFETY: the table pointer is never null and the table is only
        // retired via defer_destroy after being unlinked, so it stays live
        // for the duration of our pin.
        unsafe { t.deref() }.mask + 1
    }

    fn hash1(&self, key: &K) -> u64 {
        let mut h = self.h1.build_hasher();
        key.hash(&mut h);
        h.finish()
    }

    fn hash2(&self, key: &K) -> u64 {
        let mut h = self.h2.build_hasher();
        key.hash(&mut h);
        h.finish()
    }

    fn bucket_pair(&self, t: &Table<K, V>, key: &K) -> (usize, usize) {
        let b1 = (self.hash1(key) as usize) & t.mask;
        let mut b2 = (self.hash2(key) as usize) & t.mask;
        if b1 == b2 {
            b2 = (b1 + 1) & t.mask;
        }
        (b1, b2)
    }

    fn stripe_of(b: usize) -> usize {
        b % STRIPES
    }

    /// Lock the stripes for the given bucket indices in order; dedup'd.
    fn lock_stripes(&self, mut idx: Vec<usize>) -> Vec<MutexGuard<'_, ()>> {
        idx.sort_unstable();
        idx.dedup();
        idx.into_iter().map(|s| self.stripes[s].lock()).collect()
    }

    /// Lock-free lookup.
    pub fn get(&self, key: &K) -> Option<V> {
        let guard = &epoch::pin();
        // SAFETY: the current table stays live while our pin is held (tables
        // are only reclaimed via defer_destroy after replacement).
        let t = unsafe { self.table.load(Ordering::Acquire, guard).deref() };
        let (b1, b2) = self.bucket_pair(t, key);
        for &b in &[b1, b2] {
            for slot in &t.buckets[b].slots {
                let e = slot.load(Ordering::Acquire, guard);
                // SAFETY: a non-null slot pointer read under the pin refers
                // to an entry whose reclamation is deferred past our guard.
                if let Some(er) = unsafe { e.as_ref() } {
                    if er.key == *key {
                        // SAFETY: live entry under the pin (see above).
                        return Some(unsafe { er.value_clone() });
                    }
                }
            }
        }
        None
    }

    /// True when `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Insert `key -> value`; returns the previous value on overwrite.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        let guard = &epoch::pin();
        loop {
            let t_shared = self.table.load(Ordering::Acquire, guard);
            // SAFETY: table pointers stay live for the duration of our pin.
            let t = unsafe { t_shared.deref() };
            let (b1, b2) = self.bucket_pair(t, &key);
            let locks =
                self.lock_stripes(vec![Self::stripe_of(b1), Self::stripe_of(b2)]);
            if self.table.load(Ordering::Acquire, guard) != t_shared {
                drop(locks);
                continue; // table swapped while we were locking
            }
            // 1) Overwrite in place if present.
            for &b in &[b1, b2] {
                for slot in &t.buckets[b].slots {
                    let e = slot.load(Ordering::Acquire, guard);
                    // SAFETY: non-null entry read under the pin; reclamation
                    // is deferred past our guard.
                    if let Some(er) = unsafe { e.as_ref() } {
                        if er.key == key {
                            // SAFETY: live entry under the pin (see above).
                            let old = unsafe { er.value_clone() };
                            slot.store(Entry::alloc(key, value), Ordering::Release);
                            // SAFETY: we hold this bucket's stripe lock, so
                            // no other writer can retire `e` twice; readers
                            // are protected by their own pins.
                            unsafe { guard.defer_destroy(e) };
                            return Some(old);
                        }
                    }
                }
            }
            // 2) Empty slot in either candidate bucket.
            if let Some(slot) = self.first_empty(t, b1, b2, guard) {
                slot.store(Entry::alloc(key, value), Ordering::Release);
                // ORDERING: Relaxed — `len` is a statistic; all structural
                // synchronization happens via the stripe locks.
                self.len.fetch_add(1, Ordering::Relaxed);
                drop(locks);
                self.maybe_grow(guard);
                return None;
            }
            // 3) Displacement: move one resident to its alternate bucket.
            if self.displace(t, b1, b2, &locks, guard) {
                let slot = self
                    .first_empty(t, b1, b2, guard)
                    .expect("displacement freed a slot under our locks");
                slot.store(Entry::alloc(key, value), Ordering::Release);
                // ORDERING: Relaxed statistic (see above).
                self.len.fetch_add(1, Ordering::Relaxed);
                drop(locks);
                self.maybe_grow(guard);
                return None;
            }
            // 4) No room: resize and retry.
            drop(locks);
            self.resize(t_shared, (t.mask + 1) * 2, guard);
        }
    }

    fn first_empty<'t>(
        &self,
        t: &'t Table<K, V>,
        b1: usize,
        b2: usize,
        guard: &Guard,
    ) -> Option<&'t Atomic<Entry<K, V>>> {
        for &b in &[b1, b2] {
            for slot in &t.buckets[b].slots {
                if slot.load(Ordering::Acquire, guard).is_null() {
                    return Some(slot);
                }
            }
        }
        None
    }

    /// Try to relocate one entry from `b1`/`b2` to its alternate bucket
    /// (depth-1 cuckoo path). Requires the caller to hold the stripes for
    /// `b1` and `b2`; takes the alternate's stripe with `try_lock` to stay
    /// deadlock-free.
    fn displace(
        &self,
        t: &Table<K, V>,
        b1: usize,
        b2: usize,
        _held: &[MutexGuard<'_, ()>],
        guard: &Guard,
    ) -> bool {
        let held_stripes = {
            let mut v = vec![Self::stripe_of(b1), Self::stripe_of(b2)];
            v.sort_unstable();
            v.dedup();
            v
        };
        for &b in &[b1, b2] {
            for slot in &t.buckets[b].slots {
                let e = slot.load(Ordering::Acquire, guard);
                // SAFETY: non-null entry read under the caller's pin; we also
                // hold the stripe lock for this bucket, so the slot cannot be
                // retired concurrently.
                let Some(er) = (unsafe { e.as_ref() }) else { continue };
                let (eb1, eb2) = self.bucket_pair(t, &er.key);
                let alt = if eb1 == b { eb2 } else { eb1 };
                if alt == b1 || alt == b2 {
                    continue; // alternate is also full (we're in this branch)
                }
                let alt_stripe = Self::stripe_of(alt);
                let _alt_guard;
                if !held_stripes.contains(&alt_stripe) {
                    match self.stripes[alt_stripe].try_lock() {
                        Some(g) => _alt_guard = Some(g),
                        None => continue, // contended; try another victim
                    }
                } else {
                    _alt_guard = None;
                }
                // Find an empty slot in the alternate bucket.
                for alt_slot in &t.buckets[alt].slots {
                    if alt_slot.load(Ordering::Acquire, guard).is_null() {
                        // Publish in the alternate first, then clear the old
                        // slot: readers may briefly see the entry twice but
                        // never zero times.
                        alt_slot.store(e.with_tag(0), Ordering::Release);
                        slot.store(Shared::null(), Ordering::Release);
                        return true;
                    }
                }
            }
        }
        false
    }

    fn maybe_grow(&self, guard: &Guard) {
        let t_shared = self.table.load(Ordering::Acquire, guard);
        // SAFETY: table pointers stay live for the duration of our pin.
        let t = unsafe { t_shared.deref() };
        let capacity = (t.mask + 1) * SLOTS;
        if (self.len() as f64) > LOAD_FACTOR * capacity as f64 {
            self.resize(t_shared, (t.mask + 1) * 2, guard);
        }
    }

    /// Explicitly resize to `new_buckets` (the paper's
    /// `resize(partition_id, new_size)` surface; growth only).
    pub fn resize_to(&self, new_buckets: usize) {
        let guard = &epoch::pin();
        let t_shared = self.table.load(Ordering::Acquire, guard);
        self.resize(t_shared, new_buckets, guard);
    }

    fn resize(&self, old_shared: Shared<'_, Table<K, V>>, new_buckets: usize, guard: &Guard) {
        let _resize = self.resize_lock.lock();
        let cur = self.table.load(Ordering::Acquire, guard);
        if cur != old_shared {
            return; // someone else already resized
        }
        // SAFETY: `cur` is the live table; we hold the resize lock, so no
        // competing resize can retire it under us.
        let old = unsafe { cur.deref() };
        if new_buckets <= old.mask + 1 {
            return;
        }
        // Block all writers.
        let _all: Vec<MutexGuard<'_, ()>> = self.stripes.iter().map(|m| m.lock()).collect();
        let mut size = new_buckets.next_power_of_two();
        'grow: loop {
            let new_t = Table::<K, V>::with_buckets(size);
            for bucket in old.buckets.iter() {
                for slot in &bucket.slots {
                    let e = slot.load(Ordering::Acquire, guard);
                    // SAFETY: all stripes are locked, so entries cannot be
                    // retired while we migrate them; the pin covers reads.
                    let Some(er) = (unsafe { e.as_ref() }) else { continue };
                    let (nb1, nb2) = {
                        let b1 = (self.hash1(&er.key) as usize) & new_t.mask;
                        let mut b2 = (self.hash2(&er.key) as usize) & new_t.mask;
                        if b1 == b2 {
                            b2 = (b1 + 1) & new_t.mask;
                        }
                        (b1, b2)
                    };
                    let mut placed = false;
                    'place: for &nb in &[nb1, nb2] {
                        for nslot in &new_t.buckets[nb].slots {
                            if nslot.load(Ordering::Relaxed, guard).is_null() {
                                // ORDERING: Relaxed — `new_t` is still
                                // thread-private; the table-swap store below
                                // (Release) publishes all of it at once.
                                nslot.store(e.with_tag(0), Ordering::Relaxed);
                                placed = true;
                                break 'place;
                            }
                        }
                    }
                    if !placed {
                        // Pathological distribution: double again and redo.
                        size *= 2;
                        continue 'grow;
                    }
                }
            }
            self.table.store(Owned::new(new_t), Ordering::Release);
            // SAFETY: `cur` was just unlinked and we hold the resize lock,
            // so it is retired exactly once; pinned readers keep it alive
            // until their guards drop.
            unsafe { guard.defer_destroy(cur) };
            return;
        }
    }

    /// Atomically read-modify-write the value for `key`: `f` receives the
    /// current value (if any) and returns the new one. Runs under the
    /// bucket-pair stripe locks, so concurrent upserts to the same key
    /// never lose updates — this is what HCL's server-side execution gives
    /// histogram workloads like Meraculous k-mer counting for free.
    pub fn upsert(&self, key: K, f: impl Fn(Option<&V>) -> V) -> V {
        let guard = &epoch::pin();
        loop {
            let t_shared = self.table.load(Ordering::Acquire, guard);
            // SAFETY: table pointers stay live for the duration of our pin.
            let t = unsafe { t_shared.deref() };
            let (b1, b2) = self.bucket_pair(t, &key);
            let locks = self.lock_stripes(vec![Self::stripe_of(b1), Self::stripe_of(b2)]);
            if self.table.load(Ordering::Acquire, guard) != t_shared {
                drop(locks);
                continue;
            }
            // Modify in place if present.
            for &b in &[b1, b2] {
                for slot in &t.buckets[b].slots {
                    let e = slot.load(Ordering::Acquire, guard);
                    // SAFETY: non-null entry read under the pin, stripe lock
                    // held — cannot be retired concurrently.
                    if let Some(er) = unsafe { e.as_ref() } {
                        if er.key == key {
                            // SAFETY: live entry under the pin, stripe lock
                            // held (see above).
                            let new_val = unsafe { er.value.with(|v| f(Some(v))) };
                            let ret = new_val.clone();
                            slot.store(Entry::alloc(key, new_val), Ordering::Release);
                            // SAFETY: stripe lock held ⇒ single retirer;
                            // readers are covered by their pins.
                            unsafe { guard.defer_destroy(e) };
                            return ret;
                        }
                    }
                }
            }
            // Absent: fresh insert.
            let new_val = f(None);
            if let Some(slot) = self.first_empty(t, b1, b2, guard) {
                let ret = new_val.clone();
                slot.store(Entry::alloc(key, new_val), Ordering::Release);
                // ORDERING: Relaxed statistic; structure is lock-protected.
                self.len.fetch_add(1, Ordering::Relaxed);
                drop(locks);
                self.maybe_grow(guard);
                return ret;
            }
            if self.displace(t, b1, b2, &locks, guard) {
                let slot = self
                    .first_empty(t, b1, b2, guard)
                    .expect("displacement freed a slot under our locks");
                let ret = new_val.clone();
                slot.store(Entry::alloc(key, new_val), Ordering::Release);
                // ORDERING: Relaxed statistic; structure is lock-protected.
                self.len.fetch_add(1, Ordering::Relaxed);
                drop(locks);
                self.maybe_grow(guard);
                return ret;
            }
            drop(locks);
            self.resize(t_shared, (t.mask + 1) * 2, guard);
        }
    }

    /// Remove `key`; returns its value when present.
    pub fn remove(&self, key: &K) -> Option<V> {
        let guard = &epoch::pin();
        loop {
            let t_shared = self.table.load(Ordering::Acquire, guard);
            // SAFETY: table pointers stay live for the duration of our pin.
            let t = unsafe { t_shared.deref() };
            let (b1, b2) = self.bucket_pair(t, key);
            let locks =
                self.lock_stripes(vec![Self::stripe_of(b1), Self::stripe_of(b2)]);
            if self.table.load(Ordering::Acquire, guard) != t_shared {
                drop(locks);
                continue;
            }
            for &b in &[b1, b2] {
                for slot in &t.buckets[b].slots {
                    let e = slot.load(Ordering::Acquire, guard);
                    // SAFETY: non-null entry read under the pin, stripe lock
                    // held — cannot be retired concurrently.
                    if let Some(er) = unsafe { e.as_ref() } {
                        if er.key == *key {
                            // SAFETY: live entry under the pin, stripe lock
                            // held (see above).
                            let v = unsafe { er.value_clone() };
                            slot.store(Shared::null(), Ordering::Release);
                            // ORDERING: Relaxed — statistic only; the
                            // decrement happens under the stripe locks, so
                            // it cannot underflow (insert incremented first).
                            self.len.fetch_sub(1, Ordering::Relaxed);
                            // SAFETY: stripe lock held ⇒ single retirer.
                            unsafe { guard.defer_destroy(e) };
                            return Some(v);
                        }
                    }
                }
            }
            return None;
        }
    }

    /// Clone out every entry (migration, log compaction, snapshots).
    ///
    /// Takes every writer stripe in ascending order, as `resize` does, and
    /// only then loads the table: a displacement publishes the moved entry
    /// in its alternate bucket before clearing the old slot, so a scan
    /// under the pin alone could pass the alternate before the move and the
    /// old bucket after it, and miss a key resident throughout. Writers wait
    /// for this one O(n) pass; no op path scans.
    pub fn iter_snapshot(&self) -> Vec<(K, V)> {
        let guard = &epoch::pin();
        let _all: Vec<MutexGuard<'_, ()>> = self.stripes.iter().map(|m| m.lock()).collect();
        // SAFETY: table pointers stay live for the duration of our pin; a
        // resize swaps the table only while it holds every stripe, so this
        // is the table every writer works on until `_all` drops.
        let t = unsafe { self.table.load(Ordering::Acquire, guard).deref() };
        let mut out = Vec::with_capacity(self.len());
        for bucket in t.buckets.iter() {
            for slot in &bucket.slots {
                // SAFETY: non-null entries read under the pin cannot be
                // reclaimed before the guard drops.
                if let Some(er) = unsafe { slot.load(Ordering::Acquire, guard).as_ref() } {
                    // SAFETY: live entry under the pin (see above).
                    out.push((er.key.clone(), unsafe { er.value_clone() }));
                }
            }
        }
        out
    }
}

impl<K, V> Drop for CuckooMap<K, V> {
    fn drop(&mut self) {
        // SAFETY: &mut self guarantees no concurrent accessor exists, which
        // is exactly the contract `unprotected()` requires.
        let guard = unsafe { epoch::unprotected() };
        let t_shared = self.table.load(Ordering::Relaxed, guard);
        // SAFETY: the table pointer is never null and nothing can retire it
        // while we hold &mut self.
        let t = unsafe { t_shared.deref() };
        for bucket in t.buckets.iter() {
            for slot in &bucket.slots {
                let e = slot.load(Ordering::Relaxed, guard);
                if !e.is_null() {
                    // SAFETY: exclusive access; each live entry is owned by
                    // exactly one slot here (resize/displace never leave
                    // duplicates behind), so into_owned frees it once.
                    unsafe { drop(e.into_owned()) };
                }
            }
        }
        // SAFETY: exclusive access; the table itself is freed last.
        unsafe { drop(t_shared.into_owned()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    #[test]
    fn insert_get_remove_basic() {
        let m = CuckooMap::new();
        assert_eq!(m.insert("a".to_string(), 1u32), None);
        assert_eq!(m.insert("b".to_string(), 2), None);
        assert_eq!(m.get(&"a".to_string()), Some(1));
        assert_eq!(m.get(&"z".to_string()), None);
        assert_eq!(m.insert("a".to_string(), 10), Some(1));
        assert_eq!(m.get(&"a".to_string()), Some(10));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(&"a".to_string()), Some(10));
        assert_eq!(m.remove(&"a".to_string()), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let m = CuckooMap::with_buckets(2); // capacity 8
        for i in 0..1_000u64 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1_000);
        assert!(m.buckets() * SLOTS >= 1_000);
        for i in 0..1_000u64 {
            assert_eq!(m.get(&i), Some(i * 2), "key {i} lost in resize");
        }
    }

    #[test]
    fn explicit_resize_preserves_entries() {
        let m = CuckooMap::with_buckets(4);
        for i in 0..10u64 {
            m.insert(i, i);
        }
        let before = m.buckets();
        m.resize_to(before * 8);
        assert!(m.buckets() >= before * 8);
        for i in 0..10u64 {
            assert_eq!(m.get(&i), Some(i));
        }
    }

    #[test]
    fn matches_hashmap_oracle_sequential() {
        let m = CuckooMap::with_buckets(4);
        let mut oracle = HashMap::new();
        let mut x = 99u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = (x >> 33) % 500;
            match (x >> 2) % 4 {
                0 | 1 => assert_eq!(m.insert(k, x), oracle.insert(k, x)),
                2 => assert_eq!(m.get(&k), oracle.get(&k).copied()),
                _ => assert_eq!(m.remove(&k), oracle.remove(&k)),
            }
            assert_eq!(m.len(), oracle.len());
        }
        let mut snap = m.iter_snapshot();
        snap.sort_unstable();
        let mut want: Vec<(u64, u64)> = oracle.into_iter().collect();
        want.sort_unstable();
        assert_eq!(snap, want);
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let m = Arc::new(CuckooMap::with_buckets(4));
        let threads = 8u64;
        let per = 5_000u64;
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
        for t in 0..threads {
            for i in 0..per {
                assert_eq!(m.get(&(t * per + i)), Some(i));
            }
        }
    }

    #[test]
    fn concurrent_readers_during_writes_and_resizes() {
        let m = Arc::new(CuckooMap::with_buckets(2));
        // Pre-populate stable keys that readers assert on throughout.
        for i in 0..100u64 {
            m.insert(i, i);
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        m.insert(1_000 + t * 10_000 + i, i); // force growth
                    }
                });
            }
            for _ in 0..4 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for round in 0..20_000u64 {
                        let k = round % 100;
                        assert_eq!(m.get(&k), Some(k), "stable key {k} vanished");
                    }
                });
            }
        });
        assert_eq!(m.len() as u64, 100 + 4 * 10_000);
    }

    #[test]
    fn concurrent_same_key_overwrites_keep_one_value() {
        let m = Arc::new(CuckooMap::with_buckets(4));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..5_000 {
                        m.insert(42u64, t);
                    }
                });
            }
        });
        let v = m.get(&42).unwrap();
        assert!(v < 8);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn concurrent_remove_claims_unique() {
        let m = Arc::new(CuckooMap::with_buckets(4));
        let n = 5_000u64;
        for i in 0..n {
            m.insert(i, i);
        }
        let claimed = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                let claimed = Arc::clone(&claimed);
                s.spawn(move || {
                    for i in 0..n {
                        if m.remove(&i).is_some() {
                            claimed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(claimed.load(Ordering::Relaxed) as u64, n);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn concurrent_upserts_never_lose_increments() {
        let m = Arc::new(CuckooMap::<u64, u64>::with_buckets(4));
        let threads = 8u64;
        let per = 5_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..per {
                        m.upsert(i % 16, |old| old.copied().unwrap_or(0) + 1);
                    }
                });
            }
        });
        let total: u64 = (0..16u64).map(|k| m.get(&k).unwrap()).sum();
        assert_eq!(total, threads * per, "lost increments under contention");
    }

    #[test]
    fn upsert_inserts_when_absent_and_grows() {
        let m = CuckooMap::<u64, String>::with_buckets(2);
        for i in 0..200u64 {
            let v = m.upsert(i, |old| {
                assert!(old.is_none());
                format!("v{i}")
            });
            assert_eq!(v, format!("v{i}"));
        }
        assert_eq!(m.len(), 200);
        assert_eq!(m.upsert(7, |old| format!("{}!", old.unwrap())), "v7!");
    }

    #[test]
    fn scans_see_every_resident_key_beside_displacements_and_resizes() {
        use std::sync::atomic::AtomicBool;
        // Each round: 300 resident keys in a small table, and an inserter
        // that keeps it near its load factor with a sliding window of
        // transient keys (displacements), then bursts it past the factor
        // (resizes), while this thread scans. Every scan must hold all 300.
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(600);
        let (mut scans, mut missed) = (0u64, 0usize);
        while std::time::Instant::now() < deadline {
            let m = Arc::new(CuckooMap::<u64, u64>::with_buckets(128));
            for k in 0..300 {
                m.insert(k, k);
            }
            let stop = Arc::new(AtomicBool::new(false));
            let inserter = {
                let (m, stop) = (Arc::clone(&m), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut next = 1_000u64;
                    for burst in [60u64, 60, 400, 60, 1_000, 60] {
                        for _ in 0..2_000 {
                            if stop.load(Ordering::SeqCst) {
                                return;
                            }
                            m.insert(next, next);
                            if next >= 1_000 + burst {
                                m.remove(&(next - burst));
                            }
                            next += 1;
                        }
                    }
                })
            };
            for _ in 0..200 {
                let seen: std::collections::HashSet<u64> =
                    m.iter_snapshot().into_iter().map(|(k, _)| k).collect();
                scans += 1;
                missed += (0..300).filter(|k| !seen.contains(k)).count();
            }
            stop.store(true, Ordering::SeqCst);
            inserter.join().unwrap();
        }
        assert_eq!(missed, 0, "{missed} resident keys missed over {scans} scans");
    }

    #[test]
    fn variable_length_values() {
        let m = CuckooMap::new();
        for i in 0..100usize {
            m.insert(i, vec![i as u8; i]); // sizes 0..99
        }
        for i in 0..100usize {
            assert_eq!(m.get(&i).unwrap().len(), i);
        }
    }
}
