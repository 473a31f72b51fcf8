//! Lease-based client-side read caching and hot-key detection.
//!
//! The read-path scale-out layer: a lease is the result of an ordinary
//! epoch-tagged `get` of a hot remote key, kept in a per-handle
//! [`LeaseCache`] for the configured TTL; while the lease holds, repeat
//! `get`s on the key are served locally without touching the fabric.
//!
//! A lease is invalidated by any of three events (DESIGN.md §14):
//!
//! 1. **expiry** — the bounded TTL passes (the staleness bound: a cached
//!    read can never return a value older than `ttl` before its own return);
//! 2. **ownership-epoch bump** — the dispatcher's [`DownedRegistry`]
//!    epoch moved (a `mark_down`/`mark_up` transition or a membership
//!    commit), so writes may have gone around the owner that granted it;
//! 3. **own write** — a mutation of the key through the same handle
//!    ([`LeaseCache::forget`]) drops its lease, and bumps the handle's write
//!    generation so a grant whose RPC straddled the write is not stored.
//!    Sync and bulk writes forget once their replies are in; async writes
//!    forget as they are issued, so their read-your-writes holds for a
//!    handle used by one thread (DESIGN.md §14).
//!
//! Writes made through *other* handles reach a lease only through 1 and 2.
//!
//! Which keys get leases is decided by a hot-key sketch — space-saving
//! top-k, fed by the lease path itself with every read that misses the
//! cache — so cold keys never pay the cache-maintenance cost.
//!
//! [`DownedRegistry`]: hcl_runtime::DownedRegistry

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcl_telemetry::{CacheMetrics, Counter};
use parking_lot::Mutex;

/// Configuration for the lease-based read cache ([`crate::UnorderedMapConfig::lease`]).
#[derive(Debug, Clone)]
pub struct LeaseConfig {
    /// Lease window granted by the owning partition. This is the staleness
    /// bound: a cached read never returns a value that was overwritten more
    /// than `ttl` before the read returned.
    pub ttl: Duration,
    /// Total cached entries across all shards (capacity-bounded; an insert
    /// into a full shard evicts an expired entry, or failing that any one).
    pub capacity: usize,
    /// Reads of a key (while in the top-k sketch) before it earns a lease.
    pub hot_threshold: u64,
    /// Width of the space-saving top-k sketch.
    pub topk: usize,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            ttl: Duration::from_millis(2),
            capacity: 4096,
            hot_threshold: 3,
            topk: 64,
        }
    }
}

/// One granted lease: the value a `get` returned, usable until `expires`
/// within ownership epoch `epoch`. `valid_from` is the grant's history
/// invoke timestamp (feature `history`; 0 otherwise) — the left edge of the
/// staleness window the linearizability checker admits.
struct LeaseEntry<V> {
    value: Option<V>,
    epoch: u64,
    expires: Instant,
    valid_from: u64,
}

/// Counter snapshot of one handle's cache ([`LeaseCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served locally from a live lease.
    pub hits: u64,
    /// Reads that went to the fabric (no entry, or an invalidated one).
    pub misses: u64,
    /// Leases granted and stored.
    pub lease_grants: u64,
    /// Entries invalidated by TTL expiry.
    pub stale_expired: u64,
    /// Entries dropped by a write of their key through this handle (the
    /// name predates own-write invalidation and is kept for its readers).
    pub stale_version: u64,
    /// Entries invalidated by an ownership-epoch bump.
    pub stale_epoch: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
}

/// Lock shards of a [`LeaseCache`] (each a `Mutex<HashMap>`); keys spread by
/// stable hash.
const LOCK_SHARDS: usize = 8;

/// The per-handle, sharded, capacity-bounded lease cache.
///
/// The hit path is zero-allocation (pinned by a counting-allocator test):
/// one shard lock, one `HashMap` probe, two invalidation checks against
/// data already in hand, and atomic metric bumps.
pub struct LeaseCache<K, V> {
    shards: Vec<Mutex<HashMap<K, LeaseEntry<V>>>>,
    per_shard_cap: usize,
    ttl: Duration,
    /// Write generation: bumped by every [`LeaseCache::forget`], under the
    /// lock shard of the forgotten key.
    generation: AtomicU64,
    /// Which keys have earned a lease.
    hot: Mutex<HotKeys>,
    metrics: CacheMetrics,
}

impl<K, V> LeaseCache<K, V>
where
    K: Hash + Eq + Clone,
    V: Clone,
{
    /// Build one handle's cache.
    pub fn new(cfg: LeaseConfig, metrics: CacheMetrics) -> Self {
        let per_shard_cap = (cfg.capacity / LOCK_SHARDS).max(1);
        LeaseCache {
            shards: (0..LOCK_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_cap,
            ttl: cfg.ttl,
            generation: AtomicU64::new(0),
            hot: Mutex::new(HotKeys::new(&cfg)),
            metrics,
        }
    }

    #[inline]
    fn shard_of(&self, hash: u64) -> usize {
        (hash as usize) % self.shards.len()
    }

    /// How long a grant stays usable, counted from before its RPC.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    /// The write generation: read it before a grant's RPC and hand it to
    /// [`LeaseCache::insert`] after.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A write of `key` through this handle in ownership epoch `epoch`:
    /// drop its lease and bump the write generation, so no grant in flight
    /// across the write is stored. A lease that was still live counts as
    /// `stale_version`; one already dead counts as its lookup would have.
    pub fn forget(&self, key: &K, hash: u64, epoch: u64) {
        let mut shard = self.shards[self.shard_of(hash)].lock();
        self.generation.fetch_add(1, Ordering::AcqRel);
        let dropped = shard.remove(key);
        drop(shard);
        if let Some(entry) = dropped {
            let dead = self.dead(&entry, epoch, Instant::now());
            dead.unwrap_or(&self.metrics.stale_version).inc();
        }
    }

    /// The counter of the invalidation `entry` has suffered by `now` in
    /// `epoch`, if any.
    fn dead(&self, entry: &LeaseEntry<V>, epoch: u64, now: Instant) -> Option<&Arc<Counter>> {
        if entry.epoch != epoch {
            Some(&self.metrics.stale_epoch)
        } else if now >= entry.expires {
            Some(&self.metrics.stale_expired)
        } else {
            None
        }
    }

    /// Serve a read locally if a live lease covers `key`. Returns the leased
    /// value and its `valid_from` timestamp, or `None` on a miss (the entry
    /// is dropped when it was invalidated rather than merely absent).
    pub fn lookup(&self, key: &K, hash: u64, epoch: u64) -> Option<(Option<V>, u64)> {
        let t0 = Instant::now();
        let mut shard = self.shards[self.shard_of(hash)].lock();
        let Some(entry) = shard.get(key) else {
            drop(shard);
            self.metrics.misses.inc();
            return None;
        };
        if let Some(stale_counter) = self.dead(entry, epoch, t0) {
            shard.remove(key);
            drop(shard);
            stale_counter.inc();
            self.metrics.misses.inc();
            return None;
        }
        let out = (entry.value.clone(), entry.valid_from);
        drop(shard);
        self.metrics.hits.inc();
        self.metrics.cached_get_ns.record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        Some(out)
    }

    /// Store a granted lease. `generation` is what
    /// [`LeaseCache::generation`] read before the grant's RPC: if a write
    /// through this handle moved it since, the grant may predate the write
    /// and is not stored.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &self,
        key: K,
        hash: u64,
        value: Option<V>,
        epoch: u64,
        generation: u64,
        expires: Instant,
        valid_from: u64,
    ) {
        let mut shard = self.shards[self.shard_of(hash)].lock();
        // Checked under the key's lock shard, where `forget` bumps it: a
        // write of this key is either seen here or removes the entry after.
        if self.generation.load(Ordering::Acquire) != generation {
            return;
        }
        if shard.len() >= self.per_shard_cap && !shard.contains_key(&key) {
            let now = Instant::now();
            let victim = shard
                .iter()
                .find(|(_, e)| now >= e.expires)
                .map(|(k, _)| k.clone())
                .or_else(|| shard.keys().next().cloned());
            if let Some(v) = victim {
                shard.remove(&v);
                self.metrics.evictions.inc();
            }
        }
        shard.insert(key, LeaseEntry { value, epoch, expires, valid_from });
        drop(shard);
        self.metrics.lease_grants.inc();
    }

    /// True when the sketch has seen enough reads of `hash` to lease it.
    pub fn is_hot(&self, hash: u64) -> bool {
        self.hot.lock().is_hot(hash)
    }

    /// Count one read of `hash` that missed the cache and goes to the
    /// fabric — the sketch's only input.
    pub fn observe_read(&self, hash: u64) {
        self.hot.lock().observe(hash);
    }

    /// Cached entries currently held (diagnostics; takes every shard lock).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()) .sum()
    }

    /// True when no leases are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot (for benches and tests).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.metrics.hits.get(),
            misses: self.metrics.misses.get(),
            lease_grants: self.metrics.lease_grants.get(),
            stale_expired: self.metrics.stale_expired.get(),
            stale_version: self.metrics.stale_version.get(),
            stale_epoch: self.metrics.stale_epoch.get(),
            evictions: self.metrics.evictions.get(),
        }
    }
}

/// Space-saving top-k hot-key sketch.
///
/// Fixed-width: `topk` `(key_hash, count)` slots scanned linearly (the
/// width is small enough that a scan beats a heap) and periodic
/// count-halving decay every `2 * topk * hot_threshold` observations —
/// deterministic cooling with no clocks, so tests and the simulator see
/// identical decisions for identical op sequences.
struct HotKeys {
    entries: Vec<(u64, u64)>,
    observed: u64,
    decay_every: u64,
    threshold: u64,
}

impl HotKeys {
    fn new(cfg: &LeaseConfig) -> Self {
        let topk = cfg.topk.max(1);
        HotKeys {
            entries: Vec::with_capacity(topk),
            observed: 0,
            decay_every: 2u64
                .saturating_mul(topk as u64)
                .saturating_mul(cfg.hot_threshold.max(1))
                .max(1),
            threshold: cfg.hot_threshold,
        }
    }

    /// Count one read of `hash`. Space-saving admission:
    /// an unseen key displaces the minimum-count slot and inherits its
    /// count + 1, so recently-hot keys are never undercounted.
    fn observe(&mut self, hash: u64) {
        self.observed += 1;
        if self.observed.is_multiple_of(self.decay_every) {
            for e in &mut self.entries {
                e.1 /= 2;
            }
            self.entries.retain(|e| e.1 > 0);
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == hash) {
            e.1 += 1;
        } else if self.entries.len() < self.entries.capacity() {
            self.entries.push((hash, 1));
        } else if let Some(min) = self.entries.iter_mut().min_by_key(|e| e.1) {
            *min = (hash, min.1 + 1);
        }
    }

    /// True when `hash` has accumulated `threshold` sketch counts.
    fn is_hot(&self, hash: u64) -> bool {
        self.entries.iter().any(|e| e.0 == hash && e.1 >= self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cfg: LeaseConfig) -> LeaseCache<u64, u64> {
        LeaseCache::new(cfg, CacheMetrics::detached())
    }

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    #[test]
    fn hit_returns_the_leased_value_and_counts() {
        let c = cache(LeaseConfig::default());
        c.insert(7, 7, Some(42), 1, 0, far(), 9);
        assert_eq!(c.lookup(&7, 7, 1), Some((Some(42), 9)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.lease_grants), (1, 0, 1));
    }

    #[test]
    fn expired_lease_is_a_miss_and_is_dropped() {
        let c = cache(LeaseConfig::default());
        c.insert(7, 7, Some(42), 1, 0, Instant::now() - Duration::from_millis(1), 0);
        assert_eq!(c.lookup(&7, 7, 1), None);
        assert_eq!(c.stats().stale_expired, 1);
        assert!(c.is_empty(), "invalidated entries must not linger");
    }

    #[test]
    fn epoch_bump_invalidates_live_leases() {
        let c = cache(LeaseConfig::default());
        c.insert(7, 7, Some(42), 1, 0, far(), 0);
        assert_eq!(c.lookup(&7, 7, 2), None, "epoch moved: lease dead");
        assert_eq!(c.stats().stale_epoch, 1);
    }

    #[test]
    fn own_write_drops_the_lease_and_refuses_a_grant_it_straddled() {
        let c = cache(LeaseConfig::default());
        c.insert(7, 7, Some(42), 1, c.generation(), far(), 0);
        // A grant of key 8 reads the generation, then its RPC is in flight
        // while this handle writes key 7 and key 8.
        let before = c.generation();
        c.forget(&7, 7, 1);
        c.forget(&8, 8, 1);
        assert_eq!(c.lookup(&7, 7, 1), None, "the written key's lease is gone");
        assert_eq!(c.stats().stale_version, 1, "only a held lease counts as dropped");
        // The grant may have read key 8 before the write: refused.
        c.insert(8, 8, Some(1), 1, before, far(), 0);
        assert_eq!(c.lookup(&8, 8, 1), None);
        // A write of any key moves the generation, so a grant of another
        // key straddling it is refused too (conservative, never stale).
        let g = c.generation();
        c.forget(&100, 100, 1);
        c.insert(9, 9, Some(1), 1, g, far(), 0);
        assert_eq!(c.lookup(&9, 9, 1), None);
        // A grant issued after the write is stored.
        c.insert(8, 8, Some(2), 1, c.generation(), far(), 0);
        assert_eq!(c.lookup(&8, 8, 1), Some((Some(2), 0)));
        // A write that finds a lease the epoch already killed counts it as
        // the epoch's, not its own.
        c.forget(&8, 8, 2);
        let s = c.stats();
        assert_eq!((s.stale_version, s.stale_epoch), (1, 1));
    }

    #[test]
    fn capacity_bound_holds_and_evictions_count() {
        let cfg = LeaseConfig { capacity: 8, ..LeaseConfig::default() };
        let c = cache(cfg);
        for k in 0..64u64 {
            c.insert(k, k, Some(k), 1, 0, far(), 0);
        }
        assert!(c.len() <= 8, "cache exceeded its capacity: {}", c.len());
        assert!(c.stats().evictions >= 56);
    }

    #[test]
    fn detector_heats_keys_and_decays_them() {
        let cfg = LeaseConfig { hot_threshold: 3, topk: 4, ..LeaseConfig::default() };
        let d = cache(cfg);
        for _ in 0..2 {
            d.observe_read(99);
        }
        assert!(!d.is_hot(99));
        d.observe_read(99);
        assert!(d.is_hot(99));
        // Enough unrelated traffic triggers count-halving decay below the
        // threshold (deterministic: decay_every = 2 * topk * threshold).
        for i in 0..(2 * 4 * 3 * 2) {
            d.observe_read(1000 + (i % 3) as u64);
        }
        assert!(!d.is_hot(99), "decay must cool keys that stop being read");
    }

    #[test]
    fn space_saving_displaces_the_minimum_slot() {
        let cfg = LeaseConfig { hot_threshold: 2, topk: 2, ..LeaseConfig::default() };
        let d = cache(cfg);
        d.observe_read(1);
        d.observe_read(2);
        d.observe_read(2);
        // Table is full; key 3 displaces key 1 (the min) and inherits 1+1.
        d.observe_read(3);
        assert!(d.is_hot(3), "displaced slot inherits min-count + 1");
        assert!(d.is_hot(2));
        assert!(!d.is_hot(1));
    }
}
