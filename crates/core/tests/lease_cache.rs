//! Integration tests for the lease-based client-side read cache
//! (DESIGN.md §14): repeat `get`s on hot remote keys are served locally,
//! and every invalidation rule — a write through the same handle, ownership
//! epoch bump, TTL expiry — is exercised end to end through a real
//! [`World`].

use std::sync::Arc;
use std::time::Duration;

use hcl::{LeaseConfig, UnorderedMap, UnorderedMapConfig};
use hcl_runtime::{World, WorldConfig};

/// Two nodes, one rank each: rank 1 is always remote from partition 0's
/// owner (rank 0), so its reads exercise the cached remote path.
fn two_node_world() -> WorldConfig {
    WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() }
}

/// A key that hashes to partition `part` of a 2-partition map.
fn key_in_partition(map: &UnorderedMap<'_, u64, u64>, part: usize) -> u64 {
    (0u64..10_000)
        .find(|k| map.partition_of(k) == part)
        .expect("some small key must land in each of 2 partitions")
}

fn leased_cfg(ttl: Duration) -> UnorderedMapConfig {
    UnorderedMapConfig {
        lease: Some(LeaseConfig {
            ttl,
            // Lease on the second observation of a key.
            hot_threshold: 1,
            ..LeaseConfig::default()
        }),
        ..UnorderedMapConfig::default()
    }
}

/// Tentpole happy path: the first read of a hot remote key grants a lease,
/// and every repeat read within the TTL is a local cache hit. The hits are
/// visible both in `cache_stats` and in the rank's telemetry registry.
#[test]
fn hot_remote_reads_hit_the_lease_cache() {
    World::run(two_node_world(), |rank| {
        let map: UnorderedMap<u64, u64> =
            UnorderedMap::with_config(rank, "lease-hit", leased_cfg(Duration::from_secs(60)));
        let k = key_in_partition(&map, 0);
        if rank.id() == 0 {
            map.put(k, 7).unwrap();
        }
        rank.barrier();
        if rank.id() == 1 {
            // Read 1: plain get (key not yet hot). Read 2: hot -> leased
            // get grants. Reads 3..=6: local hits.
            for _ in 0..6 {
                assert_eq!(map.get(&k).unwrap(), Some(7));
            }
            let stats = map.cache_stats().expect("lease cache is configured");
            assert!(stats.lease_grants >= 1, "expected a grant, got {stats:?}");
            assert!(stats.hits >= 3, "expected repeat reads to hit, got {stats:?}");
            // The same hits are exported through the rank's registry.
            let snap = rank.telemetry_snapshot();
            let hits = snap
                .counters
                .iter()
                .find(|(name, _)| name == "hcl_core_cache_hits")
                .map(|(_, v)| *v)
                .unwrap_or(0);
            assert!(hits >= 3, "telemetry must report the local hits, got {hits}");
        }
        rank.barrier();
    });
}

/// Invalidation rule 1 (own write): a client's own `put` drops the key's
/// lease once it returns, so a later read of the leased key must observe the
/// write instead of the cached value — even with an effectively infinite
/// TTL.
#[test]
fn own_write_invalidates_lease_via_piggybacked_version() {
    World::run(two_node_world(), |rank| {
        let map: UnorderedMap<u64, u64> =
            UnorderedMap::with_config(rank, "lease-ryw", leased_cfg(Duration::from_secs(3600)));
        let k = key_in_partition(&map, 0);
        if rank.id() == 0 {
            map.put(k, 1).unwrap();
        }
        rank.barrier();
        if rank.id() == 1 {
            for _ in 0..3 {
                assert_eq!(map.get(&k).unwrap(), Some(1));
            }
            let before = map.cache_stats().unwrap();
            assert!(before.hits >= 1, "the key must be leased first, got {before:?}");
            // The put, once it returns, drops this handle's lease of `k`.
            map.put(k, 2).unwrap();
            assert_eq!(map.get(&k).unwrap(), Some(2), "read-your-write through the cache");
            let after = map.cache_stats().unwrap();
            assert!(
                after.stale_version >= 1,
                "the write must drop the lease it overwrote, got {after:?}"
            );
        }
        rank.barrier();
    });
}

/// Read-your-writes through the cache holds on every write path for a
/// handle used by one thread, not only the sync `put`: each write below hits a key this handle holds a 1 h lease
/// on, and the next `get` must return what was written. The async writes are
/// waited for first; the bulk one waits by itself.
#[test]
fn every_write_path_reads_its_own_write_through_the_cache() {
    World::run(two_node_world(), |rank| {
        let merger: hcl::Merger<u64> = Arc::new(|old, new| old.copied().unwrap_or(0) + new);
        let cfg = leased_cfg(Duration::from_secs(3600));
        let map: UnorderedMap<u64, u64> =
            UnorderedMap::with_merger(rank, "lease-ryw-paths", cfg, merger);
        let k = key_in_partition(&map, 0);
        if rank.id() == 0 {
            map.put(k, 1).unwrap();
        }
        rank.barrier();
        if rank.id() == 1 {
            // Read until the key's lease serves a hit: the lease is held.
            let leased = |want: Option<u64>, path: &str| {
                let hits = map.cache_stats().unwrap().hits;
                for _ in 0..3 {
                    assert_eq!(map.get(&k).unwrap(), want, "before {path}");
                }
                let now = map.cache_stats().unwrap().hits;
                assert!(now > hits, "no lease held before {path}: {:?}", map.cache_stats());
            };
            leased(Some(1), "put_async");
            map.put_async(k, 10).unwrap().wait().unwrap();
            assert_eq!(map.get(&k).unwrap(), Some(10), "put_async");
            leased(Some(10), "put_batch");
            map.put_batch(vec![(k, 11)]).unwrap();
            assert_eq!(map.get(&k).unwrap(), Some(11), "put_batch");
            leased(Some(11), "put_merge");
            assert_eq!(map.put_merge(k, 1).unwrap(), 12);
            assert_eq!(map.get(&k).unwrap(), Some(12), "put_merge");
            leased(Some(12), "put_merge_async");
            assert_eq!(map.put_merge_async(k, 1).unwrap().wait().unwrap(), 13);
            assert_eq!(map.get(&k).unwrap(), Some(13), "put_merge_async");
            leased(Some(13), "erase");
            assert_eq!(map.erase(&k).unwrap(), Some(13));
            assert_eq!(map.get(&k).unwrap(), None, "erase");
            let stats = map.cache_stats().unwrap();
            assert_eq!(stats.stale_version, 5, "each write drops one lease: {stats:?}");
        }
        rank.barrier();
    });
}

/// Invalidation rule 2 (ownership epoch): a mark_down/mark_up cycle bumps
/// the dispatcher's ownership epoch, and a lease granted under the old
/// epoch must not serve — even though its TTL is far from expiring and no
/// stamped response ever reached this rank (the write used the owner's
/// hybrid local bypass).
#[test]
fn epoch_bump_kills_live_leases() {
    World::run(two_node_world(), |rank| {
        let map: UnorderedMap<u64, u64> =
            UnorderedMap::with_config(rank, "lease-epoch", leased_cfg(Duration::from_secs(3600)));
        let k = key_in_partition(&map, 0);
        if rank.id() == 0 {
            map.put(k, 1).unwrap();
        }
        rank.barrier();
        if rank.id() == 1 {
            for _ in 0..3 {
                assert_eq!(map.get(&k).unwrap(), Some(1));
            }
        }
        rank.barrier();
        if rank.id() == 0 {
            // Local bypass: no RPC response ever piggybacks this version
            // bump to rank 1, so only the epoch rule can save it.
            map.put(k, 2).unwrap();
        }
        rank.barrier();
        if rank.id() == 1 {
            map.mark_down(0);
            map.mark_up(0);
            assert_eq!(
                map.get(&k).unwrap(),
                Some(2),
                "a lease must not survive an ownership-epoch bump"
            );
            let stats = map.cache_stats().unwrap();
            assert!(stats.stale_epoch >= 1, "expected an epoch invalidation, got {stats:?}");
        }
        rank.barrier();
    });
}

/// Invalidation rule 3 (TTL): once the lease deadline passes, the next
/// read refetches. A write that the cacher never heard about (owner-side
/// local bypass) becomes visible after at most one TTL.
#[test]
fn lease_expiry_bounds_staleness() {
    World::run(two_node_world(), |rank| {
        let map: UnorderedMap<u64, u64> =
            UnorderedMap::with_config(rank, "lease-ttl", leased_cfg(Duration::from_millis(25)));
        let k = key_in_partition(&map, 0);
        if rank.id() == 0 {
            map.put(k, 1).unwrap();
        }
        rank.barrier();
        if rank.id() == 1 {
            for _ in 0..3 {
                assert_eq!(map.get(&k).unwrap(), Some(1));
            }
        }
        rank.barrier();
        if rank.id() == 0 {
            map.put(k, 2).unwrap();
        }
        rank.barrier();
        if rank.id() == 1 {
            std::thread::sleep(Duration::from_millis(60));
            assert_eq!(map.get(&k).unwrap(), Some(2), "expired lease must refetch");
            let stats = map.cache_stats().unwrap();
            assert!(stats.stale_expired >= 1, "expected a TTL expiry, got {stats:?}");
        }
        rank.barrier();
    });
}
