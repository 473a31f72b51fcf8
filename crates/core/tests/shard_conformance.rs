//! Shard-pipeline conformance: what the *target* does with an op, observed
//! at the target, must be the same for every container — the
//! `dispatch_conformance.rs` pattern for the server side.
//!
//! One scripted sequence per container family runs against an elastic,
//! strict-persisted container in a 2x1 world, driven from rank 0 so that
//! shard 0 is reached through the hybrid bypass and shard 1 through a NIC
//! worker. After every op the test asserts the exact deltas of WAL records
//! and forwarded writes at each host, with a write-forwarding window open on
//! one vpart for part of the script; then that every kind of read owes the
//! strict read fence (a value applied but not yet durable is only shown
//! once the log has caught up). The same script is instantiated for
//! `UnorderedMap`/`OrderedMap` and for `Queue`/`PriorityQueue` — a sixth
//! container earns all of it by adding one impl block here. The
//! single-partition containers also reopen their logs in a fresh world and
//! must pop in the same order: FIFO, or priority.
//!
//! Then, outside the scripts: the window's install/erase race (DESIGN.md §15)
//! stressed directly at the shard over both keyed stores; replay over a log
//! holding a frame it cannot decode (skipped, counted, traced — for all four
//! containers); and the fsync signature of each sync policy.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Barrier;

use hcl::shard::{KeyedShard, KeyedStore, SeqShard, SeqStore};
use hcl::{
    drain_rank, HclError, HclResult, MigratorRegistry, OrderedMap, PersistConfig, PersistMetrics,
    PriorityQueue, Queue, ShardMigrator, SyncPolicy, UnorderedMap, UnorderedMapConfig,
};
use hcl::{ordered::OrderedConfig, queue::QueueConfig};
use hcl_databox::DataBox;
use hcl_persist::{Wal, WalRecord, DEFAULT_SEGMENT_BYTES};
use hcl_runtime::{Rank, ShardMove, World, WorldConfig};
use hcl_telemetry::EventKind;

fn two_node_world() -> WorldConfig {
    WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hcl-shard-conf-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sum of a telemetry counter over the world (logs count into the registry
/// of whichever rank created the container). Collective.
fn world_counter(rank: &Rank, name: &str) -> u64 {
    rank.allreduce(rank.telemetry().registry().counter(name).get(), |a, b| a + b)
}

/// Consume a read's result: the scripts only care that the read happened.
fn ignore<T>(_: T) {}

/// Named read closures of a container under test.
type Reads<'q> = Vec<(&'static str, Box<dyn Fn() + 'q>)>;

/// What a put looks like halfway through its request on another NIC worker:
/// logged and applied, its commit still deferred.
fn half_done(wal: &Wal, pack: impl FnOnce(&mut Vec<u8>), apply: impl FnOnce()) {
    wal.append_with(0, (7, wal.appended_lsn() + 1), pack).unwrap();
    apply();
    assert!(wal.appended_lsn() > wal.durable_lsn(), "append_with committed by itself");
}

// ---------------------------------------------------------------------------
// Keyed containers
// ---------------------------------------------------------------------------

/// The two maps behind one face: the common ops plus the list of every read
/// kind the container offers (name, closure) — each must owe the fence.
trait Keyed<'a>: Sized {
    const PREFIX: &'static str;
    type Store: KeyedStore<u64, u64>;
    fn open(rank: &'a Rank, name: &str, persist: Option<PersistConfig>) -> Self;
    fn shard_at(&self, host: u32) -> &KeyedShard<u64, u64, Self::Store>;
    fn partition_of(&self, k: &u64) -> usize;
    fn put(&self, k: u64, v: u64) -> bool;
    fn get(&self, k: &u64) -> Option<u64>;
    fn erase(&self, k: &u64) -> Option<u64>;
    fn len(&self) -> u64;
    fn flush_forwards(&self);
    /// Reads of the single key `k`.
    fn keyed_reads(&self, k: u64) -> Reads<'_>;
    /// Reads that fan out over every partition.
    fn global_reads(&self) -> Reads<'_>;
}

macro_rules! impl_keyed {
    ($ty:ident, $cfg:ident, $store:ty, $prefix:literal, $keyed:path, $global:path) => {
        impl<'a> Keyed<'a> for $ty<'a, u64, u64> {
            const PREFIX: &'static str = $prefix;
            type Store = $store;
            fn open(rank: &'a Rank, name: &str, persist: Option<PersistConfig>) -> Self {
                $ty::with_config(rank, name, $cfg { persist, ..Default::default() })
            }
            fn shard_at(&self, host: u32) -> &KeyedShard<u64, u64, Self::Store> {
                $ty::shard_at(self, host)
            }
            fn partition_of(&self, k: &u64) -> usize {
                $ty::partition_of(self, k)
            }
            fn put(&self, k: u64, v: u64) -> bool {
                $ty::put(self, k, v).unwrap()
            }
            fn get(&self, k: &u64) -> Option<u64> {
                $ty::get(self, k).unwrap()
            }
            fn erase(&self, k: &u64) -> Option<u64> {
                $ty::erase(self, k).unwrap()
            }
            fn len(&self) -> u64 {
                $ty::len(self).unwrap()
            }
            fn flush_forwards(&self) {
                $ty::flush_forwards(self).unwrap()
            }
            fn keyed_reads(&self, k: u64) -> Reads<'_> {
                let mut reads: Reads<'_> = vec![
                    ("get", Box::new(move || ignore(self.get(&k).unwrap()))),
                    ("contains", Box::new(move || ignore(self.contains(&k).unwrap()))),
                ];
                reads.extend($keyed(self, k));
                reads
            }
            fn global_reads(&self) -> Reads<'_> {
                let mut reads: Reads<'_> = vec![("len", Box::new(|| ignore(self.len().unwrap())))];
                reads.extend($global(self));
                reads
            }
        }
    };
}

type Umap<'a> = UnorderedMap<'a, u64, u64>;
type Omap<'a> = OrderedMap<'a, u64, u64>;

fn umap_keyed_reads<'q>(m: &'q Umap<'_>, k: u64) -> Reads<'q> {
    vec![
        ("get_async", Box::new(move || ignore(m.get_async(&k).unwrap().wait().unwrap()))),
        ("get_batch", Box::new(move || ignore(m.get_batch(&[k]).unwrap()))),
    ]
}

fn umap_global_reads<'q>(m: &'q Umap<'_>) -> Reads<'q> {
    vec![("snapshot_all", Box::new(|| ignore(m.snapshot_all().unwrap())))]
}

fn omap_keyed_reads<'q>(_: &'q Omap<'_>, _: u64) -> Reads<'q> {
    Vec::new()
}

fn omap_global_reads<'q>(m: &'q Omap<'_>) -> Reads<'q> {
    vec![
        ("first", Box::new(|| ignore(m.first().unwrap()))),
        ("range", Box::new(|| ignore(m.range(&0, &u64::MAX).unwrap()))),
        ("snapshot_sorted", Box::new(|| ignore(m.snapshot_sorted().unwrap()))),
    ]
}

type Cuckoo = hcl_containers::CuckooMap<u64, u64>;
type SkipList = hcl_containers::SkipListMap<u64, u64>;
impl_keyed!(UnorderedMap, UnorderedMapConfig, Cuckoo, "umap", umap_keyed_reads, umap_global_reads);
impl_keyed!(OrderedMap, OrderedConfig, SkipList, "omap", omap_keyed_reads, omap_global_reads);

/// Server-side observables of one keyed container, both hosts at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct KeyedProbe {
    wal: [u64; 2],
    forwarded: u64,
}

impl KeyedProbe {
    fn take<'a, C: Keyed<'a>>(c: &C, rank: &Rank) -> Self {
        let at = |h: u32| c.shard_at(h);
        KeyedProbe {
            wal: [0, 1].map(|h| at(h).wal().expect("durable").appended_lsn()),
            forwarded: rank
                .world()
                .membership()
                .counters()
                .forwarded_writes
                .load(Ordering::Relaxed),
        }
    }

    /// `self - earlier`, field by field.
    fn since(&self, earlier: &Self) -> Self {
        KeyedProbe {
            wal: [0, 1].map(|h| self.wal[h] - earlier.wal[h]),
            forwarded: self.forwarded - earlier.forwarded,
        }
    }
}

/// `n` mutations applied at `host`, nothing anywhere else.
fn applied_at(host: usize, n: u64) -> KeyedProbe {
    let mut p = KeyedProbe::default();
    p.wal[host] = n;
    p
}

fn keyed_script<'a, C: Keyed<'a>>(rank: &'a Rank, dir: &Path) {
    let c = C::open(rank, "conf", Some(PersistConfig::strict(dir)));
    let who = C::PREFIX;
    rank.barrier();
    if rank.id() == 0 {
        let membership = rank.world().membership();
        let vpart_of = |k: &u64| membership.current().vpart_of_hash(hcl::stable_hash(k));
        // Keys by owner: shard 0 is served by the bypass, shard 1 by a NIC
        // worker. `wk`/`wk2` share one vpart of shard 1 — the one that gets a
        // window — and every other key stays clear of it.
        let wk = (0u64..).find(|k| c.partition_of(k) == 1).unwrap();
        let vp = vpart_of(&wk);
        let wk2 = (wk + 1..).find(|k| vpart_of(k) == vp).unwrap();
        let key_at = |owner: usize| {
            (0u64..).find(|k| c.partition_of(k) == owner && vpart_of(k) != vp).unwrap()
        };
        let step = |what: &str, op: &dyn Fn(), want: KeyedProbe| {
            let before = KeyedProbe::take(&c, rank);
            op();
            // Migration forwards are asynchronous; once flushed, everything
            // the op caused has landed.
            c.flush_forwards();
            assert_eq!(KeyedProbe::take(&c, rank).since(&before), want, "{who}: {what}");
        };

        // The mutation pipeline, bypass and NIC alike: one record, at the
        // owner only; nothing is forwarded outside a window.
        for owner in [0usize, 1] {
            let k = key_at(owner);
            step("put", &|| assert!(c.put(k, 1)), applied_at(owner, 1));
            step("overwrite", &|| assert!(!c.put(k, 2)), applied_at(owner, 1));
            step("get", &|| assert_eq!(c.get(&k), Some(2)), KeyedProbe::default());
            step("len", &|| assert_eq!(c.len(), 1), KeyedProbe::default());
            step("erase", &|| assert_eq!(c.erase(&k), Some(2)), applied_at(owner, 1));
            step("erase of nothing", &|| assert_eq!(c.erase(&k), None), applied_at(owner, 1));
        }

        // Open a write-forwarding window on `vp`: 1 -> 0.
        let mig = MigratorRegistry::shared(rank)
            .migrators()
            .into_iter()
            .find(|m| m.name() == who)
            .expect("elastic containers register a migrator");
        let mv = ShardMove { vpart: vp, from: 1, to: 0 };
        step("put before the window", &|| assert!(c.put(wk2, 5)), applied_at(1, 1));
        step("mig begin", &|| mig.begin(rank, &mv).unwrap(), KeyedProbe::default());

        // Inside the window a write to the moving vpart is applied at the
        // source *and* dual-applied (logged) at the target.
        let dual = KeyedProbe { wal: [1, 1], forwarded: 1 };
        step("windowed put", &|| assert!(c.put(wk, 7)), dual);
        assert_eq!(c.shard_at(0).store().get(&wk), Some(7), "{who}: forwarded put applied");
        step("windowed erase", &|| assert_eq!(c.erase(&wk), Some(7)), dual);
        assert_eq!(c.shard_at(0).store().get(&wk), None, "{who}: forwarded erase applied");
        // A write outside the moving vpart is not forwarded.
        let other = key_at(1);
        step("put beside the window", &|| assert!(c.put(other, 1)), applied_at(1, 1));
        // The copy: one logged install per entry of the vpart at the target
        // (`wk2` — `wk` was erased), nothing at the source.
        step("transfer", &|| assert_eq!(mig.transfer(rank, &mv).unwrap().0, 1), applied_at(0, 1));
        assert_eq!(c.shard_at(0).store().get(&wk2), Some(5), "{who}: copy installed");
        // A late copy of the erased key must stay dead (tombstone), and a
        // copy must never overwrite what is already there.
        assert!(!c.shard_at(0).mig_install(wk, 7), "{who}: tombstone ignored");
        assert!(!c.shard_at(0).mig_install(wk2, 4), "{who}: copy overwrote");
        // Abort: the target purges exactly what the migration wrote (no
        // record), the source just stops forwarding.
        let closed = KeyedProbe { wal: [0, 0], forwarded: 0 };
        step("mig end (abort)", &|| mig.end(rank, &mv, false).unwrap(), closed);
        assert_eq!(c.shard_at(0).store().get(&wk2), None, "{who}: abort purges installs");
        assert_eq!(c.get(&wk2), Some(5), "{who}: source untouched by the abort");
        step("put after the window", &|| assert!(c.put(wk, 9)), applied_at(1, 1));

        // Every read kind owes the read fence, at the bypass (shard 0) and
        // on a NIC worker (shard 1): with a logged-but-not-durable value in
        // the structure, the read returns only once the log caught up.
        let half_done_put = |host: u32, k: u64| {
            let shard = c.shard_at(host);
            half_done(
                shard.wal().unwrap(),
                |buf| (0u8, k, Some(k)).pack(buf),
                || {
                    shard.store().insert(k, k);
                },
            );
        };
        let caught_up = |host: u32, what: &str| {
            let wal = c.shard_at(host).wal().unwrap();
            assert_eq!(wal.durable_lsn(), wal.appended_lsn(), "{who}: {what} outran its barrier");
        };
        for owner in [0u32, 1] {
            let k = key_at(owner as usize);
            for (what, read) in c.keyed_reads(k) {
                half_done_put(owner, k);
                read();
                caught_up(owner, what);
            }
        }
        for (what, read) in c.global_reads() {
            half_done_put(0, key_at(0));
            half_done_put(1, key_at(1));
            read();
            caught_up(0, what);
            caught_up(1, what);
        }
        half_done_put(1, wk2);
        mig.transfer(rank, &mv).unwrap();
        caught_up(1, "mig_extract");
        mig.end(rank, &mv, false).unwrap();

        // A committed close whose source cannot compact its log to the
        // post-purge contents says so (a crash now would resurrect the
        // moved keys) instead of swallowing it.
        mig.begin(rank, &mv).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
        let closed = mig.end(rank, &mv, true);
        assert!(matches!(closed, Err(HclError::Persist(_))), "{who}: {closed:?}");
    }
    // With nothing pending a read costs no barrier at all. (The script is
    // over on every rank before anyone samples its counter.)
    rank.barrier();
    let fsyncs_before_clean_reads = world_counter(rank, "hcl_persist_fsyncs");
    if rank.id() == 0 {
        for (_, read) in c.keyed_reads(0).into_iter().chain(c.global_reads()) {
            read();
        }
    }
    assert_eq!(
        world_counter(rank, "hcl_persist_fsyncs"),
        fsyncs_before_clean_reads,
        "{who}: a read of a fully durable container fsynced"
    );
    assert_eq!(world_counter(rank, "hcl_persist_compact_errors"), 1, "{who}: compaction failure");
}

#[test]
fn unordered_map_shard_conformance() {
    let dir = scratch("umap");
    let d = dir.clone();
    World::run(two_node_world(), move |rank| keyed_script::<UnorderedMap<u64, u64>>(rank, &d));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ordered_map_shard_conformance() {
    let dir = scratch("omap");
    let d = dir.clone();
    World::run(two_node_world(), move |rank| keyed_script::<OrderedMap<u64, u64>>(rank, &d));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Single-partition containers: the push/pop/bulk/extract subset
// ---------------------------------------------------------------------------

trait Seq<'a>: Sized {
    const PREFIX: &'static str;
    type Store: SeqStore<u64>;
    fn open(rank: &'a Rank, name: &str, cfg: QueueConfig) -> Self;
    fn shard(&self) -> &SeqShard<u64, Self::Store>;
    fn push(&self, v: u64);
    fn pop(&self) -> Option<u64>;
    fn push_bulk(&self, vs: Vec<u64>) -> u64;
    fn pop_bulk(&self, max: u64) -> Vec<u64>;
    fn extract_all(&self) -> Vec<u64> {
        self.try_extract_all().unwrap()
    }
    fn try_extract_all(&self) -> HclResult<Vec<u64>>;
    fn reads(&self) -> Reads<'_>;
    /// The order this container pops `pushed` in.
    fn pop_order(pushed: Vec<u64>) -> Vec<u64>;
}

macro_rules! impl_seq {
    ($ty:ident, $store:ty, $prefix:literal, $extra:path, $order:expr) => {
        impl<'a> Seq<'a> for $ty<'a, u64> {
            const PREFIX: &'static str = $prefix;
            type Store = $store;
            fn open(rank: &'a Rank, name: &str, cfg: QueueConfig) -> Self {
                $ty::with_config(rank, name, cfg)
            }
            fn shard(&self) -> &SeqShard<u64, Self::Store> {
                $ty::shard(self)
            }
            fn push(&self, v: u64) {
                assert!($ty::push(self, v).unwrap());
            }
            fn pop(&self) -> Option<u64> {
                $ty::pop(self).unwrap()
            }
            fn push_bulk(&self, vs: Vec<u64>) -> u64 {
                $ty::push_bulk(self, vs).unwrap()
            }
            fn pop_bulk(&self, max: u64) -> Vec<u64> {
                $ty::pop_bulk(self, max).unwrap()
            }
            fn try_extract_all(&self) -> HclResult<Vec<u64>> {
                $ty::extract_all(self)
            }
            fn reads(&self) -> Reads<'_> {
                let mut reads: Reads<'_> = vec![
                    ("len", Box::new(|| ignore(self.len().unwrap()))),
                    ("snapshot", Box::new(|| ignore(self.snapshot().unwrap()))),
                ];
                reads.extend($extra(self));
                reads
            }
            fn pop_order(pushed: Vec<u64>) -> Vec<u64> {
                $order(pushed)
            }
        }
    };
}

fn queue_extra_reads<'q>(_: &'q Queue<'_, u64>) -> Reads<'q> {
    Vec::new()
}

fn pq_extra_reads<'q>(pq: &'q PriorityQueue<'_, u64>) -> Reads<'q> {
    vec![("peek", Box::new(move || ignore(pq.peek().unwrap())))]
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort();
    v
}

impl_seq!(Queue, hcl_containers::LockFreeQueue<u64>, "queue", queue_extra_reads, |v| v);
impl_seq!(PriorityQueue, hcl_containers::SkipListPq<u64>, "pq", pq_extra_reads, sorted);

fn seq_script<'a, C: Seq<'a>>(rank: &'a Rank, dir: &Path) {
    // One instance hosted on each rank: rank 0 reaches `owner: 0` through
    // the bypass and `owner: 1` through a NIC worker.
    let hosted: Vec<C> = [0u32, 1]
        .iter()
        .map(|&owner| {
            let persist = Some(PersistConfig::strict(dir));
            C::open(
                rank,
                &format!("conf{owner}"),
                QueueConfig { owner, persist, ..Default::default() },
            )
        })
        .collect();
    let who = C::PREFIX;
    rank.barrier();
    if rank.id() == 0 {
        for (owner, q) in hosted.iter().enumerate() {
            let wal = q.shard().wal().expect("durable");
            let step = |what: &str, op: &dyn Fn(), records: u64| {
                let before = wal.appended_lsn();
                op();
                assert_eq!(wal.appended_lsn() - before, records, "{who}@{owner}: {what}");
            };
            // One record per element moved, none for what found nothing.
            step("push", &|| q.push(3), 1);
            step("pop", &|| assert_eq!(q.pop(), Some(3)), 1);
            step("pop of nothing", &|| assert_eq!(q.pop(), None), 0);
            step("push_bulk", &|| assert_eq!(q.push_bulk(vec![1, 2, 3]), 3), 3);
            step("pop_bulk", &|| assert_eq!(q.pop_bulk(2), vec![1, 2]), 2);
            step("pop_bulk past the end", &|| assert_eq!(q.pop_bulk(5), vec![3]), 1);
            step("pop_bulk of nothing", &|| assert!(q.pop_bulk(5).is_empty()), 0);
            for (what, read) in q.reads() {
                step(what, &*read, 0);
            }
            // Extract drains without logging pops: the log is compacted to
            // the empty contents instead.
            q.push_bulk(vec![4, 5]);
            assert_eq!(wal.records(), 10);
            step("extract_all", &|| assert_eq!(q.extract_all(), vec![4, 5]), 0);
            assert_eq!(wal.records(), 0, "{who}@{owner}: extract compacts the log");

            // Every observation owes the read fence — "empty" included.
            let half_done_push = |v: u64| {
                half_done(wal, |buf| (0u8, Some(v)).pack(buf), || q.shard().store().push(v));
            };
            let empty_pop: (&str, Box<dyn Fn() + '_>) =
                ("empty pop", Box::new(|| assert_eq!(q.pop(), None)));
            for (what, read) in q.reads().into_iter().chain([empty_pop]) {
                half_done_push(9);
                if what == "empty pop" {
                    assert_eq!(q.shard().store().pop(), Some(9));
                }
                read();
                assert_eq!(
                    wal.durable_lsn(),
                    wal.appended_lsn(),
                    "{who}@{owner}: {what} outran its barrier"
                );
                q.shard().store().pop_bulk(usize::MAX);
            }
        }
        // An extract whose host cannot compact its log moves nothing: the
        // error comes back and the elements stay put.
        std::fs::remove_dir_all(dir).unwrap();
        for (owner, q) in hosted.iter().enumerate() {
            q.push_bulk(vec![6, 7]);
            let moved = q.try_extract_all();
            assert!(matches!(moved, Err(HclError::Persist(_))), "{who}@{owner}: {moved:?}");
            assert_eq!(q.shard().store().snapshot(), vec![6, 7], "{who}@{owner}: elements lost");
        }
    }
    rank.barrier();
    assert_eq!(world_counter(rank, "hcl_persist_compact_errors"), 2, "{who}: compaction failures");
}

/// Order survives a restart: what one world pushed (one by one and in
/// bulk) and popped comes back from the replayed logs of the next, in the
/// container's pop order. The first world runs with `reopen` false and
/// writes; the second replays and checks.
fn seq_reopen_script<'a, C: Seq<'a>>(rank: &'a Rank, dir: &Path, reopen: bool) {
    let hosted: Vec<C> = [0u32, 1]
        .iter()
        .map(|&owner| {
            let persist = Some(PersistConfig::strict(dir));
            let cfg = QueueConfig { owner, persist, ..Default::default() };
            C::open(rank, &format!("order{owner}"), cfg)
        })
        .collect();
    rank.barrier();
    if rank.id() == 0 {
        let want = C::pop_order(vec![5, 1, 4, 2, 3]);
        for (owner, q) in hosted.iter().enumerate() {
            let who = format!("{}@{owner}", C::PREFIX);
            if reopen {
                assert_eq!(q.pop(), Some(want[1]), "{who}: first pop after reopen");
                assert_eq!(q.pop_bulk(10), want[2..], "{who}: the rest after reopen");
            } else {
                [5, 1, 4].into_iter().for_each(|v| q.push(v));
                assert_eq!(q.push_bulk(vec![2, 3]), 2);
                assert_eq!(q.pop(), Some(want[0]), "{who}: pop before the restart");
            }
        }
    }
    rank.barrier();
}

#[test]
fn queue_shard_conformance() {
    let dir = scratch("queue");
    let d = dir.clone();
    World::run(two_node_world(), move |rank| seq_script::<Queue<u64>>(rank, &d));
    for reopen in [false, true] {
        let d = dir.join("reopen");
        World::run(two_node_world(), move |rank| seq_reopen_script::<Queue<u64>>(rank, &d, reopen));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn priority_queue_shard_conformance() {
    let dir = scratch("pq");
    let d = dir.clone();
    World::run(two_node_world(), move |rank| seq_script::<PriorityQueue<u64>>(rank, &d));
    for reopen in [false, true] {
        let d = dir.join("reopen");
        World::run(two_node_world(), move |rank| {
            seq_reopen_script::<PriorityQueue<u64>>(rank, &d, reopen)
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The window's install/erase race
// ---------------------------------------------------------------------------

/// A copy-install of `k` racing a forwarded erase of `k` must leave `k`
/// absent in either order: erase-then-install is refused by the tombstone,
/// install-then-erase is removed. The broken interleaving — tombstone check,
/// then the whole erase, then the insert — needs the two to share no lock;
/// both threads are released together on every key to give it a chance.
fn install_never_resurrects_an_erased_key<'a, C: Keyed<'a>>(rank: &'a Rank) {
    const KEYS: u64 = 20_000;
    let c = C::open(rank, "race", None);
    let shard = c.shard_at(0);
    let gate = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            for k in 0..KEYS {
                gate.wait();
                shard.mig_install(k, 1);
            }
        });
        s.spawn(|| {
            for k in 0..KEYS {
                gate.wait();
                shard.mig_apply(k, None);
            }
        });
    });
    let resurrected: Vec<u64> = (0..KEYS).filter(|k| shard.store().get(k).is_some()).collect();
    assert!(resurrected.is_empty(), "{}: erased keys live again: {resurrected:?}", C::PREFIX);
}

#[test]
fn mig_install_racing_a_forwarded_erase_never_resurrects() {
    let cfg = WorldConfig { nodes: 1, ranks_per_node: 1, ..WorldConfig::small() };
    World::run(cfg, |rank| {
        install_never_resurrects_an_erased_key::<UnorderedMap<u64, u64>>(rank);
        install_never_resurrects_an_erased_key::<OrderedMap<u64, u64>>(rank);
    });
}

// ---------------------------------------------------------------------------
// Replay skips what it cannot decode — counted and traced, never silently
// ---------------------------------------------------------------------------

/// Leave behind, before any world runs, the log of the shard of container
/// `name` hosted on rank 0: the two `valid` records with one frame between
/// them that passes its checksum but is no record of any container.
fn seed_garbled_log(dir: &Path, name: &str, [first, second]: &[Vec<u8>; 2]) {
    let stem = PersistConfig::strict(dir).stem(name, 0);
    let metrics = PersistMetrics::detached();
    let (wal, _) =
        Wal::open(stem, SyncPolicy::Strict, DEFAULT_SEGMENT_BYTES, metrics, |_| {}).unwrap();
    for (seq, payload) in [first, &vec![0xEE], second].into_iter().enumerate() {
        wal.append(WalRecord { op: 0, rank: 9, seq: seq as u64 + 1, payload }).unwrap();
    }
}

/// Exactly one frame was skipped, and the open that skipped it said so once.
fn assert_one_record_skipped(rank: &Rank, who: &str) {
    let skipped = world_counter(rank, "hcl_persist_replay_undecodable");
    assert_eq!(skipped, 1, "{who}: undecodable records counted");
    // The trace lives in the flight ring of whichever rank opened the log.
    let traces: Vec<(EventKind, u64)> = rank
        .telemetry()
        .flight()
        .events()
        .iter()
        .filter(|e| e.op == "wal.replay")
        .map(|e| (e.kind, e.n))
        .collect();
    let all = rank.allreduce(traces, |mut a, b| {
        a.extend(b);
        a
    });
    assert_eq!(all, vec![(EventKind::PersistError, 1)], "{who}: one trace carrying the count");
}

fn keyed_recovers_around_garbage<'a, C: Keyed<'a>>(rank: &'a Rank, dir: &Path) {
    let c = C::open(rank, "garbled", Some(PersistConfig::strict(dir)));
    rank.barrier();
    let mut recovered = c.shard_at(0).store().snapshot();
    recovered.sort_unstable();
    assert_eq!(recovered, vec![(1, 10), (2, 20)], "{}: the valid records, nothing else", C::PREFIX);
    assert_one_record_skipped(rank, C::PREFIX);
}

fn seq_recovers_around_garbage<'a, C: Seq<'a>>(rank: &'a Rank, dir: &Path) {
    let persist = Some(PersistConfig::strict(dir));
    let q = C::open(rank, "garbled", QueueConfig { owner: 0, persist, ..Default::default() });
    rank.barrier();
    let recovered = q.shard().store().snapshot();
    assert_eq!(recovered, vec![1, 2], "{}: the valid records, nothing else", C::PREFIX);
    assert_one_record_skipped(rank, C::PREFIX);
}

#[test]
fn replay_counts_the_records_it_cannot_decode() {
    let put = |k: u64, v: u64| (0u8, k, Some(v)).to_bytes().to_vec();
    let push = |v: u64| (0u8, Some(v)).to_bytes().to_vec();
    let keyed = [put(1, 10), put(2, 20)];
    let seq = [push(1), push(2)];
    let recover = |who: &str, valid: &[Vec<u8>; 2], script: fn(&Rank, &Path)| {
        let dir = scratch(&format!("garbled-{who}"));
        seed_garbled_log(&dir, "garbled", valid);
        let d = dir.clone();
        World::run(two_node_world(), move |rank| script(rank, &d));
        let _ = std::fs::remove_dir_all(&dir);
    };
    recover("umap", &keyed, |r, d| keyed_recovers_around_garbage::<UnorderedMap<u64, u64>>(r, d));
    recover("omap", &keyed, |r, d| keyed_recovers_around_garbage::<OrderedMap<u64, u64>>(r, d));
    recover("queue", &seq, |r, d| seq_recovers_around_garbage::<Queue<u64>>(r, d));
    recover("pq", &seq, |r, d| seq_recovers_around_garbage::<PriorityQueue<u64>>(r, d));
}

// ---------------------------------------------------------------------------
// The fsync signature of each sync policy
// ---------------------------------------------------------------------------

const WINDOWS: u64 = 128;
const WINDOW: u64 = 16;
const SYNC_PUTS: u64 = 2_000;

/// Windows of [`WINDOW`] `put_async`, each awaited to its last ack.
fn async_windows(map: &Umap<'_>) {
    for w in 0..WINDOWS {
        let acks: Vec<_> =
            (0..WINDOW).map(|i| map.put_async(w * WINDOW + i, w).unwrap()).collect();
        for ack in acks {
            ack.wait().unwrap();
        }
    }
}

fn sync_puts(map: &Umap<'_>) {
    for i in 0..SYNC_PUTS {
        map.put(i % 512, i).unwrap();
    }
}

/// What the world's logs had done when the last ack of a phase was in.
#[derive(Debug, Clone, Copy)]
struct Logged {
    appended: u64,
    durable: u64,
    fsyncs: u64,
    /// Coalesced messages sent: the requests an async phase had acknowledged.
    batches: u64,
}

/// Drive `phases` from rank 0, one after the other, against a map under
/// `policy` with the bypass off (every put is a request some NIC worker
/// acknowledges); what each phase added, sampled right after its last ack.
fn logged_under(policy: Option<SyncPolicy>, phases: &'static [fn(&Umap<'_>)]) -> Vec<Logged> {
    let dir = scratch("policy");
    let persist = policy.map(|policy| PersistConfig { policy, ..PersistConfig::strict(&dir) });
    let mut per_rank = World::run(two_node_world(), move |rank| {
        let cfg = UnorderedMapConfig { hybrid: false, persist: persist.clone(), ..Default::default() };
        let map: Umap<'_> = UnorderedMap::with_config(rank, "policy", cfg);
        // The logs count into the registry of whichever rank created the
        // container: nobody reads a counter before the phase is over.
        let sample = || {
            rank.barrier();
            Logged {
                appended: world_counter(rank, "hcl_persist_appended"),
                durable: world_counter(rank, "hcl_persist_durable"),
                fsyncs: world_counter(rank, "hcl_persist_fsyncs"),
                batches: rank.allreduce(rank.coalesce_stats().batches, |a, b| a + b),
            }
        };
        let mut before = sample();
        let mut added = Vec::new();
        for phase in phases {
            if rank.id() == 0 {
                phase(&map);
            }
            let after = sample();
            added.push(Logged {
                appended: after.appended - before.appended,
                durable: after.durable - before.durable,
                fsyncs: after.fsyncs - before.fsyncs,
                batches: after.batches - before.batches,
            });
            before = after;
        }
        added
    });
    let _ = std::fs::remove_dir_all(&dir);
    per_rank.swap_remove(0)
}

/// The invariants the deleted `bench-persist-smoke` gated, without its
/// throughput ratios: strict leaves nothing un-durable behind an ack at no
/// more than one barrier per acknowledged request, relaxed logs every put
/// behind barriers an order of magnitude rarer, no persistence logs nothing.
#[test]
fn sync_policies_keep_their_fsync_signatures() {
    let strict = logged_under(Some(SyncPolicy::Strict), &[async_windows, sync_puts]);
    let (windows, one_by_one) = (strict[0], strict[1]);
    assert_eq!(windows.appended, WINDOWS * WINDOW, "strict windows: acks outran the WAL");
    assert_eq!(windows.durable, windows.appended, "strict windows: an ack outran its commit");
    assert!(
        windows.fsyncs <= windows.batches,
        "strict windows: more than one barrier per acknowledged request: {windows:?}"
    );
    assert_eq!(one_by_one.appended, SYNC_PUTS, "strict: acks outran the WAL");
    assert_eq!(one_by_one.durable, SYNC_PUTS, "strict: an ack outran its commit");
    assert!(one_by_one.fsyncs <= SYNC_PUTS, "strict: {one_by_one:?}");

    let gap = std::time::Duration::from_millis(20);
    let relaxed = logged_under(Some(SyncPolicy::Relaxed { interval: gap }), &[sync_puts])[0];
    assert_eq!(relaxed.appended, SYNC_PUTS, "relaxed: acks outran the WAL");
    assert!(
        relaxed.fsyncs * 10 <= one_by_one.fsyncs,
        "flush gap collapsed: strict {} fsyncs, relaxed {}",
        one_by_one.fsyncs,
        relaxed.fsyncs
    );

    let none = logged_under(None, &[sync_puts])[0];
    assert_eq!(none.appended, 0, "persistence off appended WAL records");
}

// ---------------------------------------------------------------------------
// A failed close after the commit leaves a trace
// ---------------------------------------------------------------------------

/// Copies nothing and cannot close its windows.
struct StuckMigrator;

impl ShardMigrator for StuckMigrator {
    fn name(&self) -> &str {
        "stuck"
    }
    fn begin(&self, _: &Rank, _: &ShardMove) -> HclResult<()> {
        Ok(())
    }
    fn transfer(&self, _: &Rank, _: &ShardMove) -> HclResult<(u64, u64)> {
        Ok((0, 0))
    }
    fn end(&self, _: &Rank, _: &ShardMove, _: bool) -> HclResult<()> {
        Err(HclError::Persist("injected end failure".into()))
    }
}

#[test]
fn failed_end_on_the_committed_path_is_flight_recorded() {
    World::run(two_node_world(), |rank| {
        MigratorRegistry::shared(rank).register_once("stuck", std::sync::Arc::new(StuckMigrator));
        let moves = rank.world().membership().plan_remove(1).expect("plannable").moves.len();
        // The commit stands: the map has moved on, only the sweep failed.
        assert!(drain_rank(rank, 1).expect("drain commits").committed);
        if rank.id() == 0 {
            let failed_ends = rank
                .telemetry()
                .flight()
                .events()
                .iter()
                .filter(|e| e.op == "rebalance.end")
                .count();
            assert_eq!(failed_ends, moves, "one trace per window that failed to close");
        }
        rank.barrier();
    });
}
