//! The six workloads: what each runs, how one pass of it is set up, driven,
//! counted and verified.
//!
//! Every pass runs in a fresh world of 2 nodes x 1 rank over the memory
//! fabric. Rank 0 is the only load generator (closed loop: the next op is
//! issued when the previous one returned); rank 1 only serves.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hcl::ordered::OrderedConfig;
use hcl::queue::QueueConfig;
use hcl::unordered::UnorderedMapConfig;
use hcl::{
    HclFuture, HclResult, LeaseConfig, OrderedMap, PersistConfig, PriorityQueue, Queue,
    UnorderedMap,
};
use hcl_runtime::{Rank, World, WorldConfig, WorldShared};
use hcl_telemetry::TelemetryConfig;

use crate::gen::{
    self, decode_value, value_of, Dist, KeySets, Kind, Mix, Op, Reads, SplitMix64, SET_SIZE,
};
use crate::pin::{pin, Side};
use crate::replay::{self, Replayer};
use crate::stats::{Span, SLICES};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RemoteSync,
    LocalHybrid,
    AsyncIngest,
    DurableStrict,
    ReadHeavyZipf,
    QueueMix,
}

pub const ALL: [Workload; 6] = [
    Workload::RemoteSync,
    Workload::LocalHybrid,
    Workload::AsyncIngest,
    Workload::DurableStrict,
    Workload::ReadHeavyZipf,
    Workload::QueueMix,
];

/// Async puts in flight per window.
const INGEST_WINDOW: usize = 64;
const DURABLE_WINDOW: usize = 16;
/// Ops timed as one latency sample on the local bypass, where one op is
/// too short for the clock.
const LOCAL_BLOCK: usize = 32;
/// Elements each queue holds before the clock starts, so pops never find
/// a queue empty and the structures are not trivially small.
const QUEUE_BACKLOG: usize = 4096;
/// `last_seq` of a key nobody wrote.
const ABSENT: u64 = u64::MAX;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::RemoteSync => "remote_sync",
            Workload::LocalHybrid => "local_hybrid",
            Workload::AsyncIngest => "async_ingest",
            Workload::DurableStrict => "durable_strict",
            Workload::ReadHeavyZipf => "read_heavy_zipf",
            Workload::QueueMix => "queue_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers do its work, and so which
    /// optimisations it exercises and which it is the control for.
    pub fn why(self) -> &'static str {
        match self {
            Workload::RemoteSync => "sync get/put 50/50 to the remote rank: rpc and fabric do ~99% of the work; target for wake-up/poll changes, idle for cache, coalescer and persist",
            Workload::LocalHybrid => "sync get/put 50/50 on the local bypass: core dispatch and containers only, no send; control for rpc/fabric changes and detector of per-op overhead",
            Workload::AsyncIngest => "windows of 64 put_async plus get_batch: coalescer, batch codec and server batch loop dominate; a sync-path gain that costs batching shows here",
            Workload::DurableStrict => "16 put_async in flight on a Strict WAL, then reopen and read back: persist dominates (one fsync per put); where group commit must show",
            Workload::ReadHeavyZipf => "sync get/put 95/5, zipfian 0.99, lease cache on, 65536 keys over 4096 leases: the cache with writes beside reads; write latency must not rise",
            Workload::QueueMix => "sync Queue, PriorityQueue and OrderedMap ops round-robin to the remote rank: the other three containers through the same dispatch and RPC path",
        }
    }

    /// Ops measured per 10 s of `--seconds`: fixed counts, not durations, so
    /// per-op counters repeat exactly. Sized on the seed commit to measure
    /// for about 10 s each.
    pub fn ops_per_10s(self) -> usize {
        match self {
            Workload::RemoteSync => 400_000,
            Workload::LocalHybrid => 10_000_000,
            Workload::AsyncIngest => 4_500_000,
            Workload::DurableStrict => 100_000,
            Workload::ReadHeavyZipf => 440_000,
            Workload::QueueMix => 400_000,
        }
    }

    /// True when every op crosses to rank 1.
    pub fn remote(self) -> bool {
        self != Workload::LocalHybrid
    }

    fn durable(self) -> bool {
        self == Workload::DurableStrict
    }
}

/// What a workload feeds the library: a key set and an op stream over it.
pub struct Inputs {
    pub keys: Vec<u64>,
    pub ops: Vec<Op>,
}

impl Inputs {
    /// The same key set with no ops: a pass over it measures set-up alone.
    pub fn setup_only(&self) -> Inputs {
        Inputs {
            keys: self.keys.clone(),
            ops: Vec::new(),
        }
    }
}

fn world_cfg(telemetry: bool) -> WorldConfig {
    WorldConfig {
        nodes: 2,
        ranks_per_node: 1,
        telemetry: if telemetry {
            TelemetryConfig::default()
        } else {
            TelemetryConfig::disabled()
        },
        ..WorldConfig::small()
    }
}

/// A fresh world with its NIC workers on the server side's CPU; the rank
/// threads `World::run_on` spawns next land on the client's. Also returns
/// when set-up began, moved past the time the pinning itself took.
pub fn pinned_world(telemetry: bool) -> (Instant, Arc<WorldShared>) {
    pin(Side::Server);
    let t0 = Instant::now();
    let shared = World::shared(world_cfg(telemetry));
    let paused = Instant::now();
    pin(Side::Client);
    (t0 + paused.elapsed(), shared)
}

/// Split keys by the library's own routing, in a throwaway world.
fn key_sets(rng: &SplitMix64) -> KeySets {
    World::run(world_cfg(true), |rank| {
        let map: UnorderedMap<u64, Vec<u8>> = UnorderedMap::new(rank, "routing");
        (rank.id() == 0)
            .then(|| gen::key_sets(&mut rng.clone(), |k| map.server_of(map.partition_of(&k))))
    })
    .into_iter()
    .flatten()
    .next()
    .expect("rank 0 returns the key sets")
}

/// Generate a workload's inputs from the seed, before any clock starts.
pub fn inputs(w: Workload, seed: u64, n_ops: usize) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let sets = key_sets(&rng.fork(1));
    let rng = &mut rng.fork(2);
    let even = |block| Mix::Random {
        write_share: 0.5,
        block,
    };
    let (keys, ops) = match w {
        Workload::RemoteSync => (
            sets.remote,
            gen::map_ops(rng, n_ops, even(1), Dist::Uniform, Reads::Preloaded),
        ),
        Workload::LocalHybrid => (
            sets.local,
            gen::map_ops(
                rng,
                n_ops,
                even(LOCAL_BLOCK),
                Dist::Uniform,
                Reads::Preloaded,
            ),
        ),
        Workload::AsyncIngest => {
            let mix = Mix::Cycle {
                writes: 9 * INGEST_WINDOW,
                reads: INGEST_WINDOW,
            };
            (
                sets.remote,
                gen::map_ops(rng, n_ops, mix, Dist::Uniform, Reads::Preloaded),
            )
        }
        Workload::DurableStrict => {
            let mix = Mix::Cycle {
                writes: DURABLE_WINDOW,
                reads: 2,
            };
            (
                sets.remote,
                gen::map_ops(rng, n_ops, mix, Dist::Uniform, Reads::Written),
            )
        }
        Workload::ReadHeavyZipf => {
            let mix = Mix::Random {
                write_share: 0.05,
                block: 1,
            };
            (
                sets.remote,
                gen::map_ops(rng, n_ops, mix, Dist::Zipf(0.99), Reads::Preloaded),
            )
        }
        Workload::QueueMix => (sets.remote, gen::queue_ops(rng, n_ops)),
    };
    Inputs { keys, ops }
}

/// One client-observed latency.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub ns: f32,
    pub write: bool,
}

/// What the measured window records: latencies in op order and the marks
/// that cut it into [`SLICES`] equal-op-count slices.
pub struct Recorder {
    pub samples: Vec<Sample>,
    pub marks: Vec<(usize, Instant)>,
    pub attempted: u64,
    pub failed: u64,
    total: usize,
    done: usize,
}

impl Recorder {
    fn new(total: usize, samples: usize) -> Self {
        Recorder {
            samples: Vec::with_capacity(samples),
            marks: Vec::with_capacity(SLICES + 1),
            attempted: 0,
            failed: 0,
            total,
            done: 0,
        }
    }

    fn sample(&mut self, ns: f64, write: bool) {
        self.samples.push(Sample {
            ns: ns as f32,
            write,
        });
    }

    /// `n` more ops are done; mark the slice boundary if they crossed one.
    fn advance(&mut self, n: usize) {
        self.attempted += n as u64;
        let slice = |done: usize| done * SLICES / self.total;
        let before = slice(self.done);
        self.done += n;
        if slice(self.done) > before {
            self.marks.push((self.done, Instant::now()));
        }
    }

    fn check<T>(&mut self, result: HclResult<T>) -> Option<T> {
        if result.is_err() {
            self.failed += 1;
        }
        result.ok()
    }
}

/// Declares [`Counters`] and its field-wise difference from one field list.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Monotonic library counters the per-layer metrics are made of; a
        /// pass reports their growth over the measured window. `polls` are
        /// the fabric's one-sided reads, `flushes` every coalescer flush,
        /// `cost_f` the containers' remote invocations (Table I's F).
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            fn since(self, earlier: Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field,)* }
            }
        }
    };
}

counters!(
    sends,
    send_bytes,
    polls,
    server_reqs,
    server_busy_ns,
    wrong_epoch,
    batches,
    coalesced_ops,
    age_flushes,
    flushes,
    issued,
    local_bypass,
    cost_f,
    cache_hits,
    cache_misses,
    cache_grants,
    cache_stale_version,
    retransmits,
    slot_waits,
);

impl Counters {
    fn read(rank: &Rank, c: &Containers) -> Counters {
        let traffic = rank.world().traffic();
        let server = rank.world().server_stats();
        let co = rank.coalesce_stats();
        let cache = c.cache_stats();
        Counters {
            sends: traffic.sends,
            send_bytes: traffic.send_bytes,
            polls: traffic.reads,
            server_reqs: server.requests,
            server_busy_ns: server.busy_ns,
            wrong_epoch: server.wrong_epoch,
            batches: co.batches,
            coalesced_ops: co.coalesced_ops,
            age_flushes: co.age_flushes,
            flushes: co.age_flushes + co.size_flushes + co.demand_flushes,
            issued: counter(rank, "hcl_core_ops_issued"),
            local_bypass: counter(rank, "hcl_core_ops_local_bypass"),
            cost_f: c.cost_f(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_grants: cache.lease_grants,
            cache_stale_version: cache.stale_version,
            retransmits: counter(rank, "hcl_rpc_retransmits"),
            slot_waits: counter(rank, "hcl_rpc_slot_waits"),
        }
    }
}

/// This rank's registry counter `name`.
fn counter(rank: &Rank, name: &str) -> u64 {
    rank.telemetry().registry().counter(name).get()
}

/// How one pass is run.
#[derive(Debug, Clone, Copy)]
pub struct PassCfg<'a> {
    pub telemetry: bool,
    pub traced: bool,
    /// Scratch directory for logs; the pass empties what it puts there.
    pub dir: &'a Path,
}

/// Everything one pass measured.
pub struct PassOut {
    /// `World::shared` + rank spawn, to the first barrier.
    pub world_start_s: f64,
    /// `World::shared` to the barrier after construction and preload.
    pub setup_s: f64,
    pub rec: Recorder,
    pub counters: Counters,
    pub cache_local_get_ns: f64,
    pub fsyncs: u64,
    /// Puts the client saw acknowledged.
    pub acked_puts: u64,
    pub wal_bytes: u64,
    pub recover_s: f64,
    pub recovered_ops: u64,
    pub spans: Vec<Span>,
    /// Structural verification failures (lengths, order, recovery), in words.
    pub problems: Vec<String>,
}

/// The containers a workload drives. One value lives per pass, on the
/// stack of the rank that drives it: boxing the larger variant would only
/// put a pointer chase into the measured loop.
#[allow(clippy::large_enum_variant)]
enum Containers<'a> {
    Map(UnorderedMap<'a, u64, Vec<u8>>),
    Queues {
        q: Queue<'a, Vec<u8>>,
        pq: PriorityQueue<'a, (u64, Vec<u8>)>,
        om: OrderedMap<'a, u64, Vec<u8>>,
    },
}

impl<'a> Containers<'a> {
    /// Collective: every rank builds the same containers.
    fn build(rank: &'a Rank, w: Workload, dir: &Path) -> Self {
        let map = |cfg| Containers::Map(UnorderedMap::with_config(rank, "bench", cfg));
        match w {
            Workload::DurableStrict => map(UnorderedMapConfig {
                persist: Some(PersistConfig::strict(dir)),
                ..Default::default()
            }),
            Workload::ReadHeavyZipf => map(UnorderedMapConfig {
                lease: Some(LeaseConfig::default()),
                ..Default::default()
            }),
            Workload::QueueMix => {
                let owner = QueueConfig {
                    owner: 1,
                    ..Default::default()
                };
                Containers::Queues {
                    q: Queue::with_config(rank, "bench.q", owner.clone()),
                    pq: PriorityQueue::with_config(rank, "bench.pq", owner),
                    om: OrderedMap::with_config(
                        rank,
                        "bench.om",
                        OrderedConfig {
                            servers: Some(vec![1]),
                            ..Default::default()
                        },
                    ),
                }
            }
            _ => map(UnorderedMapConfig::default()),
        }
    }

    fn cost_f(&self) -> u64 {
        match self {
            Containers::Map(m) => m.costs().f,
            Containers::Queues { q, pq, om } => q.costs().f + pq.costs().f + om.costs().f,
        }
    }

    fn cache_stats(&self) -> hcl::CacheStats {
        match self {
            Containers::Map(m) => m.cache_stats().unwrap_or_default(),
            Containers::Queues { .. } => Default::default(),
        }
    }
}

/// The client's own record of what it wrote, to check every read against.
struct Model {
    /// Sequence of the last write per key index ([`ABSENT`] = never).
    last_seq: Vec<u64>,
    next_seq: u64,
    q_pushed: u64,
    q_popped: u64,
    pq: BinaryHeap<Reverse<u64>>,
    pq_pushed: u64,
}

/// Keys the queue elements carry in their values.
const Q_KEY: u64 = 0x51;

impl Model {
    fn new(preloaded: bool) -> Self {
        Model {
            last_seq: vec![if preloaded { 0 } else { ABSENT }; SET_SIZE],
            next_seq: 0,
            q_pushed: 0,
            q_popped: 0,
            pq: BinaryHeap::new(),
            pq_pushed: 0,
        }
    }

    /// The value for the next write of key index `idx`.
    fn write(&mut self, keys: &[u64], idx: usize) -> Vec<u8> {
        self.next_seq += 1;
        self.last_seq[idx] = self.next_seq;
        value_of(keys[idx], self.next_seq)
    }

    /// True when `got` is what the last write of key index `idx` stored.
    fn read_ok(&self, keys: &[u64], idx: usize, got: &Option<Vec<u8>>) -> bool {
        match got {
            None => self.last_seq[idx] == ABSENT,
            Some(v) => decode_value(v) == Some((keys[idx], self.last_seq[idx])),
        }
    }

    fn q_push(&mut self) -> Vec<u8> {
        self.q_pushed += 1;
        value_of(Q_KEY, self.q_pushed)
    }

    /// FIFO per producer: pops return pushes in order.
    fn q_pop_ok(&mut self, got: &Option<Vec<u8>>) -> bool {
        self.q_popped += 1;
        got.as_deref().and_then(decode_value) == Some((Q_KEY, self.q_popped))
    }

    /// A unique priority: the drawn one above, the push count below.
    fn pq_push(&mut self, drawn: usize) -> (u64, Vec<u8>) {
        self.pq_pushed += 1;
        let prio = (drawn as u64) << 32 | self.pq_pushed;
        self.pq.push(Reverse(prio));
        (prio, value_of(prio, 0))
    }

    /// Pops return the smallest priority present.
    fn pq_pop_ok(&mut self, got: &Option<(u64, Vec<u8>)>) -> bool {
        let want = self.pq.pop().map(|Reverse(p)| p);
        got.as_ref().map(|(p, _)| *p) == want
            && got
                .as_ref()
                .is_some_and(|(p, v)| decode_value(v) == Some((*p, 0)))
    }
}

/// Span recording around the units a driver times, with each layer's
/// replay of the same inputs as child spans.
struct Trace<'r, 'a> {
    replayer: &'r Replayer<'a>,
    epoch: Instant,
    spans: Vec<Span>,
    remote: bool,
    durable: bool,
    units: u32,
}

impl Trace<'_, '_> {
    fn push(&mut self, name: &'static str, t0: Instant, t1: Instant, parent: Option<u32>) -> u32 {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(t0),
            end_ns: ns(t1),
            parent,
            op_id: self.units,
        });
        self.spans.len() as u32 - 1
    }

    fn span(&mut self, name: &'static str, parent: u32, f: impl FnOnce()) -> u32 {
        let t0 = Instant::now();
        f();
        self.push(name, t0, Instant::now(), Some(parent))
    }

    /// Record the root span of one timed unit from the driver's own stamps,
    /// then replay the unit's inputs through each layer it crossed.
    /// `went_remote` is false for ops the bypass or the cache served.
    fn unit(
        &mut self,
        name: &'static str,
        (t0, t1): (Instant, Instant),
        ops: &[Op],
        keys: &[u64],
        went_remote: bool,
        batched: bool,
    ) {
        let r = self.replayer;
        let root = self.push(name, t0, t1, None);
        let items = replay::items(ops, keys);
        if self.remote && went_remote {
            let rpc = if batched {
                let calls = r.encode_calls(items.clone());
                self.span("rpc.batch_echo", root, || r.rpc_batch(&calls))
            } else {
                let owned = items.clone();
                self.span("rpc.echo", root, || r.rpc_sync(owned))
            };
            self.span("fabric.pingpong", rpc, || r.pingpong());
            let owned = items.clone();
            self.span("databox.codec", rpc, || r.codec(owned));
        }
        if self.durable {
            let records = Replayer::encode_records(items.clone());
            self.span("persist.append", root, || r.persist(&records, true));
        }
        let structure = match ops[0].kind() {
            Kind::Get | Kind::Put => "containers.cuckoo",
            Kind::OmGet | Kind::OmPut => "containers.skiplist",
            Kind::QPush | Kind::QPop => "containers.queue",
            Kind::PqPush | Kind::PqPop => "containers.pq",
        };
        self.span(structure, root, || r.containers(items));
        self.units += 1;
    }
}

/// One pass's mutable state on rank 0.
struct Run<'r, 'a> {
    keys: &'r [u64],
    rec: Recorder,
    model: Model,
    trace: Option<Trace<'r, 'a>>,
}

/// Sync get/put, `unit` ops per latency sample.
fn drive_sync(map: &UnorderedMap<u64, Vec<u8>>, ops: &[Op], unit: usize, run: &mut Run) {
    let mut values = Vec::with_capacity(unit);
    let mut got = Vec::with_capacity(unit);
    for block in ops.chunks(unit) {
        let write = block[0].kind().is_write();
        // Arguments are materialised and replies checked outside the stamps.
        values.extend(
            block
                .iter()
                .filter(|_| write)
                .map(|op| run.model.write(run.keys, op.arg())),
        );
        let hits = run
            .trace
            .as_ref()
            .map(|_| map.cache_stats().unwrap_or_default().hits);
        let t0 = Instant::now();
        if write {
            for (op, value) in block.iter().zip(values.drain(..)) {
                if map.put(run.keys[op.arg()], value).is_err() {
                    run.rec.failed += 1;
                }
            }
        } else {
            got.extend(block.iter().map(|op| map.get(&run.keys[op.arg()])));
        }
        let t1 = Instant::now();
        run.rec
            .sample((t1 - t0).as_nanos() as f64 / block.len() as f64, write);
        for (op, result) in block.iter().zip(got.drain(..)) {
            let value = run.rec.check(result);
            if value.is_some_and(|v| !run.model.read_ok(run.keys, op.arg(), &v)) {
                run.rec.failed += 1;
            }
        }
        run.rec.advance(block.len());
        if let Some(trace) = &mut run.trace {
            let went_remote = hits == Some(map.cache_stats().unwrap_or_default().hits);
            let name = if write { "core.put" } else { "core.get" };
            trace.unit(name, (t0, t1), block, run.keys, went_remote, false);
        }
    }
}

/// Windows of up to `window` `put_async` (submit all, flush, wait all); runs
/// of gets go out as one `get_batch` or, if `!reads_batched`, as sync gets.
/// A put's latency runs from its submit to the return of its own `wait`.
fn drive_async(
    rank: &Rank,
    map: &UnorderedMap<u64, Vec<u8>>,
    ops: &[Op],
    window: usize,
    reads_batched: bool,
    run: &mut Run,
) {
    let mut futures: Vec<(Instant, HclFuture<bool>)> = Vec::with_capacity(window);
    let mut i = 0;
    while i < ops.len() {
        let write = ops[i].kind().is_write();
        let cap = if write || reads_batched { window } else { 1 };
        let len = ops[i..]
            .iter()
            .take(cap)
            .take_while(|op| op.kind() == ops[i].kind())
            .count();
        let unit = &ops[i..i + len];
        i += len;
        let keys: Vec<u64> = unit.iter().map(|op| run.keys[op.arg()]).collect();
        let (t0, t1, name);
        if write {
            let values: Vec<Vec<u8>> = unit
                .iter()
                .map(|op| run.model.write(run.keys, op.arg()))
                .collect();
            t0 = Instant::now();
            for (&key, value) in keys.iter().zip(values) {
                let submitted = Instant::now();
                if let Some(f) = run.rec.check(map.put_async(key, value)) {
                    futures.push((submitted, f));
                }
            }
            rank.flush_ops();
            for (submitted, f) in futures.drain(..) {
                run.rec.check(f.wait());
                run.rec.sample(submitted.elapsed().as_nanos() as f64, true);
            }
            t1 = Instant::now();
            name = "core.put_async";
        } else {
            t0 = Instant::now();
            let result = if reads_batched {
                map.get_batch(&keys)
            } else {
                map.get(&keys[0]).map(|v| vec![v])
            };
            t1 = Instant::now();
            name = if reads_batched {
                "core.get_batch"
            } else {
                "core.get"
            };
            match run.rec.check(result) {
                None => run.rec.failed += unit.len() as u64 - 1,
                Some(got) => {
                    for (op, v) in unit.iter().zip(&got) {
                        if !run.model.read_ok(run.keys, op.arg(), v) {
                            run.rec.failed += 1;
                        }
                        run.rec.sample((t1 - t0).as_nanos() as f64, false);
                    }
                }
            }
        }
        run.rec.advance(len);
        if let Some(trace) = &mut run.trace {
            trace.unit(name, (t0, t1), unit, run.keys, true, write || reads_batched);
        }
    }
}

/// One sync op at a time on the queue, the priority queue and the ordered
/// map, each checked against the model.
fn drive_queues(c: &Containers, ops: &[Op], run: &mut Run) {
    let Containers::Queues { q, pq, om } = c else {
        unreachable!("queue_mix builds queues")
    };
    for op in ops {
        let idx = op.arg();
        let (t0, t1);
        // Time the call alone; an `Err` is counted as failed by `check`.
        macro_rules! timed {
            ($call:expr) => {{
                t0 = Instant::now();
                let result = $call;
                t1 = Instant::now();
                run.rec.check(result)
            }};
        }
        let wrong = match op.kind() {
            Kind::QPush => {
                let v = run.model.q_push();
                timed!(q.push(v));
                false
            }
            Kind::QPop => timed!(q.pop()).is_some_and(|got| !run.model.q_pop_ok(&got)),
            Kind::PqPush => {
                let v = run.model.pq_push(idx);
                timed!(pq.push(v));
                false
            }
            Kind::PqPop => timed!(pq.pop()).is_some_and(|got| !run.model.pq_pop_ok(&got)),
            Kind::OmPut => {
                let v = run.model.write(run.keys, idx);
                timed!(om.put(run.keys[idx], v));
                false
            }
            Kind::OmGet => timed!(om.get(&run.keys[idx]))
                .is_some_and(|got| !run.model.read_ok(run.keys, idx, &got)),
            Kind::Get | Kind::Put => unreachable!("queue_mix stream holds no map op"),
        };
        if wrong {
            run.rec.failed += 1;
        }
        run.rec
            .sample((t1 - t0).as_nanos() as f64, op.kind().is_write());
        run.rec.advance(1);
        if let Some(trace) = &mut run.trace {
            let name = match op.kind() {
                Kind::QPush => "core.queue_push",
                Kind::QPop => "core.queue_pop",
                Kind::PqPush => "core.pq_push",
                Kind::PqPop => "core.pq_pop",
                Kind::OmPut => "core.omap_put",
                _ => "core.omap_get",
            };
            trace.unit(
                name,
                (t0, t1),
                std::slice::from_ref(op),
                run.keys,
                true,
                false,
            );
        }
    }
}

/// Preload before the clock: every key of a map at sequence 0, a backlog in
/// each queue. The durable map starts empty (a strict preload would fsync
/// per key and dominate set-up).
fn preload(w: Workload, c: &Containers, keys: &[u64], model: &mut Model) {
    match c {
        Containers::Map(_) if w.durable() => {}
        Containers::Map(map) => {
            let entries = keys.iter().map(|&k| (k, value_of(k, 0))).collect();
            assert_eq!(map.put_batch(entries).expect("preload"), keys.len() as u64);
        }
        Containers::Queues { q, pq, .. } => {
            let values = (0..QUEUE_BACKLOG).map(|_| model.q_push()).collect();
            assert_eq!(
                q.push_bulk(values).expect("preload queue"),
                QUEUE_BACKLOG as u64
            );
            let prios = (0..QUEUE_BACKLOG).map(|i| model.pq_push(i)).collect();
            assert_eq!(
                pq.push_bulk(prios).expect("preload pq"),
                QUEUE_BACKLOG as u64
            );
        }
    }
}

/// After the window: lengths against the model, then every key read back.
/// Returns the misses; length mismatches go to `problems`.
fn verify(c: &Containers, keys: &[u64], model: &Model, problems: &mut Vec<String>) -> u64 {
    let written = model.last_seq.iter().filter(|&&s| s != ABSENT).count() as u64;
    let mut expect_len = |what: &str, got: HclResult<u64>, want: u64| {
        if got.as_ref().ok() != Some(&want) {
            problems.push(format!("{what} length {got:?}, model has {want}"));
        }
    };
    match c {
        Containers::Map(map) => {
            expect_len("map", map.len(), written);
            read_back(map, keys, model)
        }
        Containers::Queues { q, pq, om } => {
            expect_len("queue", q.len(), model.q_pushed - model.q_popped);
            expect_len("priority queue", pq.len(), model.pq.len() as u64);
            expect_len("ordered map", om.len(), written);
            0
        }
    }
}

fn read_back(map: &UnorderedMap<u64, Vec<u8>>, keys: &[u64], model: &Model) -> u64 {
    let mut misses = 0;
    for (chunk, base) in keys.chunks(1024).zip((0..).step_by(1024)) {
        match map.get_batch(chunk) {
            Err(_) => misses += chunk.len() as u64,
            Ok(got) => {
                misses += (0..chunk.len())
                    .filter(|&i| !model.read_ok(keys, base + i, &got[i]))
                    .count() as u64
            }
        }
    }
    misses
}

const FSYNCS: &str = "hcl_persist_fsyncs";

/// Run one pass of `w` over `inputs` in a fresh world.
pub fn pass(w: Workload, inputs: &Inputs, cfg: PassCfg) -> PassOut {
    let dir = cfg.dir.join(format!("pass-{}", w.name()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create pass directory");
    let (t0, shared) = pinned_world(cfg.telemetry);
    let echo_fns = cfg.traced.then(|| replay::install(&shared));
    let outs = World::run_on(Arc::clone(&shared), |rank| {
        rank.barrier();
        let world_start_s = t0.elapsed().as_secs_f64();
        let c = Containers::build(rank, w, &dir);
        if rank.id() != 0 {
            rank.barrier();
            // Rank 1 only serves: its NIC worker runs the handlers while this
            // thread waits (or answers the traced run's ping-pong).
            if cfg.traced {
                replay::partner_loop(rank.world());
            }
            rank.barrier();
            return (counter(rank, FSYNCS), None);
        }
        let mut model = Model::new(!w.durable() && w != Workload::QueueMix);
        preload(w, &c, &inputs.keys, &mut model);
        rank.barrier();
        let setup_s = t0.elapsed().as_secs_f64();

        let replayer = echo_fns.map(|fns| Replayer::new(rank, fns, &dir));
        let unit = if w == Workload::LocalHybrid {
            LOCAL_BLOCK
        } else {
            1
        };
        let mut run = Run {
            keys: &inputs.keys,
            rec: Recorder::new(inputs.ops.len().max(1), inputs.ops.len() / unit),
            model,
            trace: replayer.as_ref().map(|replayer| Trace {
                replayer,
                epoch: Instant::now(),
                spans: Vec::new(),
                remote: w.remote(),
                durable: w.durable(),
                units: 0,
            }),
        };
        let before = Counters::read(rank, &c);
        run.rec.marks.push((0, Instant::now()));
        match (&c, w) {
            (Containers::Map(map), Workload::AsyncIngest) => {
                drive_async(rank, map, &inputs.ops, INGEST_WINDOW, true, &mut run)
            }
            (Containers::Map(map), Workload::DurableStrict) => {
                drive_async(rank, map, &inputs.ops, DURABLE_WINDOW, false, &mut run)
            }
            (Containers::Map(map), _) => drive_sync(map, &inputs.ops, unit, &mut run),
            (Containers::Queues { .. }, _) => drive_queues(&c, &inputs.ops, &mut run),
        }
        let counters = Counters::read(rank, &c).since(before);
        let mut problems = Vec::new();
        run.rec.failed += verify(&c, &inputs.keys, &run.model, &mut problems);
        if let Some(replayer) = &replayer {
            replayer.stop_partner();
        }
        rank.barrier();
        let cache_local_get_ns = rank
            .telemetry()
            .registry()
            .histogram("hcl_core_cache_local_get_ns")
            .snapshot()
            .p50() as f64;
        let rec = run.rec;
        let writes = rec.samples.iter().filter(|s| s.write).count() as u64;
        let out = PassOut {
            world_start_s,
            setup_s,
            counters,
            cache_local_get_ns,
            // The logs' counters sit in whichever rank opened them: summed below.
            fsyncs: 0,
            acked_puts: writes.saturating_sub(rec.failed),
            rec,
            wal_bytes: 0,
            recover_s: 0.0,
            recovered_ops: 0,
            spans: run.trace.map(|t| t.spans).unwrap_or_default(),
            problems,
        };
        (counter(rank, FSYNCS), Some((out, run.model.last_seq)))
    });
    drop(shared);

    let fsyncs = outs.iter().map(|o| o.0).sum();
    let (mut out, last_seq) = outs
        .into_iter()
        .find_map(|o| o.1)
        .expect("rank 0 drove the pass");
    out.fsyncs = fsyncs;
    if w.durable() {
        out.wal_bytes = log_bytes(&dir, "bench.part");
        reopen(w, inputs, &last_seq, &dir, &mut out);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Bytes of the files in `dir` whose names start with `prefix`.
fn log_bytes(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .expect("read log directory")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// The durability check: a new world opens the same logs, and every key the
/// first world acknowledged must read back with its last value.
fn reopen(w: Workload, inputs: &Inputs, last_seq: &[u64], dir: &Path, out: &mut PassOut) {
    let t0 = Instant::now();
    let outs = World::run(world_cfg(true), |rank| {
        let c = Containers::build(rank, w, dir);
        rank.barrier();
        let recover_s = t0.elapsed().as_secs_f64();
        let misses = match (&c, rank.id()) {
            (Containers::Map(map), 0) => {
                let model = Model {
                    last_seq: last_seq.to_vec(),
                    ..Model::new(false)
                };
                read_back(map, &inputs.keys, &model)
            }
            _ => 0,
        };
        rank.barrier();
        (
            recover_s,
            misses,
            counter(rank, "hcl_persist_recovered_ops"),
        )
    });
    out.recover_s = outs[0].0;
    out.rec.failed += outs[0].1;
    out.recovered_ops = outs.iter().map(|o| o.2).sum();
    if out.recovered_ops != out.acked_puts {
        out.problems.push(format!(
            "recovery replayed {} ops, the client had {} puts acknowledged",
            out.recovered_ops, out.acked_puts
        ));
    }
}
