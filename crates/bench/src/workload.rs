//! YCSB-style mixed-operation workload driver.
//!
//! The paper's evaluation (and the BCL/DASH evaluations it compares
//! against) exercises the containers with *mixed* traffic — reads, writes,
//! scans and removals over skewed key populations — not single-op loops.
//! This module is the reusable engine for that: a seeded key-distribution
//! generator (uniform or zipfian), a weighted operation mix, and a driver
//! that executes the mix against any of the five public containers through
//! their normal dispatch path, recording every synchronous op's latency
//! into a per-run [`Histogram`] *and* into the rank's telemetry registry
//! (`hcl_bench_workload_*_ns`).
//!
//! The driver deliberately takes pre-constructed container handles
//! (`run_on_*`): tests can attach a linearizability [`recorder`], a lease
//! cache or a WAL to the handle first, so the chaos twins
//! (`tests/fault_injection.rs`) and the Wing–Gong checker
//! (`tests/linearizability.rs`) run the same op streams.
//! [`run_scenario`] builds a default handle for any of the five containers.
//!
//! [`recorder`]: hcl::HistoryRecorder

use std::time::Instant;

use hcl::queue::QueueConfig;
use hcl::{
    HclError, HclResult, OrderedMap, PriorityQueue, Queue, UnorderedMap, UnorderedMapConfig,
    UnorderedSet,
};
use hcl_runtime::Rank;
use hcl_telemetry::{Histogram, HistogramSnapshot};

/// Deterministic splitmix64 RNG: the workload's only randomness source, so
/// a `(seed, rank)` pair always replays the identical op/key sequence.
#[derive(Debug, Clone)]
pub struct WorkloadRng(u64);

impl WorkloadRng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        WorkloadRng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Final 64-bit mix of MurmurHash3: scatters zipfian *popularity ranks*
/// over the key space so the hot keys do not cluster on one partition.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    k ^= k >> 33;
    k = k.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    k ^ (k >> 33)
}

/// Key-popularity distribution of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with skew parameter `theta` in `(0, 1)` (YCSB default 0.99).
    Zipfian {
        /// Skew: higher is hotter; YCSB uses 0.99.
        theta: f64,
    },
}

/// The YCSB zipfian sampler (Gray et al.'s rejection-free inversion):
/// popularity rank `r` is drawn with probability `∝ 1/(r+1)^theta`, then
/// scattered over the key space with a hash so hot keys spread across
/// partitions. Construction is `O(key_space)` (zeta sum); sampling is
/// `O(1)`.
#[derive(Debug, Clone)]
pub struct KeyGen {
    n: u64,
    dist: KeyDist,
    salt: u64,
    /// `next_pow2(n) - 1`: the cycle-walking domain of the rank scatter.
    mask: u64,
    // Zipfian constants (unused for uniform).
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl KeyGen {
    /// Generator over `[0, key_space)` with `dist`; `salt` feeds the
    /// rank→key scatter (use the workload seed so runs are comparable).
    pub fn new(key_space: u64, dist: KeyDist, salt: u64) -> Self {
        let n = key_space.max(1);
        let (zetan, alpha, eta) = match dist {
            KeyDist::Uniform => (0.0, 0.0, 0.0),
            KeyDist::Zipfian { theta } => {
                assert!(
                    (0.0..1.0).contains(&theta),
                    "zipfian theta must be in (0,1), got {theta}"
                );
                let zetan = Self::zeta(n, theta);
                let zeta2 = Self::zeta(2.min(n), theta);
                let alpha = 1.0 / (1.0 - theta);
                let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
                (zetan, alpha, eta)
            }
        };
        let mask = n.next_power_of_two() - 1;
        KeyGen { n, dist, salt, mask, zetan, alpha, eta }
    }

    /// Bijective scatter of popularity ranks over `[0, n)`: salted
    /// odd-multiplier + xorshift rounds (each bijective modulo a power of
    /// two), cycle-walked until the image lands below `n`. A permutation —
    /// unlike `hash % n` — so the hottest rank owns exactly one key and
    /// measured skew matches the analytic zipfian head.
    fn scatter(&self, rank: u64) -> u64 {
        if self.n <= 2 {
            return rank;
        }
        let shift = (64 - self.mask.leading_zeros()).max(2) / 2;
        let mut v = rank;
        loop {
            v = (v ^ self.salt) & self.mask;
            v = v.wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1) & self.mask;
            v ^= v >> shift;
            v = v.wrapping_mul(0xC4CE_B9FE_1A85_EC53 | 1) & self.mask;
            v ^= v >> shift;
            if v < self.n {
                return v;
            }
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Probability of the single hottest key (1/zetan for zipfian, 1/n for
    /// uniform) — the figure the skew regression test checks against.
    pub fn hottest_p(&self) -> f64 {
        match self.dist {
            KeyDist::Uniform => 1.0 / self.n as f64,
            KeyDist::Zipfian { .. } => 1.0 / self.zetan,
        }
    }

    /// The popularity rank for one uniform draw `u ∈ [0,1)` (0 = hottest).
    fn rank_of(&self, u: f64) -> u64 {
        match self.dist {
            KeyDist::Uniform => ((u * self.n as f64) as u64).min(self.n - 1),
            KeyDist::Zipfian { theta } => {
                let uz = u * self.zetan;
                if uz < 1.0 {
                    0
                } else if self.n > 1 && uz < 1.0 + 0.5f64.powf(theta) {
                    1
                } else {
                    let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha))
                        as u64;
                    r.min(self.n - 1)
                }
            }
        }
    }

    /// Draw the next key. Popularity ranks are scattered by a salted
    /// permutation so the hottest keys are not adjacent integers.
    pub fn next_key(&self, rng: &mut WorkloadRng) -> u64 {
        let rank = self.rank_of(rng.next_f64());
        match self.dist {
            KeyDist::Uniform => rank,
            KeyDist::Zipfian { .. } => self.scatter(rank),
        }
    }
}

/// One drawn operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Point read (map `get` / set `contains` / queue `len` probe).
    Read,
    /// Write (map `put` / set `insert` / queue `push`).
    Update,
    /// Short range/bulk read (`get_batch` / `range` / `pop_bulk`).
    Scan,
    /// Removal (map `erase` / set `remove` / queue `pop`).
    Remove,
}

/// A weighted operation mix (weights are per-cent shares; they need not
/// sum to 100, only be positive in total).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Point-read weight.
    pub read: u32,
    /// Write weight.
    pub update: u32,
    /// Scan weight.
    pub scan: u32,
    /// Removal weight.
    pub remove: u32,
}

impl Mix {
    /// YCSB-A: 50/50 read/update.
    pub const UPDATE_HEAVY: Mix = Mix { read: 50, update: 50, scan: 0, remove: 0 };
    /// YCSB-B: 95/5 read/update.
    pub const READ_HEAVY: Mix = Mix { read: 95, update: 5, scan: 0, remove: 0 };
    /// YCSB-E-flavored scan mix with a removal trickle.
    pub const SCAN_HEAVY: Mix = Mix { read: 45, update: 10, scan: 40, remove: 5 };
    /// Producer/consumer queue mix (push/pop with a len probe).
    pub const QUEUE_MIX: Mix = Mix { read: 5, update: 50, scan: 0, remove: 45 };
    /// Map mix with erases, used by the linearizability-checked runs
    /// (every op it draws is history-recorded: get/put/erase).
    pub const CHURN: Mix = Mix { read: 45, update: 45, scan: 0, remove: 10 };

    /// Draw the next op kind.
    pub fn pick(&self, rng: &mut WorkloadRng) -> OpKind {
        let total = (self.read + self.update + self.scan + self.remove).max(1) as u64;
        let r = rng.below(total) as u32;
        if r < self.read {
            OpKind::Read
        } else if r < self.read + self.update {
            OpKind::Update
        } else if r < self.read + self.update + self.scan {
            OpKind::Scan
        } else {
            OpKind::Remove
        }
    }
}

/// Which public container [`run_scenario`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerKind {
    /// `hcl::UnorderedMap`.
    UnorderedMap,
    /// `hcl::OrderedMap`.
    OrderedMap,
    /// `hcl::UnorderedSet`.
    UnorderedSet,
    /// `hcl::Queue`.
    Queue,
    /// `hcl::PriorityQueue`.
    PriorityQueue,
}

impl ContainerKind {
    /// Stable label for test messages and container names.
    pub fn label(&self) -> &'static str {
        match self {
            ContainerKind::UnorderedMap => "unordered_map",
            ContainerKind::OrderedMap => "ordered_map",
            ContainerKind::UnorderedSet => "unordered_set",
            ContainerKind::Queue => "queue",
            ContainerKind::PriorityQueue => "priority_queue",
        }
    }

    /// All five public containers.
    pub fn all() -> [ContainerKind; 5] {
        [
            ContainerKind::UnorderedMap,
            ContainerKind::OrderedMap,
            ContainerKind::UnorderedSet,
            ContainerKind::Queue,
            ContainerKind::PriorityQueue,
        ]
    }
}

/// Parameters of one workload run (identical on every rank; the rank id is
/// mixed into the RNG seed).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Base seed; rank `r` derives its stream from `seed ^ hash(r)`.
    pub seed: u64,
    /// Timed operations per rank.
    pub ops_per_rank: u64,
    /// Keys are drawn from `[0, key_space)`.
    pub key_space: u64,
    /// Value payload bytes for writes.
    pub value_bytes: usize,
    /// Key-popularity distribution.
    pub dist: KeyDist,
    /// Operation mix.
    pub mix: Mix,
    /// When > 0, updates are issued `put_async` in windows of this size so
    /// they ride the op coalescer (exercises batch-flush paths). 0 keeps
    /// every op synchronous — required for history-recorded runs.
    pub async_window: u64,
    /// Keys per scan.
    pub scan_width: u64,
}

impl WorkloadSpec {
    /// A small default: 500 ops/rank over 256 zipfian keys, YCSB-A.
    pub fn small(seed: u64) -> Self {
        WorkloadSpec {
            seed,
            ops_per_rank: 500,
            key_space: 256,
            value_bytes: 64,
            dist: KeyDist::Zipfian { theta: 0.99 },
            mix: Mix::UPDATE_HEAVY,
            async_window: 0,
            scan_width: 8,
        }
    }

    fn rank_rng(&self, rank: u32) -> WorkloadRng {
        WorkloadRng::new(self.seed ^ fmix64(rank as u64 + 1))
    }
}

/// Per-rank outcome of a workload run.
#[derive(Debug, Clone)]
pub struct WorkloadStats {
    /// Timed ops executed.
    pub ops: u64,
    /// Point reads / writes / scans / removals performed.
    pub reads: u64,
    /// Writes performed.
    pub updates: u64,
    /// Scans performed.
    pub scans: u64,
    /// Removals performed.
    pub removes: u64,
    /// Reads/removals that found nothing (misses, empty pops).
    pub empties: u64,
    /// Ops that returned an error (counted, not fatal — chaos runs degrade
    /// gracefully instead of tearing the world down).
    pub errors: u64,
    /// Wall time of the timed loop, seconds.
    pub elapsed_s: f64,
    /// Per-op latency distribution of the synchronous ops.
    pub latency: HistogramSnapshot,
}

/// Deterministic value payload for `(key, writer rank, op index)`.
pub fn value_of(key: u64, rank: u32, i: u64, bytes: usize) -> Vec<u8> {
    let tag = key ^ ((rank as u64) << 40) ^ i.wrapping_mul(0x1000_0000_1b3);
    let mut v = tag.to_le_bytes().to_vec();
    v.resize(bytes.max(8), (key as u8) ^ (i as u8));
    v
}

/// The four container-specific op implementations the generic driver
/// loops over. Each returns whether the op observed a value (for the
/// `empties` counter).
struct Ops<'f> {
    read: Box<dyn FnMut(u64) -> HclResult<bool> + 'f>,
    update: Box<dyn FnMut(u64, Vec<u8>) -> HclResult<bool> + 'f>,
    update_async: Option<Box<dyn FnMut(&[(u64, Vec<u8>)]) -> HclResult<u64> + 'f>>,
    scan: Box<dyn FnMut(u64, u64) -> HclResult<u64> + 'f>,
    remove: Box<dyn FnMut(u64) -> HclResult<bool> + 'f>,
}

/// The shared driver: prefill, barrier, timed mixed loop, barrier.
fn drive(rank: &Rank, spec: &WorkloadSpec, prefill: impl Fn(u64, Vec<u8>), mut ops: Ops<'_>) -> WorkloadStats {
    let me = rank.id();
    let ws = rank.world_size() as u64;

    // Prefill: each rank seeds its share of the key space so reads mostly
    // hit. Not timed.
    for k in 0..spec.key_space {
        if k % ws == me as u64 {
            prefill(k, value_of(k, me, u64::MAX, spec.value_bytes));
        }
    }
    rank.barrier();

    let reg = rank.telemetry().registry();
    let h_all = reg.histogram("hcl_bench_workload_op_ns");
    let h_kind = [
        reg.histogram("hcl_bench_workload_read_ns"),
        reg.histogram("hcl_bench_workload_update_ns"),
        reg.histogram("hcl_bench_workload_scan_ns"),
        reg.histogram("hcl_bench_workload_remove_ns"),
    ];
    let local = Histogram::new();
    let mut rng = spec.rank_rng(me);
    let keys = KeyGen::new(spec.key_space, spec.dist, spec.seed);
    let mut stats = WorkloadStats {
        ops: 0,
        reads: 0,
        updates: 0,
        scans: 0,
        removes: 0,
        empties: 0,
        errors: 0,
        elapsed_s: 0.0,
        latency: HistogramSnapshot::default(),
    };
    // Updates staged for the current async window (drained on window
    // boundary and at loop end).
    let mut window: Vec<(u64, Vec<u8>)> = Vec::new();

    let t0 = Instant::now();
    let mut i = 0u64;
    while i < spec.ops_per_rank {
        let kind = spec.mix.pick(&mut rng);
        let key = keys.next_key(&mut rng);
        if spec.async_window > 0 && kind == OpKind::Update {
            if let Some(ref mut ua) = ops.update_async {
                window.push((key, value_of(key, me, i, spec.value_bytes)));
                stats.updates += 1;
                stats.ops += 1;
                i += 1;
                if window.len() as u64 >= spec.async_window {
                    match ua(&window) {
                        Ok(_) => {}
                        Err(_) => stats.errors += 1,
                    }
                    window.clear();
                }
                continue;
            }
        }
        let op_t0 = Instant::now();
        let outcome: HclResult<bool> = match kind {
            OpKind::Read => {
                stats.reads += 1;
                (ops.read)(key)
            }
            OpKind::Update => {
                stats.updates += 1;
                (ops.update)(key, value_of(key, me, i, spec.value_bytes)).map(|_| true)
            }
            OpKind::Scan => {
                stats.scans += 1;
                (ops.scan)(key, spec.scan_width).map(|n| n > 0)
            }
            OpKind::Remove => {
                stats.removes += 1;
                (ops.remove)(key)
            }
        };
        let ns = op_t0.elapsed().as_nanos() as u64;
        local.record(ns);
        h_all.record(ns);
        h_kind[kind as usize].record(ns);
        match outcome {
            Ok(found) => {
                if !found {
                    stats.empties += 1;
                }
            }
            Err(HclError::OwnerDown(_)) => stats.errors += 1,
            Err(_) => stats.errors += 1,
        }
        stats.ops += 1;
        i += 1;
    }
    if !window.is_empty() {
        if let Some(ref mut ua) = ops.update_async {
            if ua(&window).is_err() {
                stats.errors += 1;
            }
        }
    }
    rank.flush_ops();
    stats.elapsed_s = t0.elapsed().as_secs_f64();
    rank.barrier();
    stats.latency = local.snapshot();
    stats
}

/// Wait on a window of async put futures; returns how many acknowledged.
fn wait_all(futs: Vec<hcl::HclFuture<bool>>) -> HclResult<u64> {
    let mut acked = 0;
    for f in futs {
        if f.wait()? {
            acked += 1;
        }
    }
    Ok(acked)
}

/// Run the mixed workload on a pre-built `UnorderedMap` handle (so callers
/// may attach a history recorder first).
pub fn run_on_unordered_map(
    rank: &Rank,
    map: &UnorderedMap<u64, Vec<u8>>,
    spec: &WorkloadSpec,
) -> WorkloadStats {
    drive(
        rank,
        spec,
        |k, v| {
            map.put(k, v).expect("prefill put");
        },
        Ops {
            read: Box::new(|k| map.get(&k).map(|v| v.is_some())),
            update: Box::new(|k, v| map.put(k, v)),
            update_async: Some(Box::new(|w| {
                let futs = w
                    .iter()
                    .map(|(k, v)| map.put_async(*k, v.clone()))
                    .collect::<HclResult<Vec<_>>>()?;
                wait_all(futs)
            })),
            scan: Box::new(|k, width| {
                let keys: Vec<u64> = (k..k + width).map(|x| x % spec.key_space).collect();
                map.get_batch(&keys).map(|vs| vs.iter().filter(|v| v.is_some()).count() as u64)
            }),
            remove: Box::new(|k| map.erase(&k).map(|v| v.is_some())),
        },
    )
}

/// Run the mixed workload on a pre-built `OrderedMap` handle.
pub fn run_on_ordered_map(
    rank: &Rank,
    map: &OrderedMap<u64, Vec<u8>>,
    spec: &WorkloadSpec,
) -> WorkloadStats {
    drive(
        rank,
        spec,
        |k, v| {
            map.put(k, v).expect("prefill put");
        },
        Ops {
            read: Box::new(|k| map.get(&k).map(|v| v.is_some())),
            update: Box::new(|k, v| map.put(k, v)),
            update_async: Some(Box::new(|w| {
                let futs = w
                    .iter()
                    .map(|(k, v)| map.put_async(*k, v.clone()))
                    .collect::<HclResult<Vec<_>>>()?;
                wait_all(futs)
            })),
            scan: Box::new(|k, width| {
                let hi = (k + width).min(spec.key_space);
                map.range(&k, &hi).map(|kvs| kvs.len() as u64)
            }),
            remove: Box::new(|k| map.erase(&k).map(|v| v.is_some())),
        },
    )
}

/// Run the mixed workload on a pre-built `UnorderedSet` handle (writes
/// drop the value payload, like the paper's set experiments).
pub fn run_on_unordered_set(
    rank: &Rank,
    set: &UnorderedSet<u64>,
    spec: &WorkloadSpec,
) -> WorkloadStats {
    drive(
        rank,
        spec,
        |k, _| {
            set.insert(k).expect("prefill insert");
        },
        Ops {
            read: Box::new(|k| set.contains(&k)),
            update: Box::new(|k, _| set.insert(k)),
            update_async: Some(Box::new(|w| {
                let futs =
                    w.iter().map(|(k, _)| set.insert_async(*k)).collect::<HclResult<Vec<_>>>()?;
                wait_all(futs)
            })),
            scan: Box::new(|k, width| {
                let mut found = 0;
                for x in k..k + width {
                    if set.contains(&(x % spec.key_space))? {
                        found += 1;
                    }
                }
                Ok(found)
            }),
            remove: Box::new(|k| set.remove(&k)),
        },
    )
}

/// Run the mixed workload on a pre-built `Queue` handle: updates push,
/// removals pop, reads probe `len`, scans pop in bulk.
pub fn run_on_queue(rank: &Rank, q: &Queue<Vec<u8>>, spec: &WorkloadSpec) -> WorkloadStats {
    drive(
        rank,
        spec,
        |_, v| {
            q.push(v).expect("prefill push");
        },
        Ops {
            read: Box::new(|_| q.len().map(|n| n > 0)),
            update: Box::new(|_, v| q.push(v)),
            update_async: Some(Box::new(|w| {
                let futs =
                    w.iter().map(|(_, v)| q.push_async(v.clone())).collect::<HclResult<Vec<_>>>()?;
                wait_all(futs)
            })),
            scan: Box::new(|_, width| q.pop_bulk(width).map(|vs| vs.len() as u64)),
            remove: Box::new(|_| q.pop().map(|v| v.is_some())),
        },
    )
}

/// Run the mixed workload on a pre-built `PriorityQueue` handle.
pub fn run_on_priority_queue(
    rank: &Rank,
    pq: &PriorityQueue<Vec<u8>>,
    spec: &WorkloadSpec,
) -> WorkloadStats {
    drive(
        rank,
        spec,
        |_, v| {
            pq.push(v).expect("prefill push");
        },
        Ops {
            read: Box::new(|_| pq.peek().map(|v| v.is_some())),
            update: Box::new(|_, v| pq.push(v)),
            update_async: Some(Box::new(|w| {
                let futs = w
                    .iter()
                    .map(|(_, v)| pq.push_async(v.clone()))
                    .collect::<HclResult<Vec<_>>>()?;
                wait_all(futs)
            })),
            scan: Box::new(|_, width| pq.pop_bulk(width).map(|vs| vs.len() as u64)),
            remove: Box::new(|_| pq.pop().map(|v| v.is_some())),
        },
    )
}

/// Construct the container named by `kind` (hybrid bypass off, so every
/// remote op is a real dispatch-engine invocation) and run the workload
/// on it. `name` must be unique per world.
pub fn run_scenario(
    rank: &Rank,
    kind: ContainerKind,
    name: &str,
    spec: &WorkloadSpec,
) -> WorkloadStats {
    let no_hybrid = UnorderedMapConfig { hybrid: false, ..UnorderedMapConfig::default() };
    let queue_cfg = QueueConfig { owner: 0, hybrid: false, ..Default::default() };
    match kind {
        ContainerKind::UnorderedMap => {
            let map: UnorderedMap<u64, Vec<u8>> = UnorderedMap::with_config(rank, name, no_hybrid);
            run_on_unordered_map(rank, &map, spec)
        }
        ContainerKind::OrderedMap => {
            let map: OrderedMap<u64, Vec<u8>> = OrderedMap::with_config(
                rank,
                name,
                hcl::ordered::OrderedConfig { hybrid: false, ..Default::default() },
            );
            run_on_ordered_map(rank, &map, spec)
        }
        ContainerKind::UnorderedSet => {
            let set: UnorderedSet<u64> = UnorderedSet::with_config(rank, name, no_hybrid);
            run_on_unordered_set(rank, &set, spec)
        }
        ContainerKind::Queue => {
            let q: Queue<Vec<u8>> = Queue::with_config(rank, name, queue_cfg);
            run_on_queue(rank, &q, spec)
        }
        ContainerKind::PriorityQueue => {
            let pq: PriorityQueue<Vec<u8>> = PriorityQueue::with_config(rank, name, queue_cfg);
            run_on_priority_queue(rank, &pq, spec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_freqs(n: u64, dist: KeyDist, seed: u64, draws: u64) -> Vec<u64> {
        let gen = KeyGen::new(n, dist, seed);
        let mut rng = WorkloadRng::new(seed);
        let mut freq = vec![0u64; n as usize];
        for _ in 0..draws {
            freq[gen.next_key(&mut rng) as usize] += 1;
        }
        freq
    }

    #[test]
    fn zipfian_sequence_is_deterministic_per_seed() {
        let gen = KeyGen::new(1 << 10, KeyDist::Zipfian { theta: 0.99 }, 42);
        let draw = |seed: u64| {
            let mut rng = WorkloadRng::new(seed);
            (0..256).map(|_| gen.next_key(&mut rng)).collect::<Vec<u64>>()
        };
        assert_eq!(draw(7), draw(7), "same seed must replay the identical key stream");
        assert_ne!(draw(7), draw(8), "different seeds must diverge");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        // Replayable under HCL_PROPTEST_SEED: the case seed drives both the
        // generator salt and the draw stream, so a reported failure seed
        // reproduces the exact key sequence.
        #[test]
        fn zipfian_deterministic_under_proptest_seed(n in 2u64..5000, raw_theta in 1u64..99) {
            let seed = proptest::current_case_seed().expect("inside proptest");
            let theta = raw_theta as f64 / 100.0;
            let gen = KeyGen::new(n, KeyDist::Zipfian { theta }, seed);
            let stream = |s: u64| {
                let mut rng = WorkloadRng::new(s);
                (0..64).map(|_| gen.next_key(&mut rng)).collect::<Vec<u64>>()
            };
            let a = stream(seed);
            prop_assert_eq!(&a, &stream(seed));
            for k in &a {
                prop_assert!(*k < n, "key {} out of range {}", k, n);
            }
        }
    }

    #[test]
    fn zipfian_skew_matches_theta() {
        // The hottest key's measured frequency must be near the analytic
        // 1/zeta(n, theta), well away from uniform 1/n.
        let n = 1_000u64;
        let draws = 200_000u64;
        for theta in [0.5, 0.99] {
            let dist = KeyDist::Zipfian { theta };
            let gen = KeyGen::new(n, dist, 9);
            let freq = sample_freqs(n, dist, 9, draws);
            let hottest = *freq.iter().max().unwrap() as f64 / draws as f64;
            let expect = gen.hottest_p();
            let rel = (hottest - expect).abs() / expect;
            assert!(
                rel < 0.25,
                "theta {theta}: hottest freq {hottest:.4} vs analytic {expect:.4} (rel {rel:.2})"
            );
            assert!(
                hottest > 5.0 / n as f64,
                "theta {theta}: skew indistinguishable from uniform ({hottest:.5})"
            );
        }
    }

    #[test]
    fn scatter_is_a_permutation() {
        for n in [3u64, 7, 256, 1000, 4097] {
            let gen = KeyGen::new(n, KeyDist::Zipfian { theta: 0.5 }, 0xABCD);
            let image: std::collections::BTreeSet<u64> = (0..n).map(|r| gen.scatter(r)).collect();
            assert_eq!(image.len() as u64, n, "scatter must be bijective for n={n}");
            assert!(image.iter().all(|&k| k < n));
        }
    }

    #[test]
    fn uniform_is_flat() {
        let n = 64u64;
        let draws = 64_000u64;
        let freq = sample_freqs(n, KeyDist::Uniform, 3, draws);
        let hottest = *freq.iter().max().unwrap() as f64 / draws as f64;
        assert!(hottest < 3.0 / n as f64, "uniform hottest {hottest:.4} too hot");
        assert!(freq.iter().all(|&f| f > 0), "uniform must cover the key space");
    }

    #[test]
    fn mix_weights_are_respected() {
        let mut rng = WorkloadRng::new(5);
        let mut counts = [0u64; 4];
        for _ in 0..100_000 {
            counts[Mix::SCAN_HEAVY.pick(&mut rng) as usize] += 1;
        }
        let frac = |i: usize| counts[i] as f64 / 100_000.0;
        assert!((frac(0) - 0.45).abs() < 0.02, "read {}", frac(0));
        assert!((frac(1) - 0.10).abs() < 0.02, "update {}", frac(1));
        assert!((frac(2) - 0.40).abs() < 0.02, "scan {}", frac(2));
        assert!((frac(3) - 0.05).abs() < 0.02, "remove {}", frac(3));
    }
}
