//! Op-meter semantics: what one dispatched op does to its rank's core
//! metric families, to the rank's flight ring, and to its handle's Table I
//! counters.
//!
//! One scripted sequence per container family runs on a telemetry-on 2x1
//! world from rank 0 (owner 0 = hybrid bypass, owner 1 = remote): a
//! local-bypass op, a remote sync op, an async op, bulk ops, then an
//! owner-down rejection. After every op the script asserts the exact delta
//! of every `hcl_core_ops_*` counter and of the sample count of every
//! `hcl_core_*_ns` latency histogram — a completed op records its locality
//! and its op, nothing else — plus the flight events the op appended and its
//! `costs()` delta. A metric that moved and is not expected fails the step
//! as surely as an expected one that did not move. After the script, the
//! latency histograms the rank registered are exactly the two locality
//! views and one per distinct op completed, so no derived view can come
//! back unnoticed.

use std::collections::{BTreeMap, BTreeSet};

use hcl::queue::QueueConfig;
use hcl::{CostSnapshot, HclError, Queue, UnorderedMap};
use std::time::Duration;

use hcl_rpc::coalesce::CoalesceConfig;
use hcl_runtime::{Rank, World, WorldConfig};
use hcl_telemetry::{EventKind, Outcome, TelemetryConfig};

/// Two nodes, one rank each. The coalescer is pinned so neither the size
/// trigger nor the age flusher can send a staged async op: only awaiting it
/// may, so no background batch flush can land in the ring mid-script.
fn two_node_world(telemetry: TelemetryConfig) -> WorldConfig {
    WorldConfig {
        nodes: 2,
        ranks_per_node: 1,
        coalesce: CoalesceConfig {
            max_ops: 64,
            adaptive: false,
            max_delay: Duration::from_secs(30),
            ..CoalesceConfig::default()
        },
        telemetry,
        ..WorldConfig::small()
    }
}

/// Every `hcl_core_*_ns` latency histogram `rank` registered, with its
/// sample count.
fn latency_views(rank: &Rank) -> BTreeMap<String, u64> {
    let snap = rank.telemetry().snapshot();
    let views = snap.histograms.into_iter().filter(|(k, _)| k.starts_with("hcl_core_"));
    views.filter(|(k, _)| k.ends_with("_ns")).map(|(k, h)| (k, h.count)).collect()
}

/// Every core meter metric of `rank`: `hcl_core_ops_*` counter values and
/// the sample counts of its latency views.
fn core_metrics(rank: &Rank) -> BTreeMap<String, u64> {
    let snap = rank.telemetry().snapshot();
    let counters = snap.counters.into_iter().filter(|(k, _)| k.starts_with("hcl_core_ops_"));
    counters.chain(latency_views(rank)).collect()
}

/// The per-op histogram of descriptor `name`.
fn op_view(name: Op) -> String {
    format!("hcl_core_op_{}_ns", name.replace('.', "_"))
}

/// The names of the latency views `rank` registered.
fn view_names(rank: &Rank) -> BTreeSet<String> {
    latency_views(rank).into_keys().collect()
}

/// `views` are the two locality views plus one per op in `completed`.
/// Asserted once the world has ended, so a mismatch cannot strand the other
/// rank at a barrier.
fn assert_views_are(views: &BTreeSet<String>, completed: &[Op]) {
    let locality = ["local", "remote"].map(|at| format!("hcl_core_op_latency_{at}_ns"));
    let per_op = completed.iter().map(|&op| op_view(op));
    let want: BTreeSet<String> = locality.into_iter().chain(per_op).collect();
    assert_eq!(views, &want, "registered latency views");
}

/// One flight event as the script pins it: kind, op name, element count,
/// outcome.
type Ev = (EventKind, &'static str, u64, Outcome);

fn ring(rank: &Rank) -> Vec<Ev> {
    rank.telemetry().flight().events().iter().map(|e| (e.kind, e.op, e.n, e.outcome)).collect()
}

/// A descriptor as the meter labels it: its name.
type Op = &'static str;

const UMAP_PUT: Op = "umap.put";
const UMAP_GET: Op = "umap.get";
const QUEUE_PUSH: Op = "queue.push";
const QUEUE_POP: Op = "queue.pop";
const QUEUE_PUSH_BULK: Op = "queue.push_bulk";

/// What one step is expected to leave in the meter's views.
#[derive(Clone, Copy)]
enum Want {
    /// `n` ops served by the bypass: completed ok on the local views, no
    /// flight event.
    Local(Op, u64),
    /// One synchronously awaited remote op over `n` elements: issued,
    /// completed ok on the remote views, an issue and a completion event.
    Remote(Op, u64),
    /// Issued and nothing more: an async op (no event) or a remote bulk
    /// group of `n` (one issue event; its reply is awaited outside).
    Issued(Op, Option<u64>),
    /// Rejected at the gate: the owner-down outcome and event only.
    OwnerDown(Op),
    /// No core metric; the coalescer demand-flushed one staged op as a
    /// batch of its own.
    Flushed,
    /// Nothing at all.
    Nothing,
}

impl Want {
    fn metrics(self) -> BTreeMap<String, u64> {
        let (counter, done) = match self {
            Want::Local(op, n) => ("hcl_core_ops_local_bypass", Some((op, "local", n))),
            Want::Remote(op, _) => ("hcl_core_ops_issued", Some((op, "remote", 1))),
            Want::Issued(..) => ("hcl_core_ops_issued", None),
            Want::OwnerDown(_) => ("hcl_core_ops_owner_down", None),
            Want::Flushed | Want::Nothing => return BTreeMap::new(),
        };
        let mut m = BTreeMap::from([(counter.to_string(), done.map_or(1, |(.., n)| n))]);
        if let Some((op, at, n)) = done {
            m.extend([
                ("hcl_core_ops_ok".to_string(), n),
                (format!("hcl_core_op_latency_{at}_ns"), n),
                (op_view(op), n),
            ]);
        }
        m
    }

    fn events(self) -> Vec<Ev> {
        match self {
            Want::Remote(name, n) => {
                vec![
                    (EventKind::Issue, name, n, Outcome::Pending),
                    (EventKind::Complete, name, n, Outcome::Ok),
                ]
            }
            Want::Issued(name, Some(n)) => {
                vec![(EventKind::Issue, name, n, Outcome::Pending)]
            }
            Want::OwnerDown(name) => {
                vec![(EventKind::OwnerDown, name, 1, Outcome::OwnerDown)]
            }
            Want::Flushed => vec![(EventKind::BatchFlush, "rpc.batch.demand", 1, Outcome::Pending)],
            _ => vec![],
        }
    }
}

/// Run `op` and assert exactly what it did: the non-zero core metric
/// deltas, the flight events appended, and the `costs()` delta
/// `(F, L, R, W, fb, fu)`.
fn step(
    rank: &Rank,
    costs: impl Fn() -> CostSnapshot,
    op: impl FnOnce(),
    want: Want,
    (f, l, r, w, fb, fu): (u64, u64, u64, u64, u64, u64),
) {
    let (m0, r0, c0) = (core_metrics(rank), ring(rank).len(), costs());
    op();
    let moved: BTreeMap<String, u64> = core_metrics(rank)
        .into_iter()
        .map(|(k, v)| {
            let d = v - m0.get(&k).copied().unwrap_or(0);
            (k, d)
        })
        .filter(|(_, d)| *d > 0)
        .collect();
    assert_eq!(moved, want.metrics(), "core metric deltas");
    assert_eq!(ring(rank)[r0..], want.events(), "flight events appended");
    assert_eq!(costs().since(&c0), CostSnapshot { f, l, r, w, fb, fu }, "costs() delta");
}

/// The keys owned by `owner` under the map's first-level hash.
fn keys_owned_by<'m>(
    map: &'m UnorderedMap<'_, u64, u64>,
    owner: u32,
) -> impl Iterator<Item = u64> + 'm {
    (0..).filter(move |k| map.server_of(map.partition_of(k)) == owner)
}

#[test]
fn unordered_map_ops_meter_exactly() {
    let views = World::run(two_node_world(TelemetryConfig::default()), |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "meter-umap");
        rank.barrier();
        let mut views = BTreeSet::new();
        if rank.id() == 0 {
            let mut local = keys_owned_by(&map, 0);
            let mut remote = keys_owned_by(&map, 1);
            let (lk, rk) = (local.next().unwrap(), remote.next().unwrap());
            let costs = || map.costs();

            let put = || assert!(map.put(lk, 1).unwrap());
            step(rank, costs, put, Want::Local(UMAP_PUT, 1), (0, 1, 0, 1, 0, 0));
            let get = || assert_eq!(map.get(&rk).unwrap(), None);
            step(rank, costs, get, Want::Remote(UMAP_GET, 1), (1, 0, 0, 0, 0, 1));

            // Async: counted at issue as a batched op; awaiting it flushes
            // its batch and adds no cost.
            let mut fut = None;
            let put_async = || fut = Some(map.put_async(rk, 2).unwrap());
            step(rank, costs, put_async, Want::Issued(UMAP_PUT, None), (1, 0, 0, 0, 1, 0));
            let wait = || assert!(fut.unwrap().wait().unwrap());
            step(rank, costs, wait, Want::Flushed, (0, 0, 0, 0, 0, 0));

            // Remote bulk: one aggregated message of three ops.
            let batch: Vec<(u64, u64)> = remote.by_ref().take(3).map(|k| (k, k)).collect();
            let put_batch = || assert_eq!(map.put_batch(batch).unwrap(), 3);
            step(rank, costs, put_batch, Want::Issued(UMAP_PUT, Some(3)), (1, 0, 0, 0, 3, 0));

            // Local bulk: each element is its own bypass.
            let batch: Vec<(u64, u64)> = local.by_ref().take(2).map(|k| (k, k)).collect();
            let put_batch = || assert_eq!(map.put_batch(batch).unwrap(), 2);
            step(rank, costs, put_batch, Want::Local(UMAP_PUT, 2), (0, 2, 0, 2, 0, 0));

            views = view_names(rank);
        }
        rank.barrier();
        views
    });
    assert_views_are(&views[0], &[UMAP_PUT, UMAP_GET]);
}

#[test]
fn queue_ops_meter_exactly() {
    let views = World::run(two_node_world(TelemetryConfig::default()), |rank| {
        let at = |owner| QueueConfig { owner, ..QueueConfig::default() };
        let q0: Queue<u64> = Queue::with_config(rank, "meter-q0", at(0));
        let q1: Queue<u64> = Queue::with_config(rank, "meter-q1", at(1));
        rank.barrier();
        let mut views = BTreeSet::new();
        if rank.id() == 0 {
            let push = || assert!(q0.push(7).unwrap());
            step(rank, || q0.costs(), push, Want::Local(QUEUE_PUSH, 1), (0, 1, 0, 1, 0, 0));

            let costs = || q1.costs();
            let pop = || assert_eq!(q1.pop().unwrap(), None);
            step(rank, costs, pop, Want::Remote(QUEUE_POP, 1), (1, 0, 0, 0, 0, 1));

            let mut fut = None;
            let push_async = || fut = Some(q1.push_async(5).unwrap());
            step(rank, costs, push_async, Want::Issued(QUEUE_PUSH, None), (1, 0, 0, 0, 1, 0));
            let wait = || assert!(fut.unwrap().wait().unwrap());
            step(rank, costs, wait, Want::Flushed, (0, 0, 0, 0, 0, 0));

            // A single-message bulk op is synchronous: issued, completed and
            // timed like any sync op, under the write-scaled signature.
            let bulk = || assert_eq!(q1.push_bulk(vec![1, 2, 3]).unwrap(), 3);
            step(rank, costs, bulk, Want::Remote(QUEUE_PUSH_BULK, 3), (1, 0, 0, 0, 1, 0));

            // Owner marked down: the gate's outcome instead of issue and
            // completion, no cost, and the ring is dumped.
            q1.mark_down(1);
            let pop = || assert_eq!(q1.pop(), Err(HclError::OwnerDown(1)));
            step(rank, costs, pop, Want::OwnerDown(QUEUE_POP), (0, 0, 0, 0, 0, 0));
            let dump = rank.telemetry().flight().last_dump().expect("owner-down dumps the ring");
            assert!(dump.contains("queue.pop rejected: owner 1 marked down"), "{dump}");
            q1.mark_up(1);

            views = view_names(rank);
        }
        rank.barrier();
        views
    });
    assert_views_are(&views[0], &[QUEUE_PUSH, QUEUE_POP, QUEUE_PUSH_BULK]);
}

/// Telemetry off: the Table I view still counts every term, and nothing
/// reaches the registry or the ring.
#[test]
fn telemetry_off_meters_costs_only() {
    World::run(two_node_world(TelemetryConfig::disabled()), |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "meter-off");
        rank.barrier();
        if rank.id() == 0 {
            let lk = keys_owned_by(&map, 0).next().unwrap();
            let rk = keys_owned_by(&map, 1).next().unwrap();
            let costs = || map.costs();
            let put = || assert!(map.put(lk, 1).unwrap());
            step(rank, costs, put, Want::Nothing, (0, 1, 0, 1, 0, 0));
            let get = || assert_eq!(map.get(&rk).unwrap(), None);
            step(rank, costs, get, Want::Nothing, (1, 0, 0, 0, 0, 1));
            assert!(core_metrics(rank).is_empty());
        }
        rank.barrier();
    });
}
