//! Each layer's public functions, callable in isolation on a workload's own
//! inputs. The per-layer probes are medians of these calls; the traced run
//! wraps the same calls in spans.
//!
//! A replayer lives inside a 2-rank world: rank 0 owns it, rank 1 runs
//! [`partner_loop`] so the fabric ping-pong has someone to answer.

use std::cell::Cell;
use std::path::Path;
use std::time::Duration;

use hcl_containers::{CuckooMap, LockFreeQueue, SkipListMap, SkipListPq};
use hcl_databox::DataBox;
use hcl_fabric::{EpId, RegionKey};
use hcl_mem::Segment;
use hcl_persist::{PersistMetrics, SyncPolicy, Wal, WalRecord, DEFAULT_SEGMENT_BYTES};
use hcl_rpc::FnId;
use hcl_runtime::{Rank, WorldShared};

use crate::gen::{value_of, Kind, Op};
use crate::pin::{pin, Side};

/// Ping-pong endpoints, outside the rank id range the RPC servers listen on.
const PING: EpId = EpId {
    node: 0,
    rank: 1000,
};
const PONG: EpId = EpId {
    node: 1,
    rank: 1001,
};
const PONG_REGION: RegionKey = RegionKey {
    ep: PONG,
    region: 1,
};

/// Register the echo handlers and ping-pong endpoints on a fresh world.
/// Call once, before any rank passes its first barrier.
pub fn install(world: &WorldShared) -> (FnId, FnId) {
    let base = world.alloc_fn_ids(2);
    let reply = value_of(0, 0);
    // No-op handlers with the containers' argument and reply types, so an
    // echo pays the real codec and payload sizes and nothing else.
    world
        .registry()
        .bind_typed(base, |_, _, _: (u64, Vec<u8>)| true);
    world
        .registry()
        .bind_typed(base + 1, move |_, _, _: u64| Some(reply.clone()));
    let fabric = world.fabric();
    fabric
        .register_endpoint(PING)
        .expect("register ping endpoint");
    fabric
        .register_endpoint(PONG)
        .expect("register pong endpoint");
    fabric
        .register_region(PONG_REGION, Segment::new(64))
        .expect("register pong region");
    (base, base + 1)
}

/// Rank 1's side of the ping-pong: answer each message by publishing its
/// sequence number in the pong region; an empty message ends the loop.
pub fn partner_loop(world: &WorldShared) {
    // Across a CPU boundary from the client, like the NIC worker an RPC wakes.
    pin(Side::Server);
    let fabric = world.fabric();
    loop {
        match fabric
            .recv(PONG, Some(Duration::from_millis(20)))
            .expect("pong recv")
        {
            None => continue,
            Some((_, msg)) if msg.is_empty() => return,
            Some((_, msg)) => {
                let seq = u64::from_le_bytes(msg[..8].try_into().expect("8-byte ping"));
                fabric
                    .write_u64(PONG, PONG_REGION, 0, seq)
                    .expect("pong write");
            }
        }
    }
}

pub struct Replayer<'a> {
    rank: &'a Rank,
    server: EpId,
    fn_write: FnId,
    fn_read: FnId,
    ping_seq: Cell<u64>,
    cuckoo: CuckooMap<u64, Vec<u8>>,
    skiplist: SkipListMap<u64, Vec<u8>>,
    queue: LockFreeQueue<Vec<u8>>,
    pq: SkipListPq<(u64, Vec<u8>)>,
    wal_strict: Wal,
    wal_nosync: Wal,
}

impl<'a> Replayer<'a> {
    /// `fns` is what [`install`] returned; the logs [`Replayer::persist`]
    /// appends to go under `dir`.
    pub fn new(rank: &'a Rank, fns: (FnId, FnId), dir: &Path) -> Self {
        let open = |stem: &str, policy| {
            Wal::open(
                dir.join(stem),
                policy,
                DEFAULT_SEGMENT_BYTES,
                PersistMetrics::detached(),
                |_| {},
            )
            .expect("open replay wal")
            .0
        };
        Replayer {
            rank,
            server: rank.world().config().ep_of(1),
            fn_write: fns.0,
            fn_read: fns.1,
            ping_seq: Cell::new(0),
            cuckoo: CuckooMap::new(),
            skiplist: SkipListMap::new(),
            queue: LockFreeQueue::new(),
            pq: SkipListPq::new(),
            wal_strict: open("replay-strict", SyncPolicy::Strict),
            wal_nosync: open("replay-nosync", SyncPolicy::Manual),
        }
    }

    /// Tell rank 1 to leave [`partner_loop`].
    pub fn stop_partner(&self) {
        self.rank
            .world()
            .fabric()
            .send(PING, PONG, Vec::new().into())
            .expect("stop partner");
    }

    /// One synchronous echo per op: the RPC layer's whole round trip with a
    /// handler that does nothing.
    pub fn rpc_sync(&self, items: Vec<Item>) {
        for item in items {
            if item.kind.is_write() {
                let _: bool = self
                    .rank
                    .invoke(self.server, self.fn_write, &(item.key, item.value))
                    .expect("echo write");
            } else {
                let _: Option<Vec<u8>> = self
                    .rank
                    .invoke(self.server, self.fn_read, &item.key)
                    .expect("echo read");
            }
        }
    }

    /// Pre-encoded calls for [`Replayer::rpc_batch`].
    pub fn encode_calls(&self, items: Vec<Item>) -> Vec<(FnId, Vec<u8>)> {
        items
            .into_iter()
            .map(|item| {
                if item.kind.is_write() {
                    (self.fn_write, (item.key, item.value).to_bytes().to_vec())
                } else {
                    (self.fn_read, item.key.to_bytes().to_vec())
                }
            })
            .collect()
    }

    /// All calls in one batch message, as the coalescer sends them.
    pub fn rpc_batch(&self, calls: &[(FnId, Vec<u8>)]) {
        let replies = self
            .rank
            .client()
            .invoke_batch(self.server, calls)
            .and_then(|f| f.wait())
            .expect("batch echo");
        assert_eq!(replies.len(), calls.len(), "batch echo lost replies");
    }

    /// One fabric round trip the way an RPC uses it: two-sided send to the
    /// peer, which publishes a word the sender then polls for one-sided.
    pub fn pingpong(&self) {
        let fabric = self.rank.world().fabric();
        let seq = self.ping_seq.get() + 1;
        self.ping_seq.set(seq);
        fabric
            .send(PING, PONG, seq.to_le_bytes().to_vec().into())
            .expect("ping send");
        while fabric.read_u64(PING, PONG_REGION, 0).expect("ping poll") != seq {
            std::hint::spin_loop();
        }
    }

    /// Same-thread send + receive: the fabric's cost without a wake-up.
    pub fn send_recv_inline(&self) {
        let fabric = self.rank.world().fabric();
        fabric
            .send(PONG, PING, vec![0u8; 8].into())
            .expect("inline send");
        fabric
            .recv(PING, None)
            .expect("inline recv")
            .expect("inline message");
    }

    /// Encode and decode what the wire carries for each op: the argument of
    /// a write, the reply of a read.
    pub fn codec(&self, items: Vec<Item>) {
        for item in items {
            if item.kind.is_write() {
                let bytes = (item.key, item.value).to_bytes();
                std::hint::black_box(<(u64, Vec<u8>)>::from_bytes(&bytes).expect("decode"));
            } else {
                let bytes = Some(item.value).to_bytes();
                std::hint::black_box(<Option<Vec<u8>>>::from_bytes(&bytes).expect("decode"));
            }
        }
    }

    /// Each op on the local structure its container wraps.
    pub fn containers(&self, items: Vec<Item>) {
        for Item {
            kind,
            key,
            prio,
            value,
        } in items
        {
            match kind {
                Kind::Put => drop(self.cuckoo.insert(key, value)),
                Kind::Get => drop(std::hint::black_box(self.cuckoo.get(&key))),
                Kind::OmPut => drop(self.skiplist.insert(key, value)),
                Kind::OmGet => drop(std::hint::black_box(self.skiplist.get(&key))),
                Kind::QPush => self.queue.push(value),
                Kind::QPop => drop(std::hint::black_box(self.queue.pop())),
                Kind::PqPush => self.pq.push((prio, value)),
                Kind::PqPop => drop(std::hint::black_box(self.pq.pop())),
            }
        }
    }

    /// The log records the containers would write for the mutating ops.
    pub fn encode_records(items: Vec<Item>) -> Vec<Vec<u8>> {
        items
            .into_iter()
            .filter(|item| item.kind.is_write())
            .map(|item| (0u8, item.key, Some(item.value)).to_bytes().to_vec())
            .collect()
    }

    /// One log append per record: fsynced each (`Strict`) or left in the
    /// page cache (`Manual`).
    pub fn persist(&self, records: &[Vec<u8>], strict: bool) {
        let wal = if strict {
            &self.wal_strict
        } else {
            &self.wal_nosync
        };
        for payload in records {
            wal.append(WalRecord::anonymous(0, payload))
                .expect("replay append");
        }
    }
}

/// One op with its arguments materialised, so a replay times the layer and
/// not the generator.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: Kind,
    pub key: u64,
    pub prio: u64,
    pub value: Vec<u8>,
}

pub fn items(ops: &[Op], keys: &[u64]) -> Vec<Item> {
    ops.iter()
        .map(|op| {
            let key = keys[op.arg() % keys.len()];
            Item {
                kind: op.kind(),
                key,
                prio: op.arg() as u64,
                value: value_of(key, 0),
            }
        })
        .collect()
}
