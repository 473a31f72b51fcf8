//! The request envelope, pinned byte for byte.
//!
//! For every flag combination a request can carry — plain, epoch-tagged
//! (admitted and rejected), callback chains and batches — one raw request
//! goes to a real server over the memory fabric, and the exact bytes
//! published into the caller's response slot are asserted, spelled out
//! field by field (`[status u8][body]`). Any change to the framing order
//! fails here, whatever the client-side decoders do.

mod support;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcl_fabric::memory::MemoryFabric;
use hcl_fabric::{EpId, Fabric};
use hcl_rpc::server::{RpcServer, ServerConfig};
use hcl_rpc::{
    encode_batch, resp_key, slot_offset, FnId, RequestHeader, RpcRegistry, FLAG_BATCH,
    FLAG_EPOCH as E, FLAG_IDEMPOTENT, SLOTS_PER_CLIENT, SLOT_HDR,
};

const SLOT_CAP: usize = 256;
/// `x + 1` behind an epoch gate: epoch `EPOCH` admits it.
const GUARDED: FnId = 10;
/// `x * 2`, no epoch gate.
const DOUBLE: FnId = 11;
/// Bound nowhere.
const UNBOUND: FnId = 99;
const EPOCH: u64 = 5;

struct Rig {
    fabric: Arc<dyn Fabric>,
    server: RpcServer,
    client: EpId,
    guarded_runs: Arc<AtomicU64>,
}

impl Rig {
    fn new() -> Rig {
        let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
        let client = EpId::new(0, 1);
        fabric.register_endpoint(client).unwrap();
        let registry = Arc::new(RpcRegistry::new());
        let guarded_runs = Arc::new(AtomicU64::new(0));
        let runs = Arc::clone(&guarded_runs);
        support::bind_guarded(&registry, GUARDED, EPOCH, move |x| {
            runs.fetch_add(1, Ordering::Relaxed);
            x + 1
        });
        registry.bind_typed(DOUBLE, |_, _, x: u64| x * 2);
        let cfg =
            ServerConfig { max_clients: 4, slot_cap: SLOT_CAP, nic_cores: 1, ..Default::default() };
        let server = RpcServer::start(EpId::new(0, 0), Arc::clone(&fabric), registry, cfg);
        Rig { fabric, server, client, guarded_runs }
    }

    /// Clear the slot of `req_id`, send it raw, and return the bytes the
    /// server published for it.
    fn publish(&self, req_id: u64, flags: u8, chain: &[FnId], args: &[u8]) -> Vec<u8> {
        let slot = (req_id % SLOTS_PER_CLIENT) as u32;
        let key = resp_key(self.server.endpoint());
        let off = slot_offset(self.client.rank, slot, SLOT_CAP);
        self.fabric.write_u64(self.client, key, off, 0).unwrap();
        let hdr = RequestHeader { req_id, slot, flags, chain: chain.to_vec() };
        self.fabric.send(self.client, self.server.endpoint(), hdr.encode(args)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.fabric.read_u64(self.client, key, off).unwrap() != req_id {
            assert!(Instant::now() < deadline, "request {req_id} was never answered");
            std::thread::sleep(Duration::from_micros(200));
        }
        let len = self.fabric.read_u64(self.client, key, off + 8).unwrap() as usize;
        assert!(len <= SLOT_CAP, "every envelope case fits inline");
        self.fabric.read(self.client, key, off + SLOT_HDR, len).unwrap()
    }
}

fn u64le(x: u64) -> Vec<u8> {
    x.to_le_bytes().to_vec()
}

/// Concatenate byte fields.
fn cat(fields: &[&[u8]]) -> Vec<u8> {
    fields.concat()
}

/// Args behind an 8-byte epoch tag.
fn tagged(epoch: u64, x: u64) -> Vec<u8> {
    cat(&[&u64le(epoch), &u64le(x)])
}

#[test]
fn single_calls_and_chains() {
    let rig = Rig::new();
    let e = &u64le(EPOCH);
    let cases: Vec<(u8, &[FnId], Vec<u8>, Vec<u8>)> = vec![
        // Plain: the body alone; an unbound function answers empty.
        (0, &[GUARDED], u64le(41), u64le(42)),
        (0, &[DOUBLE], u64le(21), u64le(42)),
        (0, &[UNBOUND], u64le(1), vec![]),
        // Epoch-tagged: status 0 then the body, or status 1 then the current
        // epoch with the handler skipped; the tag never reaches the handler,
        // and a function without an epoch gate admits any tag.
        (E, &[GUARDED], tagged(EPOCH, 41), cat(&[&[0], &u64le(42)])),
        (E, &[GUARDED], tagged(EPOCH - 1, 41), cat(&[&[1], e])),
        (E, &[DOUBLE], tagged(999, 5), cat(&[&[0], &u64le(10)])),
        // Chains, ((3 * 2) + 1) * 2: the first link gates, an unbound link
        // empties the body, no links echo the args.
        (0, &[DOUBLE, GUARDED, DOUBLE], u64le(3), u64le(14)),
        (0, &[DOUBLE, DOUBLE], u64le(3), u64le(12)),
        (E, &[GUARDED, DOUBLE], tagged(EPOCH, 3), cat(&[&[0], &u64le(8)])),
        (0, &[DOUBLE, GUARDED], u64le(3), u64le(7)),
        (0, &[DOUBLE, UNBOUND, DOUBLE], u64le(3), vec![]),
        (E, &[DOUBLE, UNBOUND], tagged(1, 3), vec![0]),
        (0, &[], b"echo".to_vec(), b"echo".to_vec()),
    ];
    for (i, (flags, chain, args, want)) in cases.iter().enumerate() {
        let got = rig.publish(i as u64 + 1, *flags, chain, args);
        assert_eq!(&got, want, "case {i}: flags {flags:#x}, chain {chain:?}");
    }
    // Every case naming GUARDED ran it, except the rejection.
    assert_eq!(rig.guarded_runs.load(Ordering::Relaxed), 5);
    assert_eq!(rig.server.stats().wrong_epoch, 1);
}

#[test]
fn batches_ignore_the_single_call_flags() {
    let rig = Rig::new();
    let calls = vec![(GUARDED, u64le(1)), (DOUBLE, u64le(2)), (UNBOUND, vec![9])];
    let (len8, len0) = (8u32.to_le_bytes(), 0u32.to_le_bytes());
    let want = cat(&[&3u32.to_le_bytes(), &len8, &u64le(2), &len8, &u64le(4), &len0]);
    assert_eq!(rig.publish(1, FLAG_BATCH, &[], &encode_batch(&calls)), want);
    assert_eq!(rig.publish(2, FLAG_BATCH | E, &[], &encode_batch(&calls)), want);
    assert_eq!(rig.publish(3, FLAG_BATCH, &[], &encode_batch(&[])), len0);
}

#[test]
fn dedup_republishes_the_framed_bytes_verbatim() {
    let rig = Rig::new();
    let flags = FLAG_IDEMPOTENT | E;
    let first = rig.publish(1, flags, &[GUARDED], &tagged(EPOCH, 41));
    assert_eq!(first, cat(&[&[0], &u64le(42)]));
    // The retransmission of the same request id is answered from the cache.
    assert_eq!(rig.publish(1, flags, &[GUARDED], &tagged(EPOCH, 41)), first);
    assert_eq!(rig.guarded_runs.load(Ordering::Relaxed), 1, "a duplicate never re-executes");
    assert_eq!(rig.server.stats().deduped, 1);
}
