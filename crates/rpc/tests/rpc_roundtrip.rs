//! End-to-end RoR tests over both fabric providers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcl_fabric::memory::MemoryFabric;
use hcl_fabric::tcp::TcpFabric;
use hcl_fabric::{EpId, Fabric};
use hcl_rpc::client::RpcClient;
use hcl_rpc::server::{RpcServer, ServerConfig};
use hcl_rpc::{
    resp_key, slot_offset, RequestHeader, RpcRegistry, DEFAULT_SLOT_CAP, FLAG_BATCH, FLAG_EPOCH,
    SLOTS_PER_CLIENT,
};

const FN_ADD: u32 = 1;
const FN_ECHO: u32 = 2;
const FN_DOUBLE: u32 = 3;
const FN_SUM_VEC: u32 = 4;
const FN_COUNT: u32 = 5;

fn registry(counter: Arc<AtomicU64>) -> Arc<RpcRegistry> {
    let reg = Arc::new(RpcRegistry::new());
    reg.bind_typed(FN_ADD, |_, _, (a, b): (u64, u64)| a + b);
    reg.bind_typed(FN_ECHO, |_, _, s: String| s);
    reg.bind_typed(FN_DOUBLE, |_, _, v: u64| v * 2);
    reg.bind_typed(FN_SUM_VEC, |_, _, v: Vec<u64>| v.iter().sum::<u64>());
    reg.bind_typed(FN_COUNT, move |_, _, ()| counter.fetch_add(1, Ordering::Relaxed));
    reg
}

fn run_suite(fabric: Arc<dyn Fabric>) {
    let server_ep = EpId::new(0, 0);
    let counter = Arc::new(AtomicU64::new(0));
    let server = RpcServer::start(
        server_ep,
        Arc::clone(&fabric),
        registry(Arc::clone(&counter)),
        ServerConfig { max_clients: 8, slot_cap: 1024, nic_cores: 2, ..ServerConfig::default() },
    );

    let client = RpcClient::new(EpId::new(1, 1), Arc::clone(&fabric), 1024);

    // Synchronous invocation.
    let sum: u64 = client.invoke(server_ep, FN_ADD, &(40u64, 2u64)).unwrap();
    assert_eq!(sum, 42);

    // String payloads.
    let echoed: String = client.invoke(server_ep, FN_ECHO, &"κλειδί".to_string()).unwrap();
    assert_eq!(echoed, "κλειδί");

    // Asynchronous invocations: several in flight.
    let futs: Vec<_> = (0..10u64)
        .map(|i| client.invoke_async::<u64, u64>(server_ep, FN_DOUBLE, &i).unwrap())
        .collect();
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(f.wait().unwrap(), 2 * i as u64);
    }

    // Callback chain: double twice = ×4.
    let f = client
        .invoke_chain::<u64, u64>(server_ep, &[FN_DOUBLE, FN_DOUBLE], &5u64)
        .unwrap();
    assert_eq!(f.wait().unwrap(), 20);

    // Batch aggregation.
    use hcl_databox::DataBox;
    let calls: Vec<(u32, Vec<u8>)> = (0..5u64)
        .map(|i| (FN_DOUBLE, i.to_bytes().to_vec()))
        .collect();
    let batch = client.invoke_batch(server_ep, &calls).unwrap();
    let results: Vec<u64> = batch.wait_typed().unwrap();
    assert_eq!(results, vec![0, 2, 4, 6, 8]);

    // Oversize response (overflow path): response > slot_cap of 1024.
    let big: Vec<u64> = (0..1000).collect();
    let reg_sum: u64 = client.invoke(server_ep, FN_SUM_VEC, &big).unwrap();
    assert_eq!(reg_sum, 999 * 1000 / 2);

    // Each invocation executed exactly once server-side.
    let before = counter.load(Ordering::Relaxed);
    let _: u64 = client.invoke(server_ep, FN_COUNT, &()).unwrap();
    let _: u64 = client.invoke(server_ep, FN_COUNT, &()).unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), before + 2);

    let stats = server.stats();
    assert!(stats.requests >= 20);
    drop(server);
}

#[test]
fn ror_over_memory_fabric() {
    run_suite(Arc::new(MemoryFabric::new()));
}

#[test]
fn ror_over_tcp_fabric() {
    run_suite(Arc::new(TcpFabric::new()));
}

#[test]
fn many_clients_concurrent() {
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let server_ep = EpId::new(0, 0);
    let counter = Arc::new(AtomicU64::new(0));
    let _server = RpcServer::start(
        server_ep,
        Arc::clone(&fabric),
        registry(Arc::clone(&counter)),
        ServerConfig { max_clients: 32, slot_cap: 512, nic_cores: 4, ..ServerConfig::default() },
    );
    std::thread::scope(|s| {
        for r in 1..17u32 {
            let fabric = Arc::clone(&fabric);
            s.spawn(move || {
                let client = RpcClient::new(EpId::new(1 + r % 4, r), fabric, 512);
                for i in 0..200u64 {
                    let got: u64 = client.invoke(server_ep, FN_ADD, &(i, r as u64)).unwrap();
                    assert_eq!(got, i + r as u64);
                }
            });
        }
    });
}

#[test]
fn slot_reuse_discipline_allows_unbounded_async_stream() {
    // Issue far more async invocations than there are slots without waiting;
    // the client must transparently drain previous slot occupants.
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let server_ep = EpId::new(0, 0);
    let counter = Arc::new(AtomicU64::new(0));
    let _server = RpcServer::start(
        server_ep,
        Arc::clone(&fabric),
        registry(counter),
        ServerConfig { max_clients: 8, slot_cap: 256, nic_cores: 1, ..ServerConfig::default() },
    );
    let client = RpcClient::new(EpId::new(1, 1), Arc::clone(&fabric), 256);
    let futs: Vec<_> = (0..100u64)
        .map(|i| client.invoke_async::<u64, u64>(server_ep, FN_DOUBLE, &i).unwrap())
        .collect();
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(f.wait().unwrap(), 2 * i as u64);
    }
}

#[test]
fn try_get_transitions_to_ready() {
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let server_ep = EpId::new(0, 0);
    let reg = Arc::new(RpcRegistry::new());
    reg.bind_typed(1, |_, _, v: u64| {
        std::thread::sleep(Duration::from_millis(30));
        v + 1
    });
    let _server = RpcServer::start(server_ep, Arc::clone(&fabric), reg, ServerConfig::default());
    let client = RpcClient::new(EpId::new(1, 1), Arc::clone(&fabric), DEFAULT_SLOT_CAP);
    let f = client.invoke_async::<u64, u64>(server_ep, 1, &7).unwrap();
    // Immediately after issue it is almost certainly pending.
    let mut polls = 0;
    while !f.is_ready() {
        polls += 1;
        std::thread::sleep(Duration::from_millis(1));
        assert!(polls < 5_000, "future never became ready");
    }
    assert_eq!(f.wait().unwrap(), 8);
}

#[test]
fn repeated_oversize_responses_reuse_overflow_space() {
    // Each response exceeds the slot capacity; the server must free the
    // previous overflow block when a slot is reused, so the response buffer
    // stays bounded instead of growing per call.
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let server_ep = EpId::new(0, 0);
    let reg = Arc::new(RpcRegistry::new());
    reg.bind_typed(1, |_, _, n: u64| vec![7u8; n as usize]);
    let server = RpcServer::start(
        server_ep,
        Arc::clone(&fabric),
        reg,
        ServerConfig { max_clients: 4, slot_cap: 512, nic_cores: 1, ..ServerConfig::default() },
    );
    let client = RpcClient::new(EpId::new(1, 1), Arc::clone(&fabric), 512);
    // Warm up one oversize call, record the buffer size.
    let first: Vec<u8> = client.invoke(server_ep, 1, &8_000u64).unwrap();
    assert_eq!(first.len(), 8_000);
    let after_first = server.response_buffer_bytes();
    for _ in 0..100 {
        let got: Vec<u8> = client.invoke(server_ep, 1, &8_000u64).unwrap();
        assert_eq!(got.len(), 8_000);
    }
    let after_many = server.response_buffer_bytes();
    assert!(
        after_many <= after_first * 4,
        "overflow space leaked: {after_first} -> {after_many} bytes"
    );
    assert!(server.stats().overflow_responses >= 101);
}

#[test]
fn batch_aggregate_response_spills_past_slot_cap() {
    // A FLAG_BATCH request whose *aggregate* response exceeds the slot
    // capacity must travel through the overflow (spill) path and still
    // decode per-call.
    use hcl_databox::DataBox;
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let server_ep = EpId::new(0, 0);
    let reg = Arc::new(RpcRegistry::new());
    // Each call echoes a payload of `n` bytes, values distinct per call.
    reg.bind_typed(1, |_, _, (seed, n): (u64, u64)| vec![seed as u8; n as usize]);
    let server = RpcServer::start(
        server_ep,
        Arc::clone(&fabric),
        reg,
        ServerConfig { max_clients: 4, slot_cap: 1024, nic_cores: 1, ..ServerConfig::default() },
    );
    let client = RpcClient::new(EpId::new(1, 1), Arc::clone(&fabric), 1024);
    // 8 calls x 400-byte responses = ~3.2 KB aggregate against a 1 KB slot.
    let calls: Vec<(u32, Vec<u8>)> =
        (0..8u64).map(|i| (1, (i, 400u64).to_bytes().to_vec())).collect();
    let batch = client.invoke_batch(server_ep, &calls).unwrap();
    let results: Vec<Vec<u8>> = batch.wait_typed().unwrap();
    assert_eq!(results.len(), 8);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.len(), 400);
        assert!(r.iter().all(|&b| b == i as u8));
    }
    assert!(
        server.stats().overflow_responses >= 1,
        "aggregate batch response should have spilled"
    );
    drop(server);
}

#[test]
fn single_rank_world_degenerate_but_functional() {
    // nodes=1, ranks=1: everything is local, RPC still works when forced.
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let server_ep = EpId::new(0, 0);
    let reg = Arc::new(RpcRegistry::new());
    reg.bind_typed(1, |_, _, v: u64| v * v);
    let _server = RpcServer::start(
        server_ep,
        Arc::clone(&fabric),
        reg,
        ServerConfig { max_clients: 2, slot_cap: 256, nic_cores: 1, ..ServerConfig::default() },
    );
    // Self-invocation: the client endpoint IS the server endpoint.
    let client = RpcClient::new(server_ep, Arc::clone(&fabric), 256);
    let got: u64 = client.invoke(server_ep, 1, &9u64).unwrap();
    assert_eq!(got, 81);
}

#[test]
fn malformed_requests_are_counted_and_never_answered() {
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let counter = Arc::new(AtomicU64::new(0));
    let server = RpcServer::start(
        EpId::new(0, 0),
        Arc::clone(&fabric),
        registry(counter),
        ServerConfig { max_clients: 4, slot_cap: 256, nic_cores: 1 },
    );
    let server_ep = server.endpoint();
    let raw = EpId::new(0, 1);
    fabric.register_endpoint(raw).unwrap();
    let well_formed = |flags, chain: Vec<u32>| RequestHeader { req_id: 1, slot: 1, flags, chain };
    let whole = well_formed(0, vec![FN_DOUBLE, FN_DOUBLE]).encode(&7u64.to_le_bytes());
    let shapes = [
        // Shorter than the fixed 14-byte header.
        whole.slice(0, 10),
        // Cut inside its two-link chain.
        whole.slice(0, 18),
        // Tagged with an epoch it does not carry.
        well_formed(FLAG_EPOCH, vec![FN_DOUBLE]).encode(&[0; 7]),
        // A batch whose count no frame of its size can hold.
        well_formed(FLAG_BATCH, vec![]).encode(&u32::MAX.to_le_bytes()),
        // A batch whose one entry is cut inside its 8 argument bytes.
        well_formed(FLAG_BATCH, vec![]).encode(&[1, 0, 0, 0, 3, 0, 0, 0, 8, 0, 0, 0, 7, 0, 0]),
    ];
    for msg in shapes {
        fabric.send(raw, server_ep, msg).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().malformed < 5 {
        assert!(Instant::now() < deadline, "malformed requests were not counted");
        std::thread::sleep(Duration::from_millis(2));
    }
    let st = server.stats();
    assert_eq!((st.malformed, st.requests), (5, 0));
    for slot in 0..SLOTS_PER_CLIENT as u32 {
        let seq = fabric.read_u64(raw, resp_key(server_ep), slot_offset(raw.rank, slot, 256)).unwrap();
        assert_eq!(seq, 0, "slot {slot} was published for a malformed request");
    }
    // The worker that dropped them still serves the next request.
    let client = RpcClient::new(EpId::new(0, 2), Arc::clone(&fabric), 256);
    assert_eq!(client.invoke::<u64, u64>(server_ep, FN_DOUBLE, &21).unwrap(), 42);
    // An unbound function is well-formed: answered empty, which fails to
    // decode as a `u64` instead of hanging the caller.
    assert!(client.invoke::<u64, u64>(server_ep, 999, &1).is_err());
    assert_eq!(server.stats().malformed, 5);
}

#[test]
fn threads_sharing_a_client_never_lose_a_reply() {
    // Request ids are drawn under the lock that claims their slot. Drawn
    // before it, one thread could claim a slot after another thread's later
    // id; the server, which never publishes an id below the slot's current
    // one, would drop the reply as a late duplicate, and the caller would
    // wait out its timeout.
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let server_ep = EpId::new(0, 0);
    let _server = RpcServer::start(
        server_ep,
        Arc::clone(&fabric),
        registry(Arc::new(AtomicU64::new(0))),
        ServerConfig { max_clients: 4, slot_cap: 1024, nic_cores: 2, ..ServerConfig::default() },
    );
    let mut client = RpcClient::new(EpId::new(1, 1), fabric, 1024);
    client.set_timeout(Duration::from_secs(5));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let client = &client;
            s.spawn(move || {
                for i in 0..5_000u64 {
                    let v: u64 = client.invoke(server_ep, FN_DOUBLE, &(t << 32 | i)).unwrap();
                    assert_eq!(v, (t << 32 | i) * 2);
                }
            });
        }
    });
}
