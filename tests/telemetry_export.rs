//! Telemetry export: a 4-rank (2 nodes x 2 ranks) memory-fabric workload
//! that exercises every instrumented layer — sync local bypasses, sync
//! remote ops, coalesced async ops, queue ops — with `HCL_TELEMETRY_DIR`
//! pointed at a scratch directory, then checks the whole export surface:
//!
//! * every rank wrote `telemetry-rank<N>.json` at shutdown, and each file
//!   carries the snapshot schema (rank, counters, gauges, histograms with
//!   count/sum/max/p50/p90/p99) with the expected core/rpc/fabric metrics;
//! * the Prometheus text exposition renders counters, gauges and summary
//!   quantiles.
//!
//! Its own test binary: setting `HCL_TELEMETRY_DIR` affects every world the
//! process builds.

use hcl::{Queue, UnorderedMap};
use hcl_fabric::LatencyModel;
use hcl_runtime::{FabricKind, World, WorldConfig, TELEMETRY_DIR_ENV};

const OPS: u64 = 400;

#[test]
fn rank_snapshots_and_prometheus_exposition_carry_the_schema() {
    let dir = std::env::temp_dir().join(format!("hcl-telemetry-export-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var(TELEMETRY_DIR_ENV, &dir);

    let cfg = WorldConfig {
        nodes: 2,
        ranks_per_node: 2,
        fabric: FabricKind::Memory(LatencyModel::NONE),
        ..WorldConfig::small()
    };
    let world_size = cfg.world_size();
    let prometheus: Vec<String> = World::run(cfg, |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "export.map");
        let q: Queue<u64> = Queue::new(rank, "export.q");
        rank.barrier();
        let me = rank.id() as u64;
        // Sync ops: keys spread over both node partitions, so every rank
        // sees both the hybrid local bypass and the remote sync path.
        for i in 0..OPS {
            map.put(me * OPS + i, i).unwrap();
        }
        for i in 0..OPS {
            assert_eq!(map.get(&(me * OPS + i)).unwrap(), Some(i));
        }
        // Async ops: staged on the per-destination coalescer, flushed as
        // FLAG_BATCH messages — feeds the batch-size/latency histograms.
        let futs: Vec<_> = (0..OPS).map(|i| map.put_async(me * OPS + i, i + 1).unwrap()).collect();
        for f in futs {
            f.wait().unwrap();
        }
        // Queue ops: a single-partition container for per-op histograms.
        q.push(me).unwrap();
        rank.barrier();
        let _ = q.pop().unwrap();
        rank.barrier();
        rank.telemetry_snapshot().to_prometheus()
    });

    // --- per-rank JSON snapshot files ------------------------------------
    for r in 0..world_size {
        let path = dir.join(format!("telemetry-rank{r}.json"));
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing rank snapshot {}: {e}", path.display()));
        for key in [
            format!("\"rank\": {r}"),
            "\"counters\"".into(),
            "\"gauges\"".into(),
            "\"histograms\"".into(),
            "\"hcl_core_ops_issued\"".into(),
            "\"hcl_core_ops_local_bypass\"".into(),
            "\"hcl_core_op_latency_remote_ns\"".into(),
            "\"hcl_rpc_batch_size\"".into(),
            "\"hcl_fabric_sends\"".into(),
            "\"count\"".into(),
            "\"sum\"".into(),
            "\"max\"".into(),
            "\"p50\"".into(),
            "\"p90\"".into(),
            "\"p99\"".into(),
        ] {
            assert!(body.contains(&key), "{}: missing {key}", path.display());
        }
        // Every exported metric must carry the hcl_ prefix (the METRIC lint
        // guards registration sites; this guards the files operators see).
        for line in body.lines().filter(|l| l.trim_start().starts_with("\"hcl")) {
            assert!(
                line.trim_start().starts_with("\"hcl_"),
                "{}: metric without hcl_ prefix: {line}",
                path.display()
            );
        }
    }

    // --- Prometheus text exposition --------------------------------------
    let prom = &prometheus[0];
    for needle in [
        "# TYPE hcl_core_ops_issued counter",
        "# TYPE hcl_fabric_sends gauge",
        "# TYPE hcl_core_op_latency_remote_ns summary",
        "quantile=\"0.99\"",
        "hcl_core_op_latency_remote_ns_count{rank=\"0\"}",
    ] {
        assert!(prom.contains(needle), "prometheus exposition missing {needle:?}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
