//! The metric lists: the single source `BENCHMARK.json` is generated from
//! (`hclbench manifest`) and every report is checked against.

/// A metric a user of the library would see, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Measured with tracing off; every workload reports all of them.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("ops_per_s", "ops/s", "higher", 0.20),
    e2e("op_p50_us", "us", "lower", 0.20),
    e2e("op_p99_us", "us", "lower", 0.25),
    e2e("read_p50_us", "us", "lower", 0.25),
    e2e("write_p50_us", "us", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
];

/// A metric of one layer (layers are crate names). No bound: these explain
/// an end-to-end move, they are not claimed on their own.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Reported by the traced run (`--trace 1`), in this order.
pub const PER_LAYER: [PerLayer; 49] = [
    layer("databox.codec_ns", "ns", "lower"),
    layer("containers.cuckoo_op_ns", "ns", "lower"),
    layer("containers.skiplist_op_ns", "ns", "lower"),
    layer("containers.queue_op_ns", "ns", "lower"),
    layer("containers.pq_op_ns", "ns", "lower"),
    layer("fabric.pingpong_ns", "ns", "lower"),
    layer("fabric.send_recv_inline_ns", "ns", "lower"),
    layer("fabric.sends_per_op", "count", "lower"),
    layer("fabric.send_bytes_per_op", "B", "lower"),
    layer("rpc.echo_rtt_ns", "ns", "lower"),
    layer("rpc.echo_rtt_p99_ns", "ns", "lower"),
    layer("rpc.polls_per_op", "count", "lower"),
    layer("rpc.batch_echo_ns_per_op", "ns", "lower"),
    layer("rpc.server_busy_ns_per_req", "ns", "lower"),
    layer("rpc.server_reqs_per_op", "ratio", "lower"),
    layer("rpc.coalesce_avg_batch", "ops", "higher"),
    layer("rpc.coalesce_age_flush_share", "ratio", "lower"),
    layer("rpc.retransmits", "count", "lower"),
    layer("rpc.slot_waits", "count", "lower"),
    layer("runtime.world_start_s", "s", "lower"),
    layer("runtime.wrong_epoch_rejects", "count", "lower"),
    layer("core.local_overhead_ns", "ns", "lower"),
    layer("core.remote_overhead_ns", "ns", "lower"),
    layer("core.local_share", "ratio", "higher"),
    layer("core.cost_f_per_op", "ratio", "lower"),
    layer("core.cache_hit_ratio", "ratio", "higher"),
    layer("core.cache_stale_version_share", "ratio", "lower"),
    layer("core.cache_grants_per_read", "ratio", "lower"),
    layer("core.cache_local_get_ns", "ns", "lower"),
    layer("persist.append_strict_ns", "ns", "lower"),
    layer("persist.append_nosync_ns", "ns", "lower"),
    layer("persist.fsyncs_per_put", "ratio", "lower"),
    layer("persist.wal_bytes_per_user_byte", "ratio", "lower"),
    layer("persist.recover_s", "s", "lower"),
    layer("persist.recovered_ops", "count", "higher"),
    layer("telemetry.on_off_ratio", "ratio", "higher"),
    layer("run.ops_per_s_mean", "ops/s", "higher"),
    layer("run.op_p50_whole_us", "us", "lower"),
    layer("run.op_p999_us", "us", "lower"),
    layer("run.slice_spread", "ratio", "lower"),
    layer("run.samples", "count", "higher"),
    layer("trace.core_self_us", "us", "lower"),
    layer("trace.rpc_self_us", "us", "lower"),
    layer("trace.fabric_self_us", "us", "lower"),
    layer("trace.databox_self_us", "us", "lower"),
    layer("trace.containers_self_us", "us", "lower"),
    layer("trace.persist_self_us", "us", "lower"),
    layer("trace.unattributed_share", "ratio", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
];

/// The unit of metric `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the lists"))
}
