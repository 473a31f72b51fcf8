//! From what the passes measured to the named metrics: the end-to-end list
//! of an untraced run, the per-layer list of a traced one.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use hcl_runtime::World;

use crate::gen::{Kind, Op, SET_SIZE, VALUE_BYTES};
use crate::replay::{self, Item, Replayer};
use crate::stats::{
    layer_of, median, percentile, quiet_high, quiet_low, self_times, slice_rates, sorted, Span,
    SLICES,
};
use crate::workloads::{pinned_world, Inputs, PassOut, Recorder, Sample, Workload};

pub type Metrics = Vec<(&'static str, f64)>;

/// Latency and throughput figures of one measured window. The headline
/// figures are quiet-slice values ([`crate::stats::QUIET`]); the `whole_`
/// ones are over the whole window, interference included.
pub struct Window {
    pub ops_per_s: f64,
    pub op_p50_ns: f64,
    pub op_p99_ns: f64,
    pub read_p50_ns: f64,
    pub write_p50_ns: f64,
    pub whole_ops_per_s: f64,
    pub whole_p50_ns: f64,
    pub whole_p999_ns: f64,
    pub slice_spread: f64,
    pub samples: usize,
}

impl Window {
    pub fn of(rec: &Recorder) -> Window {
        let ns = |samples: &[Sample], keep: fn(bool) -> bool| {
            sorted(
                samples
                    .iter()
                    .filter(|s| keep(s.write))
                    .map(|s| s.ns as f64)
                    .collect(),
            )
        };
        let slices: Vec<&[Sample]> = rec
            .samples
            .chunks(rec.samples.len().div_ceil(SLICES).max(1))
            .collect();
        // A slice without a sample of the class has no say in its quantile.
        let quiet = |keep: fn(bool) -> bool, p: f64| {
            let per_slice = slices.iter().map(|s| ns(s, keep)).filter(|v| !v.is_empty());
            quiet_low(per_slice.map(|v| percentile(&v, p)).collect())
        };
        let all = ns(&rec.samples, |_| true);
        let rates = sorted(slice_rates(&rec.marks));
        let window_s = match (rec.marks.first(), rec.marks.last()) {
            (Some(a), Some(b)) => b.1.duration_since(a.1).as_secs_f64(),
            _ => 0.0,
        };
        Window {
            ops_per_s: quiet_high(rates.clone()),
            op_p50_ns: quiet(|_| true, 0.5),
            op_p99_ns: quiet(|_| true, 0.99),
            read_p50_ns: quiet(|write| !write, 0.5),
            write_p50_ns: quiet(|write| write, 0.5),
            whole_ops_per_s: rec.attempted as f64 / window_s,
            whole_p50_ns: percentile(&all, 0.5),
            whole_p999_ns: percentile(&all, 0.999),
            slice_spread: (rates.last().unwrap_or(&0.0) - rates.first().unwrap_or(&0.0))
                / percentile(&rates, 0.5),
            samples: all.len(),
        }
    }
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics of an untraced run: `main` measured the window,
/// `setups_s` are the set-up times of every pass made (median reported).
pub fn end_to_end(main: &PassOut, setups_s: Vec<f64>, peak_rss_mb: f64) -> Metrics {
    let w = Window::of(&main.rec);
    vec![
        ("ops_per_s", w.ops_per_s),
        ("op_p50_us", w.op_p50_ns / 1e3),
        ("op_p99_us", w.op_p99_ns / 1e3),
        ("read_p50_us", w.read_p50_ns / 1e3),
        ("write_p50_us", w.write_p50_ns / 1e3),
        ("setup_s", median(setups_s)),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

/// Median cost of each layer's public functions in isolation, ns per call.
pub struct Probes {
    codec: f64,
    cuckoo: f64,
    skiplist: f64,
    queue: f64,
    pq: f64,
    pingpong: f64,
    inline: f64,
    echo: f64,
    echo_p99: f64,
    batch_echo_per_op: f64,
    append_strict: f64,
    append_nosync: f64,
}

/// Time `n` units of `per_unit` calls each; `prep` builds a unit's
/// arguments outside the stamps. Returns ascending ns per call.
fn time_units<T>(
    n: usize,
    per_unit: usize,
    mut prep: impl FnMut(usize) -> T,
    mut run: impl FnMut(T),
) -> Vec<f64> {
    let per_call = (0..n).map(|i| {
        let args = prep(i);
        let t0 = Instant::now();
        run(args);
        t0.elapsed().as_nanos() as f64 / per_unit as f64
    });
    sorted(per_call.collect())
}

fn spin_for(gap: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < gap {
        std::hint::spin_loop();
    }
}

/// Probe every layer in a world of its own, on the workload's own inputs
/// where the layer takes any (echo argument types follow the op mix).
pub fn probes(inputs: &Inputs, dir: &Path) -> Probes {
    std::fs::create_dir_all(dir).expect("create probe directory");
    let (_, shared) = pinned_world(true);
    let fns = replay::install(&shared);
    let out = World::run_on(shared, |rank| {
        rank.barrier();
        if rank.id() != 0 {
            replay::partner_loop(rank.world());
            return None;
        }
        let r = Replayer::new(rank, fns, dir);
        const BLOCK: usize = 32;
        // `BLOCK` ops alternating between the two kinds over fresh keys.
        let pairs = |a: Kind, b: Kind| {
            move |i: usize| -> Vec<Item> {
                let ops: Vec<Op> = (0..BLOCK)
                    .map(|j| {
                        Op::new(
                            if j % 2 == 0 { a } else { b },
                            (i * BLOCK + j) / 2 % SET_SIZE,
                        )
                    })
                    .collect();
                replay::items(&ops, &inputs.keys)
            }
        };
        // `len` consecutive ops of the workload's stream, cycling.
        let stream = |len: usize| {
            move |i: usize| -> Vec<Item> {
                let ops: Vec<Op> = (0..len)
                    .map(|j| inputs.ops[(i * len + j) % inputs.ops.len()])
                    .collect();
                replay::items(&ops, &inputs.keys)
            }
        };
        let p50 = |v: Vec<f64>| percentile(&v, 0.5);
        let structure = |a, b| p50(time_units(2000, BLOCK, pairs(a, b), |it| r.containers(it)));
        let echo = time_units(5000, 1, stream(1), |it| r.rpc_sync(it));
        let probes = Probes {
            codec: p50(time_units(2000, BLOCK, pairs(Kind::Put, Kind::Get), |it| {
                r.codec(it)
            })),
            cuckoo: structure(Kind::Put, Kind::Get),
            skiplist: structure(Kind::OmPut, Kind::OmGet),
            queue: structure(Kind::QPush, Kind::QPop),
            pq: structure(Kind::PqPush, Kind::PqPop),
            // A gap as long as a remote op before each ping, so the peer is as
            // idle as an RPC finds it (back to back, pings catch it still
            // polling before it halts and read 2.5 us instead of 14).
            pingpong: p50(time_units(
                5000,
                1,
                |_| spin_for(Duration::from_micros(20)),
                |()| r.pingpong(),
            )),
            inline: p50(time_units(
                2000,
                BLOCK,
                |_| (),
                |()| (0..BLOCK).for_each(|_| r.send_recv_inline()),
            )),
            echo: percentile(&echo, 0.5),
            echo_p99: percentile(&echo, 0.99),
            batch_echo_per_op: p50(time_units(
                500,
                64,
                |i| r.encode_calls(stream(64)(i)),
                |calls| r.rpc_batch(&calls),
            )),
            append_strict: p50(time_units(
                500,
                1,
                |i| Replayer::encode_records(pairs(Kind::Put, Kind::Put)(i)[..1].to_vec()),
                |records| r.persist(&records, true),
            )),
            append_nosync: p50(time_units(
                2000,
                BLOCK,
                |i| Replayer::encode_records(pairs(Kind::Put, Kind::Put)(i)),
                |records| r.persist(&records, false),
            )),
        };
        r.stop_partner();
        Some(probes)
    });
    let _ = std::fs::remove_dir_all(dir);
    out.into_iter()
        .flatten()
        .next()
        .expect("rank 0 ran the probes")
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What the spans of a traced pass say about where a unit's time went.
struct Attribution {
    /// Mean self time per op of each replayed layer, ns.
    rpc: f64,
    fabric: f64,
    databox: f64,
    containers: f64,
    persist: f64,
    /// The typical (median) remainder of a root span once its replays are
    /// subtracted, per op, ns: what `core` itself adds to an ordinary op.
    core: f64,
    /// The rest of the mean root span, as a share of it: time only some
    /// ops pay (sleep quanta, queueing, preemption) and no replay shows.
    /// Negative when the replays run slower than the op they replay.
    unattributed_share: f64,
}

fn attribute(spans: &[Span], ops: f64) -> Attribution {
    let own = self_times(spans);
    let layer_sum = |layer: &str| {
        let of_layer = spans.iter().zip(&own).filter(|(s, _)| s.parent.is_some());
        of_layer
            .filter(|(s, _)| layer_of(s.name) == layer)
            .map(|(_, &o)| o as f64)
            .sum::<f64>()
    };
    let mut children = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize] += s.dur() as f64;
        }
    }
    let roots = || {
        spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.parent.is_none())
    };
    let root_total: f64 = roots().map(|(s, _)| s.dur() as f64).sum();
    let units = roots().count() as f64;
    let typical = median(roots().map(|(s, &c)| s.dur() as f64 - c).collect()).max(0.0);
    let layers = ["rpc", "fabric", "databox", "containers", "persist"].map(layer_sum);
    let attributed = layers.iter().sum::<f64>() + typical * units;
    Attribution {
        rpc: layers[0] / ops,
        fabric: layers[1] / ops,
        databox: layers[2] / ops,
        containers: layers[3] / ops,
        persist: layers[4] / ops,
        core: typical * units / ops,
        unattributed_share: ratio(root_total - attributed, root_total),
    }
}

/// The per-layer metrics of a traced run. `on` and `off` are untraced passes
/// with telemetry on and off, `traced` the pass that recorded spans; all
/// three ran the same inputs.
pub fn per_layer(
    w: Workload,
    p: &Probes,
    on: &PassOut,
    off: &PassOut,
    traced: &PassOut,
) -> Metrics {
    let c = &on.counters;
    let ops = on.rec.attempted as f64;
    let win = Window::of(&on.rec);
    let remote_ops = if w.remote() { ops } else { 0.0 };
    let sync_remote = matches!(w, Workload::RemoteSync | Workload::QueueMix);
    let lookups = (c.cache_hits + c.cache_misses) as f64;
    let a = attribute(&traced.spans, traced.rec.attempted as f64);
    vec![
        ("databox.codec_ns", p.codec),
        ("containers.cuckoo_op_ns", p.cuckoo),
        ("containers.skiplist_op_ns", p.skiplist),
        ("containers.queue_op_ns", p.queue),
        ("containers.pq_op_ns", p.pq),
        ("fabric.pingpong_ns", p.pingpong),
        ("fabric.send_recv_inline_ns", p.inline),
        ("fabric.sends_per_op", ratio(c.sends as f64, ops)),
        ("fabric.send_bytes_per_op", ratio(c.send_bytes as f64, ops)),
        ("rpc.echo_rtt_ns", p.echo),
        ("rpc.echo_rtt_p99_ns", p.echo_p99),
        ("rpc.polls_per_op", ratio(c.polls as f64, remote_ops)),
        ("rpc.batch_echo_ns_per_op", p.batch_echo_per_op),
        (
            "rpc.server_busy_ns_per_req",
            ratio(c.server_busy_ns as f64, c.server_reqs as f64),
        ),
        ("rpc.server_reqs_per_op", ratio(c.server_reqs as f64, ops)),
        (
            "rpc.coalesce_avg_batch",
            ratio(c.coalesced_ops as f64, c.batches as f64),
        ),
        (
            "rpc.coalesce_age_flush_share",
            ratio(c.age_flushes as f64, c.flushes as f64),
        ),
        ("rpc.retransmits", c.retransmits as f64),
        ("rpc.slot_waits", c.slot_waits as f64),
        ("runtime.world_start_s", on.world_start_s),
        ("runtime.wrong_epoch_rejects", c.wrong_epoch as f64),
        (
            "core.local_overhead_ns",
            if w.remote() {
                0.0
            } else {
                win.op_p50_ns - p.cuckoo
            },
        ),
        (
            "core.remote_overhead_ns",
            if sync_remote {
                win.op_p50_ns - p.echo
            } else {
                0.0
            },
        ),
        (
            "core.local_share",
            ratio(c.local_bypass as f64, (c.local_bypass + c.issued) as f64),
        ),
        ("core.cost_f_per_op", ratio(c.cost_f as f64, ops)),
        ("core.cache_hit_ratio", ratio(c.cache_hits as f64, lookups)),
        (
            "core.cache_stale_version_share",
            ratio(c.cache_stale_version as f64, c.cache_grants as f64),
        ),
        (
            "core.cache_grants_per_read",
            ratio(c.cache_grants as f64, lookups),
        ),
        ("core.cache_local_get_ns", on.cache_local_get_ns),
        ("persist.append_strict_ns", p.append_strict),
        ("persist.append_nosync_ns", p.append_nosync),
        (
            "persist.fsyncs_per_put",
            ratio(on.fsyncs as f64, on.acked_puts as f64),
        ),
        (
            "persist.wal_bytes_per_user_byte",
            ratio(
                on.wal_bytes as f64,
                (on.acked_puts as usize * (8 + VALUE_BYTES)) as f64,
            ),
        ),
        ("persist.recover_s", on.recover_s),
        ("persist.recovered_ops", on.recovered_ops as f64),
        (
            "telemetry.on_off_ratio",
            ratio(win.ops_per_s, Window::of(&off.rec).ops_per_s),
        ),
        ("run.ops_per_s_mean", win.whole_ops_per_s),
        ("run.op_p50_whole_us", win.whole_p50_ns / 1e3),
        ("run.op_p999_us", win.whole_p999_ns / 1e3),
        ("run.slice_spread", win.slice_spread),
        ("run.samples", win.samples as f64),
        ("trace.core_self_us", a.core / 1e3),
        ("trace.rpc_self_us", a.rpc / 1e3),
        ("trace.fabric_self_us", a.fabric / 1e3),
        ("trace.databox_self_us", a.databox / 1e3),
        ("trace.containers_self_us", a.containers / 1e3),
        ("trace.persist_self_us", a.persist / 1e3),
        ("trace.unattributed_share", a.unattributed_share),
        (
            "trace.overhead_ratio",
            ratio(Window::of(&traced.rec).op_p50_ns, win.op_p50_ns),
        ),
    ]
}

/// Routing and accounting every run must show, whatever its speed; a
/// violated one makes the run incorrect.
pub fn assertions(w: Workload, out: &PassOut) -> Vec<String> {
    let c = &out.counters;
    let ops = out.rec.attempted;
    let mut broken = Vec::new();
    let mut expect = |what: &str, ok: bool| {
        if !ok {
            broken.push(format!("{}: {what} ({c:?})", w.name()));
        }
    };
    expect(
        "no request was rejected for a wrong epoch",
        c.wrong_epoch == 0,
    );
    if w == Workload::LocalHybrid {
        expect(
            "every op took the local bypass",
            c.local_bypass == ops && c.issued == 0,
        );
        expect(
            "no remote invocation and no send",
            c.cost_f == 0 && c.sends == 0,
        );
    }
    if w == Workload::RemoteSync {
        expect("no op took the local bypass", c.local_bypass == 0);
        expect("one remote invocation per op", c.cost_f == ops);
    }
    broken
}

/// Write the traced pass's spans where a later reader can load them.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            f,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.op_id
        )?;
    }
    writeln!(f, "]")?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_reconstructs_the_root_spans() {
        let span = |name, dur, parent, op_id| Span {
            name,
            start_ns: 0,
            end_ns: dur,
            parent,
            op_id,
        };
        let mut spans = Vec::new();
        // Nine ordinary ops and one that slept 50 us somewhere no replay sees.
        for op in 0..10u32 {
            let base = spans.len() as u32;
            let root = if op == 9 { 25_000 + 50_000 } else { 25_000 };
            spans.push(span("core.get", root, None, op));
            spans.push(span("rpc.echo", 22_000, Some(base), op));
            spans.push(span("fabric.pingpong", 15_000, Some(base + 1), op));
            spans.push(span("databox.codec", 400, Some(base + 1), op));
            spans.push(span("containers.cuckoo", 100, Some(base), op));
        }
        let a = attribute(&spans, 10.0);
        assert_eq!(
            (a.fabric, a.databox, a.containers, a.persist),
            (15_000.0, 400.0, 100.0, 0.0)
        );
        assert_eq!(a.rpc, 22_000.0 - 15_000.0 - 400.0);
        assert_eq!(a.core, 25_000.0 - 22_000.0 - 100.0);
        let mean_root = (9.0 * 25_000.0 + 75_000.0) / 10.0;
        assert!((a.unattributed_share - 5_000.0 / mean_root).abs() < 1e-12);
        let layers = a.rpc + a.fabric + a.databox + a.containers + a.persist + a.core;
        assert!((layers + a.unattributed_share * mean_root - mean_root).abs() < 1e-6);
    }
}
