//! # hcl-telemetry — per-rank metrics and the op/RPC flight recorder
//!
//! The paper's whole evaluation (Figs. 5–10) argues from *measured
//! distributions* of per-op latency, not single numbers. This crate gives
//! every rank that footing:
//!
//! * a [`Registry`] of named [`Counter`]s, [`Gauge`]s and log-bucketed
//!   [`Histogram`]s (p50/p90/p99/max). The record path is fixed-size and
//!   allocation-free — plain relaxed atomics into preallocated arrays — so
//!   instrumentation can stay on in benches (`tests/alloc_counting.rs` pins
//!   the zero-allocation claim);
//! * a bounded ring-buffer [`flight::FlightRecorder`] of recent op/RPC
//!   events (op name, destination rank, bytes, batch size, outcome,
//!   latency) dumpable on panic, on `OwnerDown`/`RetriesExhausted`, or on
//!   demand;
//! * a snapshot/export path: [`TelemetrySnapshot`] serializes as JSON
//!   (`telemetry-rank<N>.json` at world shutdown) and as Prometheus text
//!   exposition.
//!
//! Metric names follow `hcl_<crate>_<name>` (lowercase, digits,
//! underscores). The registry panics on malformed names and the `xtask
//! lint` METRIC rule catches literal violations statically.
//!
//! This is a leaf crate: `rpc`, `runtime` and `core` all depend on it, so
//! the instrumentation bundles they share ([`RpcMetrics`],
//! [`CoalesceMetrics`]) live here.

pub mod flight;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

pub use flight::{EventKind, FlightEvent, FlightRecorder, Outcome};

/// Number of log2 buckets per histogram: one per bit of a `u64` value.
pub const HIST_BUCKETS: usize = 64;

/// Telemetry policy for one world. `Copy` on purpose: it rides inside the
/// runtime's `WorldConfig`, which spreads by value into every rank thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch. Disabled, no observer is installed, no clocks are
    /// read, and the flight recorder records nothing.
    pub enabled: bool,
    /// Flight-recorder ring capacity (events retained per rank).
    pub flight_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { enabled: true, flight_capacity: 256 }
    }
}

impl TelemetryConfig {
    /// Telemetry fully off (the bench "disabled" arm).
    pub fn disabled() -> Self {
        TelemetryConfig { enabled: false, ..Default::default() }
    }
}

/// True when `name` matches the enforced `hcl_<crate>_<name>` shape:
/// `hcl_` prefix, then a non-empty crate segment, an underscore, and a
/// non-empty metric segment, all `[a-z0-9_]`.
pub fn valid_metric_name(name: &str) -> bool {
    if !name.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_') {
        return false;
    }
    let Some(rest) = name.strip_prefix("hcl_") else {
        return false;
    };
    match rest.split_once('_') {
        Some((krate, metric)) => !krate.is_empty() && !metric.is_empty(),
        None => false,
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter (for direct use outside a registry).
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. Relaxed: counters are statistics, read only via snapshots.
    #[inline]
    pub fn add(&self, n: u64) {
        // ORDERING: Relaxed — the counter is a statistic; no reader infers
        // other memory state from its value.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge (set to fold externally-maintained counters —
/// coalescer, server, fabric, chaos — into one snapshot).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value. Relaxed: gauges are statistics.
    #[inline]
    pub fn set(&self, v: u64) {
        // ORDERING: Relaxed — last-write-wins statistic; snapshots tolerate
        // any interleaving of sets.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The log2 bucket index of `v`: values in `[2^i, 2^(i+1))` land in bucket
/// `i`; 0 and 1 share bucket 0.
#[inline]
fn bucket_of(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// A fixed-size log-bucketed histogram: 64 power-of-two buckets plus
/// count/sum/max. Recording is four relaxed atomic ops and never allocates;
/// quantiles are derived at snapshot time from the bucket counts.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation. Relaxed throughout: per-bucket counts are
    /// statistics and a snapshot tolerates being a near-point-in-time view.
    #[inline]
    pub fn record(&self, v: u64) {
        // ORDERING: Relaxed — bucket count is a statistic.
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        // ORDERING: Relaxed — count may momentarily disagree with buckets.
        self.count.fetch_add(1, Ordering::Relaxed);
        // ORDERING: Relaxed — sum is a statistic.
        self.sum.fetch_add(v, Ordering::Relaxed);
        // ORDERING: Relaxed — max is a statistic.
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a latency in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Copy the bucket counts out.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy)]
pub struct HistogramSnapshot {
    /// Per-log2-bucket observation counts.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    /// The value at quantile `q` (0.0..=1.0), estimated as the upper bound
    /// of the bucket holding the q-th observation (capped at the observed
    /// max, so p100 is exact). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile (tail) estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another snapshot in (cross-rank aggregation).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// The per-rank metrics registry: named get-or-create handles, shared via
/// `Arc` so instrumented layers cache their handles and never re-hash a
/// name on the record path. Creation takes a write lock and validates the
/// `hcl_<crate>_<name>` shape; lookups take a read lock.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
}

fn get_or_create<T: Default>(map: &RwLock<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    assert!(
        valid_metric_name(name),
        "metric name {name:?} violates the hcl_<crate>_<name> convention"
    );
    if let Some(v) = map.read().get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write();
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl Registry {
    /// A fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create the counter `name`. Panics on a malformed name.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Get-or-create the gauge `name`. Panics on a malformed name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Get-or-create the histogram `name`. Panics on a malformed name.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Sorted point-in-time copy of every metric.
    pub fn snapshot(&self) -> (Vec<(String, u64)>, Vec<(String, u64)>, Vec<(String, HistogramSnapshot)>)
    {
        let mut counters: Vec<(String, u64)> =
            self.counters.read().iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let mut gauges: Vec<(String, u64)> =
            self.gauges.read().iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> =
            self.histograms.read().iter().map(|(k, v)| (k.clone(), v.snapshot())).collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        (counters, gauges, histograms)
    }
}

/// One rank's telemetry: the registry, the flight recorder, and the policy
/// they run under. Built by the runtime in every rank thread.
pub struct Telemetry {
    rank: u32,
    cfg: TelemetryConfig,
    registry: Registry,
    flight: Arc<FlightRecorder>,
}

impl Telemetry {
    /// Telemetry for `rank` under `cfg`.
    pub fn new(rank: u32, cfg: TelemetryConfig) -> Self {
        let capacity = if cfg.enabled { cfg.flight_capacity.max(1) } else { 0 };
        Telemetry {
            rank,
            cfg,
            registry: Registry::new(),
            flight: Arc::new(FlightRecorder::new(rank, capacity)),
        }
    }

    /// True when instrumentation should record.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The rank this telemetry belongs to.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The active policy.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The flight recorder.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Snapshot every metric.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let (counters, gauges, histograms) = self.registry.snapshot();
        TelemetrySnapshot { rank: self.rank, counters, gauges, histograms }
    }
}

/// A serializable point-in-time copy of one rank's metrics.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// The rank the snapshot was taken on.
    pub rank: u32,
    /// Sorted `(name, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// Sorted `(name, value)` gauges.
    pub gauges: Vec<(String, u64)>,
    /// Sorted `(name, snapshot)` histograms.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl TelemetrySnapshot {
    /// Serialize as JSON (hand-rolled: the workspace builds offline, so no
    /// serde). Histograms export count/sum/max and the derived quantiles.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"rank\": {},\n", self.rank));
        out.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            out.push_str(&format!("{sep}    \"{k}\": {v}"));
        }
        out.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            out.push_str(&format!("{sep}    \"{k}\": {v}"));
        }
        out.push_str(if self.gauges.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            out.push_str(&format!(
                "{sep}    \"{k}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                h.count,
                h.sum,
                h.max,
                h.p50(),
                h.p90(),
                h.p99()
            ));
        }
        out.push_str(if self.histograms.is_empty() { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }

    /// Serialize as Prometheus text exposition (counters and gauges as
    /// their native types; histograms as summaries with quantile labels).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        let rank = self.rank;
        for (k, v) in &self.counters {
            out.push_str(&format!("# TYPE {k} counter\n{k}{{rank=\"{rank}\"}} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("# TYPE {k} gauge\n{k}{{rank=\"{rank}\"}} {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!("# TYPE {k} summary\n"));
            for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99())] {
                out.push_str(&format!("{k}{{rank=\"{rank}\",quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("{k}_sum{{rank=\"{rank}\"}} {}\n", h.sum));
            out.push_str(&format!("{k}_count{{rank=\"{rank}\"}} {}\n", h.count));
        }
        out
    }
}

/// The RPC client's instrumentation bundle: slot-reuse waits, retransmits,
/// per-attempt timeouts, exhausted retry budgets — plus the flight recorder
/// that logs each retransmission and final failure. Cloned into every
/// pending response, so the record path is handle derefs only.
#[derive(Clone)]
pub struct RpcMetrics {
    /// Issues that blocked on draining a still-pending slot occupant.
    pub slot_waits: Arc<Counter>,
    /// Request retransmissions (attempt > 1 sends).
    pub retransmits: Arc<Counter>,
    /// Per-attempt response budgets that elapsed without a response.
    pub attempt_timeouts: Arc<Counter>,
    /// Requests that exhausted their whole retry budget.
    pub retries_exhausted: Arc<Counter>,
    /// The rank's flight recorder.
    pub flight: Arc<FlightRecorder>,
}

impl RpcMetrics {
    /// Resolve the bundle's metrics from `reg`.
    pub fn from_registry(reg: &Registry, flight: Arc<FlightRecorder>) -> Self {
        RpcMetrics {
            slot_waits: reg.counter("hcl_rpc_slot_waits"),
            retransmits: reg.counter("hcl_rpc_retransmits"),
            attempt_timeouts: reg.counter("hcl_rpc_attempt_timeouts"),
            retries_exhausted: reg.counter("hcl_rpc_retries_exhausted"),
            flight,
        }
    }
}

/// The op coalescer's instrumentation bundle: the batch-size distribution
/// (ops per `FLAG_BATCH` message) and the batch round-trip latency
/// (flush to first decoded response).
#[derive(Clone)]
pub struct CoalesceMetrics {
    /// Ops per flushed batch.
    pub batch_size: Arc<Histogram>,
    /// Flush-to-completion latency of each batch, nanoseconds.
    pub batch_latency_ns: Arc<Histogram>,
    /// The rank's flight recorder (one `BatchFlush` event per batch).
    pub flight: Arc<FlightRecorder>,
}

impl CoalesceMetrics {
    /// Resolve the bundle's metrics from `reg`.
    pub fn from_registry(reg: &Registry, flight: Arc<FlightRecorder>) -> Self {
        CoalesceMetrics {
            batch_size: reg.histogram("hcl_rpc_batch_size"),
            batch_latency_ns: reg.histogram("hcl_rpc_batch_latency_ns"),
            flight,
        }
    }
}

/// The lease-cache instrumentation bundle (read-path scale-out): hit/miss
/// traffic, every invalidation cause broken out, lease grants, and the
/// locally-served get latency distribution. Resolved once
/// per container handle; the hit path is handle derefs only.
#[derive(Clone)]
pub struct CacheMetrics {
    /// Reads served locally from a live lease.
    pub hits: Arc<Counter>,
    /// Reads that had no usable cached entry and went to the fabric.
    pub misses: Arc<Counter>,
    /// Leases granted (cache fills from a leased get response).
    pub lease_grants: Arc<Counter>,
    /// Entries dropped because their lease deadline passed.
    pub stale_expired: Arc<Counter>,
    /// Live entries dropped by a write of their key through the same handle.
    pub stale_version: Arc<Counter>,
    /// Entries dropped by an ownership-epoch bump.
    pub stale_epoch: Arc<Counter>,
    /// Entries evicted to keep the cache inside its capacity bound.
    pub evictions: Arc<Counter>,
    /// Latency of cache-hit gets, nanoseconds (no fabric involved).
    pub cached_get_ns: Arc<Histogram>,
}

impl CacheMetrics {
    /// Resolve the bundle's metrics from `reg`.
    pub fn from_registry(reg: &Registry) -> Self {
        CacheMetrics {
            hits: reg.counter("hcl_core_cache_hits"),
            misses: reg.counter("hcl_core_cache_misses"),
            lease_grants: reg.counter("hcl_core_cache_lease_grants"),
            stale_expired: reg.counter("hcl_core_cache_stale_expired"),
            stale_version: reg.counter("hcl_core_cache_stale_version"),
            stale_epoch: reg.counter("hcl_core_cache_stale_epoch"),
            evictions: reg.counter("hcl_core_cache_evictions"),
            cached_get_ns: reg.histogram("hcl_core_cache_local_get_ns"),
        }
    }

    /// A bundle backed by a private registry — used when a handle has lease
    /// caching enabled but the rank runs without telemetry; counters still
    /// accumulate for programmatic snapshots, nothing is exported.
    pub fn detached() -> Self {
        Self::from_registry(&Registry::new())
    }
}

/// The durability subsystem's metric bundle (`hcl-persist`): write-ahead-log
/// appends, sync barriers, and the crash-recovery replay counters.
#[derive(Clone)]
pub struct PersistMetrics {
    /// Records appended to a write-ahead log.
    pub appended: Arc<Counter>,
    /// Durable sync barriers (file fsync) issued — at most one per
    /// acknowledged request under the strict policy (group commit), per
    /// flush-gap interval under the relaxed policy.
    pub fsyncs: Arc<Counter>,
    /// Records covered by a sync barrier. Never ahead of `appended`; equal to
    /// it exactly when every log's durable LSN has caught up with its
    /// appended LSN.
    pub durable: Arc<Counter>,
    /// Parent-directory fsyncs: one per segment file created.
    pub dir_fsyncs: Arc<Counter>,
    /// Appends that failed with an I/O error (the record is not in the log).
    pub append_errors: Arc<Counter>,
    /// Sync barriers that failed with an I/O error (nothing newly durable).
    pub commit_errors: Arc<Counter>,
    /// Compactions that failed with an I/O error (the log still holds the
    /// history the snapshot was meant to replace).
    pub compact_errors: Arc<Counter>,
    /// Record frames read back (snapshot + segments) during replay.
    pub replayed: Arc<Counter>,
    /// Bytes discarded by torn-tail truncation on replay (a crash artifact:
    /// a partial final record, chopped off the segment file itself).
    pub truncated_tail: Arc<Counter>,
    /// Replayed ops actually re-applied after `(rank, seq)` recovery-
    /// descriptor dedup — the exactly-once count.
    pub recovered_ops: Arc<Counter>,
    /// Checksum-valid frames replay had to skip because their payload did
    /// not decode as the container's record type (or carried a tag/shape it
    /// does not know): state the log held that the recovered structure lacks.
    pub replay_undecodable: Arc<Counter>,
    /// Size of the last snapshot written or loaded, bytes.
    pub snapshot_bytes: Arc<Gauge>,
    /// Where append/commit/compaction failures and skipped replay records are
    /// recorded ([`EventKind::PersistError`]).
    pub flight: Arc<FlightRecorder>,
}

impl PersistMetrics {
    /// Resolve the bundle's metrics from `reg`; failures are recorded into
    /// `flight`.
    pub fn from_registry(reg: &Registry, flight: Arc<FlightRecorder>) -> Self {
        PersistMetrics {
            appended: reg.counter("hcl_persist_appended"),
            fsyncs: reg.counter("hcl_persist_fsyncs"),
            durable: reg.counter("hcl_persist_durable"),
            dir_fsyncs: reg.counter("hcl_persist_dir_fsyncs"),
            append_errors: reg.counter("hcl_persist_append_errors"),
            commit_errors: reg.counter("hcl_persist_commit_errors"),
            compact_errors: reg.counter("hcl_persist_compact_errors"),
            replayed: reg.counter("hcl_persist_replayed"),
            truncated_tail: reg.counter("hcl_persist_truncated_tail"),
            recovered_ops: reg.counter("hcl_persist_recovered_ops"),
            replay_undecodable: reg.counter("hcl_persist_replay_undecodable"),
            snapshot_bytes: reg.gauge("hcl_persist_snapshot_bytes"),
            flight,
        }
    }

    /// A bundle backed by a private registry and an empty flight ring — used
    /// when a durable container runs without telemetry; counters still
    /// accumulate for programmatic snapshots, nothing is exported.
    pub fn detached() -> Self {
        Self::from_registry(&Registry::new(), Arc::new(FlightRecorder::new(0, 0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_convention() {
        assert!(valid_metric_name("hcl_rpc_retransmits"));
        assert!(valid_metric_name("hcl_core_op_latency_remote_ns"));
        assert!(valid_metric_name("hcl_fabric_chaos_drops"));
        assert!(!valid_metric_name("rpc_retransmits"), "missing hcl_ prefix");
        assert!(!valid_metric_name("hcl_retransmits"), "missing crate segment");
        assert!(!valid_metric_name("hcl_rpc_"), "empty metric segment");
        assert!(!valid_metric_name("hcl__x"), "empty crate segment");
        assert!(!valid_metric_name("hcl_rpc_Retransmits"), "uppercase");
        assert!(!valid_metric_name("hcl_rpc_re-transmits"), "dash");
    }

    #[test]
    #[should_panic(expected = "hcl_<crate>_<name>")]
    fn registry_rejects_malformed_names() {
        Registry::new().counter("bogus_metric");
    }

    #[test]
    fn persist_bundle_resolves_and_names_pass_convention() {
        let reg = Registry::new();
        let flight = Arc::new(FlightRecorder::new(0, 0));
        let m = PersistMetrics::from_registry(&reg, Arc::clone(&flight));
        m.appended.inc();
        m.fsyncs.inc();
        m.durable.inc();
        m.dir_fsyncs.inc();
        m.append_errors.inc();
        m.commit_errors.inc();
        m.compact_errors.inc();
        m.replayed.add(3);
        m.truncated_tail.add(7);
        m.recovered_ops.add(2);
        m.replay_undecodable.inc();
        m.snapshot_bytes.set(4096);
        let (counters, gauges, _) = reg.snapshot();
        for (name, _) in counters.iter().chain(gauges.iter()) {
            assert!(valid_metric_name(name), "persist metric breaks convention: {name}");
        }
        assert_eq!(counters.len(), 11);
        assert_eq!(gauges.len(), 1);
        // Shared handles: a second resolve sees the same counters.
        let again = PersistMetrics::from_registry(&reg, flight);
        assert_eq!(again.appended.get(), 1);
    }

    #[test]
    fn registry_get_or_create_shares_handles() {
        let reg = Registry::new();
        let a = reg.counter("hcl_test_hits");
        let b = reg.counter("hcl_test_hits");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let (counters, _, _) = reg.snapshot();
        assert_eq!(counters, vec![("hcl_test_hits".to_string(), 3)]);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        // 90 fast ops at ~1µs, 9 at ~16µs, 1 at ~1ms.
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..9 {
            h.record(16_000);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 1_000_000);
        let p50 = s.p50();
        assert!((1_000..2_048).contains(&p50), "p50 {p50} should sit in the 1µs bucket");
        let p99 = s.p99();
        assert!(p99 >= 16_000 && p99 < 32_768, "p99 {p99} should sit in the 16µs bucket");
        assert_eq!(s.quantile(1.0), 1_000_000, "p100 capped at the observed max");
    }

    #[test]
    fn histogram_merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(100);
        b.record(1_000_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 2);
        assert_eq!(m.max, 1_000_000);
        assert_eq!(m.sum, 1_000_100);
    }

    #[test]
    fn bucket_of_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn snapshot_exports_json_and_prometheus() {
        let t = Telemetry::new(3, TelemetryConfig::default());
        t.registry().counter("hcl_test_ops").add(7);
        t.registry().gauge("hcl_test_depth").set(2);
        t.registry().histogram("hcl_test_lat_ns").record(500);
        let snap = t.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"rank\": 3"));
        assert!(json.contains("\"hcl_test_ops\": 7"));
        assert!(json.contains("\"hcl_test_depth\": 2"));
        assert!(json.contains("\"hcl_test_lat_ns\""));
        assert!(json.contains("\"p99\""));
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE hcl_test_ops counter"));
        assert!(prom.contains("hcl_test_ops{rank=\"3\"} 7"));
        assert!(prom.contains("hcl_test_lat_ns{rank=\"3\",quantile=\"0.99\"}"));
        assert!(prom.contains("hcl_test_lat_ns_count{rank=\"3\"} 1"));
    }

    #[test]
    fn disabled_telemetry_has_empty_flight_ring() {
        let t = Telemetry::new(0, TelemetryConfig::disabled());
        assert!(!t.enabled());
        t.flight().record(FlightEvent::op(
            EventKind::Issue,
            "umap.put",
            1,
            8,
            1,
            Outcome::Pending,
            0,
        ));
        assert!(t.flight().events().is_empty());
    }
}
