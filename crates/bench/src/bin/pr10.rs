//! PR 10 acceptance bench — strict-vs-relaxed sync epochs (flush gap).
//!
//! Measures an 8-rank zipfian `put` workload against one durable
//! `UnorderedMap` (memory fabric, hybrid bypass off so every write is a
//! real dispatch) under three durability cells over identical op streams:
//!
//! * **none** — persistence off: the no-WAL baseline;
//! * **strict** — `SyncPolicy::Strict`: every logged mutation is durable
//!   before its ack leaves, one group commit per acknowledged request (zero
//!   acknowledged-write loss on `kill -9`);
//! * **relaxed** — `SyncPolicy::Relaxed { 5 ms }`: appends land in the
//!   page cache and a background flusher closes the gap, so fsyncs
//!   amortize over many acks (bounded-tail loss on `kill -9`).
//!
//! The gate is the flush-gap signature, not raw speed: both durable cells
//! must log every put (`hcl_persist_appended` == total puts), the `none`
//! cell must log nothing, strict must leave nothing un-durable behind its
//! last ack (every log's durable LSN caught up with its appended LSN) at no
//! more than one fsync per put, relaxed must fsync orders of magnitude
//! less, and relaxed throughput must not collapse relative to strict. The full run (no args) writes
//! `BENCH_pr10.json` into the repo root with puts/s, merged p50/p99 and
//! the persist counters per cell. `--smoke` runs a reduced subset with the
//! same invariants and validates the committed JSON; `--validate` only
//! validates; `--out <path>` redirects the full run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use hcl::unordered::UnorderedMapConfig;
use hcl::{PersistConfig, SyncPolicy, UnorderedMap};
use hcl_bench::workload::{KeyDist, KeyGen, WorkloadRng};
use hcl_runtime::{World, WorldConfig};

const RANKS: u32 = 8;
const KEY_SPACE: u64 = 1024;
const VALUE_BYTES: usize = 64;
const THETA: f64 = 0.99;
const SEED: u64 = 0xA210;

#[derive(Clone, Copy, PartialEq)]
enum Cell {
    None,
    Strict,
    Relaxed,
}

impl Cell {
    fn name(self) -> &'static str {
        match self {
            Cell::None => "none",
            Cell::Strict => "strict",
            Cell::Relaxed => "relaxed",
        }
    }

    fn policy(self) -> Option<SyncPolicy> {
        match self {
            Cell::None => None,
            Cell::Strict => Some(SyncPolicy::Strict),
            Cell::Relaxed => Some(SyncPolicy::Relaxed { interval: Duration::from_millis(5) }),
        }
    }
}

struct CellResult {
    cell: &'static str,
    elapsed_s: f64,
    total_puts: u64,
    puts_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
    appended: u64,
    /// Records covered by a sync barrier when the last ack had returned.
    durable: u64,
    fsyncs: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn scratch(cell: Cell) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hcl-pr10-{}-{}", std::process::id(), cell.name()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One durability cell: every rank streams `puts` synchronous zipfian puts,
/// timing each; persist counters are summed across rank registries after
/// the barrier (each WAL bumps exactly one rank's registry).
fn run_cell(cell: Cell, puts: u64) -> CellResult {
    let dir = scratch(cell);
    let persist = cell.policy().map(|policy| PersistConfig {
        policy,
        ..PersistConfig::strict(&dir)
    });
    let cfg = WorldConfig { nodes: RANKS, ranks_per_node: 1, ..WorldConfig::small() };
    let per_rank: Vec<(f64, Vec<u64>, [u64; 3])> = World::run(cfg, move |rank| {
        let map: UnorderedMap<u64, Vec<u8>> = UnorderedMap::with_config(
            rank,
            "pr10.map",
            UnorderedMapConfig { hybrid: false, persist: persist.clone(), ..Default::default() },
        );
        rank.barrier();
        let keygen = KeyGen::new(KEY_SPACE, KeyDist::Zipfian { theta: THETA }, SEED);
        let mut rng = WorkloadRng::new(SEED ^ (0x9E37_79B9 * (rank.id() as u64 + 1)));
        let val = vec![0xA5u8; VALUE_BYTES];
        let mut lat = Vec::with_capacity(puts as usize);
        let t0 = Instant::now();
        for _ in 0..puts {
            let k = keygen.next_key(&mut rng);
            let op0 = Instant::now();
            map.put(k, val.clone()).expect("durable put");
            lat.push(op0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        let dt = t0.elapsed().as_secs_f64();
        rank.barrier();
        // Every put has been acknowledged; read before anything else (a
        // flusher pass) can move the counters.
        let reg = rank.telemetry().registry();
        let counters = ["hcl_persist_appended", "hcl_persist_durable", "hcl_persist_fsyncs"]
            .map(|name| reg.counter(name).get());
        rank.barrier();
        (dt, lat, counters)
    });
    let _ = std::fs::remove_dir_all(&dir);

    let slowest = per_rank.iter().map(|(dt, _, _)| *dt).fold(0.0f64, f64::max).max(1e-9);
    let mut merged: Vec<u64> = per_rank.iter().flat_map(|(_, l, _)| l.iter().copied()).collect();
    let counter = |i: usize| per_rank.iter().map(|(_, _, c)| c[i]).sum();
    merged.sort_unstable();
    let total = merged.len() as u64;
    CellResult {
        cell: cell.name(),
        elapsed_s: slowest,
        total_puts: total,
        puts_per_sec: total as f64 / slowest,
        p50_ns: percentile(&merged, 0.50),
        p99_ns: percentile(&merged, 0.99),
        appended: counter(0),
        durable: counter(1),
        fsyncs: counter(2),
    }
}

/// The flush-gap invariants every fresh run must satisfy, smoke or full.
fn assert_invariants(none: &CellResult, strict: &CellResult, relaxed: &CellResult) {
    assert_eq!(none.appended, 0, "persistence-off cell appended {} WAL records", none.appended);
    for r in [strict, relaxed] {
        assert_eq!(
            r.appended, r.total_puts,
            "{} cell logged {} records for {} puts — acks outran the WAL",
            r.cell, r.appended, r.total_puts
        );
    }
    // `durable` never runs ahead of `appended` on any one log, so equal sums
    // mean every strict log's durable LSN equals its appended LSN.
    assert_eq!(
        strict.durable, strict.appended,
        "strict cell acknowledged its last put with {} of {} records durable — an ack \
         outran its commit",
        strict.durable, strict.appended
    );
    assert!(
        strict.fsyncs <= strict.total_puts,
        "strict cell fsynced {} times for {} puts — more than one barrier per acknowledged \
         request",
        strict.fsyncs,
        strict.total_puts
    );
    let gap = strict.fsyncs as f64 / relaxed.fsyncs.max(1) as f64;
    assert!(
        gap >= 10.0,
        "flush gap collapsed: strict {} fsyncs vs relaxed {} ({gap:.1}x, need >= 10x)",
        strict.fsyncs,
        relaxed.fsyncs
    );
    let ratio = relaxed.puts_per_sec / strict.puts_per_sec;
    assert!(
        ratio >= 0.5,
        "relaxed throughput fell to {ratio:.2}x of strict — the background flusher is \
         in the write path"
    );
}

fn write_json(cells: &[CellResult], puts: u64, path: &str) {
    let strict = &cells[1];
    let relaxed = &cells[2];
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"pr10_sync_epochs\",\n");
    out.push_str("  \"description\": \"8-rank zipfian durable puts: no persistence vs strict (one group commit per acknowledged request) vs relaxed (background flusher, bounded flush gap)\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"ranks\": {RANKS}, \"key_space\": {KEY_SPACE}, \"value_bytes\": {VALUE_BYTES}, \"theta\": {THETA}, \"seed\": {SEED}, \"puts_per_rank\": {puts}, \"relaxed_interval_ms\": 5, \"hybrid\": false}},\n"
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"cell\": \"{}\", \"elapsed_s\": {:.6}, \"total_puts\": {}, \"puts_per_sec\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}, \"appended\": {}, \"durable\": {}, \"fsyncs\": {}}}{}\n",
            r.cell,
            r.elapsed_s,
            r.total_puts,
            r.puts_per_sec,
            r.p50_ns,
            r.p99_ns,
            r.appended,
            r.durable,
            r.fsyncs,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"summary\": {\n");
    out.push_str(&format!(
        "    \"flush_gap_strict_over_relaxed\": {:.1},\n",
        strict.fsyncs as f64 / relaxed.fsyncs.max(1) as f64
    ));
    out.push_str(&format!(
        "    \"throughput_ratio_relaxed_vs_strict\": {:.3},\n",
        relaxed.puts_per_sec / strict.puts_per_sec
    ));
    out.push_str(&format!(
        "    \"durability_cost_strict_vs_none\": {:.3}\n",
        cells[0].puts_per_sec / strict.puts_per_sec
    ));
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

/// Validate the committed artifact: all three cells present, every durable
/// put logged, the flush gap wide, relaxed throughput not collapsed.
fn validate(path: &str) {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e} (run `cargo run --release -p hcl-bench --bin pr10` first)")
    });
    for key in [
        "\"bench\"",
        "\"pr10_sync_epochs\"",
        "\"none\"",
        "\"strict\"",
        "\"relaxed\"",
        "\"summary\"",
        "\"flush_gap_strict_over_relaxed\"",
    ] {
        assert!(body.contains(key), "{path}: missing required key {key}");
    }
    let mut appended_seen = Vec::new();
    for chunk in body.split("{\"cell\": \"").skip(1) {
        let rate = field_f64(chunk, "puts_per_sec");
        assert!(rate > 0.0, "{path}: non-positive puts_per_sec");
        appended_seen.push((field_f64(chunk, "appended"), field_f64(chunk, "total_puts")));
    }
    assert_eq!(appended_seen.len(), 3, "{path}: expected 3 durability cells");
    assert_eq!(appended_seen[0].0, 0.0, "{path}: none cell appended WAL records");
    for (appended, puts) in &appended_seen[1..] {
        assert_eq!(appended, puts, "{path}: a durable cell logged fewer records than puts");
    }
    let gap = field_f64(&body, "flush_gap_strict_over_relaxed");
    assert!(gap >= 10.0, "{path}: flush gap {gap:.1}x below the 10x bar");
    let ratio = field_f64(&body, "throughput_ratio_relaxed_vs_strict");
    assert!(ratio >= 0.5, "{path}: relaxed throughput collapsed to {ratio:.3}x of strict");
    println!("{path}: schema OK, flush gap {gap:.1}x, relaxed/strict throughput {ratio:.3}x");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let validate_only = args.iter().any(|a| a == "--validate");
    let path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_pr10.json".to_string());

    if validate_only {
        validate(&path);
        return;
    }

    let puts: u64 = if smoke { 2_500 } else { 20_000 };
    let cells: Vec<CellResult> =
        [Cell::None, Cell::Strict, Cell::Relaxed].into_iter().map(|c| run_cell(c, puts)).collect();
    for r in &cells {
        println!(
            "{:<8} {:>12.0} puts/s  p50 {:>7} ns  p99 {:>8} ns  appended {:>7}  durable {:>7}  fsyncs {:>7}",
            r.cell, r.puts_per_sec, r.p50_ns, r.p99_ns, r.appended, r.durable, r.fsyncs
        );
    }
    assert_invariants(&cells[0], &cells[1], &cells[2]);

    if smoke {
        validate(&path);
    } else {
        write_json(&cells, puts, &path);
        validate(&path);
    }
}
