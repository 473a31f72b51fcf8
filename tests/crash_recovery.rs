//! Subprocess crash harness for the durability subsystem (PR 10).
//!
//! The runtime is threads-as-ranks in one process, so a realistic crash has
//! to kill a *process*: each test re-executes its own test binary as a child
//! (the `#[ignore]`d `crash_child_worker` below), lets the child's ranks
//! stream durable writes while appending every *acknowledged* key to a
//! per-rank ack file, then SIGKILLs the child mid-write and recovers the
//! container in-process from the surviving write-ahead logs.
//!
//! Contracts checked:
//! * **strict** sync epochs: every acknowledged write is on disk before the
//!   ack — zero acknowledged-write loss, bit-exact values — both for one
//!   synchronous put per request and for windows of 16 `put_async` whose
//!   aggregated requests share one commit each (`strict_async_window`);
//! * **relaxed** sync epochs: loss is confined to the un-synced tail — per
//!   (writer rank, owner partition) the missing keys form a *suffix* of
//!   that writer's acknowledged sequence, never a hole;
//! * recovery integrates with membership: after replay the world can
//!   `drain_rank`/`admit_rank` a victim and still serve every surviving
//!   key error-free (the "killed rank rejoins with recovered data" story);
//! * `crash_soak`: the same kill/recover cycle iterated with a seeded RNG,
//!   reusing one log directory so later children replay, compact and
//!   append over earlier generations' state (`just crash-soak`);
//! * a strict compaction racing a writer deletes no acknowledged write:
//!   after a reopen every acknowledged put (map) or push (queue) is there.
//!   No process is killed for these: the loss they guard against needs none.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hcl::queue::QueueConfig;
use hcl::unordered::UnorderedMapConfig;
use hcl::{admit_rank, drain_rank, stable_hash, PersistConfig, Queue, SyncPolicy, UnorderedMap};
use hcl_runtime::{World, WorldConfig};

const RANKS: u32 = 4;
const VALUE_XOR: u64 = 0x5a5a_5a5a;
/// Acks per rank the parent waits for before pulling the trigger.
const KILL_AFTER_ACKS: usize = 300;
/// `put_async` calls in flight per window in the `strict_async_window` child.
const ASYNC_WINDOW: u64 = 16;

fn ww() -> WorldConfig {
    WorldConfig { nodes: 2, ranks_per_node: 2, ..WorldConfig::small() }
}

fn key_of(rank: u32, iter: u64, i: u64) -> u64 {
    (iter << 48) | ((rank as u64) << 32) | i
}

/// The child half: stream durable puts forever (the parent kills us),
/// acking each completed put to a per-rank file. Plain `write` syscalls
/// survive SIGKILL (the page cache outlives the process), so the ack files
/// need no fsync of their own.
#[test]
#[ignore = "subprocess worker spawned by the crash-recovery tests"]
fn crash_child_worker() {
    let Some(dir) = std::env::var_os("HCL_CRASH_DIR") else { return };
    let dir = PathBuf::from(dir);
    let mode = std::env::var("HCL_CRASH_MODE").unwrap_or_else(|_| "strict".into());
    let iter: u64 = std::env::var("HCL_CRASH_ITER").ok().and_then(|s| s.parse().ok()).unwrap_or(0);
    let policy = match mode.as_str() {
        "relaxed" => SyncPolicy::Relaxed { interval: Duration::from_millis(25) },
        _ => SyncPolicy::Strict,
    };
    let pcfg = PersistConfig { policy, ..PersistConfig::strict(dir.join("logs")) };
    // The async-window child turns the hybrid bypass off: every put then
    // commits through a NIC worker's ack scope, never inline on a rank
    // thread whose fsync would cover for a barrier the server skipped.
    let hybrid = mode != "strict_async_window";
    World::run(ww(), move |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
            rank,
            "crash.map",
            UnorderedMapConfig { hybrid, persist: Some(pcfg.clone()), ..Default::default() },
        );
        rank.barrier();
        let mut ack = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(format!("ack.{}.{}", iter, rank.id())))
            .expect("open ack file");
        if mode == "strict_async_window" {
            // Group commit's own shape: the coalescer aggregates the window
            // into a few requests, each acknowledged after ONE commit. The
            // kill lands mid-window; a key counts as acked only once its
            // future resolved.
            for base in (0..1_000_000u64).step_by(ASYNC_WINDOW as usize) {
                let keys: Vec<u64> =
                    (base..base + ASYNC_WINDOW).map(|i| key_of(rank.id(), iter, i)).collect();
                let futs: Vec<_> = keys
                    .iter()
                    .map(|&k| map.put_async(k, k ^ VALUE_XOR).expect("durable put_async"))
                    .collect();
                rank.flush_ops();
                for (k, fut) in keys.iter().zip(futs) {
                    fut.wait().expect("durable put_async ack");
                    ack.write_all(format!("{k}\n").as_bytes()).expect("ack append");
                }
            }
        } else {
            for i in 0..1_000_000u64 {
                let k = key_of(rank.id(), iter, i);
                map.put(k, k ^ VALUE_XOR).expect("durable put");
                ack.write_all(format!("{k}\n").as_bytes()).expect("ack append");
            }
        }
        rank.barrier();
    });
}

fn spawn_child(dir: &Path, mode: &str, iter: u64) -> Child {
    Command::new(std::env::current_exe().expect("own test binary"))
        .args(["--ignored", "--exact", "crash_child_worker", "--test-threads=1", "--nocapture"])
        .env("HCL_CRASH_DIR", dir)
        .env("HCL_CRASH_MODE", mode)
        .env("HCL_CRASH_ITER", iter.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn crash child")
}

/// Complete (newline-terminated) acked keys of one rank, in ack order. A
/// torn final line — the kill landed mid-`write` — is ignored.
fn acked_keys(dir: &Path, iter: u64, rank: u32) -> Vec<u64> {
    let raw = std::fs::read(dir.join(format!("ack.{iter}.{rank}"))).unwrap_or_default();
    let text = String::from_utf8_lossy(&raw);
    let mut keys: Vec<u64> = Vec::new();
    for line in text.split_inclusive('\n') {
        if let Some(stripped) = line.strip_suffix('\n') {
            keys.push(stripped.parse().expect("ack line is a key"));
        }
    }
    keys
}

/// Wait until every rank acked at least `min` keys, kill -9, reap.
fn run_until_kill(dir: &Path, mode: &str, iter: u64, min: usize) {
    let mut child = spawn_child(dir, mode, iter);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let progressed = (0..RANKS).all(|r| acked_keys(dir, iter, r).len() >= min);
        if progressed {
            break;
        }
        if let Some(status) = child.try_wait().expect("poll crash child") {
            panic!("crash child exited early ({status:?}) before reaching the kill point");
        }
        assert!(Instant::now() < deadline, "crash child made no progress in 120s");
    }
    child.kill().expect("SIGKILL the crash child");
    let _ = child.wait();
}

/// Recover and check one generation's acked keys. `strict` demands every
/// acked key back; relaxed demands per-(writer, owner) suffix-only loss.
/// Returns (present, missing) counts.
fn verify_generation(
    rank: &hcl_runtime::Rank,
    map: &UnorderedMap<u64, u64>,
    dir: &Path,
    iter: u64,
    strict: bool,
) -> (usize, usize) {
    let me = rank.id();
    let acked = acked_keys(dir, iter, me);
    assert!(acked.len() >= KILL_AFTER_ACKS, "rank {me} acked too little to test anything");
    let members = rank.world().membership().current();
    let mut by_owner: HashMap<u32, Vec<u64>> = HashMap::new();
    for &k in &acked {
        by_owner.entry(members.owner_of_hash(stable_hash(&k))).or_default().push(k);
    }
    let (mut present, mut missing) = (0usize, 0usize);
    for (owner, keys) in by_owner {
        let mut lost_started = false;
        for &k in &keys {
            match map.get(&k).expect("recovered get") {
                Some(v) => {
                    assert_eq!(v, k ^ VALUE_XOR, "key {k} recovered with a corrupt value");
                    assert!(
                        !lost_started,
                        "writer {me}, owner {owner}: key {k} survived after an earlier \
                         loss — relaxed loss must be a suffix, not a hole"
                    );
                    present += 1;
                }
                None => {
                    assert!(
                        !strict,
                        "strict mode lost acknowledged key {k} (writer {me}, owner {owner})"
                    );
                    lost_started = true;
                    missing += 1;
                }
            }
        }
    }
    (present, missing)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hcl-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One kill/recover cycle plus the membership rejoin: drain a victim rank,
/// re-admit it, and demand every surviving key is still served.
fn crash_recover_once(name: &str, mode: &str) {
    let dir = fresh_dir(name);
    run_until_kill(&dir, mode, 0, KILL_AFTER_ACKS);
    let strict = mode != "relaxed";
    let policy = match mode {
        "relaxed" => SyncPolicy::Relaxed { interval: Duration::from_millis(25) },
        _ => SyncPolicy::Strict,
    };
    let pcfg = PersistConfig { policy, ..PersistConfig::strict(dir.join("logs")) };
    let dir2 = dir.clone();
    World::run(ww(), move |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
            rank,
            "crash.map",
            UnorderedMapConfig { persist: Some(pcfg.clone()), ..Default::default() },
        );
        rank.barrier();
        let (present, _missing) = verify_generation(rank, &map, &dir2, 0, strict);
        assert!(present > 0, "recovery found nothing — the WAL replay is broken");
        rank.barrier();

        // The recovered world takes part in membership like any other: the
        // one-time victim leaves and rejoins, its recovered shards moving
        // with it, and every surviving key stays served.
        let survivors: Vec<u64> = {
            let acked = acked_keys(&dir2, 0, rank.id());
            acked
                .into_iter()
                .filter(|k| map.get(k).expect("pre-drain get").is_some())
                .collect()
        };
        rank.barrier();
        let victim = 2;
        assert!(drain_rank(rank, victim).expect("drain recovered rank").committed);
        assert!(admit_rank(rank, victim).expect("re-admit recovered rank").committed);
        for &k in &survivors {
            assert_eq!(
                map.get(&k).expect("post-rejoin get"),
                Some(k ^ VALUE_XOR),
                "key {k} lost in the drain/admit after recovery"
            );
        }
        rank.barrier();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// kill -9 mid-write under strict sync epochs: zero acknowledged-write loss.
#[test]
fn strict_crash_loses_no_acknowledged_write() {
    crash_recover_once("strict", "strict");
}

/// kill -9 mid-window under strict sync epochs with aggregated requests:
/// every `put_async` whose future resolved was covered by its request's
/// commit before the response left.
#[test]
fn strict_async_window_crash_loses_no_acknowledged_write() {
    crash_recover_once("strict-async", "strict_async_window");
}

/// kill -9 mid-write under relaxed sync epochs: loss is a bounded tail —
/// per (writer, owner) a suffix of the acked sequence, never a hole.
#[test]
fn relaxed_crash_loss_is_a_bounded_tail() {
    crash_recover_once("relaxed", "relaxed");
}

/// Seeded multi-generation soak (`just crash-soak`): repeated kill/recover
/// cycles over ONE log directory, so each child replays, compacts and
/// appends over everything its predecessors survived. Generations alternate
/// between synchronous puts and `put_async` windows. Iterations and seed
/// come from `HCL_SOAK_ITERS` / `HCL_SOAK_SEED`.
#[test]
#[ignore = "long-running; run via `just crash-soak`"]
fn crash_soak() {
    let iters: u64 =
        std::env::var("HCL_SOAK_ITERS").ok().and_then(|s| s.parse().ok()).unwrap_or(3);
    let seed: u64 =
        std::env::var("HCL_SOAK_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0FFEE);
    let dir = fresh_dir("soak");
    let pcfg = PersistConfig::strict(dir.join("logs"));
    let mut state = seed | 1;
    for iter in 0..iters {
        // Vary the kill point generation to generation (xorshift64).
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let kill_after = KILL_AFTER_ACKS + (state % 400) as usize;
        let mode = if iter % 2 == 0 { "strict" } else { "strict_async_window" };
        run_until_kill(&dir, mode, iter, kill_after);
        let pcfg = pcfg.clone();
        let dir2 = dir.clone();
        World::run(ww(), move |rank| {
            let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
                rank,
                "crash.map",
                UnorderedMapConfig { persist: Some(pcfg.clone()), ..Default::default() },
            );
            rank.barrier();
            // Every generation so far must be fully intact (strict).
            for g in 0..=iter {
                let (present, missing) = verify_generation(rank, &map, &dir2, g, true);
                assert_eq!(missing, 0);
                assert!(present >= KILL_AFTER_ACKS);
            }
            // Compact so the directory doesn't grow unboundedly across
            // generations (also exercises snapshot+replay interleaving).
            map.compact_local_logs().expect("compact recovered logs");
            rank.barrier();
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes of each compaction-race test: enough that the last compaction
/// still overlaps the writer.
const RACE_WRITES: u64 = 4000;

/// One rank: its bypass applies every write, so each strict write commits
/// inline on the writer thread, beside the compactor.
fn one_rank() -> WorldConfig {
    WorldConfig { nodes: 1, ranks_per_node: 1, ..WorldConfig::small() }
}

/// Run `write` on a scoped thread while this one compacts in a loop, paced
/// so that a writer held off by each pass still gets its turn.
fn compact_while(write: impl FnOnce() + Send, compact: impl Fn()) {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            write();
            done.store(true, Ordering::Release);
        });
        while !done.load(Ordering::Acquire) {
            compact();
            std::thread::sleep(Duration::from_millis(1));
        }
    });
}

/// A strict map's compaction takes its snapshot, then seals the log tail
/// and deletes what it covers. A put that appended its record between the
/// two was deleted with the covered segments while the snapshot lacked it:
/// acknowledged, then lost at the next restart.
#[test]
fn compaction_racing_puts_keeps_every_acknowledged_put() {
    let dir = fresh_dir("compact-race-map");
    let persist = Some(PersistConfig::strict(&dir));
    let cfg = UnorderedMapConfig { persist, ..Default::default() };
    let c = cfg.clone();
    World::run(one_rank(), move |rank| {
        let open = || UnorderedMap::<u64, u64>::with_config(rank, "race.map", c.clone());
        let map = open();
        let write = || {
            let writer = open();
            (0..RACE_WRITES).for_each(|k| assert!(writer.put(k, k).unwrap()));
        };
        compact_while(write, || map.compact_local_logs().unwrap());
    });
    World::run(one_rank(), move |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(rank, "race.map", cfg.clone());
        let lost: Vec<u64> =
            (0..RACE_WRITES).filter(|k| map.get(k).unwrap() != Some(*k)).collect();
        assert!(lost.is_empty(), "{} acknowledged puts lost, from {:?}", lost.len(), lost.first());
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The queue twin: pushes racing the owner's `compact_log`.
#[test]
fn compaction_racing_pushes_keeps_every_acknowledged_push() {
    let dir = fresh_dir("compact-race-queue");
    let cfg = QueueConfig { persist: Some(PersistConfig::strict(&dir)), ..Default::default() };
    let c = cfg.clone();
    World::run(one_rank(), move |rank| {
        let q: Queue<u64> = Queue::with_config(rank, "race.q", c.clone());
        let write = || {
            let writer: Queue<u64> = Queue::with_config(rank, "race.q", c.clone());
            (0..RACE_WRITES).for_each(|v| assert!(writer.push(v).unwrap()));
        };
        compact_while(write, || q.compact_log().unwrap());
    });
    World::run(one_rank(), move |rank| {
        let q: Queue<u64> = Queue::with_config(rank, "race.q", cfg.clone());
        let popped = q.pop_bulk(u64::MAX).unwrap();
        let n = popped.len();
        assert_eq!(n as u64, RACE_WRITES, "recovered {n} of {RACE_WRITES} acknowledged pushes");
        assert!(popped.into_iter().eq(0..RACE_WRITES), "pushes recovered out of order");
    });
    let _ = std::fs::remove_dir_all(&dir);
}
