//! An idle world sleeps. A 2×1 world with nothing to do runs one NIC worker
//! per rank and core plus the world's one deadline thread, and all of them
//! together cost under 5 ms of CPU per second.
//!
//! This is its own test binary because CPU time is process-wide: another
//! test running beside it would be counted too.

use std::time::{Duration, Instant};

use hcl_runtime::{World, WorldConfig};

/// User plus system CPU time of this process (`/proc/self/stat` fields 14
/// and 15, in clock ticks of 10 ms).
fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; field 3 starts after `) `.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("stat has a comm field") + 2..]
        .split(' ')
        .collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("tick count");
    Duration::from_millis(10 * (ticks(11) + ticks(12)))
}

/// The names of this process's threads that start with `hcl-`.
fn hcl_threads() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("hcl-"))
        .collect()
}

#[test]
fn an_idle_world_sleeps() {
    let cfg = WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() };
    // Rank 0 measures while rank 1 waits at the barrier; the checks run
    // after the world is gone, so a failure cannot strand a rank.
    let measured = World::run(cfg, |rank| {
        rank.barrier();
        let measured = (rank.id() == 0).then(|| {
            // Each reading of the tick counters may be short by up to a tick
            // per field, so a 6 s window keeps that error under 3.4 ms/s.
            std::thread::sleep(Duration::from_millis(100));
            let (t0, cpu0) = (Instant::now(), cpu_time());
            std::thread::sleep(Duration::from_secs(6));
            let used = cpu_time().saturating_sub(cpu0);
            let ms_per_s = used.as_secs_f64() * 1e3 / t0.elapsed().as_secs_f64();
            // Read after the window: a thread names itself once it runs.
            (hcl_threads(), ms_per_s)
        });
        rank.barrier();
        measured
    });
    let (threads, ms_per_s) = measured.into_iter().flatten().next().expect("rank 0 measured");
    let expected = cfg.world_size() as usize * cfg.nic_cores + 1;
    assert_eq!(threads.len(), expected, "threads of a 2x1 world: {threads:?}");
    assert!(ms_per_s < 5.0, "an idle world used {ms_per_s:.1} ms of CPU per second");
}
