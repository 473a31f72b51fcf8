//! Thread placement. Unpinned, a remote op has two speeds on a small host:
//! ~6 us when the client and the serving NIC worker happen to share a CPU
//! (the wake-up is a context switch), ~29 us when they do not (it is an
//! inter-processor interrupt), and which one a run gets is the scheduler's
//! choice. The benchmark fixes the second, the one a real deployment has:
//! the client on one CPU, the serving side on another.
//!
//! The serving CPU is also kept awake ([`keep_server_awake`]): left to halt
//! between requests, a virtual CPU is woken by the host's scheduler, whose
//! halt-polling adapts in phases minutes long, and the same remote op reads
//! 22 us in one phase and 28 us in the next. A NIC core does not sleep.

use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The load generator and what it spawns (its coalescer ticker).
    Client,
    /// NIC workers, and rank 1 when it answers ping-pongs.
    Server,
}

/// First and last CPU this process may run on, read before any pinning.
fn cpus() -> Option<(usize, usize)> {
    static CPUS: OnceLock<Option<(usize, usize)>> = OnceLock::new();
    *CPUS.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
        let (first, last) = parse_cpu_list(list.trim())?;
        (first != last).then_some((first, last))
    })
}

/// First and last id of a kernel CPU list such as `0-1` or `0,2-5,7`.
fn parse_cpu_list(list: &str) -> Option<(usize, usize)> {
    let id = |s: &str| s.trim().parse::<usize>().ok();
    let first = id(list.split([',', '-']).next()?)?;
    let last = id(list.rsplit([',', '-']).next()?)?;
    Some((first, last))
}

/// Run `tool` with `args` and the calling thread's id appended; true if it
/// succeeded. (`taskset` and `chrt` take a thread id where they take a pid.)
fn on_this_thread(tool: &str, args: &[&str]) -> bool {
    let Ok(thread) = std::fs::read_link("/proc/thread-self") else {
        return false;
    };
    let Some(tid) = thread.file_name() else {
        return false;
    };
    let done = Command::new(tool)
        .args(args)
        .arg(tid)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    done.is_ok_and(|s| s.success())
}

/// Pin the calling thread, and so every thread it spawns from now on, to
/// its side's CPU. With one usable CPU, or without `taskset`, nothing is
/// pinned and the run is as steady as the scheduler lets it be.
pub fn pin(side: Side) -> bool {
    let Some((first, last)) = cpus() else {
        return false;
    };
    let cpu = if side == Side::Client { first } else { last };
    let pinned = on_this_thread("taskset", &["-pc", &cpu.to_string()]);
    if !pinned {
        eprintln!("hclbench: could not pin a thread to CPU {cpu}; latencies may be bimodal");
    }
    pinned
}

/// A thread spinning on the server side's CPU at idle priority: anything
/// else runnable there preempts it at once, and the CPU never halts. Stops
/// when dropped.
pub struct Awake {
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<()>>,
}

/// Keep the server side's CPU awake for as long as the result lives. The
/// spinner only spins once it is both pinned and demoted to `SCHED_IDLE`
/// (`chrt`); failing either, it would compete with what it is there to help.
pub fn keep_server_awake() -> Awake {
    let stop = Arc::new(AtomicBool::new(false));
    // Read the CPU list here, on a thread nothing has pinned yet.
    if cpus().is_none() {
        return Awake {
            stop,
            spinner: None,
        };
    }
    let stopped = Arc::clone(&stop);
    let spinner = std::thread::spawn(move || {
        if !(pin(Side::Server) && on_this_thread("chrt", &["-i", "-p", "0"])) {
            eprintln!("hclbench: the serving CPU is not kept awake; remote latencies may drift");
            return;
        }
        // ORDERING: Relaxed; the flag publishes nothing but itself.
        while !stopped.load(Ordering::Relaxed) {
            std::hint::spin_loop();
        }
    });
    Awake {
        stop,
        spinner: Some(spinner),
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            // A panicked spinner has nothing left to clean up.
            let _ = spinner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_to_their_ends() {
        assert_eq!(parse_cpu_list("0-1"), Some((0, 1)));
        assert_eq!(parse_cpu_list("0,2-5,7"), Some((0, 7)));
        assert_eq!(parse_cpu_list("3"), Some((3, 3)));
        assert_eq!(parse_cpu_list(""), None);
    }
}
