//! Bounded flight recorder: the last N op/RPC events of one rank.
//!
//! When a rank dies with `RetriesExhausted` after a 120-second stall, the
//! interesting question is never "what was the final error" — it's "what
//! were the last few hundred things this rank did". The flight recorder
//! answers that: a preallocated ring of [`FlightEvent`]s (op name, dest
//! rank, bytes, batch size, outcome, latency), recorded with one short
//! mutexed copy of a `Copy` struct and dumped as text on panic, on
//! `OwnerDown`/`RetriesExhausted`, or on demand.
//!
//! The record path never allocates: events are `Copy` and land in a ring
//! whose capacity was reserved up front (`tests/alloc_counting.rs` pins
//! this). The panic hook only *tries* to lock each registered ring so a
//! panic raised while holding the ring lock cannot self-deadlock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Once, Weak};

/// What kind of moment an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An op left the dispatcher toward a remote owner.
    Issue,
    /// An op finished (locally or remotely), with its outcome.
    Complete,
    /// An op is being retried after a failed attempt.
    Retry,
    /// The RPC layer retransmitted a request after an attempt timeout.
    Retransmit,
    /// An op fast-failed because its owner is marked down.
    OwnerDown,
    /// The coalescer flushed a batch (`n` = ops in the batch).
    BatchFlush,
    /// A membership transition committed (`n` = new epoch, `dest` = the
    /// rank joining/leaving).
    EpochCommit,
    /// A live shard migration step (`op` names the step, `dest` = the
    /// receiving rank, `n` = keys moved, `bytes` = payload moved).
    Migration,
    /// A write-ahead-log append or sync barrier failed (`op` names which,
    /// `n` = the log's appended LSN at the failure). A request whose
    /// durability depended on it is never acknowledged.
    PersistError,
}

impl EventKind {
    /// Short stable label for dumps.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Issue => "issue",
            EventKind::Complete => "complete",
            EventKind::Retry => "retry",
            EventKind::Retransmit => "retransmit",
            EventKind::OwnerDown => "owner-down",
            EventKind::BatchFlush => "batch-flush",
            EventKind::EpochCommit => "epoch-commit",
            EventKind::Migration => "migration",
            EventKind::PersistError => "persist-error",
        }
    }
}

/// How the recorded moment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Not finished at record time (issues, retries, flushes).
    Pending,
    /// Completed successfully.
    Ok,
    /// Completed with an application-level error.
    Err,
    /// The whole retry budget was spent without a response.
    RetriesExhausted,
    /// Rejected up front: the owner rank is marked down.
    OwnerDown,
}

impl Outcome {
    /// Short stable label for dumps.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Pending => "pending",
            Outcome::Ok => "ok",
            Outcome::Err => "err",
            Outcome::RetriesExhausted => "retries-exhausted",
            Outcome::OwnerDown => "owner-down",
        }
    }
}

/// One recorded moment. `Copy` so recording is a plain store into the
/// preallocated ring — no allocation, no drop glue.
#[derive(Debug, Clone, Copy)]
pub struct FlightEvent {
    /// Global per-rank sequence number (assigned by the recorder).
    pub seq: u64,
    /// What kind of moment this is.
    pub kind: EventKind,
    /// Static op name (`"queue.push"`) or layer label (`"rpc.batch"`).
    pub op: &'static str,
    /// Destination rank (owner of the op / batch).
    pub dest: u32,
    /// Payload bytes involved (argument or batch bytes; 0 if unknown).
    pub bytes: u64,
    /// Element count: op `n` for scaled ops, ops-in-batch for flushes.
    pub n: u64,
    /// How the moment ended.
    pub outcome: Outcome,
    /// Measured latency in nanoseconds (0 when not timed).
    pub latency_ns: u64,
}

impl FlightEvent {
    /// Convenience constructor; `seq` is filled in by the recorder.
    pub fn op(
        kind: EventKind,
        op: &'static str,
        dest: u32,
        bytes: u64,
        n: u64,
        outcome: Outcome,
        latency_ns: u64,
    ) -> Self {
        FlightEvent { seq: 0, kind, op, dest, bytes, n, outcome, latency_ns }
    }
}

struct Ring {
    /// Preallocated storage; never grows past `capacity`.
    events: Vec<FlightEvent>,
    /// Next write position once the ring has wrapped.
    head: usize,
}

/// A bounded ring of the most recent [`FlightEvent`]s on one rank.
pub struct FlightRecorder {
    rank: u32,
    capacity: usize,
    seq: AtomicU64,
    ring: Mutex<Ring>,
    last_dump: Mutex<Option<String>>,
}

impl FlightRecorder {
    /// A recorder for `rank` retaining the last `capacity` events.
    /// Capacity 0 disables recording entirely.
    pub fn new(rank: u32, capacity: usize) -> Self {
        FlightRecorder {
            rank,
            capacity,
            seq: AtomicU64::new(0),
            ring: Mutex::new(Ring { events: Vec::with_capacity(capacity), head: 0 }),
            last_dump: Mutex::new(None),
        }
    }

    /// Number of events the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append one event (oldest is overwritten once full). Allocation-free:
    /// the ring's storage was reserved at construction.
    #[inline]
    pub fn record(&self, mut ev: FlightEvent) {
        if self.capacity == 0 {
            return;
        }
        // ORDERING: Relaxed — the sequence only needs to be unique; events
        // are totally ordered by the ring mutex taken just below.
        ev.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.events.len() < self.capacity {
            ring.events.push(ev);
        } else {
            let head = ring.head;
            ring.events[head] = ev;
            ring.head = (head + 1) % self.capacity;
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = Vec::with_capacity(ring.events.len());
        out.extend_from_slice(&ring.events[ring.head..]);
        out.extend_from_slice(&ring.events[..ring.head]);
        out
    }

    /// Render the retained events as a human-readable dump.
    pub fn dump(&self, reason: &str) -> String {
        let events = self.events();
        let mut out = String::with_capacity(64 + events.len() * 80);
        out.push_str(&format!(
            "== flight recorder rank {} ({} events, reason: {reason}) ==\n",
            self.rank,
            events.len()
        ));
        for ev in &events {
            out.push_str(&format!(
                "  #{:<6} {:<11} {:<24} dest={:<4} bytes={:<8} n={:<6} outcome={:<17} latency_ns={}\n",
                ev.seq,
                ev.kind.label(),
                ev.op,
                ev.dest,
                ev.bytes,
                ev.n,
                ev.outcome.label(),
                ev.latency_ns
            ));
        }
        out
    }

    /// Dump on a failure path: renders the ring, stores it as the last
    /// dump (retrievable via [`last_dump`](Self::last_dump) for tests and
    /// post-mortems), and writes it to stderr.
    pub fn dump_on_failure(&self, reason: &str) {
        if self.capacity == 0 {
            return;
        }
        let text = self.dump(reason);
        *self.last_dump.lock().unwrap_or_else(|p| p.into_inner()) = Some(text.clone());
        eprintln!("{text}");
    }

    /// The most recent failure dump, if any.
    pub fn last_dump(&self) -> Option<String> {
        self.last_dump.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

/// Recorders registered for panic dumps. Weak so a finished rank's recorder
/// doesn't outlive its world.
fn panic_registry() -> &'static Mutex<Vec<Weak<FlightRecorder>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<FlightRecorder>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register `rec` to be dumped if any thread panics. The process-wide hook
/// chains onto the previous panic hook and only *tries* to lock each ring,
/// so a panic raised while a ring lock is held cannot deadlock the hook.
pub fn dump_on_panic(rec: &Arc<FlightRecorder>) {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Ok(regs) = panic_registry().try_lock() {
                for weak in regs.iter() {
                    if let Some(rec) = weak.upgrade() {
                        // try_lock both the ring and the dump slot: if the
                        // panicking thread holds either, skip rather than
                        // deadlock inside the hook.
                        if let Ok(ring) = rec.ring.try_lock() {
                            drop(ring);
                            eprintln!("{}", rec.dump("panic"));
                        }
                    }
                }
            }
            prev(info);
        }));
    });
    let mut regs = panic_registry().lock().unwrap_or_else(|p| p.into_inner());
    regs.retain(|w| w.strong_count() > 0);
    regs.push(Arc::downgrade(rec));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: &'static str, dest: u32) -> FlightEvent {
        FlightEvent::op(EventKind::Issue, op, dest, 8, 1, Outcome::Pending, 0)
    }

    #[test]
    fn ring_retains_most_recent_in_order() {
        let rec = FlightRecorder::new(0, 4);
        for i in 0..10u32 {
            rec.record(ev("queue.push", i));
        }
        let events = rec.events();
        assert_eq!(events.len(), 4);
        let dests: Vec<u32> = events.iter().map(|e| e.dest).collect();
        assert_eq!(dests, vec![6, 7, 8, 9]);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn partial_ring_lists_all() {
        let rec = FlightRecorder::new(0, 8);
        rec.record(ev("umap.put", 1));
        rec.record(ev("umap.get", 2));
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].op, "umap.put");
        assert_eq!(events[1].op, "umap.get");
    }

    #[test]
    fn dump_on_failure_stores_and_formats() {
        let rec = FlightRecorder::new(7, 8);
        rec.record(FlightEvent::op(
            EventKind::Complete,
            "queue.push",
            2,
            8,
            1,
            Outcome::RetriesExhausted,
            1_234,
        ));
        assert!(rec.last_dump().is_none());
        rec.dump_on_failure("retries exhausted");
        let dump = rec.last_dump().expect("dump stored");
        assert!(dump.contains("rank 7"));
        assert!(dump.contains("retries exhausted"));
        assert!(dump.contains("queue.push"));
        assert!(dump.contains("retries-exhausted"));
    }

    #[test]
    fn zero_capacity_recorder_is_inert() {
        let rec = FlightRecorder::new(0, 0);
        rec.record(ev("umap.put", 1));
        assert!(rec.events().is_empty());
        rec.dump_on_failure("whatever");
        assert!(rec.last_dump().is_none());
    }

    #[test]
    fn panic_registration_does_not_poison_normal_use() {
        let rec = Arc::new(FlightRecorder::new(1, 4));
        dump_on_panic(&rec);
        rec.record(ev("queue.pop", 0));
        assert_eq!(rec.events().len(), 1);
    }
}
