//! Container-facing durability: the typed shard log over the `hcl-persist`
//! write-ahead-log subsystem (paper §III-C6, DESIGN.md §16).
//!
//! The policy surface ([`SyncPolicy`], [`PersistConfig`]) and the segmented,
//! checksummed log machinery live in `hcl-persist`; this module adds the one
//! [`DataBox`]-typed layer the shard pipeline logs through (`ShardLog`): the
//! recovery-descriptor stamping that ties each logged mutation to the RPC
//! request (or local-bypass sequence) that produced it, typed replay, and the
//! placement of the strict policy's barrier — deferred to the request's ack
//! scope on a NIC worker (one commit per acknowledged request), inline
//! everywhere else — and the relaxed policy's flush gap, a deadline on the
//! world's deadline thread.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcl_databox::{DataBox, Reader};
use hcl_rpc::deadline::{Deadline, DeadlineJob, Deadlines};
use hcl_rpc::server::{defer_to_ack_scope, poison_ack_scope, AckBarrier};
use hcl_telemetry::{EventKind, FlightEvent, Outcome};
use parking_lot::{RwLock, RwLockReadGuard};

pub use hcl_persist::{
    PersistConfig, PersistMetrics, ReplayReport, SyncPolicy, Wal, WalRecord, DEFAULT_SEGMENT_BYTES,
};

/// High bit marking a local-bypass sequence number, so it can never collide
/// with an RPC identity (`req_id << 16 | batch_index`).
const LOCAL_SEQ_BIT: u64 = 1 << 63;

/// The recovery descriptor of the mutation being applied on this thread:
/// the RPC request identity when running under a NIC worker (the dedup
/// window's `(caller rank, req_id)` scheme), or a `home`-ranked local
/// sequence for the hybrid bypass and other rank-thread paths.
pub(crate) fn op_identity(home: u32, local_seq: &AtomicU64) -> (u32, u64) {
    match hcl_rpc::server::current_request_identity() {
        Some(id) => id,
        None => local_identity(home, local_seq),
    }
}

/// A fresh `home`-ranked local-sequence descriptor.
fn local_identity(home: u32, local_seq: &AtomicU64) -> (u32, u64) {
    (home, local_seq.fetch_add(1, Ordering::Relaxed) | LOCAL_SEQ_BIT)
}

/// The ack barrier of a strict log: "commit the WAL up to this LSN".
struct WalBarrier(Arc<Wal>);

impl AckBarrier for WalBarrier {
    fn commit(&self, lsn: u64) -> std::io::Result<()> {
        self.0.commit(lsn)
    }
}

/// The relaxed policy's flush gap: a deadline, armed by the append that
/// dirties a clean log, that syncs it one interval later.
struct RelaxedGap {
    wal: Arc<Wal>,
    interval: Duration,
    deadline: Deadline,
}

impl RelaxedGap {
    /// Arm the deadline after an append (its lock is the one the sync
    /// takes), unless one is pending.
    fn arm(self: &Arc<Self>) {
        self.deadline.arm(self.interval, self);
    }
}

impl DeadlineJob for RelaxedGap {
    /// Sync the log if it is dirty. A log still dirty after the sync — the
    /// barrier failed, or an append raced it — re-arms one interval out: a
    /// failing disk never drops a log from the gap bound.
    fn fire(&self, _due: Instant) -> Option<Instant> {
        self.deadline.run(|| {
            // A failed barrier is counted and flight-recorded by the WAL.
            let _ = self.wal.sync_if_dirty();
            let dirty = self.wal.appended_lsn() > self.wal.durable_lsn();
            dirty.then(|| Instant::now() + self.interval)
        })
    }
}

/// One shard's op log — the whole stack between the shard pipeline
/// ([`crate::shard`]) and the [`Wal`]: [`DataBox`] records of the partition
/// hosted on rank `home`, framed and checksummed by the segmented WAL
/// underneath. Every mutating container op appends one record; recovery
/// replays the log into a fresh structure, exactly-once by `(rank, seq)`
/// descriptor.
pub(crate) struct ShardLog<Rec> {
    wal: Arc<Wal>,
    /// `Some` under [`SyncPolicy::Strict`]: what an append or a read of a
    /// not-yet-durable value owes before its outcome may leave.
    barrier: Option<Arc<dyn AckBarrier>>,
    /// `Some` under [`SyncPolicy::Relaxed`]: what an append arms.
    gap: Option<Arc<RelaxedGap>>,
    home: u32,
    /// Stands in for an RPC identity when a mutation is applied off a NIC
    /// worker.
    local_seq: AtomicU64,
    /// The compaction gate: a mutation holds it for read across its append
    /// and its apply ([`ShardLog::hold`]), [`ShardLog::compact`] for write
    /// across its scan and its seal.
    gate: RwLock<()>,
    _rec: PhantomData<fn(Rec)>,
}

impl<Rec: DataBox> ShardLog<Rec> {
    /// Open the log of container `name` hosted on `home` (stems are keyed by
    /// host rank: stable across a restart of the same world shape, unique
    /// per host), replaying any history through `apply`; under the relaxed
    /// policy its flush gap is a deadline armed on `deadlines`. A torn tail
    /// (partial final record from a crash mid-append) is truncated off the
    /// file itself, so later appends never land after garbage.
    ///
    /// `apply` reports whether it recognised the record. A checksum-valid
    /// frame that does not decode as `Rec`, or that `apply` turns down, is
    /// skipped — replay continues — but never silently: each one is counted
    /// on `hcl_persist_replay_undecodable`, and an open that skipped any
    /// leaves one `"wal.replay"` flight event carrying the count.
    pub(crate) fn open(
        cfg: &PersistConfig,
        name: &str,
        home: u32,
        metrics: PersistMetrics,
        deadlines: &Arc<Deadlines>,
        mut apply: impl FnMut(Rec) -> bool,
    ) -> std::io::Result<Self> {
        let mut skipped = 0u64;
        let stem = cfg.stem(name, home as usize);
        let (wal, _) = Wal::open(stem, cfg.policy, cfg.segment_bytes, metrics.clone(), |raw| {
            if !Rec::unpack(&mut Reader::new(raw.payload)).is_ok_and(&mut apply) {
                skipped += 1;
            }
        })?;
        if skipped > 0 {
            metrics.replay_undecodable.add(skipped);
            metrics.flight.record(FlightEvent::op(
                EventKind::PersistError,
                "wal.replay",
                home,
                0,
                skipped,
                Outcome::Err,
                0,
            ));
        }
        let wal = Arc::new(wal);
        let barrier = cfg
            .policy
            .is_strict()
            .then(|| Arc::new(WalBarrier(Arc::clone(&wal))) as Arc<dyn AckBarrier>);
        let gap = cfg.policy.interval().map(|interval| {
            let deadline = Deadline::new(Arc::clone(deadlines));
            Arc::new(RelaxedGap { wal: Arc::clone(&wal), interval, deadline })
        });
        let (local_seq, gate) = (AtomicU64::new(0), RwLock::new(()));
        Ok(ShardLog { wal, barrier, gap, home, local_seq, gate, _rec: PhantomData })
    }

    /// Log one mutation under the ambient request identity (RPC worker) or
    /// a fresh local sequence (hybrid bypass).
    pub(crate) fn record_op(&self, rec: &Rec, fn_off: u32) {
        self.record(rec, fn_off, op_identity(self.home, &self.local_seq));
    }

    /// Log one mutation under a fresh local sequence unconditionally. Bulk
    /// handlers log one record per element inside a single RPC; stamping
    /// them all with that RPC's identity would make replay dedup collapse
    /// them into one.
    pub(crate) fn record_local(&self, rec: &Rec, fn_off: u32) {
        self.record(rec, fn_off, local_identity(self.home, &self.local_seq));
    }

    /// Append one record stamped with its dispatch op index and `(rank,
    /// seq)` recovery descriptor, packed straight into the log's frame
    /// buffer; under the strict policy it is durable before anyone can be
    /// told about it; under the relaxed policy it arms the flush gap. An I/O
    /// failure has been counted and flight-recorded by the WAL; under the
    /// strict policy it must also not be acknowledged, so on a NIC worker
    /// the request's ack scope is poisoned and its response dropped.
    fn record(&self, rec: &Rec, fn_off: u32, identity: (u32, u64)) {
        let logged = self
            .wal
            .append_with(fn_off as u16, identity, |buf| rec.pack(buf))
            .and_then(|lsn| self.durable_before_ack(lsn));
        if let Some(gap) = &self.gap {
            gap.arm();
        }
        if logged.is_err() && self.barrier.is_some() {
            poison_ack_scope();
        }
    }

    /// The strict barrier for `lsn`: registered with the ack scope of the
    /// request this thread is executing (the worker commits once, before the
    /// response is published), or — no request, so nothing to defer to —
    /// committed here. Nothing to do under the other policies.
    fn durable_before_ack(&self, lsn: u64) -> std::io::Result<()> {
        match &self.barrier {
            Some(barrier) if !defer_to_ack_scope(barrier, lsn) => self.wal.commit(lsn),
            _ => Ok(()),
        }
    }

    /// Read barrier of the strict policy, called *after* a read handler took
    /// its value from the live structure. Mutations are applied right after
    /// their append and committed only at their request's acknowledgement, so
    /// the value may belong to a record that is not durable yet; showing it
    /// to a client is an acknowledgement too. When the log has such records
    /// (`appended > durable`: two atomic loads, nothing else on the common
    /// path) this read owes the same barrier as the write.
    pub(crate) fn read_fence(&self) {
        if self.barrier.is_none() {
            return;
        }
        let appended = self.wal.appended_lsn();
        if appended > self.wal.durable_lsn() {
            // A failed inline commit is counted by the WAL; a failed
            // deferred one drops this request's response.
            let _ = self.durable_before_ack(appended);
        }
    }

    /// Hold off compaction for one mutation: its append and its apply, in
    /// either order, happen while the guard lives.
    pub(crate) fn hold(&self) -> RwLockReadGuard<'_, ()> {
        self.gate.read()
    }

    /// Replace the log's history with the snapshot `live` takes of the live
    /// structure (compaction). No mutation runs between the scan and the
    /// seal: one that appended there would have its record deleted with the
    /// covered segments while the snapshot lacks it.
    pub(crate) fn compact(&self, live: impl FnOnce() -> Vec<Rec>) -> std::io::Result<()> {
        let _quiet = self.gate.write();
        let live = live();
        self.wal.compact(live.iter().map(|rec| (0u16, |buf: &mut Vec<u8>| rec.pack(buf))))
    }

    /// The untyped WAL underneath.
    pub(crate) fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }
}

/// The [`PersistMetrics`] bundle a durable container opened from `rank`
/// logs into: the rank's exported registry and flight ring, or a detached
/// bundle when the world runs without telemetry.
pub(crate) fn metrics_for(rank: &hcl_runtime::Rank) -> PersistMetrics {
    let t = rank.telemetry();
    if t.enabled() {
        PersistMetrics::from_registry(t.registry(), Arc::clone(t.flight()))
    } else {
        PersistMetrics::detached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_identity_never_collides_with_rpc_identity() {
        let seq = AtomicU64::new(0);
        let (rank, s) = op_identity(3, &seq);
        assert_eq!(rank, 3);
        assert!(s & LOCAL_SEQ_BIT != 0, "local sequences carry the marker bit");
        let (_, s2) = op_identity(3, &seq);
        assert_ne!(s, s2);
    }

    #[test]
    fn relaxed_gap_bounds_the_gap_and_final_pass_covers_shutdown() {
        let dir = std::env::temp_dir().join(format!("hcl-relaxed-gap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = PersistMetrics::detached();
        // Manual: only the gap deadline ever syncs, so the fsync counter
        // isolates its fires.
        let (wal, _) = Wal::open(
            dir.join("g.part0"),
            SyncPolicy::Manual,
            DEFAULT_SEGMENT_BYTES,
            metrics.clone(),
            |_| {},
        )
        .unwrap();
        let wal = Arc::new(wal);
        let ticker = hcl_rpc::deadline::DeadlineThread::spawn();
        let gap = Arc::new(RelaxedGap {
            wal: Arc::clone(&wal),
            interval: Duration::from_millis(5),
            deadline: Deadline::new(Arc::clone(ticker.deadlines())),
        });
        wal.append(WalRecord::anonymous(0, b"gap-bounded")).unwrap();
        gap.arm();
        let deadline = Instant::now() + Duration::from_secs(2);
        while metrics.fsyncs.get() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(metrics.fsyncs.get() >= 1, "the gap deadline never synced the dirty log");
        wal.append(WalRecord::anonymous(0, b"shutdown-raced")).unwrap();
        gap.arm();
        drop(ticker); // final pass
        assert!(!wal.sync_if_dirty().unwrap(), "final pass left the log dirty");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
