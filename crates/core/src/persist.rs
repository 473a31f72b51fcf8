//! Container-facing durability: typed op logs over the `hcl-persist`
//! write-ahead-log subsystem (paper §III-C6, DESIGN.md §16).
//!
//! The policy surface ([`SyncPolicy`], [`PersistConfig`]) and the segmented,
//! checksummed log machinery live in `hcl-persist`; this module adds the
//! [`DataBox`]-typed [`OpLog`] veneer the containers log through, the
//! recovery-descriptor stamping that ties each logged mutation to the RPC
//! request (or local-bypass sequence) that produced it, and the placement of
//! the strict policy's barrier: deferred to the request's ack scope on a NIC
//! worker (one commit per acknowledged request), inline everywhere else.

use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hcl_databox::{DataBox, Reader};
use hcl_rpc::server::{defer_to_ack_scope, poison_ack_scope, AckBarrier};

pub use hcl_persist::{
    Flusher, PersistConfig, PersistMetrics, ReplayReport, SyncPolicy, Wal, WalRecord,
    DEFAULT_SEGMENT_BYTES,
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
        None => (home, local_seq.fetch_add(1, Ordering::Relaxed) | LOCAL_SEQ_BIT),
    }
}

/// The ack barrier of a strict log: "commit the WAL up to this LSN".
struct WalBarrier(Arc<Wal>);

impl AckBarrier for WalBarrier {
    fn commit(&self, lsn: u64) -> std::io::Result<()> {
        self.0.commit(lsn)
    }
}

/// A typed, per-partition operation log: [`DataBox`] records framed and
/// checksummed by the segmented WAL underneath. Every mutating container op
/// appends one record; recovery replays the log into a fresh structure,
/// exactly-once by `(rank, seq)` descriptor.
pub struct OpLog<Rec> {
    wal: Arc<Wal>,
    /// `Some` under [`SyncPolicy::Strict`]: what an append or a read of a
    /// not-yet-durable value owes before its outcome may leave.
    barrier: Option<Arc<dyn AckBarrier>>,
    report: ReplayReport,
    _rec: PhantomData<fn(Rec)>,
}

impl<Rec: DataBox> OpLog<Rec> {
    /// Open (creating if needed) the log at `stem`, first replaying any
    /// existing records through `apply`. A torn tail (partial final record
    /// from a crash mid-append) is truncated off the file itself, so later
    /// appends never land after garbage.
    pub fn open(
        stem: impl Into<PathBuf>,
        policy: SyncPolicy,
        apply: impl FnMut(Rec),
    ) -> std::io::Result<Self> {
        Self::open_with(stem, policy, DEFAULT_SEGMENT_BYTES, PersistMetrics::detached(), apply)
    }

    /// [`OpLog::open`] with explicit segment sizing and a telemetry bundle.
    pub fn open_with(
        stem: impl Into<PathBuf>,
        policy: SyncPolicy,
        segment_bytes: u64,
        metrics: PersistMetrics,
        mut apply: impl FnMut(Rec),
    ) -> std::io::Result<Self> {
        let (wal, report) = Wal::open(stem, policy, segment_bytes, metrics, |raw| {
            let mut r = Reader::new(raw.payload);
            if let Ok(rec) = Rec::unpack(&mut r) {
                apply(rec);
            }
        })?;
        let wal = Arc::new(wal);
        let barrier = policy
            .is_strict()
            .then(|| Arc::new(WalBarrier(Arc::clone(&wal))) as Arc<dyn AckBarrier>);
        Ok(OpLog { wal, barrier, report, _rec: PhantomData })
    }

    /// Open partition `p` of container `name` under `cfg`.
    pub fn open_in(
        cfg: &PersistConfig,
        name: &str,
        p: usize,
        metrics: PersistMetrics,
        apply: impl FnMut(Rec),
    ) -> std::io::Result<Self> {
        Self::open_with(cfg.stem(name, p), cfg.policy, cfg.segment_bytes, metrics, apply)
    }

    /// Append one record with no client identity (exempt from replay dedup).
    pub fn append(&self, rec: &Rec) -> std::io::Result<()> {
        self.append_op(rec, 0, hcl_persist::NO_IDENTITY)
    }

    /// Append one record stamped with its dispatch op index and `(rank,
    /// seq)` recovery descriptor, packed straight into the log's frame
    /// buffer. Under the strict policy the record is durable before anyone
    /// can be told about it: on a NIC worker the commit is deferred to the
    /// request's ack scope, anywhere else it happens before this returns.
    pub fn append_op(&self, rec: &Rec, op: u16, identity: (u32, u64)) -> std::io::Result<()> {
        let lsn = self.wal.append_with(op, identity, |buf| rec.pack(buf))?;
        self.durable_before_ack(lsn)
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

    /// Log one container mutation. An I/O failure has been counted and
    /// flight-recorded by the WAL; under the strict policy it must also not
    /// be acknowledged, so on a NIC worker the request's ack scope is
    /// poisoned and its response dropped.
    pub(crate) fn log_mutation(&self, rec: &Rec, op: u16, identity: (u32, u64)) {
        if self.append_op(rec, op, identity).is_err() && self.barrier.is_some() {
            poison_ack_scope();
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

    /// Push buffered appends to the OS (no durability barrier).
    pub fn flush(&self) -> std::io::Result<()> {
        self.wal.flush()
    }

    /// Durable sync barrier: flush + fsync.
    pub fn sync(&self) -> std::io::Result<()> {
        self.wal.sync()
    }

    /// Live records (replayed + appended − compacted away).
    pub fn records(&self) -> u64 {
        self.wal.records()
    }

    /// Replace the log's history with the snapshot `records` (compaction:
    /// used after the live structure has absorbed the log).
    pub fn compact<'a>(&self, records: impl Iterator<Item = &'a Rec>) -> std::io::Result<()>
    where
        Rec: 'a,
    {
        self.wal.compact(records.map(|rec| (0u16, |buf: &mut Vec<u8>| rec.pack(buf))))
    }

    /// What replay found when this log was opened.
    pub fn replay_report(&self) -> &ReplayReport {
        &self.report
    }

    /// The untyped WAL underneath (for flusher registration).
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// The log's path stem.
    pub fn path(&self) -> &Path {
        self.wal.stem()
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

/// Write `snap` to `path` as one DataBox-encoded blob (the containers'
/// `persist_snapshot`).
pub(crate) fn write_snapshot<T: DataBox>(path: &Path, snap: &T) -> crate::HclResult<()> {
    std::fs::write(path, snap.to_bytes()).map_err(|e| crate::HclError::Persist(e.to_string()))
}

/// Read back a blob written by [`write_snapshot`].
pub(crate) fn read_snapshot<T: DataBox>(path: &Path) -> crate::HclResult<T> {
    let bytes = std::fs::read(path).map_err(|e| crate::HclError::Persist(e.to_string()))?;
    T::from_bytes(&bytes).map_err(|e| crate::HclError::Persist(e.to_string()))
}

/// One shard's op log as the shard pipeline ([`crate::shard`]) sees it: the
/// typed [`OpLog`] of the partition hosted on rank `home`, plus the local
/// sequence that stands in for an RPC identity when a mutation is applied
/// off a NIC worker. Every container logs through this one type.
pub(crate) struct ShardLog<Rec> {
    log: OpLog<Rec>,
    home: u32,
    local_seq: AtomicU64,
}

impl<Rec: DataBox> ShardLog<Rec> {
    /// Open the log of container `name` hosted on `home` (stems are keyed by
    /// host rank: stable across a restart of the same world shape, unique
    /// per host), replaying any history through `apply` and putting the log
    /// under `flusher`'s gap bound when the policy is relaxed.
    pub(crate) fn open(
        cfg: &PersistConfig,
        name: &str,
        home: u32,
        metrics: PersistMetrics,
        flusher: Option<&Flusher>,
        apply: impl FnMut(Rec),
    ) -> std::io::Result<Self> {
        let log = OpLog::open_in(cfg, name, home as usize, metrics, apply)?;
        if let Some(f) = flusher {
            f.register(log.wal());
        }
        Ok(ShardLog { log, home, local_seq: AtomicU64::new(0) })
    }

    /// Log one mutation under the ambient request identity (RPC worker) or
    /// a fresh local sequence (hybrid bypass).
    pub(crate) fn record(&self, rec: &Rec, fn_off: u32) {
        let ident = op_identity(self.home, &self.local_seq);
        self.log.log_mutation(rec, fn_off as u16, ident);
    }

    /// Log one mutation under a fresh local sequence unconditionally. Bulk
    /// handlers log one record per element inside a single RPC; stamping
    /// them all with that RPC's identity would make replay dedup collapse
    /// them into one.
    pub(crate) fn record_local(&self, rec: &Rec, fn_off: u32) {
        let ident =
            (self.home, self.local_seq.fetch_add(1, Ordering::Relaxed) | LOCAL_SEQ_BIT);
        self.log.log_mutation(rec, fn_off as u16, ident);
    }

    /// The strict read barrier (see [`OpLog::read_fence`]).
    pub(crate) fn read_fence(&self) {
        self.log.read_fence();
    }

    /// Replace history with the snapshot `live`.
    pub(crate) fn compact<'a>(&self, live: impl Iterator<Item = &'a Rec>) -> std::io::Result<()>
    where
        Rec: 'a,
    {
        self.log.compact(live)
    }

    /// The untyped WAL underneath.
    pub(crate) fn wal(&self) -> &Arc<Wal> {
        self.log.wal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hcl-core-oplog-{}-{}-{name}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("log")
    }

    fn cleanup(stem: &Path) {
        let _ = std::fs::remove_dir_all(stem.parent().unwrap());
    }

    #[test]
    fn append_and_replay() {
        let stem = tmp("basic");
        {
            let log: OpLog<(u8, u64, String)> =
                OpLog::open(&stem, SyncPolicy::Strict, |_| panic!("fresh log")).unwrap();
            log.append(&(1, 10, "a".into())).unwrap();
            log.append(&(2, 20, "b".into())).unwrap();
            assert_eq!(log.records(), 2);
        }
        let mut seen = Vec::new();
        let log: OpLog<(u8, u64, String)> =
            OpLog::open(&stem, SyncPolicy::Strict, |r| seen.push(r)).unwrap();
        assert_eq!(seen, vec![(1, 10, "a".into()), (2, 20, "b".into())]);
        assert_eq!(log.records(), 2);
        cleanup(&stem);
    }

    #[test]
    fn torn_tail_is_dropped_and_file_truncated() {
        let stem = tmp("torn");
        {
            let log: OpLog<(u64, String)> =
                OpLog::open(&stem, SyncPolicy::Strict, |_| {}).unwrap();
            log.append(&(7, "intact".into())).unwrap();
            log.append(&(8, "will be torn".into())).unwrap();
        }
        // Chop the last few bytes, simulating a crash mid-append.
        let seg = {
            let mut os = stem.as_os_str().to_os_string();
            os.push(".000000.seg");
            PathBuf::from(os)
        };
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        // Regression (the old sidecar's bug): the torn bytes must come off
        // the *file*, not just be skipped in memory — otherwise the next
        // append lands after garbage and is silently unrecoverable.
        {
            let mut seen = Vec::new();
            let log: OpLog<(u64, String)> =
                OpLog::open(&stem, SyncPolicy::Strict, |r| seen.push(r)).unwrap();
            assert_eq!(seen, vec![(7, "intact".into())]);
            assert!(log.replay_report().truncated_bytes > 0);
            log.append(&(9, "after the tear".into())).unwrap();
        }
        let mut seen = Vec::new();
        let _: OpLog<(u64, String)> =
            OpLog::open(&stem, SyncPolicy::Strict, |r| seen.push(r)).unwrap();
        assert_eq!(seen, vec![(7, "intact".into()), (9, "after the tear".into())]);
        cleanup(&stem);
    }

    #[test]
    fn relaxed_mode_defers_flush() {
        let stem = tmp("relaxed");
        let log: OpLog<u64> = OpLog::open(
            &stem,
            SyncPolicy::Relaxed { interval: Duration::from_secs(3600) },
            |_| {},
        )
        .unwrap();
        log.append(&1).unwrap();
        // Nothing guaranteed on disk yet (buffered); explicit sync works.
        log.sync().unwrap();
        let mut seen = Vec::new();
        let _: OpLog<u64> = OpLog::open(&stem, SyncPolicy::Strict, |r| seen.push(r)).unwrap();
        assert_eq!(seen, vec![1]);
        cleanup(&stem);
    }

    #[test]
    fn compaction_replaces_history() {
        let stem = tmp("compact");
        let log: OpLog<(u8, u64)> = OpLog::open(&stem, SyncPolicy::Strict, |_| {}).unwrap();
        for i in 0..100u64 {
            log.append(&(0, i)).unwrap();
        }
        assert_eq!(log.records(), 100);
        // Compact down to 2 surviving records.
        let survivors = vec![(0u8, 42u64), (0, 43)];
        log.compact(survivors.iter()).unwrap();
        assert_eq!(log.records(), 2);
        // Appends continue after compaction.
        log.append(&(0, 44)).unwrap();
        drop(log);
        let mut seen = Vec::new();
        let _: OpLog<(u8, u64)> = OpLog::open(&stem, SyncPolicy::Strict, |r| seen.push(r)).unwrap();
        assert_eq!(seen, vec![(0, 42), (0, 43), (0, 44)]);
        cleanup(&stem);
    }

    #[test]
    fn identity_stamped_appends_dedup_on_replay() {
        let stem = tmp("ident");
        {
            let log: OpLog<(u8, u64)> = OpLog::open(&stem, SyncPolicy::Strict, |_| {}).unwrap();
            // The same op double-logged under one recovery descriptor — a
            // retransmit that slipped past the server dedup window.
            log.append_op(&(0, 5), 1, (2, 0x70001)).unwrap();
            log.append_op(&(0, 5), 1, (2, 0x70001)).unwrap();
            log.append_op(&(0, 6), 1, (2, 0x80001)).unwrap();
        }
        let mut seen = Vec::new();
        let log: OpLog<(u8, u64)> =
            OpLog::open(&stem, SyncPolicy::Strict, |r| seen.push(r)).unwrap();
        assert_eq!(seen, vec![(0, 5), (0, 6)], "duplicate identity replays once");
        assert_eq!(log.replay_report().deduped, 1);
        cleanup(&stem);
    }

    #[test]
    fn local_identity_never_collides_with_rpc_identity() {
        let seq = AtomicU64::new(0);
        let (rank, s) = op_identity(3, &seq);
        assert_eq!(rank, 3);
        assert!(s & LOCAL_SEQ_BIT != 0, "local sequences carry the marker bit");
        let (_, s2) = op_identity(3, &seq);
        assert_ne!(s, s2);
    }
}
