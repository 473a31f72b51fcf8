//! Durability subsystem (paper §III-C6, DESIGN.md §16).
//!
//! The paper persists DDS partitions by memory-mapping them onto NVMe with
//! per-operation ("strict") or background ("relaxed") synchronisation. This
//! crate reproduces that policy surface as a first-class write-ahead-log
//! subsystem instead of a sidecar:
//!
//! * **Segmented, checksummed logs** ([`Wal`]): fixed-size segment files,
//!   a CRC-32 per record frame, torn-tail truncation on replay (the partial
//!   final record a `kill -9` leaves behind is chopped off the file itself,
//!   so later appends never land after garbage), and snapshot compaction
//!   with an atomic rename.
//! * **Append and commit are separate** ([`Wal::append_with`],
//!   [`Wal::commit`]): every append gets a log sequence number and lands in
//!   the append buffer; a commit makes everything up to an LSN durable with
//!   at most one `flush + fsync`, and costs nothing when another barrier
//!   already covered it. The log tracks an `appended` / `durable` LSN pair,
//!   so whoever needs durability — a request about to be acknowledged, a
//!   read about to expose a value, a relaxed log's gap deadline — shares
//!   barriers (group commit) instead of paying one per record.
//! * **Sync epochs** ([`SyncPolicy`]): `Strict` means *durable before
//!   acknowledged* — the caller commits before it lets the outcome leave
//!   ([`Wal::append`] does so itself; the RPC server does it once per
//!   request, see DESIGN.md §16) — `Relaxed` bounds the flush gap (the
//!   containers arm a deadline on their world's deadline thread, and the
//!   append path syncs once the gap has elapsed), `Manual` leaves
//!   scheduling to the caller. One policy type for the whole tree.
//! * **Detectable recovery descriptors**: every record carries the dispatch
//!   op id plus the client `(rank, seq)` identity — the same scheme as the
//!   RPC server's dedup window — so replay after a crash is exactly-once
//!   even when a retransmitted op was logged twice.

mod wal;

pub use wal::{ReplayReport, Wal, WalRecord, DEFAULT_SEGMENT_BYTES, NO_IDENTITY};

pub use hcl_telemetry::PersistMetrics;

use std::path::PathBuf;
use std::time::Duration;

/// When (and how durably) log appends reach stable storage.
///
/// The single sync-policy type for the whole tree: every container's
/// per-partition op log takes this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Durable before acknowledged: no outcome of a logged mutation — its
    /// ack, or a read that observed it — leaves before a sync barrier covers
    /// its record. The barrier is a [`Wal::commit`] at the acknowledgement
    /// point, shared by everything appended up to then; not one fsync per
    /// append.
    Strict,
    /// Appends buffer; a sync barrier runs at most `interval` behind the
    /// latest append (a [`Wal::sync_if_dirty`] deadline armed by the owner
    /// of the log, or the append path itself once the gap has elapsed). A
    /// crash may lose up to one flush gap of tail.
    Relaxed {
        /// The bounded flush gap.
        interval: Duration,
    },
    /// No automatic syncing; the caller schedules `sync()` explicitly.
    Manual,
}

impl SyncPolicy {
    /// True for the durable-before-acknowledged policy.
    pub fn is_strict(&self) -> bool {
        matches!(self, SyncPolicy::Strict)
    }

    /// The relaxed flush gap, if any.
    pub fn interval(&self) -> Option<Duration> {
        match self {
            SyncPolicy::Relaxed { interval } => Some(*interval),
            _ => None,
        }
    }
}

/// Where and how a container persists its partitions.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory holding the per-partition segment files and snapshots.
    pub dir: PathBuf,
    /// Sync policy for every partition log.
    pub policy: SyncPolicy,
    /// Segment rotation threshold, bytes.
    pub segment_bytes: u64,
}

impl PersistConfig {
    /// Strict persistence under `dir`.
    pub fn strict(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            policy: SyncPolicy::Strict,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }

    /// Relaxed persistence under `dir` with the given flush gap.
    pub fn relaxed(dir: impl Into<PathBuf>, interval: Duration) -> Self {
        PersistConfig {
            dir: dir.into(),
            policy: SyncPolicy::Relaxed { interval },
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }

    /// The path stem for partition `p` of container `name`: segment files
    /// are `{stem}.NNNNNN.seg`, the snapshot `{stem}.snap`.
    pub fn stem(&self, name: &str, p: usize) -> PathBuf {
        self.dir.join(format!("{name}.part{p}"))
    }
}
