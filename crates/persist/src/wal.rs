//! The segmented, checksummed write-ahead log.
//!
//! On-disk layout for a log with stem `dir/name.part3`:
//!
//! ```text
//! dir/name.part3.000000.seg      record frames, oldest segment
//! dir/name.part3.000001.seg      ...
//! dir/name.part3.000002.seg      append segment (tail)
//! dir/name.part3.snap            compaction snapshot (optional)
//! ```
//!
//! Each frame is `[len: u32][crc: u32][op: u16][rank: u32][seq: u64][payload]`
//! with the CRC covering everything after it. Segment indices only ever grow
//! (compaction rotates to a fresh index and deletes old files, it never
//! renumbers), so a snapshot can record the segment it covers through and a
//! crash between the snapshot rename and the old-segment sweep is harmless:
//! replay ignores and deletes segments at or below the covered index.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hcl_telemetry::{Counter, EventKind, FlightEvent, Outcome, PersistMetrics};
use parking_lot::Mutex;

use crate::SyncPolicy;

/// Default segment rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// The identity of a record with no client attached (snapshot entries,
/// migration installs): exempt from replay dedup.
pub const NO_IDENTITY: (u32, u64) = (0, 0);

/// Frame header: `len + crc`.
const FRAME_HDR: usize = 8;
/// Record header inside the frame body: `op + rank + seq`.
const REC_HDR: usize = 2 + 4 + 8;
/// Upper bound on a single record body; larger lengths are treated as
/// corruption (a garbage `len` field must not drive a huge allocation).
const MAX_BODY: u32 = 256 * 1024 * 1024;

/// Snapshot file magic: "HCLS".
const SNAP_MAGIC: u32 = 0x484C_4353;
/// Snapshot header: magic + version + covered segment index.
const SNAP_HDR: usize = 4 + 4 + 8;

// CRC-32 (IEEE 802.3, reflected), table-driven; no external crates in this
// build environment.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One logged mutation: the dispatch op id, the client `(rank, seq)`
/// recovery descriptor, and the packed argument payload.
#[derive(Debug, Clone, Copy)]
pub struct WalRecord<'a> {
    /// Container-local op index (the dispatch descriptor's function offset).
    pub op: u16,
    /// Issuing client rank (`NO_IDENTITY` when none).
    pub rank: u32,
    /// Client sequence number — the RPC request id composed with the batch
    /// index, or a local-bypass counter with the top bit set.
    pub seq: u64,
    /// Packed op arguments.
    pub payload: &'a [u8],
}

impl<'a> WalRecord<'a> {
    /// A record with no client identity (exempt from replay dedup).
    pub fn anonymous(op: u16, payload: &'a [u8]) -> Self {
        WalRecord { op, rank: NO_IDENTITY.0, seq: NO_IDENTITY.1, payload }
    }
}

/// What replay found when the log was opened.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Record frames read back (snapshot + segments).
    pub replayed: u64,
    /// Frames applied after `(rank, seq)` dedup — the exactly-once count.
    pub recovered: u64,
    /// Frames skipped as duplicates of an already-replayed identity.
    pub deduped: u64,
    /// Bytes discarded by torn-tail truncation (including any segments
    /// dropped wholesale past the tear).
    pub truncated_bytes: u64,
    /// Records loaded from the snapshot (subset of `replayed`).
    pub snapshot_records: u64,
}

struct WalInner {
    /// Index of the segment the append handle writes.
    seg_index: u64,
    writer: BufWriter<File>,
    /// Bytes in the append segment.
    seg_len: u64,
    /// Live records (replayed + appended − compacted away).
    records: u64,
    last_sync: Instant,
    /// Scratch frame buffer, reused across appends.
    scratch: Vec<u8>,
}

/// A segmented write-ahead log for one container partition.
///
/// *Appending* and *committing* are separate steps. Every append is assigned
/// the next log sequence number (LSN, counted from 1 since this open) and
/// lands in the append buffer; [`Wal::commit`] makes everything up to an LSN
/// durable with at most one `flush + fsync`, and is free when an earlier
/// barrier — another thread's commit, a gap deadline, a full segment — already
/// covered it. `appended` and `durable` are the two ends of that gap.
pub struct Wal {
    stem: PathBuf,
    policy: SyncPolicy,
    segment_bytes: u64,
    metrics: PersistMetrics,
    /// LSN of the newest record in the append buffer. Stored under `inner`.
    appended: AtomicU64,
    /// Highest LSN a completed sync barrier covers. Stored under `inner`.
    durable: AtomicU64,
    inner: Mutex<WalInner>,
}

/// `{stem}.{idx:06}.seg`.
fn seg_path(stem: &Path, idx: u64) -> PathBuf {
    let mut os = stem.as_os_str().to_os_string();
    os.push(format!(".{idx:06}.seg"));
    PathBuf::from(os)
}

/// `{stem}.snap` / `{stem}.snap.tmp`.
fn snap_path(stem: &Path, tmp: bool) -> PathBuf {
    let mut os = stem.as_os_str().to_os_string();
    os.push(if tmp { ".snap.tmp" } else { ".snap" });
    PathBuf::from(os)
}

/// All existing segment indices for `stem`, sorted ascending.
fn list_segments(stem: &Path) -> std::io::Result<Vec<u64>> {
    let dir = dir_of(stem);
    let Some(base) = stem.file_name().and_then(|n| n.to_str()) else {
        return Ok(Vec::new());
    };
    let prefix = format!("{base}.");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(&prefix) else { continue };
        let Some(idx) = rest.strip_suffix(".seg") else { continue };
        if let Ok(idx) = idx.parse::<u64>() {
            out.push(idx);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Encode one frame into `buf` (appended); `pack` appends the payload in
/// place, then length and checksum are back-patched. Fails, leaving `buf` as
/// it was, when the body would exceed what replay accepts.
fn push_frame_with(
    buf: &mut Vec<u8>,
    op: u16,
    identity: (u32, u64),
    pack: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    let frame_start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HDR]);
    let body_start = buf.len();
    buf.extend_from_slice(&op.to_le_bytes());
    buf.extend_from_slice(&identity.0.to_le_bytes());
    buf.extend_from_slice(&identity.1.to_le_bytes());
    pack(buf);
    let body_len = buf.len() - body_start;
    if body_len > MAX_BODY as usize {
        buf.truncate(frame_start);
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("WAL record body of {body_len} bytes exceeds the {MAX_BODY}-byte frame limit"),
        ));
    }
    let crc = crc32(&buf[body_start..]);
    buf[frame_start..frame_start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    buf[frame_start + 4..body_start].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// The directory holding `stem`'s files.
fn dir_of(stem: &Path) -> &Path {
    match stem.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// fsync the directory holding `stem`'s files, so a file created in or
/// renamed into it survives power loss along with its contents.
fn sync_dir(stem: &Path, metrics: &PersistMetrics) -> std::io::Result<()> {
    File::open(dir_of(stem))?.sync_all()?;
    metrics.dir_fsyncs.inc();
    Ok(())
}

/// Open segment `idx` of `stem` for appending. A segment this call created
/// is made durable as a directory entry before any record is written to it.
fn open_segment(stem: &Path, idx: u64, metrics: &PersistMetrics) -> std::io::Result<File> {
    let path = seg_path(stem, idx);
    let created = !path.exists();
    let file = OpenOptions::new().create(true).append(true).open(&path)?;
    if created {
        sync_dir(stem, metrics)?;
    }
    Ok(file)
}

/// Decode the frame at `buf[off..]`. Returns `(record, next_offset)`, or
/// `None` when the frame is short or fails its checksum — the torn tail.
fn read_frame(buf: &[u8], off: usize) -> Option<(WalRecord<'_>, usize)> {
    if buf.len() < off + FRAME_HDR {
        return None;
    }
    let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
    if len < REC_HDR as u32 || len > MAX_BODY {
        return None;
    }
    let crc = u32::from_le_bytes(buf[off + 4..off + 8].try_into().unwrap());
    let body_start = off + FRAME_HDR;
    let body_end = body_start + len as usize;
    if buf.len() < body_end {
        return None;
    }
    let body = &buf[body_start..body_end];
    if crc32(body) != crc {
        return None;
    }
    let op = u16::from_le_bytes(body[0..2].try_into().unwrap());
    let rank = u32::from_le_bytes(body[2..6].try_into().unwrap());
    let seq = u64::from_le_bytes(body[6..14].try_into().unwrap());
    Some((WalRecord { op, rank, seq, payload: &body[REC_HDR..] }, body_end))
}

impl Wal {
    /// Open (creating if needed) the log at `stem`, first replaying the
    /// snapshot and every surviving segment through `apply`. Replay
    /// truncates a torn tail off the segment file itself, deletes anything
    /// past the tear, and skips records whose `(rank, seq)` identity was
    /// already applied — exactly-once even for double-logged retransmits.
    pub fn open(
        stem: impl Into<PathBuf>,
        policy: SyncPolicy,
        segment_bytes: u64,
        metrics: PersistMetrics,
        mut apply: impl FnMut(WalRecord<'_>),
    ) -> std::io::Result<(Self, ReplayReport)> {
        let stem = stem.into();
        std::fs::create_dir_all(dir_of(&stem))?;
        let mut report = ReplayReport::default();
        let mut seen: HashSet<(u32, u64)> = HashSet::new();
        let mut run = |rec: WalRecord<'_>, report: &mut ReplayReport| {
            report.replayed += 1;
            metrics.replayed.inc();
            if (rec.rank, rec.seq) != NO_IDENTITY && !seen.insert((rec.rank, rec.seq)) {
                report.deduped += 1;
                return;
            }
            report.recovered += 1;
            metrics.recovered_ops.inc();
            apply(rec);
        };

        // A leftover snapshot tmp is a compaction that never committed.
        let _ = std::fs::remove_file(snap_path(&stem, true));

        // Snapshot first: it covers everything through `covered_seg`.
        let mut covered_seg: Option<u64> = None;
        let snap = snap_path(&stem, false);
        if snap.exists() {
            let mut buf = Vec::new();
            File::open(&snap)?.read_to_end(&mut buf)?;
            if buf.len() >= SNAP_HDR
                && u32::from_le_bytes(buf[0..4].try_into().unwrap()) == SNAP_MAGIC
            {
                covered_seg = Some(u64::from_le_bytes(buf[8..16].try_into().unwrap()));
                let mut off = SNAP_HDR;
                while let Some((rec, next)) = read_frame(&buf, off) {
                    run(rec, &mut report);
                    report.snapshot_records += 1;
                    off = next;
                }
            }
            metrics.snapshot_bytes.set(buf.len() as u64);
        }

        // Sweep segments a crashed compaction left behind, then replay the
        // rest oldest-first.
        let mut segs = list_segments(&stem)?;
        if let Some(cov) = covered_seg {
            for &idx in segs.iter().filter(|&&i| i <= cov) {
                let _ = std::fs::remove_file(seg_path(&stem, idx));
            }
            segs.retain(|&i| i > cov);
        }
        let mut torn_at: Option<usize> = None;
        for (i, &idx) in segs.iter().enumerate() {
            let path = seg_path(&stem, idx);
            let mut buf = Vec::new();
            File::open(&path)?.read_to_end(&mut buf)?;
            let mut off = 0;
            while let Some((rec, next)) = read_frame(&buf, off) {
                run(rec, &mut report);
                off = next;
            }
            if off < buf.len() {
                // Torn tail: chop the partial/corrupt record off the file so
                // future appends continue from the last good frame.
                report.truncated_bytes += (buf.len() - off) as u64;
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(off as u64)?;
                f.sync_data()?;
                torn_at = Some(i);
                break;
            }
        }
        if let Some(i) = torn_at {
            // Segments past the tear postdate the corruption; drop them.
            for &idx in &segs[i + 1..] {
                let path = seg_path(&stem, idx);
                if let Ok(md) = std::fs::metadata(&path) {
                    report.truncated_bytes += md.len();
                }
                let _ = std::fs::remove_file(&path);
            }
            segs.truncate(i + 1);
        }
        if report.truncated_bytes > 0 {
            metrics.truncated_tail.add(report.truncated_bytes);
        }

        // Append handle: tail segment, or a fresh one past it / the snapshot.
        let mut seg_index = match (segs.last(), covered_seg) {
            (Some(&last), _) => last,
            (None, Some(cov)) => cov + 1,
            (None, None) => 0,
        };
        let mut seg_len = std::fs::metadata(seg_path(&stem, seg_index))
            .map(|m| m.len())
            .unwrap_or(0);
        if seg_len >= segment_bytes {
            seg_index += 1;
            seg_len = 0;
        }
        let file = open_segment(&stem, seg_index, &metrics)?;
        let wal = Wal {
            stem,
            policy,
            segment_bytes: segment_bytes.max(1),
            metrics,
            appended: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            inner: Mutex::new(WalInner {
                seg_index,
                writer: BufWriter::new(file),
                seg_len,
                records: report.recovered,
                last_sync: Instant::now(),
                scratch: Vec::with_capacity(256),
            }),
        };
        Ok((wal, report))
    }

    /// Append one record and, under [`SyncPolicy::Strict`], commit it: when
    /// this returns the record is durable. Callers that batch several
    /// appends under one barrier use [`Wal::append_with`] + [`Wal::commit`].
    pub fn append(&self, rec: WalRecord<'_>) -> std::io::Result<()> {
        let lsn = self.append_with(rec.op, (rec.rank, rec.seq), |buf| {
            buf.extend_from_slice(rec.payload)
        })?;
        if self.policy.is_strict() {
            self.commit(lsn)?;
        }
        Ok(())
    }

    /// Append one record whose payload `pack` writes straight into the frame
    /// buffer, and return its LSN. The record is **not** durable until a
    /// sync barrier covers that LSN: [`Wal::commit`] for `Strict` callers,
    /// the flush gap (a gap deadline, or this path once the gap has
    /// elapsed) under `Relaxed`, [`Wal::sync`] under `Manual`. A segment
    /// that reaches its size threshold is sealed here by a barrier of its
    /// own, whatever the policy.
    pub fn append_with(
        &self,
        op: u16,
        identity: (u32, u64),
        pack: impl FnOnce(&mut Vec<u8>),
    ) -> std::io::Result<u64> {
        let mut inner = self.inner.lock();
        let mut frame = std::mem::take(&mut inner.scratch);
        frame.clear();
        let res = push_frame_with(&mut frame, op, identity, pack)
            .and_then(|()| inner.writer.write_all(&frame));
        let frame_len = frame.len() as u64;
        inner.scratch = frame;
        if let Err(e) = res {
            self.note_failure(&self.metrics.append_errors, "wal.append");
            return Err(e);
        }
        inner.seg_len += frame_len;
        inner.records += 1;
        // ORDERING: Relaxed read of a word only written under `inner`, which
        // we hold. The Release store pairs with the Acquire load in
        // `appended_lsn`: a reader that sees the structure change this record
        // describes (applied after this returns) also sees its LSN.
        let lsn = self.appended.load(Ordering::Relaxed) + 1;
        self.appended.store(lsn, Ordering::Release);
        self.metrics.appended.inc();
        let gap_elapsed = self
            .policy
            .interval()
            .is_some_and(|interval| inner.last_sync.elapsed() >= interval);
        if inner.seg_len >= self.segment_bytes || gap_elapsed {
            self.sync_locked(&mut inner)?;
        }
        Ok(lsn)
    }

    /// Make every record up to `lsn` durable. Free when a barrier already
    /// covered it; otherwise one `flush + fsync` that covers *every* append
    /// so far, so concurrent committers — NIC workers, a bypassing rank
    /// thread, a gap deadline — share barriers instead of queueing one each.
    pub fn commit(&self, lsn: u64) -> std::io::Result<()> {
        if self.durable_lsn() >= lsn {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        // Whoever held the lock while we waited may have synced past `lsn`.
        if self.durable_lsn() >= lsn {
            return Ok(());
        }
        self.sync_locked(&mut inner)
    }

    /// LSN of the newest appended record (0 = nothing appended since open).
    pub fn appended_lsn(&self) -> u64 {
        // ORDERING: Acquire pairs with the Release store in `append_with`.
        self.appended.load(Ordering::Acquire)
    }

    /// Highest LSN known durable. `appended_lsn() > durable_lsn()` means
    /// some append still waits for its barrier.
    pub fn durable_lsn(&self) -> u64 {
        // ORDERING: Acquire pairs with the Release store in `sync_locked`:
        // seeing an LSN here means the fsync covering it has returned.
        self.durable.load(Ordering::Acquire)
    }

    /// Count a failed append, barrier or compaction and leave a flight event
    /// behind.
    fn note_failure(&self, counter: &Counter, what: &'static str) {
        counter.inc();
        self.metrics.flight.record(FlightEvent::op(
            EventKind::PersistError,
            what,
            0,
            0,
            self.appended_lsn(),
            Outcome::Err,
            0,
        ));
    }

    /// Start the next segment. The caller has just synced the current one,
    /// so it is sealed as it stands and the new file is never fsynced empty.
    fn rotate(&self, inner: &mut WalInner) -> std::io::Result<()> {
        let file = open_segment(&self.stem, inner.seg_index + 1, &self.metrics)?;
        inner.seg_index += 1;
        inner.seg_len = 0;
        inner.writer = BufWriter::new(file);
        Ok(())
    }

    /// The sync barrier: flush + fsync, advance `durable` to `appended`, and
    /// move on to a fresh segment if this one is full.
    fn sync_locked(&self, inner: &mut WalInner) -> std::io::Result<()> {
        let res = (|| {
            inner.writer.flush()?;
            inner.writer.get_ref().sync_data()?;
            inner.last_sync = Instant::now();
            self.metrics.fsyncs.inc();
            // ORDERING: Relaxed read — `appended` only moves under `inner`,
            // which the caller holds. The Release swap publishes the
            // completed fsync to `durable_lsn` readers.
            let appended = self.appended.load(Ordering::Relaxed);
            let was = self.durable.swap(appended, Ordering::Release);
            self.metrics.durable.add(appended - was);
            if inner.seg_len >= self.segment_bytes {
                self.rotate(inner)?;
            }
            Ok(())
        })();
        if res.is_err() {
            self.note_failure(&self.metrics.commit_errors, "wal.commit");
        }
        res
    }

    /// Push buffered appends to the OS (no durability barrier).
    pub fn flush(&self) -> std::io::Result<()> {
        self.inner.lock().writer.flush()
    }

    /// Unconditional sync barrier: flush + fsync.
    pub fn sync(&self) -> std::io::Result<()> {
        self.sync_locked(&mut self.inner.lock())
    }

    /// Sync only if some append is not yet durable. Returns whether a
    /// barrier ran (a relaxed log's gap deadline).
    pub fn sync_if_dirty(&self) -> std::io::Result<bool> {
        let mut inner = self.inner.lock();
        if self.durable_lsn() >= self.appended_lsn() {
            return Ok(false);
        }
        self.sync_locked(&mut inner)?;
        Ok(true)
    }

    /// Live records (replayed + appended − compacted away).
    pub fn records(&self) -> u64 {
        self.inner.lock().records
    }

    /// The segment index the append handle currently writes.
    pub fn tail_segment(&self) -> u64 {
        self.inner.lock().seg_index
    }

    /// The configured sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// The log's path stem.
    pub fn stem(&self) -> &Path {
        &self.stem
    }

    /// Replace the log's history with the snapshot `records` (op tag + a
    /// closure packing the payload into the frame buffer; snapshot entries
    /// carry no client identity).
    ///
    /// Crash-safe ordering: seal the tail segment, write the snapshot to a
    /// tmp file, fsync, atomically rename over any previous snapshot, then
    /// delete the covered segments. A crash at any point leaves either the
    /// old state (tmp never renamed — swept on next open) or the new one
    /// (stale segments at or below the covered index — swept on next open).
    ///
    /// A failure is counted and flight-recorded here: the caller's live
    /// structure no longer matches what a restart would replay.
    pub fn compact<P: FnOnce(&mut Vec<u8>)>(
        &self,
        records: impl Iterator<Item = (u16, P)>,
    ) -> std::io::Result<()> {
        let res = self.compact_inner(records);
        if res.is_err() {
            self.note_failure(&self.metrics.compact_errors, "wal.compact");
        }
        res
    }

    fn compact_inner<P: FnOnce(&mut Vec<u8>)>(
        &self,
        records: impl Iterator<Item = (u16, P)>,
    ) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        // Everything up to and including the current tail becomes immutable
        // snapshot coverage; appends continue in a fresh segment.
        self.sync_locked(&mut inner)?;
        let covered = inner.seg_index;
        self.rotate(&mut inner)?;

        let tmp = snap_path(&self.stem, true);
        let mut n = 0u64;
        let mut bytes;
        {
            let file = File::create(&tmp)?;
            let mut w = BufWriter::new(file);
            let mut hdr = Vec::with_capacity(SNAP_HDR);
            hdr.extend_from_slice(&SNAP_MAGIC.to_le_bytes());
            hdr.extend_from_slice(&1u32.to_le_bytes());
            hdr.extend_from_slice(&covered.to_le_bytes());
            w.write_all(&hdr)?;
            bytes = hdr.len() as u64;
            let mut frame = Vec::with_capacity(256);
            for (op, pack) in records {
                frame.clear();
                push_frame_with(&mut frame, op, NO_IDENTITY, pack)?;
                w.write_all(&frame)?;
                bytes += frame.len() as u64;
                n += 1;
            }
            w.flush()?;
            w.get_ref().sync_data()?;
        }
        std::fs::rename(&tmp, snap_path(&self.stem, false))?;
        // Make the rename itself durable before deleting the history it
        // replaces.
        sync_dir(&self.stem, &self.metrics)?;
        for idx in list_segments(&self.stem)? {
            if idx <= covered {
                let _ = std::fs::remove_file(seg_path(&self.stem, idx));
            }
        }
        inner.records = n;
        self.metrics.snapshot_bytes.set(bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch_stem(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hcl-persist-wal-{}-{}-{name}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("t.part0")
    }

    fn open(
        stem: &Path,
        policy: SyncPolicy,
        seg_bytes: u64,
        sink: &mut Vec<(u16, u32, u64, Vec<u8>)>,
    ) -> (Wal, ReplayReport) {
        Wal::open(stem, policy, seg_bytes, PersistMetrics::detached(), |r| {
            sink.push((r.op, r.rank, r.seq, r.payload.to_vec()))
        })
        .unwrap()
    }

    fn cleanup(stem: &Path) {
        let _ = std::fs::remove_dir_all(stem.parent().unwrap());
    }

    /// A snapshot-record packer for [`Wal::compact`].
    fn packing(v: u64) -> impl FnOnce(&mut Vec<u8>) {
        move |buf| buf.extend_from_slice(&v.to_le_bytes())
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let stem = scratch_stem("basic");
        {
            let mut none = Vec::new();
            let (wal, rep) = open(&stem, SyncPolicy::Strict, DEFAULT_SEGMENT_BYTES, &mut none);
            assert_eq!(rep.replayed, 0);
            wal.append(WalRecord { op: 1, rank: 3, seq: 10, payload: b"alpha" }).unwrap();
            wal.append(WalRecord { op: 2, rank: 3, seq: 11, payload: b"beta" }).unwrap();
            assert_eq!(wal.records(), 2);
        }
        let mut seen = Vec::new();
        let (wal, rep) = open(&stem, SyncPolicy::Strict, DEFAULT_SEGMENT_BYTES, &mut seen);
        assert_eq!(rep.replayed, 2);
        assert_eq!(rep.recovered, 2);
        assert_eq!(wal.records(), 2, "replayed records count as live");
        assert_eq!(
            seen,
            vec![(1, 3, 10, b"alpha".to_vec()), (2, 3, 11, b"beta".to_vec())]
        );
        cleanup(&stem);
    }

    #[test]
    fn torn_tail_is_truncated_off_the_file() {
        let stem = scratch_stem("torn");
        {
            let mut none = Vec::new();
            let (wal, _) = open(&stem, SyncPolicy::Strict, DEFAULT_SEGMENT_BYTES, &mut none);
            wal.append(WalRecord::anonymous(0, b"intact")).unwrap();
            wal.append(WalRecord::anonymous(0, b"will be torn")).unwrap();
        }
        let seg = seg_path(&stem, 0);
        let len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 3).unwrap();
        // First reopen: the tail is dropped AND the file is truncated, so
        // appends land after the last good frame.
        {
            let mut seen = Vec::new();
            let (wal, rep) = open(&stem, SyncPolicy::Strict, DEFAULT_SEGMENT_BYTES, &mut seen);
            assert_eq!(seen.len(), 1);
            assert_eq!(rep.truncated_bytes, (b"will be torn".len() + FRAME_HDR + REC_HDR - 3) as u64);
            wal.append(WalRecord::anonymous(0, b"after the tear")).unwrap();
        }
        // Second reopen: the post-tear append must replay — the regression
        // the old OpLog failed (garbage left in the file swallowed it).
        let mut seen = Vec::new();
        let (_, rep) = open(&stem, SyncPolicy::Strict, DEFAULT_SEGMENT_BYTES, &mut seen);
        assert_eq!(rep.truncated_bytes, 0);
        assert_eq!(
            seen.iter().map(|(_, _, _, p)| p.as_slice()).collect::<Vec<_>>(),
            vec![b"intact".as_slice(), b"after the tear".as_slice()]
        );
        cleanup(&stem);
    }

    #[test]
    fn corrupt_record_drops_later_segments() {
        let stem = scratch_stem("corrupt");
        {
            let mut none = Vec::new();
            // Tiny segments: every append rotates.
            let (wal, _) = open(&stem, SyncPolicy::Strict, 1, &mut none);
            for i in 0..4u64 {
                wal.append(WalRecord { op: 0, rank: 1, seq: i + 1, payload: &i.to_le_bytes() })
                    .unwrap();
            }
        }
        // Flip a payload byte in segment 1: its CRC fails, segment 1 is
        // truncated at the tear and segments 2+ are dropped wholesale.
        let seg1 = seg_path(&stem, 1);
        let mut bytes = std::fs::read(&seg1).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&seg1, &bytes).unwrap();
        let mut seen = Vec::new();
        let (_, rep) = open(&stem, SyncPolicy::Strict, 1, &mut seen);
        assert_eq!(seen.len(), 1, "only the record before the corruption survives");
        assert!(rep.truncated_bytes > 0);
        assert!(!seg_path(&stem, 2).exists());
        assert!(!seg_path(&stem, 3).exists());
        cleanup(&stem);
    }

    #[test]
    fn segments_rotate_at_the_size_threshold() {
        let stem = scratch_stem("rotate");
        let mut none = Vec::new();
        let (wal, _) = open(&stem, SyncPolicy::Strict, 64, &mut none);
        for i in 0..10u64 {
            wal.append(WalRecord { op: 0, rank: 1, seq: i + 1, payload: &[0u8; 48] }).unwrap();
        }
        assert!(wal.tail_segment() >= 5, "64-byte segments must rotate per append");
        drop(wal);
        let mut seen = Vec::new();
        let (_, rep) = open(&stem, SyncPolicy::Strict, 64, &mut seen);
        assert_eq!(rep.recovered, 10, "replay stitches all segments back together");
        cleanup(&stem);
    }

    #[test]
    fn replay_dedups_by_recovery_descriptor() {
        let stem = scratch_stem("dedup");
        {
            let mut none = Vec::new();
            let (wal, _) = open(&stem, SyncPolicy::Strict, DEFAULT_SEGMENT_BYTES, &mut none);
            // A retransmitted op logged twice under the same (rank, seq).
            wal.append(WalRecord { op: 1, rank: 2, seq: 7, payload: b"once" }).unwrap();
            wal.append(WalRecord { op: 1, rank: 2, seq: 7, payload: b"once" }).unwrap();
            // Anonymous records never dedup.
            wal.append(WalRecord::anonymous(1, b"anon")).unwrap();
            wal.append(WalRecord::anonymous(1, b"anon")).unwrap();
        }
        let mut seen = Vec::new();
        let (_, rep) = open(&stem, SyncPolicy::Strict, DEFAULT_SEGMENT_BYTES, &mut seen);
        assert_eq!(rep.replayed, 4);
        assert_eq!(rep.deduped, 1);
        assert_eq!(rep.recovered, 3);
        assert_eq!(
            seen.iter().map(|(_, _, _, p)| p.as_slice()).collect::<Vec<_>>(),
            vec![b"once".as_slice(), b"anon", b"anon"],
            "the duplicate identity replays once, in log order"
        );
        cleanup(&stem);
    }

    #[test]
    fn compaction_is_atomic_and_keeps_later_appends() {
        let stem = scratch_stem("compact");
        let mut none = Vec::new();
        let (wal, _) = open(&stem, SyncPolicy::Strict, DEFAULT_SEGMENT_BYTES, &mut none);
        for i in 0..100u64 {
            wal.append(WalRecord { op: 0, rank: 1, seq: i + 1, payload: &i.to_le_bytes() })
                .unwrap();
        }
        assert_eq!(wal.records(), 100);
        wal.compact([42u64, 43].iter().map(|v| (0u16, packing(*v)))).unwrap();
        assert_eq!(wal.records(), 2);
        wal.append(WalRecord { op: 0, rank: 1, seq: 200, payload: &44u64.to_le_bytes() })
            .unwrap();
        drop(wal);
        assert!(snap_path(&stem, false).exists());
        assert!(!snap_path(&stem, true).exists());
        assert!(!seg_path(&stem, 0).exists(), "covered segment swept");
        let mut seen = Vec::new();
        let (_, rep) = open(&stem, SyncPolicy::Strict, DEFAULT_SEGMENT_BYTES, &mut seen);
        assert_eq!(rep.snapshot_records, 2);
        assert_eq!(rep.recovered, 3);
        let vals: Vec<u64> = seen
            .iter()
            .map(|(_, _, _, p)| u64::from_le_bytes(p.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![42, 43, 44]);
        cleanup(&stem);
    }

    #[test]
    fn crashed_compaction_sweeps_stale_state_on_open() {
        let stem = scratch_stem("crashed-compact");
        {
            let mut none = Vec::new();
            let (wal, _) = open(&stem, SyncPolicy::Strict, DEFAULT_SEGMENT_BYTES, &mut none);
            for i in 0..10u64 {
                wal.append(WalRecord { op: 0, rank: 1, seq: i + 1, payload: &i.to_le_bytes() })
                    .unwrap();
            }
            wal.compact([(0u16, packing(9))].into_iter()).unwrap();
        }
        // Simulate the crash windows a torn compaction leaves behind: a
        // dangling tmp, and a stale segment at the covered index.
        std::fs::write(snap_path(&stem, true), b"half-written snapshot").unwrap();
        let mut stale = Vec::new();
        push_frame_with(&mut stale, 0, (9, 999), |b| b.extend_from_slice(b"stale")).unwrap();
        std::fs::write(seg_path(&stem, 0), &stale).unwrap();
        let mut seen = Vec::new();
        let (_, rep) = open(&stem, SyncPolicy::Strict, DEFAULT_SEGMENT_BYTES, &mut seen);
        assert_eq!(rep.recovered, 1, "only the snapshot record survives");
        assert!(!snap_path(&stem, true).exists(), "tmp swept");
        assert!(!seg_path(&stem, 0).exists(), "stale covered segment swept");
        assert!(!seen.iter().any(|(_, r, _, _)| *r == 9), "stale record not replayed");
        cleanup(&stem);
    }

    /// A strict log plus the metric bundle its counters land in.
    fn open_counted(stem: &Path, seg_bytes: u64) -> (Wal, PersistMetrics) {
        let metrics = PersistMetrics::detached();
        let (wal, _) =
            Wal::open(stem, SyncPolicy::Strict, seg_bytes, metrics.clone(), |_| {}).unwrap();
        (wal, metrics)
    }

    fn put(wal: &Wal, seq: u64) -> u64 {
        wal.append_with(0, (1, seq), |buf| buf.extend_from_slice(&seq.to_le_bytes())).unwrap()
    }

    #[test]
    fn one_commit_covers_every_earlier_append() {
        let stem = scratch_stem("group");
        let (wal, m) = open_counted(&stem, DEFAULT_SEGMENT_BYTES);
        let lsns: Vec<u64> = (1..=8).map(|i| put(&wal, i)).collect();
        assert_eq!(lsns, (1..=8).collect::<Vec<u64>>(), "LSNs count appends from 1");
        assert_eq!((wal.appended_lsn(), wal.durable_lsn()), (8, 0));
        assert_eq!(m.fsyncs.get(), 0, "append_with never syncs a strict log by itself");
        wal.commit(lsns[7]).unwrap();
        assert_eq!(m.fsyncs.get(), 1, "8 appends, one barrier");
        assert_eq!((wal.durable_lsn(), m.durable.get()), (8, 8));
        wal.commit(lsns[2]).unwrap();
        assert_eq!(m.fsyncs.get(), 1, "an already-covered LSN commits for free");
        assert!(!wal.sync_if_dirty().unwrap());
        cleanup(&stem);
    }

    #[test]
    fn concurrent_committers_share_one_fsync() {
        let stem = scratch_stem("share");
        let (wal, m) = open_counted(&stem, DEFAULT_SEGMENT_BYTES);
        let both_appended = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (wal, both_appended) = (&wal, &both_appended);
                s.spawn(move || {
                    let lsn = put(wal, t + 1);
                    both_appended.wait();
                    wal.commit(lsn).unwrap();
                });
            }
        });
        assert_eq!(m.fsyncs.get(), 1, "the first committer's barrier covers the second");
        assert_eq!((wal.appended_lsn(), wal.durable_lsn()), (2, 2));
        cleanup(&stem);
    }

    #[test]
    fn racing_append_commit_loses_nothing() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 1_000;
        let stem = scratch_stem("race");
        // Small segments: rotation happens under the race too.
        let (wal, m) = open_counted(&stem, 4096);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let wal = &wal;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let lsn = put(wal, t * PER_THREAD + i + 1);
                        wal.commit(lsn).unwrap();
                        assert!(wal.durable_lsn() >= lsn);
                    }
                });
            }
        });
        let total = THREADS * PER_THREAD;
        assert_eq!((wal.appended_lsn(), wal.durable_lsn()), (total, total));
        assert_eq!((m.appended.get(), m.durable.get()), (total, total));
        assert!(m.fsyncs.get() <= total, "{} fsyncs for {total} appends", m.fsyncs.get());
        assert!(wal.tail_segment() > 0, "the race never rotated");
        drop(wal);
        let mut seen = Vec::new();
        let (_, rep) = open(&stem, SyncPolicy::Strict, 4096, &mut seen);
        assert_eq!(rep.recovered, total);
        let mut seqs: Vec<u64> = seen.iter().map(|(_, _, seq, _)| *seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=total).collect::<Vec<u64>>(), "every record replays once");
        cleanup(&stem);
    }

    #[test]
    fn rotation_costs_one_file_fsync_and_one_directory_fsync() {
        let stem = scratch_stem("rotate-cost");
        let (wal, m) = open_counted(&stem, 64);
        assert_eq!((m.fsyncs.get(), m.dir_fsyncs.get()), (0, 1), "creating segment 0");
        // One 70-byte frame fills the 64-byte segment.
        wal.append(WalRecord { op: 0, rank: 1, seq: 1, payload: &[0u8; 48] }).unwrap();
        assert_eq!(wal.tail_segment(), 1);
        assert_eq!(
            (m.fsyncs.get(), m.dir_fsyncs.get()),
            (1, 2),
            "sealing the full segment is the record's barrier; the empty successor is \
             published by a directory fsync, never fsynced itself"
        );
        assert_eq!(wal.durable_lsn(), 1);
        drop(wal);
        // Reopening an existing tail creates nothing.
        let (_, m) = open_counted(&stem, 64);
        assert_eq!(m.dir_fsyncs.get(), 0);
        cleanup(&stem);
    }

    #[test]
    fn failed_barrier_is_counted_and_recorded() {
        let stem = scratch_stem("fail");
        let reg = hcl_telemetry::Registry::new();
        let flight = std::sync::Arc::new(hcl_telemetry::FlightRecorder::new(0, 8));
        let m = PersistMetrics::from_registry(&reg, std::sync::Arc::clone(&flight));
        let (wal, _) = Wal::open(&stem, SyncPolicy::Strict, 1, m.clone(), |_| {}).unwrap();
        // With its directory gone the log cannot start the next segment.
        std::fs::remove_dir_all(stem.parent().unwrap()).unwrap();
        assert!(wal.append(WalRecord::anonymous(0, b"x")).is_err());
        assert_eq!((m.commit_errors.get(), m.append_errors.get()), (1, 0));
        let events = flight.events();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].kind, events[0].op), (EventKind::PersistError, "wal.commit"));
        // Nor can it write a snapshot there: a failed compaction is counted
        // under its own name, after whatever barrier failure caused it.
        assert!(wal.compact(std::iter::once((0u16, packing(1)))).is_err());
        assert_eq!(m.compact_errors.get(), 1);
        let last = flight.events().pop().expect("compaction failure recorded");
        assert_eq!((last.kind, last.op), (EventKind::PersistError, "wal.compact"));
        // An oversized body is refused before it reaches the file.
        let err = push_frame_with(&mut Vec::new(), 0, NO_IDENTITY, |b| {
            b.resize(b.len() + MAX_BODY as usize, 0)
        });
        assert_eq!(err.unwrap_err().kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn relaxed_appends_become_durable_within_the_gap() {
        let stem = scratch_stem("relaxed");
        let mut none = Vec::new();
        let (wal, _) = open(
            &stem,
            SyncPolicy::Relaxed { interval: Duration::from_millis(5) },
            DEFAULT_SEGMENT_BYTES,
            &mut none,
        );
        wal.append(WalRecord::anonymous(0, b"buffered")).unwrap();
        std::thread::sleep(Duration::from_millis(6));
        // Past the gap, the next append carries the barrier.
        wal.append(WalRecord::anonymous(0, b"barrier")).unwrap();
        assert!(!wal.sync_if_dirty().unwrap(), "gap-elapsed append already synced");
        cleanup(&stem);

        // Under a gap that never elapses nothing is owed to the disk until
        // someone asks: an explicit `sync()` is that barrier, and a reopen
        // beside the still-open log reads the record back.
        let stem = scratch_stem("relaxed-explicit");
        let hour = SyncPolicy::Relaxed { interval: Duration::from_secs(3600) };
        let (wal, _) = open(&stem, hour, DEFAULT_SEGMENT_BYTES, &mut none);
        wal.append(WalRecord::anonymous(0, b"on request")).unwrap();
        assert_eq!((wal.appended_lsn(), wal.durable_lsn()), (1, 0));
        wal.sync().unwrap();
        assert_eq!(wal.durable_lsn(), 1);
        let mut seen = Vec::new();
        open(&stem, SyncPolicy::Strict, DEFAULT_SEGMENT_BYTES, &mut seen);
        assert_eq!(seen, vec![(0, 0, 0, b"on request".to_vec())]);
        cleanup(&stem);
    }
}
