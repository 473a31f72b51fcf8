//! Growable, word-atomic memory segments emulating RDMA-registered memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Errors produced by segment operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Access past the end of the segment: `(offset, len, segment_len)`.
    OutOfBounds {
        /// Requested byte offset.
        offset: usize,
        /// Requested length in bytes.
        len: usize,
        /// Current segment length in bytes.
        segment_len: usize,
    },
    /// An atomic op was requested at an offset not aligned to 8 bytes.
    Unaligned(usize),
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { offset, len, segment_len } => write!(
                f,
                "segment access out of bounds: offset={offset} len={len} segment_len={segment_len}"
            ),
            MemError::Unaligned(off) => write!(f, "atomic op at unaligned offset {off}"),
        }
    }
}

impl std::error::Error for MemError {}

struct Storage {
    words: Box<[AtomicU64]>,
    len_bytes: usize,
}

// `Storage::with_len` reinterprets a `[u64]` allocation as `[AtomicU64]`; the
// allocator must see the same layout when the box is dropped.
const _: () = assert!(
    std::mem::size_of::<AtomicU64>() == std::mem::size_of::<u64>()
        && std::mem::align_of::<AtomicU64>() == std::mem::align_of::<u64>()
);

impl Storage {
    /// Zero-filled storage whose pages are not touched: `vec![0; n]` asks
    /// the allocator for zeroed memory, which for anything large is fresh
    /// lazily-zeroed pages from the OS. A server's response segment is tens
    /// of MB of per-client slots of which a run touches a handful; writing
    /// zeroes into every word up front cost that in both set-up time and
    /// resident memory.
    fn with_len(len_bytes: usize) -> Self {
        let zeroed: Box<[u64]> = vec![0u64; len_bytes.div_ceil(8)].into_boxed_slice();
        // SAFETY: `AtomicU64` has the same in-memory representation as `u64`
        // (std guarantees size and bit validity; size and alignment are
        // const-asserted above), so the slice pointer — length carried over
        // by the cast — addresses exactly the allocation `Box` will later
        // free with an identical layout, and all-zero words are valid
        // `AtomicU64`s. Ownership moves through `into_raw`/`from_raw` once.
        let words = unsafe { Box::from_raw(Box::into_raw(zeroed) as *mut [AtomicU64]) };
        Storage { words, len_bytes }
    }
}

/// A growable memory segment with RDMA-like access semantics.
///
/// All reads/writes go through relaxed word atomics, which makes concurrent
/// access from any number of threads memory-safe while imposing no ordering —
/// the same contract real one-sided RDMA gives. Synchronisation between
/// conflicting accesses is the responsibility of the protocol layered on top
/// (CAS words in BCL, the RPC work queue in HCL).
pub struct Segment {
    storage: RwLock<Storage>,
}

impl Segment {
    /// Create an in-memory segment of `len_bytes`, zero-filled.
    pub fn new(len_bytes: usize) -> Arc<Self> {
        Arc::new(Segment { storage: RwLock::new(Storage::with_len(len_bytes)) })
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.storage.read().len_bytes
    }

    /// True when the segment has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Grow the segment to at least `new_len` bytes (contents preserved,
    /// new space zero-filled). Shrinking is a no-op. Readers and writers
    /// observe either the old or the new storage; word values carry over.
    ///
    /// This implements HCL's dynamic partition growth (`realloc` in §III-D):
    /// the whole point being that, unlike BCL, partitions need not be
    /// over-provisioned up front.
    pub fn grow(&self, new_len: usize) {
        let mut guard = self.storage.write();
        if new_len <= guard.len_bytes {
            return;
        }
        let mut new_storage = Storage::with_len(new_len);
        for (i, w) in guard.words.iter().enumerate() {
            new_storage.words[i] = AtomicU64::new(w.load(Ordering::Relaxed));
        }
        *guard = new_storage;
    }

    fn check(&self, storage: &Storage, offset: usize, len: usize) -> Result<(), MemError> {
        if offset.checked_add(len).is_none_or(|end| end > storage.len_bytes) {
            return Err(MemError::OutOfBounds { offset, len, segment_len: storage.len_bytes });
        }
        Ok(())
    }

    /// Read `dst.len()` bytes starting at `offset`.
    pub fn read(&self, offset: usize, dst: &mut [u8]) -> Result<(), MemError> {
        let storage = self.storage.read();
        self.check(&storage, offset, dst.len())?;
        let mut i = 0;
        // Aligned fast path: whole words.
        while i < dst.len() {
            let abs = offset + i;
            if abs % 8 == 0 && dst.len() - i >= 8 {
                let w = storage.words[abs / 8].load(Ordering::Relaxed);
                dst[i..i + 8].copy_from_slice(&w.to_le_bytes());
                i += 8;
            } else {
                let w = storage.words[abs / 8].load(Ordering::Relaxed);
                dst[i] = w.to_le_bytes()[abs % 8];
                i += 1;
            }
        }
        Ok(())
    }

    /// Write `src` starting at `offset`.
    pub fn write(&self, offset: usize, src: &[u8]) -> Result<(), MemError> {
        let storage = self.storage.read();
        self.check(&storage, offset, src.len())?;
        let mut i = 0;
        while i < src.len() {
            let abs = offset + i;
            if abs % 8 == 0 && src.len() - i >= 8 {
                let mut buf = [0u8; 8];
                buf.copy_from_slice(&src[i..i + 8]);
                // ORDERING: Relaxed models RDMA put semantics — per-word
                // atomicity with no cross-word ordering; callers that need
                // ordering fence at the RPC/flush layer.
                storage.words[abs / 8].store(u64::from_le_bytes(buf), Ordering::Relaxed);
                i += 8;
            } else {
                // Sub-word write: read-modify-write the containing word. Two
                // concurrent sub-word writers to the same word may interleave;
                // RDMA gives the same (lack of) guarantee for overlapping
                // writes, and no HCL/BCL protocol relies on it.
                let word = &storage.words[abs / 8];
                let mut cur = word.load(Ordering::Relaxed);
                loop {
                    let mut bytes = cur.to_le_bytes();
                    bytes[abs % 8] = src[i];
                    // ORDERING: Relaxed/Relaxed — the CAS only preserves the
                    // word's other bytes; no publication happens here (RDMA
                    // put semantics, as for the whole-word store above).
                    match word.compare_exchange_weak(
                        cur,
                        u64::from_le_bytes(bytes),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(c) => cur = c,
                    }
                }
                i += 1;
            }
        }
        Ok(())
    }

    /// Atomically load the u64 at `offset` (must be 8-aligned), acquire order.
    pub fn load_u64(&self, offset: usize) -> Result<u64, MemError> {
        let storage = self.storage.read();
        self.check(&storage, offset, 8)?;
        if offset % 8 != 0 {
            return Err(MemError::Unaligned(offset));
        }
        Ok(storage.words[offset / 8].load(Ordering::Acquire))
    }

    /// Atomically store the u64 at `offset` (must be 8-aligned), release order.
    pub fn store_u64(&self, offset: usize, val: u64) -> Result<(), MemError> {
        let storage = self.storage.read();
        self.check(&storage, offset, 8)?;
        if offset % 8 != 0 {
            return Err(MemError::Unaligned(offset));
        }
        storage.words[offset / 8].store(val, Ordering::Release);
        Ok(())
    }

    /// Compare-and-swap on the u64 at `offset`; returns the previous value.
    /// This is the primitive BCL's client-side protocol is built on.
    pub fn cas_u64(&self, offset: usize, expected: u64, new: u64) -> Result<u64, MemError> {
        let storage = self.storage.read();
        self.check(&storage, offset, 8)?;
        if offset % 8 != 0 {
            return Err(MemError::Unaligned(offset));
        }
        match storage.words[offset / 8].compare_exchange(
            expected,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(p) | Err(p) => Ok(p),
        }
    }

    /// Fetch-and-add on the u64 at `offset`; returns the previous value.
    pub fn fadd_u64(&self, offset: usize, delta: u64) -> Result<u64, MemError> {
        let storage = self.storage.read();
        self.check(&storage, offset, 8)?;
        if offset % 8 != 0 {
            return Err(MemError::Unaligned(offset));
        }
        Ok(storage.words[offset / 8].fetch_add(delta, Ordering::AcqRel))
    }

    /// Read a whole snapshot of the segment (diagnostics and tests; not a
    /// linearizable snapshot under concurrent writers).
    pub fn snapshot(&self) -> Vec<u8> {
        let len = self.len();
        let mut out = vec![0u8; len];
        self.read(0, &mut out).expect("snapshot read in-bounds");
        out
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn read_write_roundtrip_aligned() {
        let seg = Segment::new(64);
        let data: Vec<u8> = (0..32).collect();
        seg.write(0, &data).unwrap();
        let mut out = vec![0u8; 32];
        seg.read(0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn read_write_roundtrip_unaligned() {
        let seg = Segment::new(64);
        let data: Vec<u8> = (10..33).collect();
        seg.write(3, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        seg.read(3, &mut out).unwrap();
        assert_eq!(out, data);
        // Neighbouring bytes untouched.
        let mut b = [0u8; 1];
        seg.read(2, &mut b).unwrap();
        assert_eq!(b[0], 0);
        seg.read(3 + data.len(), &mut b).unwrap();
        assert_eq!(b[0], 0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let seg = Segment::new(16);
        let mut buf = [0u8; 8];
        assert!(matches!(seg.read(12, &mut buf), Err(MemError::OutOfBounds { .. })));
        assert!(matches!(seg.write(16, &[1]), Err(MemError::OutOfBounds { .. })));
        // Overflowing offset+len must not panic.
        assert!(matches!(seg.read(usize::MAX, &mut buf), Err(MemError::OutOfBounds { .. })));
    }

    #[test]
    fn atomics_require_alignment() {
        let seg = Segment::new(32);
        assert!(matches!(seg.load_u64(3), Err(MemError::Unaligned(3))));
        assert!(matches!(seg.cas_u64(5, 0, 1), Err(MemError::Unaligned(5))));
    }

    #[test]
    fn cas_semantics() {
        let seg = Segment::new(32);
        seg.store_u64(8, 7).unwrap();
        assert_eq!(seg.cas_u64(8, 7, 9).unwrap(), 7); // success returns old
        assert_eq!(seg.load_u64(8).unwrap(), 9);
        assert_eq!(seg.cas_u64(8, 7, 11).unwrap(), 9); // failure returns current
        assert_eq!(seg.load_u64(8).unwrap(), 9);
    }

    #[test]
    fn fadd_semantics() {
        let seg = Segment::new(32);
        assert_eq!(seg.fadd_u64(0, 5).unwrap(), 0);
        assert_eq!(seg.fadd_u64(0, 3).unwrap(), 5);
        assert_eq!(seg.load_u64(0).unwrap(), 8);
    }

    #[test]
    fn grow_preserves_contents() {
        let seg = Segment::new(16);
        seg.write(0, &[1, 2, 3, 4]).unwrap();
        seg.grow(1024);
        assert_eq!(seg.len(), 1024);
        let mut out = [0u8; 4];
        seg.read(0, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
        // New space is zeroed.
        let mut z = [9u8; 8];
        seg.read(512, &mut z).unwrap();
        assert_eq!(z, [0u8; 8]);
        // Shrink request is a no-op.
        seg.grow(8);
        assert_eq!(seg.len(), 1024);
    }

    #[test]
    fn concurrent_cas_counter() {
        let seg = Segment::new(64);
        let threads = 8;
        let iters = 2_000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..iters {
                        loop {
                            let cur = seg.load_u64(0).unwrap();
                            if seg.cas_u64(0, cur, cur + 1).unwrap() == cur {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(seg.load_u64(0).unwrap(), (threads * iters) as u64);
    }

    #[test]
    fn concurrent_fadd_counter() {
        let seg = Segment::new(64);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..5_000 {
                        seg.fadd_u64(8, 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(seg.load_u64(8).unwrap(), 40_000);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let seg = Segment::new(8 * 64);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let seg = &seg;
                s.spawn(move || {
                    let block = vec![t as u8; 64];
                    seg.write(t * 64, &block).unwrap();
                });
            }
        });
        for t in 0..8usize {
            let mut out = vec![0u8; 64];
            seg.read(t * 64, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == t as u8));
        }
    }

    #[test]
    fn grow_during_concurrent_access() {
        let seg = Segment::new(64);
        let stop = AtomicUsize::new(0);
        {
            let seg = &seg;
            let stop = &stop;
            std::thread::scope(|s| {
                s.spawn(move || {
                    for i in 1..16 {
                        seg.grow(64 * (i + 1));
                        std::thread::yield_now();
                    }
                    stop.store(1, Ordering::Release);
                });
                s.spawn(move || loop {
                    seg.fadd_u64(0, 1).unwrap();
                    let mut b = [0u8; 16];
                    seg.read(16, &mut b).unwrap();
                    // Checked last: the grower may finish before this
                    // thread is first scheduled.
                    if stop.load(Ordering::Acquire) != 0 {
                        break;
                    }
                });
            });
        }
        // Counter value carried across every grow.
        assert!(seg.load_u64(0).unwrap() > 0);
        assert_eq!(seg.len(), 64 * 16);
    }
}
