//! Argument arena for request aggregation (paper §III-B).
//!
//! Bulk container operations group calls by destination partition, and the
//! op coalescer stages async calls per destination; both ship each group as
//! *one* `FLAG_BATCH` message. This builder is the encode path for that:
//! every call's arguments are packed back-to-back into a single arena (no
//! per-call allocation), and [`BatchArena::calls`] yields the
//! `(FnId, &[u8])` borrowed slices that
//! [`RpcClient::invoke_batch_slices`](crate::client::RpcClient::invoke_batch_slices)
//! frames directly into the request buffer.

use hcl_databox::DataBox;

use crate::FnId;

/// A reusable arena of batched calls: fn ids and argument bytes.
#[derive(Debug, Default)]
pub struct BatchArena {
    fn_ids: Vec<FnId>,
    arena: Vec<u8>,
    /// Exclusive end offset of each call's argument bytes in `arena`.
    ends: Vec<usize>,
}

impl BatchArena {
    /// An empty arena pre-reserved for `calls` calls of ~`bytes_per_call`
    /// encoded bytes each.
    pub fn with_capacity(calls: usize, bytes_per_call: usize) -> Self {
        BatchArena {
            fn_ids: Vec::with_capacity(calls),
            arena: Vec::with_capacity(calls * bytes_per_call),
            ends: Vec::with_capacity(calls),
        }
    }

    /// Append one call to `fn_id`; `pack` appends its argument bytes.
    pub fn push_with(&mut self, fn_id: FnId, pack: impl FnOnce(&mut Vec<u8>)) {
        self.fn_ids.push(fn_id);
        pack(&mut self.arena);
        self.ends.push(self.arena.len());
    }

    /// Append one call to `fn_id` with typed arguments.
    pub fn push<A: DataBox>(&mut self, fn_id: FnId, args: &A) {
        self.arena.reserve(args.size_hint());
        self.push_with(fn_id, |out| args.pack(out));
    }

    /// Number of staged calls.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no call has been staged.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total staged argument bytes.
    pub fn bytes(&self) -> usize {
        self.arena.len()
    }

    /// The staged calls as borrowed slices, in push order — feed this to
    /// `invoke_batch_slices`.
    pub fn calls(&self) -> impl ExactSizeIterator<Item = (FnId, &[u8])> + Clone {
        (0..self.ends.len()).map(move |i| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            (self.fn_ids[i], &self.arena[start..self.ends[i]])
        })
    }

    /// Drop every staged call, keeping the allocations.
    pub fn clear(&mut self) {
        self.fn_ids.clear();
        self.arena.clear();
        self.ends.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_roundtrip_in_push_order() {
        let mut b = BatchArena::with_capacity(3, 8);
        assert!(b.is_empty());
        b.push(7, &1u64);
        b.push(8, &(2u64, "xy".to_string()));
        b.push(7, &3u64);
        let pair_len = (2u64, "xy".to_string()).to_bytes().len();
        assert_eq!((b.len(), b.bytes()), (3, 8 + pair_len + 8));
        let calls: Vec<(FnId, &[u8])> = b.calls().collect();
        assert_eq!(calls.iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![7, 8, 7]);
        assert_eq!(u64::from_bytes(calls[0].1).unwrap(), 1);
        assert_eq!(
            <(u64, String)>::from_bytes(calls[1].1).unwrap(),
            (2, "xy".to_string())
        );
        assert_eq!(u64::from_bytes(calls[2].1).unwrap(), 3);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.calls().len(), 0);
    }
}
