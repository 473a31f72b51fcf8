//! Byte-level sequential specifications for the five public HCL containers.
//!
//! The history hooks in `hcl` record keys and values as their DataBox
//! encodings (`Vec<u8>`), so one op/spec vocabulary covers UnorderedMap,
//! UnorderedSet, OrderedMap, Queue and PriorityQueue regardless of the
//! user's key/value types. Response conventions mirror the `hcl` handles
//! exactly:
//!
//! | container op        | recorded response                         |
//! |---------------------|-------------------------------------------|
//! | map `put`           | `Inserted(true)` iff the key was new      |
//! | map `get`/`erase`   | `Value(prev)`                             |
//! | map/set `contains`  | `Contains(bool)`                          |
//! | set `insert`        | `Inserted(bool)`                          |
//! | set `remove`        | `Removed(bool)`                           |
//! | queue/pq `push`     | `Pushed(bool)` (`true` on success)        |
//! | queue/pq `pop`      | `Popped(Option<value>)`                   |
//!
//! Caveat: [`DsSpec::Pq`] orders by **byte-lexicographic** comparison of the
//! encoded values. That matches the logical `Ord` only when the encoding is
//! order-preserving (e.g. fixed-width big-endian); record priorities in such
//! an encoding when checking PQ histories.

use crate::lin::SeqSpec;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Encoded key or value.
pub type Bytes = Vec<u8>;

/// One operation against a container, with encoded operands.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DsOp {
    MapPut { key: Bytes, value: Bytes },
    MapGet { key: Bytes },
    /// A map read served from a client-side lease cache without touching the
    /// fabric. `valid_from` is the logical invoke timestamp of the RPC that
    /// granted the lease: the cached value was current somewhere inside the
    /// grant's own interval, so under lease semantics this read may
    /// linearize anywhere in `[valid_from, returned]` rather than only in
    /// its real-time interval. [`lease_relax`] performs that widening;
    /// sequentially the op behaves exactly like [`DsOp::MapGet`].
    MapGetCached { key: Bytes, valid_from: u64 },
    MapErase { key: Bytes },
    MapContains { key: Bytes },
    SetInsert { key: Bytes },
    SetRemove { key: Bytes },
    SetContains { key: Bytes },
    QueuePush { value: Bytes },
    QueuePop,
    PqPush { value: Bytes },
    PqPop,
}

/// The recorded response of a [`DsOp`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DsRet {
    /// Map put / set insert: was the element newly inserted?
    Inserted(bool),
    /// Set remove: was the element present?
    Removed(bool),
    /// Membership test result.
    Contains(bool),
    /// Map get/erase payload (previous value for erase).
    Value(Option<Bytes>),
    /// Queue/pq push acknowledgement.
    Pushed(bool),
    /// Queue/pq pop payload.
    Popped(Option<Bytes>),
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Sequential state for one container, selected by variant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DsSpec {
    /// Map (also backs sets: values ignored for `Set*` ops).
    Map(BTreeMap<Bytes, Bytes>),
    /// Set.
    Set(BTreeSet<Bytes>),
    /// FIFO queue.
    Queue(VecDeque<Bytes>),
    /// Min-priority multiset under byte-lexicographic order.
    Pq(BTreeMap<Bytes, usize>),
}

impl DsSpec {
    /// Empty map state.
    pub fn map() -> Self {
        DsSpec::Map(BTreeMap::new())
    }
    /// Empty set state.
    pub fn set() -> Self {
        DsSpec::Set(BTreeSet::new())
    }
    /// Empty queue state.
    pub fn queue() -> Self {
        DsSpec::Queue(VecDeque::new())
    }
    /// Empty priority-queue state.
    pub fn pq() -> Self {
        DsSpec::Pq(BTreeMap::new())
    }
}

impl SeqSpec for DsSpec {
    type Op = DsOp;
    type Ret = DsRet;

    fn apply(&mut self, op: &DsOp) -> DsRet {
        match (self, op) {
            (DsSpec::Map(m), DsOp::MapPut { key, value }) => {
                DsRet::Inserted(m.insert(key.clone(), value.clone()).is_none())
            }
            (DsSpec::Map(m), DsOp::MapGet { key }) => DsRet::Value(m.get(key).cloned()),
            (DsSpec::Map(m), DsOp::MapGetCached { key, .. }) => DsRet::Value(m.get(key).cloned()),
            (DsSpec::Map(m), DsOp::MapErase { key }) => DsRet::Value(m.remove(key)),
            (DsSpec::Map(m), DsOp::MapContains { key }) => DsRet::Contains(m.contains_key(key)),
            (DsSpec::Set(s), DsOp::SetInsert { key }) => DsRet::Inserted(s.insert(key.clone())),
            (DsSpec::Set(s), DsOp::SetRemove { key }) => DsRet::Removed(s.remove(key)),
            (DsSpec::Set(s), DsOp::SetContains { key }) => DsRet::Contains(s.contains(key)),
            (DsSpec::Queue(q), DsOp::QueuePush { value }) => {
                q.push_back(value.clone());
                DsRet::Pushed(true)
            }
            (DsSpec::Queue(q), DsOp::QueuePop) => DsRet::Popped(q.pop_front()),
            (DsSpec::Pq(pq), DsOp::PqPush { value }) => {
                *pq.entry(value.clone()).or_insert(0) += 1;
                DsRet::Pushed(true)
            }
            (DsSpec::Pq(pq), DsOp::PqPop) => {
                let min = pq.keys().next().cloned();
                match min {
                    None => DsRet::Popped(None),
                    Some(k) => {
                        let n = pq.get_mut(&k).expect("present key");
                        *n -= 1;
                        if *n == 0 {
                            pq.remove(&k);
                        }
                        DsRet::Popped(Some(k))
                    }
                }
            }
            (state, op) => panic!("op {op:?} does not match spec variant {state:?}"),
        }
    }

    /// Map/set histories partition by key; queue/pq histories do not.
    fn partition(op: &DsOp) -> Option<u64> {
        match op {
            DsOp::MapPut { key, .. }
            | DsOp::MapGet { key }
            | DsOp::MapGetCached { key, .. }
            | DsOp::MapErase { key }
            | DsOp::MapContains { key }
            | DsOp::SetInsert { key }
            | DsOp::SetRemove { key }
            | DsOp::SetContains { key } => Some(fnv1a(key)),
            DsOp::QueuePush { .. } | DsOp::QueuePop | DsOp::PqPush { .. } | DsOp::PqPop => None,
        }
    }

    /// Gets and membership tests. A put that finds its key (`Inserted(false)`)
    /// is *not* read-only: it leaves a state holding the same value as it
    /// found, but overwrites any other value.
    fn read_only(op: &DsOp) -> bool {
        matches!(
            op,
            DsOp::MapGet { .. } | DsOp::MapGetCached { .. } | DsOp::MapContains { .. } | DsOp::SetContains { .. }
        )
    }
}

/// Widen each cached read's admissible window to its lease: rewrite
/// `invoked` back to the `valid_from` grant stamp (never forward — the
/// recorded invoke already bounds the window on histories without caching).
///
/// Soundness: the checker's frontier condition compares invoke timestamps
/// against return timestamps with strict `<`, and a grant's invoke stamp is
/// always smaller than the cached read's own stamps, so the rewrite only
/// *adds* legal linearization orders for the cached read — every other op's
/// constraints are untouched. A cached read of a value that was never
/// current anywhere in `[valid_from, returned]` still has no witness and is
/// still rejected.
pub fn lease_relax(history: &[crate::history::OpRecord<DsOp, DsRet>]) -> Vec<crate::history::OpRecord<DsOp, DsRet>> {
    let mut out: Vec<_> = history.to_vec();
    for r in &mut out {
        if let DsOp::MapGetCached { valid_from, .. } = r.op {
            r.invoked = r.invoked.min(valid_from);
        }
    }
    out.sort_by_key(|r| r.invoked);
    out
}

/// [`crate::lin::check`] under **lease-bounded staleness**: cached reads may
/// linearize anywhere inside their lease window (grant stamp → return), all
/// other operations keep strict real-time order. This is the consistency
/// contract of the lease-based client cache: a read never returns a value
/// older than its own lease window.
pub fn check_lease(
    initial: &DsSpec,
    history: &[crate::history::OpRecord<DsOp, DsRet>],
) -> Result<crate::lin::CheckStats, crate::lin::CheckError<DsOp, DsRet>> {
    crate::lin::check(initial, &lease_relax(history))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpRecord;
    use crate::lin::{check, CheckError};

    fn rec(proc: u64, op: DsOp, ret: DsRet, iv: u64, rt: u64) -> OpRecord<DsOp, DsRet> {
        OpRecord { proc, op, ret, invoked: iv, returned: rt }
    }

    fn b(x: u8) -> Bytes {
        vec![x]
    }

    #[test]
    fn a_put_of_the_held_value_is_not_cut_as_a_read() {
        // State {k:5}. A = put(k,5) and B = put(k,7) overlap and both find
        // the key; C = get(k) -> 5 starts after both return. Trying A first
        // leaves the state unchanged but forces C to read 7; the legal order
        // is B, A, C, which the search must still try.
        let k = b(1);
        let h = vec![
            rec(0, DsOp::MapPut { key: k.clone(), value: b(5) }, DsRet::Inserted(true), 0, 1),
            rec(1, DsOp::MapPut { key: k.clone(), value: b(5) }, DsRet::Inserted(false), 2, 5),
            rec(2, DsOp::MapPut { key: k.clone(), value: b(7) }, DsRet::Inserted(false), 3, 6),
            rec(3, DsOp::MapGet { key: k }, DsRet::Value(Some(b(5))), 7, 8),
        ];
        check(&DsSpec::map(), &h).expect("B, A, C is a legal order");
    }

    #[test]
    fn queue_overlapping_enqueues_any_order_is_linearizable() {
        // enq(a) overlaps enq(b); deq order b, a is legal (b linearized
        // first inside the overlap).
        let h = vec![
            rec(0, DsOp::QueuePush { value: b(1) }, DsRet::Pushed(true), 0, 5),
            rec(1, DsOp::QueuePush { value: b(2) }, DsRet::Pushed(true), 1, 4),
            rec(2, DsOp::QueuePop, DsRet::Popped(Some(b(2))), 6, 7),
            rec(2, DsOp::QueuePop, DsRet::Popped(Some(b(1))), 8, 9),
        ];
        check(&DsSpec::queue(), &h).expect("linearizable");
    }

    #[test]
    fn queue_fifo_violation_is_rejected() {
        // enq(a) completes before enq(b) starts, yet b dequeues first.
        let h = vec![
            rec(0, DsOp::QueuePush { value: b(1) }, DsRet::Pushed(true), 0, 1),
            rec(0, DsOp::QueuePush { value: b(2) }, DsRet::Pushed(true), 2, 3),
            rec(1, DsOp::QueuePop, DsRet::Popped(Some(b(2))), 4, 5),
            rec(1, DsOp::QueuePop, DsRet::Popped(Some(b(1))), 6, 7),
        ];
        let err = check(&DsSpec::queue(), &h).unwrap_err();
        assert!(matches!(err, CheckError::Violation(_)), "FIFO violation must be caught");
    }

    #[test]
    fn queue_dequeue_before_enqueue_completes_overlap_ok() {
        // The classic trace: pop returns x while push(x) is still pending —
        // legal, because both linearization points fit inside the overlap.
        let h = vec![
            rec(0, DsOp::QueuePush { value: b(7) }, DsRet::Pushed(true), 0, 3),
            rec(1, DsOp::QueuePop, DsRet::Popped(Some(b(7))), 1, 2),
        ];
        check(&DsSpec::queue(), &h).expect("overlapping enq/deq is linearizable");
    }

    #[test]
    fn queue_dequeue_of_a_future_enqueue_is_rejected() {
        // Non-linearizable flavor: pop returned x strictly before push(x)
        // was even invoked — the value came from the future.
        let h = vec![
            rec(1, DsOp::QueuePop, DsRet::Popped(Some(b(7))), 0, 1),
            rec(0, DsOp::QueuePush { value: b(7) }, DsRet::Pushed(true), 2, 3),
        ];
        let err = check(&DsSpec::queue(), &h).unwrap_err();
        match err {
            CheckError::Violation(v) => {
                assert_eq!(v.linearized, 0);
                assert_eq!(v.window.len(), 1, "window pinpoints the impossible pop");
            }
            other => panic!("expected violation, got {other}"),
        }
    }

    #[test]
    fn pq_pop_must_return_the_completed_minimum() {
        // push(1) and push(5) both complete, then pop returns 5: illegal.
        let h = vec![
            rec(0, DsOp::PqPush { value: b(5) }, DsRet::Pushed(true), 0, 1),
            rec(0, DsOp::PqPush { value: b(1) }, DsRet::Pushed(true), 2, 3),
            rec(1, DsOp::PqPop, DsRet::Popped(Some(b(5))), 4, 5),
        ];
        let err = check(&DsSpec::pq(), &h).unwrap_err();
        assert!(matches!(err, CheckError::Violation(_)));
        // And the fixed version passes.
        let ok = vec![
            rec(0, DsOp::PqPush { value: b(5) }, DsRet::Pushed(true), 0, 1),
            rec(0, DsOp::PqPush { value: b(1) }, DsRet::Pushed(true), 2, 3),
            rec(1, DsOp::PqPop, DsRet::Popped(Some(b(1))), 4, 5),
        ];
        check(&DsSpec::pq(), &ok).expect("min-first pop is linearizable");
    }

    #[test]
    fn map_semantics_match_the_hcl_handles() {
        let mut s = DsSpec::map();
        assert_eq!(s.apply(&DsOp::MapPut { key: b(1), value: b(9) }), DsRet::Inserted(true));
        assert_eq!(s.apply(&DsOp::MapPut { key: b(1), value: b(8) }), DsRet::Inserted(false));
        assert_eq!(s.apply(&DsOp::MapGet { key: b(1) }), DsRet::Value(Some(b(8))));
        assert_eq!(s.apply(&DsOp::MapContains { key: b(1) }), DsRet::Contains(true));
        assert_eq!(s.apply(&DsOp::MapErase { key: b(1) }), DsRet::Value(Some(b(8))));
        assert_eq!(s.apply(&DsOp::MapErase { key: b(1) }), DsRet::Value(None));
        let mut t = DsSpec::set();
        assert_eq!(t.apply(&DsOp::SetInsert { key: b(2) }), DsRet::Inserted(true));
        assert_eq!(t.apply(&DsOp::SetInsert { key: b(2) }), DsRet::Inserted(false));
        assert_eq!(t.apply(&DsOp::SetRemove { key: b(2) }), DsRet::Removed(true));
        assert_eq!(t.apply(&DsOp::SetRemove { key: b(2) }), DsRet::Removed(false));
    }

    #[test]
    fn cached_read_stale_within_lease_passes_only_under_lease_spec() {
        // put(k,1) completes, a lease on k=1 is granted during [1, ...],
        // put(k,2) completes, then a locally-served cached read returns the
        // leased value 1. In strict real time that read is stale; within its
        // lease window (valid_from = 1, the grant's invoke stamp) it can
        // linearize before put(k,2).
        let h = vec![
            rec(0, DsOp::MapPut { key: b(9), value: b(1) }, DsRet::Inserted(true), 0, 1),
            rec(1, DsOp::MapPut { key: b(9), value: b(2) }, DsRet::Inserted(false), 2, 3),
            rec(
                2,
                DsOp::MapGetCached { key: b(9), valid_from: 1 },
                DsRet::Value(Some(b(1))),
                4,
                5,
            ),
        ];
        let err = check(&DsSpec::map(), &h).unwrap_err();
        assert!(matches!(err, CheckError::Violation(_)), "strict check must reject staleness");
        check_lease(&DsSpec::map(), &h).expect("stale-within-lease is admissible");
    }

    #[test]
    fn cached_read_older_than_its_lease_window_is_rejected() {
        // The lease was granted *after* put(k,2) had already completed: the
        // value 1 was never current anywhere in [valid_from, returned], so
        // even the lease spec must reject the read.
        let h = vec![
            rec(0, DsOp::MapPut { key: b(9), value: b(1) }, DsRet::Inserted(true), 0, 1),
            rec(1, DsOp::MapPut { key: b(9), value: b(2) }, DsRet::Inserted(false), 2, 3),
            rec(
                2,
                DsOp::MapGetCached { key: b(9), valid_from: 4 },
                DsRet::Value(Some(b(1))),
                5,
                6,
            ),
        ];
        let err = check_lease(&DsSpec::map(), &h).unwrap_err();
        assert!(matches!(err, CheckError::Violation(_)), "value older than the lease window");
    }

    #[test]
    fn cached_read_crossing_an_erase_is_rejected_outside_its_window() {
        // erase(k) completes before the lease's grant stamp: a cached read
        // still returning the erased value has no witness in its window.
        let h = vec![
            rec(0, DsOp::MapPut { key: b(7), value: b(1) }, DsRet::Inserted(true), 0, 1),
            rec(0, DsOp::MapErase { key: b(7) }, DsRet::Value(Some(b(1))), 2, 3),
            rec(
                1,
                DsOp::MapGetCached { key: b(7), valid_from: 4 },
                DsRet::Value(Some(b(1))),
                5,
                6,
            ),
        ];
        assert!(check_lease(&DsSpec::map(), &h).is_err());
        // Same shape, but the lease predates the erase: admissible.
        let ok = vec![
            rec(0, DsOp::MapPut { key: b(7), value: b(1) }, DsRet::Inserted(true), 0, 1),
            rec(0, DsOp::MapErase { key: b(7) }, DsRet::Value(Some(b(1))), 2, 3),
            rec(
                1,
                DsOp::MapGetCached { key: b(7), valid_from: 1 },
                DsRet::Value(Some(b(1))),
                5,
                6,
            ),
        ];
        check_lease(&DsSpec::map(), &ok).expect("lease granted before the erase");
    }

    #[test]
    fn lease_relax_never_moves_invoke_forward_and_resorts() {
        let h = vec![
            rec(0, DsOp::MapGetCached { key: b(1), valid_from: 9 }, DsRet::Value(None), 4, 5),
            rec(0, DsOp::MapGetCached { key: b(1), valid_from: 1 }, DsRet::Value(None), 6, 7),
        ];
        let relaxed = lease_relax(&h);
        // First record: valid_from (9) is later than invoked (4) — unchanged.
        // Second: widened back to 1, so it now sorts first.
        assert_eq!(relaxed[0].invoked, 1);
        assert_eq!(relaxed[1].invoked, 4);
    }

    #[test]
    fn set_histories_partition_by_member() {
        let h = vec![
            rec(0, DsOp::SetInsert { key: b(1) }, DsRet::Inserted(true), 0, 1),
            rec(1, DsOp::SetInsert { key: b(2) }, DsRet::Inserted(true), 2, 3),
            rec(0, DsOp::SetContains { key: b(1) }, DsRet::Contains(true), 4, 5),
            rec(1, DsOp::SetRemove { key: b(2) }, DsRet::Removed(true), 6, 7),
        ];
        let stats = check(&DsSpec::set(), &h).unwrap();
        assert_eq!(stats.partitions, 2);
    }
}
