//! Wing–Gong linearizability checking with P-compositionality.
//!
//! ## Algorithm
//!
//! The checker consumes a *complete* history of operations with real-time
//! intervals (`[invoked, returned]`, from [`crate::history::Recorder`]) and
//! searches for a legal linearization: a total order of the ops that (a)
//! respects real time — if op A returned before op B was invoked, A comes
//! first — and (b) replays correctly against a sequential specification.
//!
//! The search is Wing & Gong's recursion: at each step the *candidates* are
//! the not-yet-linearized ops whose invocation precedes every
//! not-yet-linearized return (the real-time frontier). Each candidate is
//! applied to a clone of the spec; if the spec's answer matches the
//! recorded response, recurse. A memo set of (linearized-bitset, spec
//! state) pairs prunes re-exploration of equivalent prefixes — the
//! Lowe-style optimization that makes WGL practical. A matching candidate
//! that is read-only by kind ([`SeqSpec::read_only`]) is linearized where
//! it stands and its siblings are not tried: it is invoked before every
//! outstanding return and changes no state, so any legal order can move it
//! to this point and the ops it passes see the same states. Without that
//! cut, many overlapping reads of an unchanged register make the search
//! walk every subset of them. The cut needs read-only *by kind*: an op that
//! merely leaves *this* state unchanged (a put of the value already held)
//! may change the state it would meet later in the order.
//!
//! ## P-compositionality
//!
//! Linearizability is compositional: a history over independent objects is
//! linearizable iff its per-object projections are. A hash map is a product
//! of per-key registers, so when the spec assigns every op a partition key
//! ([`SeqSpec::partition`]) the history is split and each partition checked
//! alone — turning one exponential search into many small ones. Queues and
//! priority queues have no such decomposition and are checked whole.
//!
//! ## Failure reporting
//!
//! On failure the checker reports the deepest linearizable prefix it
//! reached and the *frontier window* there: the concurrent ops that were
//! all tried and all disagreed with the spec. That window is the minimal
//! region a human needs to stare at.

use crate::history::OpRecord;
use std::collections::HashSet;
use std::fmt;
use std::hash::Hash;

/// A sequential specification: deterministic object state with an `apply`
/// step, plus an optional partition key enabling P-compositionality.
pub trait SeqSpec: Clone + Eq + Hash {
    /// Operation (input side).
    type Op: Clone + fmt::Debug;
    /// Response.
    type Ret: PartialEq + Clone + fmt::Debug;

    /// Apply `op` sequentially, mutating the state and returning the
    /// specified response.
    fn apply(&mut self, op: &Self::Op) -> Self::Ret;

    /// Partition key for P-compositionality. Return `Some(k)` when ops with
    /// different keys touch independent sub-objects (map/set keys); `None`
    /// when the whole object is entangled (queues). A history is split only
    /// if *every* op yields `Some`.
    fn partition(_op: &Self::Op) -> Option<u64> {
        None
    }

    /// True when `op` changes no state in *any* state it is applied to (a
    /// get or contains). The search linearizes a matching read-only op at
    /// once and tries no sibling before it (see the module doc), so a wrong
    /// `true` makes the checker report false violations. The default,
    /// `false`, only costs search time.
    fn read_only(_op: &Self::Op) -> bool {
        false
    }
}

/// Search statistics from a successful check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Operations checked.
    pub ops: usize,
    /// Partitions the history split into (1 = unpartitioned).
    pub partitions: usize,
    /// Sequential spec applications performed across the search.
    pub states_explored: u64,
}

/// A linearizability violation: no legal order exists.
#[derive(Debug, Clone)]
pub struct Violation<O, R> {
    /// Partition key the violation occurred in (`None` = unpartitioned).
    pub partition: Option<u64>,
    /// Ops in the violating partition.
    pub partition_ops: usize,
    /// Length of the deepest linearizable prefix found.
    pub linearized: usize,
    /// The frontier ops at that depth — every one was tried and every one
    /// disagreed with the sequential spec. This is the minimal window to
    /// inspect.
    pub window: Vec<OpRecord<O, R>>,
}

impl<O: fmt::Debug, R: fmt::Debug> fmt::Display for Violation<O, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "history is NOT linearizable (partition {:?}): linearized {}/{} ops, \
             then every op in the concurrent window failed:",
            self.partition, self.linearized, self.partition_ops
        )?;
        for r in &self.window {
            writeln!(
                f,
                "  proc {} op {:?} -> {:?} @[{}, {}]",
                r.proc, r.op, r.ret, r.invoked, r.returned
            )?;
        }
        Ok(())
    }
}

/// Why a check did not return a verdict of "linearizable".
#[derive(Debug, Clone)]
pub enum CheckError<O, R> {
    /// Definite violation with the minimal window.
    Violation(Violation<O, R>),
    /// The search exceeded its state budget without a verdict (history too
    /// concurrent for exhaustive replay).
    BudgetExhausted {
        /// States explored before giving up.
        states: u64,
    },
}

impl<O: fmt::Debug, R: fmt::Debug> fmt::Display for CheckError<O, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Violation(v) => v.fmt(f),
            CheckError::BudgetExhausted { states } => {
                write!(f, "linearizability search exhausted its budget after {states} states")
            }
        }
    }
}

/// Default bound on sequential applications per partition search.
const DEFAULT_BUDGET: u64 = 50_000_000;

/// Check `history` against the sequential spec starting from `initial`.
///
/// Returns `Ok(stats)` when a legal linearization exists for every
/// partition, `Err(CheckError::Violation)` with the minimal window when one
/// does not.
pub fn check<S: SeqSpec>(
    initial: &S,
    history: &[OpRecord<S::Op, S::Ret>],
) -> Result<CheckStats, CheckError<S::Op, S::Ret>> {
    check_with_budget(initial, history, DEFAULT_BUDGET)
}

/// [`check`] with an explicit state budget per partition.
pub fn check_with_budget<S: SeqSpec>(
    initial: &S,
    history: &[OpRecord<S::Op, S::Ret>],
    budget: u64,
) -> Result<CheckStats, CheckError<S::Op, S::Ret>> {
    // Partition iff every op is partitionable (P-compositionality).
    let keys: Option<Vec<u64>> = history.iter().map(|r| S::partition(&r.op)).collect();
    let groups: Vec<(Option<u64>, Vec<&OpRecord<S::Op, S::Ret>>)> = match keys {
        Some(keys) => {
            let mut by_key: std::collections::BTreeMap<u64, Vec<&OpRecord<S::Op, S::Ret>>> =
                Default::default();
            for (r, k) in history.iter().zip(keys) {
                by_key.entry(k).or_default().push(r);
            }
            by_key.into_iter().map(|(k, v)| (Some(k), v)).collect()
        }
        None => vec![(None, history.iter().collect())],
    };

    let mut stats =
        CheckStats { ops: history.len(), partitions: groups.len().max(1), states_explored: 0 };
    for (key, mut group) in groups {
        group.sort_by_key(|r| r.invoked);
        let mut search = Search {
            ops: group,
            initial: initial.clone(),
            memo: HashSet::new(),
            states: 0,
            budget,
            best_depth: 0,
            best_window: Vec::new(),
        };
        match search.run() {
            Outcome::Linearizable => stats.states_explored += search.states,
            Outcome::Budget => {
                return Err(CheckError::BudgetExhausted { states: search.states })
            }
            Outcome::Violation => {
                let window =
                    search.best_window.iter().map(|&i| search.ops[i].clone()).collect();
                return Err(CheckError::Violation(Violation {
                    partition: key,
                    partition_ops: search.ops.len(),
                    linearized: search.best_depth,
                    window,
                }));
            }
        }
    }
    Ok(stats)
}

enum Outcome {
    Linearizable,
    Violation,
    Budget,
}

struct Search<'a, S: SeqSpec> {
    ops: Vec<&'a OpRecord<S::Op, S::Ret>>,
    initial: S,
    memo: HashSet<(Vec<u64>, S)>,
    states: u64,
    budget: u64,
    best_depth: usize,
    best_window: Vec<usize>,
}

impl<'a, S: SeqSpec> Search<'a, S> {
    fn run(&mut self) -> Outcome {
        let n = self.ops.len();
        if n == 0 {
            return Outcome::Linearizable;
        }
        let mut done = vec![false; n];
        let mut bits = vec![0u64; n.div_ceil(64)];
        let spec = self.initial.clone();
        match self.rec(spec, &mut done, &mut bits, 0) {
            Some(true) => Outcome::Linearizable,
            Some(false) => Outcome::Violation,
            None => Outcome::Budget,
        }
    }

    /// Returns Some(linearizable?) or None when the budget ran out.
    fn rec(&mut self, spec: S, done: &mut [bool], bits: &mut [u64], depth: usize) -> Option<bool> {
        let n = self.ops.len();
        if depth == n {
            return Some(true);
        }
        // Real-time frontier: ops invoked before every outstanding return.
        let min_ret = self
            .ops
            .iter()
            .enumerate()
            .filter(|(i, _)| !done[*i])
            .map(|(_, r)| r.returned)
            .min()
            .expect("depth < n implies an undone op");
        let candidates: Vec<usize> = (0..n)
            .filter(|&i| !done[i] && self.ops[i].invoked < min_ret)
            .collect();
        debug_assert!(!candidates.is_empty(), "the earliest-returning undone op is a candidate");
        if depth >= self.best_depth {
            self.best_depth = depth;
            self.best_window = candidates.clone();
        }
        for &i in &candidates {
            self.states += 1;
            if self.states > self.budget {
                return None;
            }
            let mut next = spec.clone();
            let got = next.apply(&self.ops[i].op);
            if got != self.ops[i].ret {
                continue;
            }
            let read_only = S::read_only(&self.ops[i].op);
            debug_assert!(!read_only || next == spec, "a read-only op changed the state");
            done[i] = true;
            bits[i / 64] |= 1u64 << (i % 64);
            let fresh = self.memo.insert((bits.to_vec(), next.clone()));
            let verdict = if fresh { self.rec(next, done, bits, depth + 1) } else { Some(false) };
            done[i] = false;
            bits[i / 64] &= !(1u64 << (i % 64));
            match verdict {
                Some(true) => return Some(true),
                // Linearizable from here only if linearizable with this op
                // first (see the module doc): no sibling can do better.
                Some(false) if read_only => return Some(false),
                Some(false) => {}
                None => return None,
            }
        }
        Some(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal register spec for hand-written histories.
    #[derive(Clone, PartialEq, Eq, Hash, Default)]
    struct RegSpec(std::collections::BTreeMap<u64, u64>);

    #[derive(Clone, Debug, PartialEq, Eq)]
    enum RegOp {
        Put(u64, u64),
        Get(u64),
    }

    impl SeqSpec for RegSpec {
        type Op = RegOp;
        type Ret = Option<u64>;
        fn apply(&mut self, op: &RegOp) -> Option<u64> {
            match *op {
                RegOp::Put(k, v) => self.0.insert(k, v),
                RegOp::Get(k) => self.0.get(&k).copied(),
            }
        }
        fn partition(op: &RegOp) -> Option<u64> {
            Some(match *op {
                RegOp::Put(k, _) | RegOp::Get(k) => k,
            })
        }
        fn read_only(op: &RegOp) -> bool {
            matches!(op, RegOp::Get(_))
        }
    }

    fn rec(
        proc: u64,
        op: RegOp,
        ret: Option<u64>,
        iv: u64,
        rt: u64,
    ) -> OpRecord<RegOp, Option<u64>> {
        OpRecord { proc, op, ret, invoked: iv, returned: rt }
    }

    #[test]
    fn concurrent_overlapping_puts_and_get_linearizable() {
        // put(1) and put(2) overlap; their returns (previous values) only
        // fit the order put(2), put(1) — which the later get confirms.
        let h = vec![
            rec(0, RegOp::Put(7, 1), Some(2), 0, 5),
            rec(1, RegOp::Put(7, 2), None, 1, 4),
            rec(2, RegOp::Get(7), Some(1), 6, 7),
        ];
        let stats = check(&RegSpec::default(), &h).expect("linearizable");
        assert_eq!(stats.ops, 3);
    }

    #[test]
    fn stale_read_after_sequential_puts_is_rejected() {
        // put(1) completes, THEN put(2) completes, THEN get sees 1 — stale.
        let h = vec![
            rec(0, RegOp::Put(7, 1), None, 0, 1),
            rec(0, RegOp::Put(7, 2), Some(1), 2, 3),
            rec(1, RegOp::Get(7), Some(1), 4, 5),
        ];
        let err = check(&RegSpec::default(), &h).unwrap_err();
        match err {
            CheckError::Violation(v) => {
                assert_eq!(v.partition, Some(7));
                assert_eq!(v.linearized, 2, "both puts linearize, the get cannot");
                assert_eq!(v.window.len(), 1, "window is exactly the stale get");
            }
            other => panic!("expected violation, got {other}"),
        }
    }

    #[test]
    fn partitioning_isolates_the_bad_key() {
        // Key 1 is fine; key 2 carries a stale read.
        let h = vec![
            rec(0, RegOp::Put(1, 10), None, 0, 1),
            rec(0, RegOp::Put(2, 20), None, 2, 3),
            rec(0, RegOp::Put(2, 21), Some(20), 4, 5),
            rec(1, RegOp::Get(1), Some(10), 6, 7),
            rec(1, RegOp::Get(2), Some(20), 8, 9), // stale
        ];
        match check(&RegSpec::default(), &h).unwrap_err() {
            CheckError::Violation(v) => assert_eq!(v.partition, Some(2)),
            other => panic!("expected violation, got {other}"),
        }
    }

    #[test]
    fn read_concurrent_with_put_may_see_old_or_new() {
        for seen in [None, Some(9u64)] {
            let h = vec![
                rec(0, RegOp::Put(3, 9), None, 0, 4),
                rec(1, RegOp::Get(3), seen, 1, 2),
            ];
            check(&RegSpec::default(), &h).expect("both old and new are linearizable");
        }
    }

    #[test]
    fn memoization_handles_wide_concurrency() {
        // 12 concurrent puts of the same value to one key, then a get: an
        // unmemoized search walks 12! prefixes; memoized this is instant.
        let mut h: Vec<OpRecord<RegOp, Option<u64>>> = (0..12)
            .map(|i| {
                OpRecord {
                    proc: i,
                    op: RegOp::Put(1, 5),
                    // All puts overlap; exactly one (the one linearized
                    // first) may report "no previous value".
                    ret: if i == 0 { None } else { Some(5) },
                    invoked: i,
                    returned: 100 + i,
                }
            })
            .collect();
        h.push(rec(99, RegOp::Get(1), Some(5), 200, 201));
        let stats = check(&RegSpec::default(), &h).expect("linearizable");
        assert!(
            stats.states_explored < 100_000,
            "memoization failed: {} states",
            stats.states_explored
        );
    }

    #[test]
    fn budget_exhaustion_is_reported_not_hung() {
        let h: Vec<OpRecord<RegOp, Option<u64>>> = (0..10)
            .map(|i| OpRecord {
                proc: i,
                op: RegOp::Put(1, i),
                ret: None, // mutually inconsistent: at most one can be first
                invoked: i,
                returned: 100 + i,
            })
            .collect();
        match check_with_budget(&RegSpec::default(), &h, 3) {
            Err(CheckError::BudgetExhausted { states }) => assert!(states > 3),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn overlapping_reads_of_an_unchanged_register_stay_within_budget() {
        // 20 reads overlap each other and a read of a value the register
        // never held. Trying every read in every order walks each subset
        // of them (2^20 states) before the violation is certain; the
        // read-only cut walks them once.
        let mut h = vec![rec(0, RegOp::Put(1, 5), None, 0, 1)];
        h.extend((0..20).map(|i| rec(i + 1, RegOp::Get(1), Some(5), 2 + i, 100 + i)));
        h.push(rec(99, RegOp::Get(1), Some(7), 30, 200));
        match check_with_budget(&RegSpec::default(), &h, 10_000) {
            Err(CheckError::Violation(v)) => {
                assert_eq!(v.linearized, 21, "the put and every read linearize");
                assert_eq!(v.window.len(), 1, "the window is the impossible read");
            }
            other => panic!("expected a violation within budget, got {other:?}"),
        }
        // The same reads with a put that explains the odd one: linearizable.
        h.push(rec(98, RegOp::Put(1, 7), Some(5), 25, 150));
        check_with_budget(&RegSpec::default(), &h, 10_000).expect("linearizable within budget");
    }

    #[test]
    fn empty_history_is_linearizable() {
        let stats = check(&RegSpec::default(), &[]).unwrap();
        assert_eq!(stats.ops, 0);
    }
}
