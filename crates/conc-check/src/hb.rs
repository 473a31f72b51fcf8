//! Vector-clock happens-before checker for schedules run under
//! [`crate::sched`].
//!
//! ## Model
//!
//! Every task inside a schedule carries a **vector clock**. Edges are
//! created only by the synchronization the C11 memory model actually
//! grants:
//!
//! * **Release→Acquire**: an `Acquire` (or `SeqCst`) atomic load that reads
//!   a location last published by a `Release`/`AcqRel`/`SeqCst` store or RMW
//!   joins the publisher's clock (release sequences continue through RMWs:
//!   a relaxed RMW preserves the head store's clock, a releasing RMW adds
//!   its own). A `Relaxed` store *breaks* the sequence; a `Relaxed` load
//!   joins nothing.
//! * **Mutexes**: releasing a facade mutex publishes the holder's clock;
//!   the next acquisition joins it.
//! * **Spawn/join**: a spawned task inherits its parent's clock; a `join`
//!   joins the child's final clock into the joiner.
//!
//! Two race classes are reported, both with the reproducing seed, the two
//! access sites, and the minimal event window between them:
//!
//! 1. **Ordering race** — an `Acquire`/`SeqCst` load consumes a value
//!    written by another task with *no* happens-before edge (the classic
//!    `Relaxed`-publish bug: the reader paid for `Acquire` but the writer
//!    never released).
//! 2. **Cell race** — a [`RaceCell`] (the audit wrapper around the
//!    containers' non-atomic shared slots) is read or written without a
//!    happens-before edge to the conflicting access.
//!
//! ## Non-goals
//!
//! Fences, `SeqCst` total-order effects beyond their acquire/release
//! halves, and consume ordering are not modeled (see DESIGN.md §13). The
//! checker observes one executed schedule at a time; coverage comes from
//! [`crate::sched::explore`]'s seeded schedule sweep.

#![cfg_attr(not(any(conc_check, test)), allow(dead_code))]

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::Ordering;

use crate::sched::TaskId;

/// Events retained for race reports. Older events fall off; the report says
/// so when the window is truncated.
const EVENT_RING: usize = 256;

/// Maximum events printed in one race report.
const MAX_WINDOW_LINES: usize = 32;

/// A vector clock: component `t` is the count of release points task `t`
/// had performed the last time an edge from `t` was joined.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Vc(Vec<u32>);

impl Vc {
    fn get(&self, t: TaskId) -> u32 {
        self.0.get(t).copied().unwrap_or(0)
    }

    fn ensure(&mut self, n: usize) {
        if self.0.len() < n {
            self.0.resize(n, 0);
        }
    }

    fn bump(&mut self, t: TaskId) {
        self.ensure(t + 1);
        self.0[t] += 1;
    }

    /// `self := self ⊔ other` (component-wise max). Allocation-free once
    /// `self` has capacity for `other`'s length.
    fn join(&mut self, other: &Vc) {
        self.ensure(other.0.len());
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// `self := other`, reusing `self`'s allocation when possible.
    fn assign(&mut self, other: &Vc) {
        self.0.clone_from(&other.0);
    }
}

/// What kind of access an [`Event`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EvKind {
    Load,
    Store,
    Rmw,
    CellRead,
    CellWrite,
    CellInit,
    Lock,
    Unlock,
}

impl EvKind {
    fn label(self) -> &'static str {
        match self {
            EvKind::Load => "atomic load",
            EvKind::Store => "atomic store",
            EvKind::Rmw => "atomic rmw",
            EvKind::CellRead => "cell read",
            EvKind::CellWrite => "cell write",
            EvKind::CellInit => "cell init",
            EvKind::Lock => "mutex lock",
            EvKind::Unlock => "mutex unlock",
        }
    }
}

/// One recorded access, kept in the bounded event ring.
#[derive(Clone, Copy)]
struct Event {
    seq: u64,
    task: TaskId,
    kind: EvKind,
    addr: usize,
    ord: Option<Ordering>,
    site: &'static Location<'static>,
}

impl Event {
    fn render(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(out, "    [{:>4}] task {} {}", self.seq, self.task, self.kind.label());
        if let Some(ord) = self.ord {
            let _ = write!(out, " {ord:?}");
        }
        let _ = writeln!(out, " addr {:#x} at {}", self.addr, self.site);
    }
}

/// One side of a race: who, where, and at which point of its clock.
#[derive(Clone, Copy)]
struct Access {
    task: TaskId,
    /// The accessor's own clock component at access time; the access
    /// happens-before task `u`'s current point iff `epoch <= C_u[task]`.
    epoch: u32,
    seq: u64,
    kind: EvKind,
    ord: Option<Ordering>,
    site: &'static Location<'static>,
}

/// Per-atomic-location state.
#[derive(Default)]
struct AtomicLoc {
    /// Clock published by the release sequence currently headed at this
    /// location; meaningless when `msg_valid` is false.
    msg: Vc,
    msg_valid: bool,
    last_write: Option<Access>,
}

/// Per-[`RaceCell`] state (FastTrack-style, full clocks).
#[derive(Default)]
struct CellLoc {
    write: Option<Access>,
    /// Last read per task (index = TaskId).
    reads: Vec<Option<Access>>,
}

/// Per-mutex state.
#[derive(Default)]
struct MutexLoc {
    clock: Vc,
    valid: bool,
}

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// Happens-before state for one schedule. Owned by the scheduler's `State`
/// (so the scheduler lock serializes all updates) and rebuilt per
/// [`crate::sched::run_one`].
pub struct HbState {
    seed: u64,
    bound: Option<u32>,
    clocks: Vec<Vc>,
    atomics: HashMap<usize, AtomicLoc>,
    cells: HashMap<usize, CellLoc>,
    mutexes: HashMap<usize, MutexLoc>,
    ring: Vec<Event>,
    seq: u64,
}

type HbResult = Result<(), String>;

impl HbState {
    /// Fresh state for a schedule driven by `seed` under `bound`.
    pub(crate) fn new(seed: u64, bound: Option<u32>) -> Self {
        let mut root = Vc::default();
        root.bump(0);
        HbState {
            seed,
            bound,
            clocks: vec![root],
            atomics: HashMap::new(),
            cells: HashMap::new(),
            mutexes: HashMap::new(),
            ring: Vec::with_capacity(EVENT_RING),
            seq: 0,
        }
    }

    /// Child inherits the parent's clock; the parent advances so later
    /// parent events are not ordered before the child's.
    pub(crate) fn on_spawn(&mut self, parent: TaskId, child: TaskId) {
        debug_assert_eq!(child, self.clocks.len());
        let mut c = self.clocks[parent].clone();
        c.bump(child);
        self.clocks.push(c);
        self.clocks[parent].bump(parent);
    }

    /// A join edge: the joiner absorbs the finished child's clock.
    pub(crate) fn on_join(&mut self, me: TaskId, child: TaskId) {
        let (a, b) = borrow_two(&mut self.clocks, me, child);
        a.join(b);
    }

    fn push_event(
        &mut self,
        task: TaskId,
        kind: EvKind,
        addr: usize,
        ord: Option<Ordering>,
        site: &'static Location<'static>,
    ) -> u64 {
        self.seq += 1;
        let ev = Event { seq: self.seq, task, kind, addr, ord, site };
        if self.ring.len() < EVENT_RING {
            self.ring.push(ev);
        } else {
            self.ring[(self.seq as usize) % EVENT_RING] = ev;
        }
        self.seq
    }

    /// Format a full race report (failure path: allocation is fine here).
    fn race(&self, first: Access, second: Access, why: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "conc-check: HAPPENS-BEFORE RACE — {why}");
        let _ = writeln!(
            out,
            "  seed {:#x} (replay: HCL_SCHED_SEED={:#x}), preemption bound {:?}",
            self.seed, self.seed, self.bound
        );
        for (tag, a) in [("first ", first), ("second", second)] {
            let _ = write!(out, "  {tag}: task {} {}", a.task, a.kind.label());
            if let Some(ord) = a.ord {
                let _ = write!(out, " {ord:?}");
            }
            let _ = writeln!(out, " at {}", a.site);
        }
        let mut window: Vec<Event> = self
            .ring
            .iter()
            .filter(|e| e.seq >= first.seq && e.seq <= second.seq)
            .copied()
            .collect();
        window.sort_by_key(|e| e.seq);
        let truncated = first.seq < self.seq.saturating_sub(self.ring.len() as u64) + 1;
        let _ = writeln!(
            out,
            "  event window (seq {}..={}, {} event(s){}):",
            first.seq,
            second.seq,
            window.len(),
            if truncated { ", older events dropped from the ring" } else { "" }
        );
        let skip = window.len().saturating_sub(MAX_WINDOW_LINES);
        if skip > 0 {
            let _ = writeln!(out, "    ({skip} earlier event(s) elided)");
        }
        for e in window.iter().skip(skip) {
            e.render(&mut out);
        }
        out.push_str("  no happens-before edge orders these accesses ");
        out.push_str("(only Release→Acquire/SeqCst pairs, mutexes, and spawn/join create edges)");
        out
    }

    fn access(&self, me: TaskId, kind: EvKind, ord: Option<Ordering>, seq: u64, site: &'static Location<'static>) -> Access {
        Access { task: me, epoch: self.clocks[me].get(me), seq, kind, ord, site }
    }

    /// Atomic load at `addr` with `ord`. Creates the Release→Acquire edge
    /// when one exists; otherwise, an acquire load that consumes another
    /// task's un-released value is an ordering race.
    pub(crate) fn atomic_load(
        &mut self,
        me: TaskId,
        addr: usize,
        ord: Ordering,
        site: &'static Location<'static>,
    ) -> HbResult {
        let seq = self.push_event(me, EvKind::Load, addr, Some(ord), site);
        let Self { clocks, atomics, .. } = self;
        let loc = atomics.entry(addr).or_default();
        if is_acquire(ord) {
            if loc.msg_valid {
                clocks[me].join(&loc.msg);
            }
            if let Some(w) = loc.last_write {
                if w.task != me && w.epoch > clocks[me].get(w.task) {
                    let second = self.access(me, EvKind::Load, Some(ord), seq, site);
                    return Err(self.race(
                        w,
                        second,
                        "acquire load consumed a value published without a release edge",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Atomic store at `addr` with `ord`. A releasing store publishes the
    /// writer's clock; a relaxed store breaks the release sequence.
    pub(crate) fn atomic_store(
        &mut self,
        me: TaskId,
        addr: usize,
        ord: Ordering,
        site: &'static Location<'static>,
    ) -> HbResult {
        let seq = self.push_event(me, EvKind::Store, addr, Some(ord), site);
        let Self { clocks, atomics, .. } = self;
        let loc = atomics.entry(addr).or_default();
        if is_release(ord) {
            loc.msg.assign(&clocks[me]);
            loc.msg_valid = true;
        } else {
            loc.msg_valid = false;
        }
        loc.last_write =
            Some(Access { task: me, epoch: clocks[me].get(me), seq, kind: EvKind::Store, ord: Some(ord), site });
        if is_release(ord) {
            clocks[me].bump(me);
        }
        Ok(())
    }

    /// Atomic read-modify-write (swap, fetch-ops, successful CAS). The read
    /// half may acquire, the write half may release; a relaxed RMW keeps the
    /// release sequence alive without contributing its own clock.
    pub(crate) fn atomic_rmw(
        &mut self,
        me: TaskId,
        addr: usize,
        ord: Ordering,
        site: &'static Location<'static>,
    ) -> HbResult {
        let seq = self.push_event(me, EvKind::Rmw, addr, Some(ord), site);
        let Self { clocks, atomics, .. } = self;
        let loc = atomics.entry(addr).or_default();
        let mut racy_write = None;
        if is_acquire(ord) {
            if loc.msg_valid {
                clocks[me].join(&loc.msg);
            }
            if let Some(w) = loc.last_write {
                if w.task != me && w.epoch > clocks[me].get(w.task) {
                    racy_write = Some(w);
                }
            }
        }
        if is_release(ord) {
            if loc.msg_valid {
                loc.msg.join(&clocks[me]);
            } else {
                loc.msg.assign(&clocks[me]);
                loc.msg_valid = true;
            }
        }
        loc.last_write =
            Some(Access { task: me, epoch: clocks[me].get(me), seq, kind: EvKind::Rmw, ord: Some(ord), site });
        if is_release(ord) {
            clocks[me].bump(me);
        }
        if let Some(w) = racy_write {
            let second = self.access(me, EvKind::Rmw, Some(ord), seq, site);
            return Err(self.race(
                w,
                second,
                "acquiring rmw consumed a value published without a release edge",
            ));
        }
        Ok(())
    }

    /// Mutex acquisition joins the clock left by the previous release.
    pub(crate) fn mutex_lock(
        &mut self,
        me: TaskId,
        addr: usize,
        site: &'static Location<'static>,
    ) -> HbResult {
        self.push_event(me, EvKind::Lock, addr, None, site);
        let Self { clocks, mutexes, .. } = self;
        let loc = mutexes.entry(addr).or_default();
        if loc.valid {
            clocks[me].join(&loc.clock);
        }
        Ok(())
    }

    /// Mutex release publishes the holder's clock.
    pub(crate) fn mutex_unlock(
        &mut self,
        me: TaskId,
        addr: usize,
        site: &'static Location<'static>,
    ) -> HbResult {
        self.push_event(me, EvKind::Unlock, addr, None, site);
        let Self { clocks, mutexes, .. } = self;
        let loc = mutexes.entry(addr).or_default();
        loc.clock.assign(&clocks[me]);
        loc.valid = true;
        clocks[me].bump(me);
        Ok(())
    }

    /// A [`RaceCell`] initialization: declares `me` the (re)initializing
    /// writer and resets the cell's audit history. Used for the
    /// construct-then-publish idiom, where the allocation may reuse an
    /// address whose previous (freed) occupant left stale access records.
    pub(crate) fn cell_init(
        &mut self,
        me: TaskId,
        addr: usize,
        site: &'static Location<'static>,
    ) -> HbResult {
        let seq = self.push_event(me, EvKind::CellInit, addr, None, site);
        let epoch = self.clocks[me].get(me);
        let loc = self.cells.entry(addr).or_default();
        loc.write =
            Some(Access { task: me, epoch, seq, kind: EvKind::CellInit, ord: None, site });
        for r in loc.reads.iter_mut() {
            *r = None;
        }
        Ok(())
    }

    /// A checked read of a [`RaceCell`]: must be ordered after the last
    /// write.
    pub(crate) fn cell_read(
        &mut self,
        me: TaskId,
        addr: usize,
        site: &'static Location<'static>,
    ) -> HbResult {
        let seq = self.push_event(me, EvKind::CellRead, addr, None, site);
        let epoch = self.clocks[me].get(me);
        let ntasks = self.clocks.len();
        let Self { clocks, cells, .. } = self;
        let loc = cells.entry(addr).or_default();
        let racy_write = match loc.write {
            Some(w) if w.task != me && w.epoch > clocks[me].get(w.task) => Some(w),
            _ => None,
        };
        if loc.reads.len() < ntasks {
            loc.reads.resize(ntasks, None);
        }
        loc.reads[me] =
            Some(Access { task: me, epoch, seq, kind: EvKind::CellRead, ord: None, site });
        if let Some(w) = racy_write {
            let second = self.access(me, EvKind::CellRead, None, seq, site);
            return Err(self.race(w, second, "shared cell read races with its last write"));
        }
        Ok(())
    }

    /// A checked write of a live shared [`RaceCell`]: must be ordered after
    /// the last write *and* every recorded read.
    pub(crate) fn cell_write(
        &mut self,
        me: TaskId,
        addr: usize,
        site: &'static Location<'static>,
    ) -> HbResult {
        let seq = self.push_event(me, EvKind::CellWrite, addr, None, site);
        let epoch = self.clocks[me].get(me);
        let ntasks = self.clocks.len();
        let Self { clocks, cells, .. } = self;
        let loc = cells.entry(addr).or_default();
        let mut conflict = match loc.write {
            Some(w) if w.task != me && w.epoch > clocks[me].get(w.task) => Some(w),
            _ => None,
        };
        if conflict.is_none() {
            for r in loc.reads.iter().flatten() {
                if r.task != me && r.epoch > clocks[me].get(r.task) {
                    conflict = Some(*r);
                    break;
                }
            }
        }
        if loc.reads.len() < ntasks {
            loc.reads.resize(ntasks, None);
        }
        loc.write =
            Some(Access { task: me, epoch, seq, kind: EvKind::CellWrite, ord: None, site });
        for r in loc.reads.iter_mut() {
            *r = None;
        }
        if let Some(c) = conflict {
            let second = self.access(me, EvKind::CellWrite, None, seq, site);
            return Err(self.race(c, second, "shared cell write races with a prior access"));
        }
        Ok(())
    }
}

/// Disjoint mutable borrows of two clock slots.
fn borrow_two(v: &mut [Vc], a: usize, b: usize) -> (&mut Vc, &Vc) {
    assert_ne!(a, b, "join with self");
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &lo[b])
    }
}

// ---------------------------------------------------------------------------
// Reporting hooks, called by the `sync` facade wrappers and `RaceCell`.
// No-ops outside an active schedule. Compiled only when the facade's
// scheduled wrappers are (`--cfg conc_check`, or this crate's own tests).
// ---------------------------------------------------------------------------

#[cfg(any(conc_check, test))]
#[track_caller]
fn report(
    f: impl FnOnce(&mut HbState, TaskId, &'static Location<'static>) -> HbResult,
) {
    let site = Location::caller();
    if let Some(Err(race)) = crate::sched::with_hb(|hb, me| f(hb, me, site)) {
        panic!("{race}");
    }
}

#[cfg(any(conc_check, test))]
#[track_caller]
pub(crate) fn atomic_load(addr: usize, ord: Ordering) {
    report(|hb, me, site| hb.atomic_load(me, addr, ord, site));
}

#[cfg(any(conc_check, test))]
#[track_caller]
pub(crate) fn atomic_store(addr: usize, ord: Ordering) {
    report(|hb, me, site| hb.atomic_store(me, addr, ord, site));
}

#[cfg(any(conc_check, test))]
#[track_caller]
pub(crate) fn atomic_rmw(addr: usize, ord: Ordering) {
    report(|hb, me, site| hb.atomic_rmw(me, addr, ord, site));
}

#[cfg(any(conc_check, test))]
#[track_caller]
pub(crate) fn mutex_lock(addr: usize) {
    report(|hb, me, site| hb.mutex_lock(me, addr, site));
}

#[cfg(any(conc_check, test))]
#[track_caller]
pub(crate) fn mutex_unlock(addr: usize) {
    report(|hb, me, site| hb.mutex_unlock(me, addr, site));
}

#[cfg(any(conc_check, test))]
#[track_caller]
fn cell_event(kind: EvKind, addr: usize) {
    report(|hb, me, site| match kind {
        EvKind::CellInit => hb.cell_init(me, addr, site),
        EvKind::CellRead => hb.cell_read(me, addr, site),
        EvKind::CellWrite => hb.cell_write(me, addr, site),
        _ => Ok(()),
    });
}

// ---------------------------------------------------------------------------
// RaceCell
// ---------------------------------------------------------------------------

/// Audit wrapper for a non-atomic slot shared between threads through
/// `unsafe` publication (the queue's `MaybeUninit` value slot, the cuckoo
/// entry payload, the skiplist value pointee).
///
/// In default builds every method is a zero-cost passthrough. Under
/// `--cfg conc_check` (or this crate's own tests), accesses report to the
/// happens-before checker, which fails the schedule when a read or write is
/// not ordered after the conflicting access by a real synchronization edge,
/// or when it lands in memory the epoch shim has reclaimed
/// ([`crate::quarantine`]).
///
/// The wrapper does not add any synchronization of its own: callers remain
/// responsible for exclusivity, exactly as with a bare `UnsafeCell`.
#[derive(Debug, Default)]
pub struct RaceCell<T> {
    inner: UnsafeCell<T>,
}

// SAFETY: RaceCell adds no state beyond the wrapped value and performs no
// unsynchronized access itself; it is Send exactly when T is.
unsafe impl<T: Send> Send for RaceCell<T> {}
// SAFETY: shared access goes through `with`/`with_mut`, whose contracts put
// exclusivity on the caller (the same obligation the containers already
// discharge via epoch publication); the audit hooks only read `&self`.
unsafe impl<T: Send + Sync> Sync for RaceCell<T> {}

impl<T> RaceCell<T> {
    /// Wrap `value`. No event is recorded; call [`RaceCell::mark_write`]
    /// once the cell has reached its final (shared) address.
    pub const fn new(value: T) -> Self {
        RaceCell { inner: UnsafeCell::new(value) }
    }

    /// Record this task as the cell's initializing writer and reset the
    /// audit history. Call after placing the cell at its shared address
    /// (e.g. right after `Owned::new`) and *before* publishing it: the
    /// publication edge then orders every consumer after this write.
    ///
    /// Zero-sized `T` is not audited: a ZST has no bytes to race on, and
    /// every heap-allocated ZST shares the same dangling address, so the
    /// per-address history would alias unrelated cells.
    #[track_caller]
    pub fn mark_write(&self) {
        #[cfg(any(conc_check, test))]
        if std::mem::size_of::<T>() != 0 {
            cell_event(EvKind::CellInit, self.inner.get() as usize);
        }
    }

    /// Read access: run `f` on a shared reference to the value.
    ///
    /// # Safety
    /// No concurrent [`RaceCell::with_mut`] may be in progress (callers
    /// guarantee this via their publication protocol; the checker audits
    /// that the protocol actually orders the accesses).
    #[track_caller]
    pub unsafe fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        #[cfg(any(conc_check, test))]
        if std::mem::size_of::<T>() != 0 {
            crate::sched::point(crate::sched::Point::Preemptive);
            crate::quarantine::check(self.inner.get() as usize);
            cell_event(EvKind::CellRead, self.inner.get() as usize);
        }
        // SAFETY: exclusivity is the caller's contract (see above).
        f(unsafe { &*self.inner.get() })
    }

    /// Write access to an already-shared cell: run `f` on a mutable
    /// reference.
    ///
    /// # Safety
    /// The caller must have exclusive access for the duration of `f` (no
    /// concurrent [`RaceCell::with`] or `with_mut`).
    #[track_caller]
    pub unsafe fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        #[cfg(any(conc_check, test))]
        if std::mem::size_of::<T>() != 0 {
            crate::sched::point(crate::sched::Point::Preemptive);
            crate::quarantine::check(self.inner.get() as usize);
            cell_event(EvKind::CellWrite, self.inner.get() as usize);
        }
        // SAFETY: exclusivity is the caller's contract (see above).
        f(unsafe { &mut *self.inner.get() })
    }

    /// Exclusive access through `&mut self` (statically race-free).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Unwrap the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{self, ExploreConfig};
    use crate::sync::scheduled::{AtomicBool, Mutex};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    fn panic_text(r: std::thread::Result<crate::sched::RunReport>) -> String {
        match r {
            Ok(_) => String::new(),
            Err(p) => {
                if let Some(s) = p.downcast_ref::<String>() {
                    s.clone()
                } else if let Some(s) = p.downcast_ref::<&str>() {
                    (*s).to_string()
                } else {
                    "<non-string>".into()
                }
            }
        }
    }

    /// The racy half of the negative-control pair: data published with a
    /// `Relaxed` store, consumed through an `Acquire` load. Returns the
    /// panic text of the first failing seed (empty if no seed failed).
    fn run_relaxed_publish(seed: u64) -> String {
        let r = catch_unwind(AssertUnwindSafe(|| {
            sched::run_one(seed, None, || {
                let flag = Arc::new(AtomicBool::new(false));
                let data = Arc::new(RaceCell::new(0u64));
                let producer = {
                    let (flag, data) = (Arc::clone(&flag), Arc::clone(&data));
                    sched::spawn(move || {
                        // SAFETY: the producer is the only writer; the bug
                        // under test is the *publication*, not this write.
                        unsafe { data.with_mut(|d| *d = 42) };
                        // The deliberate bug: a Relaxed publish creates no
                        // synchronizes-with edge for the consumer below.
                        flag.store(true, Ordering::Relaxed);
                    })
                };
                let consumer = {
                    let (flag, data) = (Arc::clone(&flag), Arc::clone(&data));
                    sched::spawn(move || {
                        while !flag.load(Ordering::Acquire) {
                            sched::yield_now();
                        }
                        // SAFETY: the producer wrote before setting the flag
                        // (but never released — that is the planted race).
                        unsafe { data.with(|d| *d) }
                    })
                };
                producer.join();
                assert_eq!(consumer.join(), 42);
            })
        }));
        panic_text(r.map(|_| sched::run_one(0, None, || {})))
    }

    #[test]
    fn relaxed_publish_is_flagged_with_both_sites_and_seed() {
        let msg = run_relaxed_publish(0x1CE);
        assert!(msg.contains("HAPPENS-BEFORE RACE"), "no race reported: {msg}");
        assert!(msg.contains("without a release edge"), "wrong race class: {msg}");
        // Both access sites point into this file, and the seed replays.
        assert!(msg.matches("hb.rs").count() >= 2, "missing access sites: {msg}");
        assert!(msg.contains("HCL_SCHED_SEED=0x1ce"), "missing replay seed: {msg}");
        assert!(msg.contains("Relaxed"), "publisher ordering missing: {msg}");
    }

    #[test]
    fn relaxed_consume_is_flagged_as_cell_race() {
        // The mirror fixture: a correct Release publish, but the consumer
        // spins on a Relaxed load — the cell read has no HB edge.
        let r = catch_unwind(AssertUnwindSafe(|| {
            sched::run_one(0xBEE, None, || {
                let flag = Arc::new(AtomicBool::new(false));
                let data = Arc::new(RaceCell::new(0u64));
                let producer = {
                    let (flag, data) = (Arc::clone(&flag), Arc::clone(&data));
                    sched::spawn(move || {
                        // SAFETY: sole writer before publication.
                        unsafe { data.with_mut(|d| *d = 7) };
                        flag.store(true, Ordering::Release);
                    })
                };
                let consumer = {
                    let (flag, data) = (Arc::clone(&flag), Arc::clone(&data));
                    sched::spawn(move || {
                        // The deliberate bug: Relaxed consumption discards
                        // the edge the Release store offered.
                        while !flag.load(Ordering::Relaxed) {
                            sched::yield_now();
                        }
                        // SAFETY: exclusivity holds; the ordering does not.
                        unsafe { data.with(|d| *d) }
                    })
                };
                producer.join();
                assert_eq!(consumer.join(), 7);
            })
        }));
        let msg = panic_text(r.map(|_| sched::run_one(0, None, || {})));
        assert!(msg.contains("cell read races"), "expected a cell race: {msg}");
        assert!(msg.contains("cell write"), "missing write site: {msg}");
    }

    #[test]
    fn racy_fixture_is_detected_within_the_default_explore_budget() {
        // Mirror of the acceptance criterion: under a modest explore budget
        // at least one seed must flag the Relaxed publish.
        let r = catch_unwind(AssertUnwindSafe(|| {
            sched::explore(ExploreConfig::new(0x5EED_CAFE, 50), || {
                let flag = Arc::new(AtomicBool::new(false));
                let data = Arc::new(RaceCell::new(0u64));
                let p = {
                    let (flag, data) = (Arc::clone(&flag), Arc::clone(&data));
                    sched::spawn(move || {
                        // SAFETY: sole writer before publication.
                        unsafe { data.with_mut(|d| *d = 1) };
                        flag.store(true, Ordering::Relaxed);
                    })
                };
                let c = {
                    let (flag, data) = (Arc::clone(&flag), Arc::clone(&data));
                    sched::spawn(move || {
                        while !flag.load(Ordering::Acquire) {
                            sched::yield_now();
                        }
                        // SAFETY: see the producer note.
                        unsafe { data.with(|d| *d) }
                    })
                };
                p.join();
                c.join();
            });
        }));
        assert!(r.is_err(), "explore missed the planted ordering race");
    }

    #[test]
    fn mutex_protected_twin_passes_race_free() {
        // The clean twin of the racy pair: the flag lives under a facade
        // mutex, whose release/acquire edges order the cell accesses.
        let stats = sched::explore(ExploreConfig::new(0x600D, 150), || {
            let ready = Arc::new(Mutex::new(false));
            let data = Arc::new(RaceCell::new(0u64));
            let producer = {
                let (ready, data) = (Arc::clone(&ready), Arc::clone(&data));
                sched::spawn(move || {
                    // SAFETY: sole writer; publication via the mutex below.
                    unsafe { data.with_mut(|d| *d = 9) };
                    *ready.lock() = true;
                })
            };
            let consumer = {
                let (ready, data) = (Arc::clone(&ready), Arc::clone(&data));
                sched::spawn(move || {
                    loop {
                        if *ready.lock() {
                            break;
                        }
                        sched::yield_now();
                    }
                    // SAFETY: ordered after the write by the mutex edge.
                    unsafe { data.with(|d| *d) }
                })
            };
            producer.join();
            assert_eq!(consumer.join(), 9);
        });
        assert_eq!(stats.schedules, 150);
    }

    #[test]
    fn release_acquire_twin_passes_race_free() {
        let stats = sched::explore(ExploreConfig::new(0xACE, 150), || {
            let flag = Arc::new(AtomicBool::new(false));
            let data = Arc::new(RaceCell::new(0u64));
            let producer = {
                let (flag, data) = (Arc::clone(&flag), Arc::clone(&data));
                sched::spawn(move || {
                    // SAFETY: sole writer before the Release publish.
                    unsafe { data.with_mut(|d| *d = 3) };
                    flag.store(true, Ordering::Release);
                })
            };
            let consumer = {
                let (flag, data) = (Arc::clone(&flag), Arc::clone(&data));
                sched::spawn(move || {
                    while !flag.load(Ordering::Acquire) {
                        sched::yield_now();
                    }
                    // SAFETY: ordered by the Release→Acquire edge.
                    unsafe { data.with(|d| *d) }
                })
            };
            producer.join();
            assert_eq!(consumer.join(), 3);
        });
        assert_eq!(stats.schedules, 150);
    }

    #[test]
    fn spawn_and_join_create_edges() {
        let stats = sched::explore(ExploreConfig::new(0x90, 100), || {
            let data = Arc::new(RaceCell::new(0u64));
            // Pre-spawn write: ordered before the child via the spawn edge.
            // SAFETY: no other task exists yet.
            unsafe { data.with_mut(|d| *d = 5) };
            let child = {
                let data = Arc::clone(&data);
                sched::spawn(move || {
                    // SAFETY: ordered after the parent's write by spawn.
                    let v = unsafe { data.with(|d| *d) };
                    // SAFETY: sole live accessor until join.
                    unsafe { data.with_mut(|d| *d = v + 1) };
                })
            };
            child.join();
            // SAFETY: ordered after the child's write by the join edge.
            assert_eq!(unsafe { data.with(|d| *d) }, 6);
        });
        assert_eq!(stats.schedules, 100);
    }

    #[test]
    fn vector_clock_join_and_bump() {
        let mut a = Vc::default();
        a.bump(0);
        a.bump(0);
        let mut b = Vc::default();
        b.bump(2);
        a.join(&b);
        assert_eq!(a.get(0), 2);
        assert_eq!(a.get(1), 0);
        assert_eq!(a.get(2), 1);
        let mut c = Vc::default();
        c.assign(&a);
        assert_eq!(c, a);
    }
}
