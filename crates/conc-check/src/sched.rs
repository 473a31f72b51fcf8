//! A seeded, schedule-exploring deterministic scheduler (shuttle-style
//! random scheduling with preemption bounding).
//!
//! ## Model
//!
//! Inside [`run_one`] every *task* (the closure itself plus anything it
//! starts with [`spawn`]) runs on its own OS thread, but the scheduler
//! serializes them: exactly one task is *active* at any instant, and
//! control only changes hands at explicit **scheduling points** — the
//! [`crate::sync`] facade emits one before every atomic access and lock
//! acquisition. At each point a seeded RNG picks the next task to run:
//!
//! * **preemptive** points (atomic accesses): switching away from a task
//!   that could keep running costs one unit of the *preemption budget*;
//!   once the budget is spent the current task runs until it blocks or
//!   yields (preemption bounding — most concurrency bugs need only a few
//!   preemptions, and bounding them concentrates the search);
//! * **voluntary** points (lock contention, `yield_now`, `join`): switching
//!   is free, since the task cannot make progress anyway.
//!
//! Because the RNG is the only source of nondeterminism, a schedule is a
//! pure function of its seed: a failing seed printed by [`explore`] replays
//! the identical interleaving in [`run_one`].
//!
//! ## What this explores (and what it does not)
//!
//! Interleavings are explored at the granularity of facade operations, with
//! the host's memory model underneath. This catches atomicity violations,
//! lost updates, broken invariants and ABA-style races — the bug classes
//! the HCL containers are exposed to. Executions are not *reordered* by the
//! host's memory model (every facade op still runs sequentially
//! consistently), but each schedule is additionally audited by the
//! [`crate::hb`] vector-clock checker: the facade reports every access
//! *with its `Ordering`*, and a value consumed without a genuine
//! happens-before edge (Release→Acquire/SeqCst pair, mutex, spawn/join)
//! fails the schedule as an ordering race even though the host happened to
//! deliver the right value. Fences and `consume` are out of scope (see
//! DESIGN.md §13); the static side of the same audit is `xtask lint`'s
//! `ORDERING:` pass.
//!
//! A failing exploration prints its seed; `HCL_SCHED_SEED=<seed>` (decimal
//! or `0x…` hex) makes any [`explore`] call replay exactly that one
//! schedule.

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::hb::HbState;

/// Task identifier within one schedule (0 = the root closure).
pub type TaskId = usize;

/// Per-schedule step budget; exceeding it means a livelock under this
/// schedule (or a workload far too large for exploration).
const MAX_STEPS: u64 = 4_000_000;

/// SplitMix64 step — small, seedable, and good enough for schedule choice.
fn splitmix(rng: &mut u64) -> u64 {
    *rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *rng;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    /// Waiting for the given task to finish (a `join`).
    Blocked(TaskId),
    Finished,
}

/// The kind of scheduling point, which decides whether a switch costs
/// preemption budget.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Point {
    /// An atomic access: the task could continue, switching is a preemption.
    Preemptive,
    /// Lock contention: the task cannot progress; prefer another task, free.
    Contended,
    /// An explicit yield: switching is free.
    Yield,
}

struct State {
    rng: u64,
    status: Vec<Status>,
    active: TaskId,
    preemptions_left: Option<u32>,
    steps: u64,
    /// FNV-style accumulator over every scheduling decision — two runs with
    /// the same hash executed the same interleaving.
    trace_hash: u64,
    unfinished: usize,
    abort: Option<String>,
    /// First panic message from a spawned task (safety net for unjoined
    /// handles).
    task_panic: Option<String>,
    /// Happens-before audit state for this schedule.
    hb: HbState,
}

impl State {
    /// Allocation-free runnable census (the scheduler sits on every facade
    /// event, and the HB alloc guard asserts the steady state allocates
    /// nothing — so no per-decision `Vec` here).
    fn runnable_count(&self) -> usize {
        self.status.iter().filter(|s| **s == Status::Runnable).count()
    }

    /// The `i`-th runnable task (0-based), skipping `exclude` if given.
    fn nth_runnable(&self, i: usize, exclude: Option<TaskId>) -> TaskId {
        self.status
            .iter()
            .enumerate()
            .filter(|&(t, s)| *s == Status::Runnable && Some(t) != exclude)
            .nth(i)
            .map(|(t, _)| t)
            .expect("runnable index out of range")
    }
}

pub(crate) struct SchedInner {
    state: Mutex<State>,
    cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<SchedInner>, TaskId)>> = const { RefCell::new(None) };
}

/// The calling task. `None` outside a schedule, including in thread-local
/// destructors that run after `CURRENT` is gone (a facade atomic touched
/// there is a plain atomic).
fn current() -> Option<(Arc<SchedInner>, TaskId)> {
    CURRENT.try_with(|c| c.borrow().as_ref().map(|(a, id)| (Arc::clone(a), *id))).ok().flatten()
}

/// True when the calling thread is a task inside a [`run_one`] schedule.
pub fn in_schedule() -> bool {
    CURRENT.try_with(|c| c.borrow().is_some()).unwrap_or(false)
}

/// Emit a scheduling point. No-op outside a schedule, so facade types stay
/// usable (if not zero-cost) in ordinary `--cfg conc_check` builds.
pub fn point(kind: Point) {
    if let Some((inner, me)) = current() {
        inner.switch(me, kind);
    }
}

/// Explicit voluntary yield (free switch).
pub fn yield_now() {
    point(Point::Yield);
}

/// Run `f` against the current schedule's happens-before state (serialized
/// by the scheduler lock). Returns `None` outside a schedule — the facade's
/// audit hooks become no-ops there.
#[cfg_attr(not(any(conc_check, test)), allow(dead_code))]
pub(crate) fn with_hb<R>(f: impl FnOnce(&mut HbState, TaskId) -> R) -> Option<R> {
    let (inner, me) = current()?;
    let mut st = inner.lock();
    Some(f(&mut st.hb, me))
}

impl SchedInner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn check_abort(st: &MutexGuard<'_, State>) -> Option<String> {
        st.abort.clone()
    }

    /// One scheduling decision at a point of `kind` for task `me`.
    fn switch(&self, me: TaskId, kind: Point) {
        let mut st = self.lock();
        if let Some(msg) = Self::check_abort(&st) {
            drop(st);
            panic!("{msg}");
        }
        st.steps += 1;
        if st.steps > MAX_STEPS {
            let msg = format!("conc-check: schedule exceeded {MAX_STEPS} steps (livelock?)");
            st.abort = Some(msg.clone());
            self.cv.notify_all();
            drop(st);
            panic!("{msg}");
        }
        let n = st.runnable_count();
        debug_assert!(st.status[me] == Status::Runnable, "switching task {me} is not runnable");
        let r = splitmix(&mut st.rng);
        let next = match kind {
            Point::Preemptive => {
                let pick = st.nth_runnable((r % n as u64) as usize, None);
                if pick != me {
                    match st.preemptions_left {
                        Some(0) => me,
                        Some(ref mut budget) => {
                            *budget -= 1;
                            pick
                        }
                        None => pick,
                    }
                } else {
                    me
                }
            }
            Point::Contended => {
                // Never re-pick the contender when someone else can run —
                // the lock holder must be given the chance to release.
                if n <= 1 {
                    me
                } else {
                    st.nth_runnable((r % (n - 1) as u64) as usize, Some(me))
                }
            }
            Point::Yield => st.nth_runnable((r % n as u64) as usize, None),
        };
        st.trace_hash =
            (st.trace_hash ^ next as u64).wrapping_mul(0x100_0000_01b3).rotate_left(5);
        self.hand_over(st, me, next);
    }

    /// Set `next` active and, if that is not `me`, sleep until re-chosen.
    fn hand_over(&self, mut st: MutexGuard<'_, State>, me: TaskId, next: TaskId) {
        st.active = next;
        if next == me {
            return;
        }
        self.cv.notify_all();
        while st.active != me {
            if let Some(msg) = Self::check_abort(&st) {
                drop(st);
                panic!("{msg}");
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Block `me` until `target` finishes.
    fn wait_for(&self, me: TaskId, target: TaskId) {
        loop {
            let mut st = self.lock();
            if let Some(msg) = Self::check_abort(&st) {
                drop(st);
                panic!("{msg}");
            }
            if st.status[target] == Status::Finished {
                // The join edge: everything the child did happens-before the
                // joiner's next step.
                st.hb.on_join(me, target);
                return;
            }
            st.status[me] = Status::Blocked(target);
            let n = st.runnable_count();
            if n == 0 {
                let msg = format!(
                    "conc-check: deadlock — every task blocked (task {me} joining task {target})"
                );
                st.abort = Some(msg.clone());
                self.cv.notify_all();
                drop(st);
                panic!("{msg}");
            }
            let r = splitmix(&mut st.rng);
            let next = st.nth_runnable((r % n as u64) as usize, None);
            st.trace_hash =
                (st.trace_hash ^ next as u64).wrapping_mul(0x100_0000_01b3).rotate_left(5);
            self.hand_over(st, me, next);
            // Woken as active again: target finished (its `finish` marked us
            // runnable); loop re-checks in case of spurious ordering.
        }
    }

    /// Mark `me` finished, wake its joiners, and schedule a successor.
    fn finish(&self, me: TaskId, panic_msg: Option<String>) {
        let mut st = self.lock();
        st.status[me] = Status::Finished;
        st.unfinished -= 1;
        if panic_msg.is_some() && st.task_panic.is_none() {
            st.task_panic = panic_msg;
        }
        for t in 0..st.status.len() {
            if st.status[t] == Status::Blocked(me) {
                st.status[t] = Status::Runnable;
            }
        }
        let n = st.runnable_count();
        if n == 0 {
            if st.unfinished > 0 && st.abort.is_none() {
                st.abort = Some(format!(
                    "conc-check: deadlock — task {me} finished but {} task(s) remain blocked",
                    st.unfinished
                ));
            }
            self.cv.notify_all(); // completion (or deadlock) notification
            return;
        }
        let r = splitmix(&mut st.rng);
        let next = st.nth_runnable((r % n as u64) as usize, None);
        st.trace_hash =
            (st.trace_hash ^ next as u64).wrapping_mul(0x100_0000_01b3).rotate_left(5);
        st.active = next;
        self.cv.notify_all();
    }

    /// Register a new runnable task spawned by `parent`; returns its id.
    fn register(&self, parent: TaskId) -> TaskId {
        let mut st = self.lock();
        let id = st.status.len();
        st.status.push(Status::Runnable);
        st.unfinished += 1;
        // The spawn edge: the child starts with the parent's clock.
        st.hb.on_spawn(parent, id);
        id
    }

    /// Park the calling OS thread until its task is scheduled for the first
    /// time. Returns false when the schedule aborted before that happened.
    fn wait_until_active(&self, me: TaskId) -> bool {
        let mut st = self.lock();
        while st.active != me {
            if st.abort.is_some() {
                return false;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        true
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Handle to a task started with [`spawn`].
pub struct JoinHandle<T> {
    imp: JoinImp<T>,
}

enum JoinImp<T> {
    Sched {
        inner: Arc<SchedInner>,
        id: TaskId,
        result: Arc<Mutex<Option<std::thread::Result<T>>>>,
        os: Option<std::thread::JoinHandle<()>>,
    },
    Os(std::thread::JoinHandle<T>),
}

impl<T> JoinHandle<T> {
    /// Wait for the task and return its value, re-raising its panic.
    pub fn join(self) -> T {
        match self.imp {
            JoinImp::Sched { inner, id, result, os } => {
                let (_, me) = current().expect("join called outside the owning schedule");
                inner.wait_for(me, id);
                // The task has finished inside the schedule; its OS thread is
                // exiting — reap it so no thread outlives `run_one`.
                if let Some(h) = os {
                    let _ = h.join();
                }
                let r = result
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("task finished without storing a result");
                match r {
                    Ok(v) => v,
                    Err(p) => resume_unwind(p),
                }
            }
            JoinImp::Os(h) => match h.join() {
                Ok(v) => v,
                Err(p) => resume_unwind(p),
            },
        }
    }
}

/// Spawn a task. Inside a schedule the task joins the cooperative scheduler;
/// outside it falls back to a plain OS thread.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    match current() {
        None => JoinHandle { imp: JoinImp::Os(std::thread::spawn(f)) },
        Some((inner, me)) => {
            let id = inner.register(me);
            let result: Arc<Mutex<Option<std::thread::Result<T>>>> = Arc::new(Mutex::new(None));
            let r2 = Arc::clone(&result);
            let i2 = Arc::clone(&inner);
            let os = std::thread::Builder::new()
                .name(format!("conc-check-task-{id}"))
                .spawn(move || {
                    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&i2), id)));
                    if !i2.wait_until_active(id) {
                        // Schedule aborted before we ever ran.
                        i2.finish(id, None);
                        CURRENT.with(|c| *c.borrow_mut() = None);
                        return;
                    }
                    let out = catch_unwind(AssertUnwindSafe(f));
                    let panic_msg = out.as_ref().err().map(|p| panic_message(p.as_ref()));
                    *r2.lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                    i2.finish(id, panic_msg);
                    // A finished task leaves the schedule before its thread
                    // exits: the thread-local destructors that run next may
                    // touch facade atomics, and must not schedule.
                    CURRENT.with(|c| *c.borrow_mut() = None);
                })
                .expect("spawn conc-check task thread");
            JoinHandle { imp: JoinImp::Sched { inner, id, result, os: Some(os) } }
        }
    }
}

/// Outcome of a single schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Scheduling points taken.
    pub steps: u64,
    /// Hash of the decision sequence — identical hash ⇒ identical schedule.
    pub trace_hash: u64,
    /// Tasks that participated (including the root).
    pub tasks: usize,
}

/// Run `f` once under the deterministic scheduler with the given `seed` and
/// preemption `bound` (`None` = unbounded preemptions). Panics (with the
/// offending task's panic) if any task fails, deadlocks, or livelocks.
pub fn run_one<F: FnOnce()>(seed: u64, bound: Option<u32>, f: F) -> RunReport {
    assert!(!in_schedule(), "run_one cannot nest inside another schedule");
    let inner = Arc::new(SchedInner {
        state: Mutex::new(State {
            rng: seed ^ 0x5851_f42d_4c95_7f2d,
            status: vec![Status::Runnable],
            active: 0,
            preemptions_left: bound,
            steps: 0,
            trace_hash: 0xcbf2_9ce4_8422_2325,
            unfinished: 1,
            abort: None,
            task_panic: None,
            hb: HbState::new(seed, bound),
        }),
        cv: Condvar::new(),
    });
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&inner), 0)));
    let out = catch_unwind(AssertUnwindSafe(f));
    match &out {
        Ok(()) => {
            inner.finish(0, None);
            // Drive any tasks the root left running to completion.
            let mut st = inner.lock();
            while st.unfinished > 0 && st.abort.is_none() {
                st = inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        Err(_) => {
            // Root panicked: tear the schedule down so parked tasks exit.
            let mut st = inner.lock();
            if st.abort.is_none() {
                st.abort = Some("conc-check: root task panicked; schedule aborted".into());
            }
            st.unfinished -= 1; // the root
            inner.cv.notify_all();
        }
    }
    CURRENT.with(|c| *c.borrow_mut() = None);
    let st = inner.lock();
    let report =
        RunReport { steps: st.steps, trace_hash: st.trace_hash, tasks: st.status.len() };
    let abort = st.abort.clone();
    let task_panic = st.task_panic.clone();
    drop(st);
    if let Err(p) = out {
        resume_unwind(p);
    }
    if let Some(msg) = abort {
        panic!("{msg}");
    }
    if let Some(msg) = task_panic {
        panic!("conc-check: unjoined task panicked: {msg}");
    }
    report
}

/// Configuration for [`explore`].
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// First seed; schedule `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Number of schedules to run.
    pub schedules: u64,
    /// Preemption bound per schedule (`None` = unbounded).
    pub preemption_bound: Option<u32>,
}

impl ExploreConfig {
    /// `schedules` runs from `base_seed` with the default bound of 3
    /// preemptions (research consensus: almost all schedule-sensitive bugs
    /// need ≤ 2 preemptions; 3 gives margin).
    pub fn new(base_seed: u64, schedules: u64) -> Self {
        ExploreConfig { base_seed, schedules, preemption_bound: Some(3) }
    }

    /// Apply a replay-seed override (the parsed value of `HCL_SCHED_SEED`):
    /// run exactly one schedule at that seed, keeping the bound. Mirrors
    /// `HCL_PROPTEST_SEED` for the proptest shim.
    pub fn with_seed_override(self, seed: Option<u64>) -> Self {
        match seed {
            None => self,
            Some(s) => ExploreConfig { base_seed: s, schedules: 1, ..self },
        }
    }
}

/// Parse an `HCL_SCHED_SEED`-style value: decimal, or hex with an `0x`
/// prefix (the form failure reports print).
pub fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn env_seed() -> Option<u64> {
    let raw = std::env::var("HCL_SCHED_SEED").ok()?;
    let parsed = parse_seed(&raw);
    if parsed.is_none() {
        eprintln!("conc-check: ignoring unparsable HCL_SCHED_SEED={raw:?}");
    }
    parsed
}

/// Aggregate statistics over an exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Schedules executed.
    pub schedules: u64,
    /// Schedules with pairwise-distinct decision traces.
    pub distinct_schedules: u64,
    /// Total scheduling points across all runs.
    pub total_steps: u64,
}

/// Run `f` under `cfg.schedules` seeded schedules. On failure, prints the
/// seed that reproduces the interleaving, then re-raises the panic. Setting
/// `HCL_SCHED_SEED=<seed>` (decimal or `0x…` hex) overrides `cfg` to replay
/// exactly that single schedule.
pub fn explore<F: Fn() + std::panic::RefUnwindSafe>(cfg: ExploreConfig, f: F) -> ExploreStats {
    let override_seed = env_seed();
    if let Some(s) = override_seed {
        eprintln!("conc-check: HCL_SCHED_SEED={s:#x} set — replaying that single schedule");
    }
    let cfg = cfg.with_seed_override(override_seed);
    let mut stats = ExploreStats::default();
    let mut traces = std::collections::HashSet::new();
    for i in 0..cfg.schedules {
        let seed = cfg.base_seed.wrapping_add(i);
        match catch_unwind(AssertUnwindSafe(|| run_one(seed, cfg.preemption_bound, &f))) {
            Ok(report) => {
                stats.schedules += 1;
                stats.total_steps += report.steps;
                traces.insert(report.trace_hash);
            }
            Err(p) => {
                eprintln!(
                    "conc-check: schedule FAILED — replay with HCL_SCHED_SEED={seed:#x} \
                     or `sched::run_one({seed:#x}, {:?}, ..)` (base seed {:#x}, index {i})",
                    cfg.preemption_bound, cfg.base_seed
                );
                resume_unwind(p);
            }
        }
    }
    stats.distinct_schedules = traces.len() as u64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn single_task_runs_to_completion() {
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = Arc::clone(&hits);
        let report = run_one(1, None, move || {
            for _ in 0..10 {
                point(Point::Preemptive);
                h2.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
        assert_eq!(report.tasks, 1);
        assert!(report.steps >= 10);
    }

    #[test]
    fn spawned_tasks_interleave_and_join() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        run_one(7, None, move || {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let c = Arc::clone(&c2);
                    spawn(move || {
                        for _ in 0..100 {
                            point(Point::Preemptive);
                            c.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(c2.load(Ordering::Relaxed), 300);
        });
    }

    #[test]
    fn same_seed_same_trace_different_seed_mostly_differs() {
        let run = |seed| {
            run_one(seed, None, || {
                let h: Vec<_> = (0..2)
                    .map(|_| {
                        spawn(|| {
                            for _ in 0..50 {
                                point(Point::Preemptive);
                            }
                        })
                    })
                    .collect();
                for x in h {
                    x.join();
                }
            })
            .trace_hash
        };
        assert_eq!(run(42), run(42), "same seed must replay the same schedule");
        let distinct: std::collections::HashSet<u64> = (0..32).map(run).collect();
        assert!(distinct.len() >= 24, "schedules barely vary: {}", distinct.len());
    }

    #[test]
    fn explore_counts_distinct_schedules() {
        let stats = explore(ExploreConfig::new(0xA11CE, 64), || {
            let a = spawn(|| {
                for _ in 0..20 {
                    point(Point::Preemptive);
                }
            });
            let b = spawn(|| {
                for _ in 0..20 {
                    point(Point::Preemptive);
                }
            });
            a.join();
            b.join();
        });
        assert_eq!(stats.schedules, 64);
        assert!(stats.distinct_schedules >= 48, "only {} distinct", stats.distinct_schedules);
    }

    #[test]
    fn schedule_can_find_a_planted_atomicity_bug() {
        // A racy read-modify-write (load; add; store) loses updates under
        // some interleaving; random scheduling must find it within a modest
        // seed budget — this is the canary for the whole approach.
        let mut found = false;
        for seed in 0..200 {
            let cell = Arc::new(AtomicU64::new(0));
            let lost = catch_unwind(AssertUnwindSafe(|| {
                run_one(seed, Some(3), || {
                    let h: Vec<_> = (0..2)
                        .map(|_| {
                            let c = Arc::clone(&cell);
                            spawn(move || {
                                for _ in 0..4 {
                                    point(Point::Preemptive);
                                    let v = c.load(Ordering::SeqCst);
                                    point(Point::Preemptive);
                                    c.store(v + 1, Ordering::SeqCst);
                                }
                            })
                        })
                        .collect();
                    for x in h {
                        x.join();
                    }
                    assert_eq!(cell.load(Ordering::SeqCst), 8, "lost update");
                })
            }))
            .is_err();
            if lost {
                found = true;
                break;
            }
        }
        assert!(found, "scheduler failed to expose a textbook lost-update race");
    }

    #[test]
    fn unjoined_panicking_task_fails_the_run() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_one(3, None, || {
                let _h = spawn(|| panic!("boom"));
                // Root returns without joining; run_one must still fail.
            });
        }));
        assert!(r.is_err());
    }

    #[test]
    fn seed_override_parses_and_collapses_to_one_schedule() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x2a"), Some(42));
        assert_eq!(parse_seed(" 0X2A "), Some(42));
        assert_eq!(parse_seed("zebra"), None);
        assert_eq!(parse_seed(""), None);
        let cfg = ExploreConfig::new(7, 500).with_seed_override(Some(0xDEAD));
        assert_eq!(cfg.base_seed, 0xDEAD);
        assert_eq!(cfg.schedules, 1);
        assert_eq!(cfg.preemption_bound, Some(3));
        let same = ExploreConfig::new(7, 500).with_seed_override(None);
        assert_eq!(same.base_seed, 7);
        assert_eq!(same.schedules, 500);
    }

    #[test]
    fn preemption_bound_zero_serializes_tasks() {
        // With no preemptions allowed, each task runs to completion once
        // scheduled (only voluntary switches) — the counter never races.
        for seed in 0..20 {
            let cell = Arc::new(AtomicU64::new(0));
            run_one(seed, Some(0), || {
                let h: Vec<_> = (0..2)
                    .map(|_| {
                        let c = Arc::clone(&cell);
                        spawn(move || {
                            for _ in 0..5 {
                                point(Point::Preemptive);
                                let v = c.load(Ordering::SeqCst);
                                c.store(v + 1, Ordering::SeqCst);
                            }
                        })
                    })
                    .collect();
                for x in h {
                    x.join();
                }
                assert_eq!(cell.load(Ordering::SeqCst), 10);
            });
        }
    }
}
