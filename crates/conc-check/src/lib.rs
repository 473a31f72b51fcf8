//! # conc-check — concurrency correctness toolkit for the HCL reproduction
//!
//! Three layers, usable independently:
//!
//! 1. **[`lin`] + [`history`] + [`spec`]** — a Wing–Gong linearizability
//!    checker with P-compositionality. Record a concurrent history of
//!    container operations with [`history::Recorder`], then replay it
//!    against a sequential spec ([`spec::DsSpec`] for the byte-level HCL
//!    containers, or any [`lin::SeqSpec`]) with [`lin::check`]. Violations
//!    report the minimal concurrent window that cannot be linearized.
//!
//! 2. **[`sync`]** — a cfg-gated atomics/lock facade. Plain re-exports of
//!    `std::sync::atomic` and `parking_lot` by default; under
//!    `RUSTFLAGS="--cfg conc_check"` the same names become wrappers that
//!    yield to the deterministic scheduler, letting tests drive the real
//!    container code through seeded interleavings.
//!
//! 3. **[`sched`]** — the scheduler itself: shuttle-style random scheduling
//!    with preemption bounding. [`sched::explore`] runs a closure under N
//!    seeded schedules and reports how many distinct interleavings were
//!    covered; a failing seed replays the exact schedule via
//!    [`sched::run_one`].
//!
//! 4. **[`hb`]** — a vector-clock happens-before checker layered on the
//!    scheduler: the facade reports every atomic access *with its
//!    `Ordering`*, mutex acquire/release, and spawn/join, and any value
//!    consumed without a genuine synchronizes-with edge fails the schedule
//!    as an ordering race (replayable via `HCL_SCHED_SEED`). [`RaceCell`]
//!    extends the audit to the containers' unsafe non-atomic shared slots,
//!    and, under `--cfg conc_check`, `quarantine` fails any of those
//!    accesses that lands in memory the epoch shim has reclaimed.
//!
//! The static fifth leg of the toolkit — the `SAFETY:`/`ORDERING:`/epoch
//! lint — lives in the workspace `xtask` binary, not here; the `ORDERING:`
//! cross-check there and [`hb`] validate the same annotations from both
//! sides.

pub mod hb;
pub mod history;
pub mod lin;
#[cfg(any(conc_check, test))]
pub mod quarantine;
pub mod sched;
pub mod spec;
pub mod sync;

pub use hb::RaceCell;
pub use history::{OpRecord, Recorder};
pub use lin::{check, check_with_budget, CheckError, CheckStats, SeqSpec, Violation};
pub use spec::{check_lease, lease_relax, Bytes, DsOp, DsRet, DsSpec};
