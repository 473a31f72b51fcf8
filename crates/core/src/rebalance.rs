//! Live shard rebalancing: the collective that moves virtual partitions
//! between ranks while the world keeps serving operations.
//!
//! The membership layer ([`hcl_runtime::Membership`]) decides *where* keys
//! should live; this module moves them there. A rebalance is a collective —
//! every rank calls [`drain_rank`] or [`admit_rank`] — built from barriers,
//! one broadcast, and a driver rank that executes the per-shard migration
//! state machine against each registered container
//! ([`ShardMigrator`]):
//!
//! 1. **quiesce** — a barrier flushes every rank's coalescer, so no
//!    pre-rebalance op is still staged;
//! 2. **plan** — every rank derives the same [`Transition`] from the same
//!    current map (deterministic, no plan broadcast needed) and agrees on
//!    the driver (first surviving member);
//! 3. **copy** — the driver opens a *write-forwarding window* per moving
//!    shard ([`ShardMigrator::begin`]: the old owner dual-applies incoming
//!    mutations to the new owner), then copies the shard's entries to the
//!    new owner through the coalescer's bulk path
//!    ([`ShardMigrator::transfer`]) — copy, not remove, so an abort leaves
//!    the old shard authoritative and untouched;
//! 4. **decide** — the driver broadcasts the copy outcome; on success it
//!    commits the transition (the epoch bump atomically redirects every
//!    epoch-tagged op; stale-epoch stragglers are rejected typed and
//!    re-resolve), on failure nothing commits and the old map stays
//!    authoritative;
//! 5. **close** — after a barrier guarantees the commit is globally
//!    visible, the driver closes the window ([`ShardMigrator::end`]):
//!    commit purges the moved entries at the old owner, abort purges the
//!    partial installs at the new owner.
//!
//! Failure anywhere in the copy phase (a killed rank, an exhausted retry
//! budget) aborts the whole rebalance with a typed
//! [`HclError::Rebalance`]: no key is lost, none is duplicated, and the
//! collective can simply be retried once the fault clears.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use hcl_runtime::{Rank, Transition};
use hcl_telemetry::{EventKind, FlightEvent, Outcome};
use parking_lot::Mutex;

use crate::{HclError, HclResult};

/// Per-container hook into the live-migration state machine. Containers
/// register one migrator per instance ([`MigratorRegistry::register_once`]);
/// the rebalance driver walks every registered migrator for every moving
/// shard.
pub trait ShardMigrator: Send + Sync {
    /// Stable container-instance label (diagnostics and dedup key).
    fn name(&self) -> &str;

    /// Open the write-forwarding window for `mv` at the old owner and arm
    /// the new owner to prefer forwarded (fresher) writes over the copy.
    fn begin(&self, rank: &Rank, mv: &hcl_runtime::ShardMove) -> HclResult<()>;

    /// Copy (do not remove) the shard's entries from the old owner to the
    /// new owner, returning `(keys, bytes)` moved.
    fn transfer(&self, rank: &Rank, mv: &hcl_runtime::ShardMove) -> HclResult<(u64, u64)>;

    /// Close the window. `committed` — the transition was published: purge
    /// the moved entries at the old owner. Not committed — the rebalance
    /// aborted: purge the partial installs at the new owner instead.
    fn end(&self, rank: &Rank, mv: &hcl_runtime::ShardMove, committed: bool) -> HclResult<()>;
}

/// World-shared registry of [`ShardMigrator`]s, one entry per container
/// instance. Obtained with [`MigratorRegistry::shared`]; containers register
/// at construction time on every rank (a repeat registration is a no-op —
/// the registry is one world-level object).
#[derive(Default)]
pub struct MigratorRegistry {
    inner: Mutex<Vec<(String, Arc<dyn ShardMigrator>)>>,
}

impl MigratorRegistry {
    /// The world's shared registry (created on first use).
    ///
    /// NOTE: fetched as its own shared object — never construct one inside
    /// another `get_or_create_shared` create closure (the world's object
    /// table lock is held there).
    pub fn shared(rank: &Rank) -> Arc<MigratorRegistry> {
        rank.get_or_create_shared("hcl.core.migrators", MigratorRegistry::default)
    }

    /// Register `migrator` under `key` unless that key is already present
    /// (every rank constructs the same containers; only the first wins).
    pub fn register_once(&self, key: &str, migrator: Arc<dyn ShardMigrator>) {
        let mut inner = self.inner.lock();
        if !inner.iter().any(|(k, _)| k == key) {
            inner.push((key.to_string(), migrator));
        }
    }

    /// Registered migrators, in registration order.
    pub fn migrators(&self) -> Vec<Arc<dyn ShardMigrator>> {
        self.inner.lock().iter().map(|(_, m)| Arc::clone(m)).collect()
    }

    /// Number of registered migrators.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no migrator is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Outcome of one collective rebalance, identical on every rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceReport {
    /// The membership epoch after the rebalance (unchanged on abort).
    pub epoch: u64,
    /// Virtual partitions that moved (planned moves on abort).
    pub moves: u64,
    /// Keys copied to new owners across all containers.
    pub migrated_keys: u64,
    /// Payload bytes copied to new owners across all containers.
    pub migrated_bytes: u64,
    /// True when the transition committed.
    pub committed: bool,
}

/// Copy-phase outcome the driver broadcasts before the commit decision.
#[derive(Debug, Clone)]
struct CopyOutcome {
    keys: u64,
    bytes: u64,
    error: Option<String>,
}

/// Collectively remove `victim` from the membership, migrating every shard
/// it owns to the surviving members. All ranks must call this with the same
/// `victim`; returns the same [`RebalanceReport`] (or the same typed error)
/// everywhere.
pub fn drain_rank(rank: &Rank, victim: u32) -> HclResult<RebalanceReport> {
    run_collective(rank, victim, |m| m.plan_remove(victim))
}

/// Collectively add `newcomer` to the membership, migrating its fair share
/// of shards from the most-loaded members. All ranks must call this with
/// the same `newcomer`.
pub fn admit_rank(rank: &Rank, newcomer: u32) -> HclResult<RebalanceReport> {
    run_collective(rank, newcomer, |m| m.plan_add(newcomer))
}

fn run_collective(
    rank: &Rank,
    subject: u32,
    plan: impl FnOnce(&hcl_runtime::Membership) -> Option<Transition>,
) -> HclResult<RebalanceReport> {
    let membership = Arc::clone(rank.world().membership());
    // B1: quiesce — every staged async op is on the wire (and served: sync
    // ops complete before their rank reaches a barrier) before any shard
    // starts moving.
    rank.barrier();
    // Every rank derives the same plan from the same map revision, so the
    // plan itself needs no broadcast; an unplannable transition (unknown
    // rank, last member) fails deterministically everywhere. The driver is
    // the first member that is not the subject — it survives a drain.
    let map = membership.current();
    let Some(t) = plan(&membership) else {
        return Err(HclError::Rebalance(format!(
            "no valid transition for rank {subject} (unknown member or last member standing)"
        )));
    };
    let driver = *map
        .members()
        .iter()
        .find(|&&m| m != subject)
        .expect("plannable transition implies a surviving member");
    let registry = MigratorRegistry::shared(rank);
    let is_driver = rank.id() == driver;

    // Copy phase: driver-only. begin() every (move, migrator) pair, then
    // transfer() each; the first failure aborts the whole batch.
    let outcome = if is_driver {
        Some(run_copy_phase(rank, &t, &registry.migrators()))
    } else {
        None
    };
    // B2 (inside the broadcast): every rank learns the copy outcome.
    let outcome: CopyOutcome = rank.broadcast(driver, outcome);

    let ok = outcome.error.is_none();
    if ok && is_driver {
        // Publish the new map, then bump the unified epoch: from here every
        // epoch-tagged op either sees the new owners or is rejected typed
        // by the old owner's gate and re-resolves.
        let committed = membership.commit(&t);
        debug_assert!(committed, "rebalance transition raced another commit");
        let c = membership.counters();
        c.migrated_keys.fetch_add(outcome.keys, Ordering::Relaxed);
        c.migrated_bytes.fetch_add(outcome.bytes, Ordering::Relaxed);
        rank.telemetry().flight().record(FlightEvent::op(
            EventKind::EpochCommit,
            "rebalance.commit",
            subject,
            outcome.bytes,
            membership.epoch(),
            Outcome::Ok,
            0,
        ));
    }
    // B3: the commit (or the abort decision) is globally visible — no rank
    // resolves against the old map after this point, so the forwarding
    // window can close.
    rank.barrier();
    if is_driver {
        for mv in &t.moves {
            for m in registry.migrators() {
                // Best-effort on the abort path: a migrator that lost its
                // host mid-copy cannot be asked to clean up. On the committed
                // path a failed close is a shard left behind at (or a log
                // not compacted by) the old owner — leave a trace.
                if m.end(rank, mv, ok).is_err() && ok {
                    rank.telemetry().flight().record(FlightEvent::op(
                        EventKind::Migration,
                        "rebalance.end",
                        mv.from,
                        0,
                        mv.vpart as u64,
                        Outcome::Err,
                        0,
                    ));
                }
            }
        }
        if !ok {
            rank.telemetry().flight().record(FlightEvent::op(
                EventKind::EpochCommit,
                "rebalance.abort",
                subject,
                0,
                membership.epoch(),
                Outcome::Err,
                0,
            ));
        }
    }
    // B4: every window is closed before any rank proceeds.
    rank.barrier();

    let report = RebalanceReport {
        epoch: membership.epoch(),
        moves: t.moves.len() as u64,
        migrated_keys: outcome.keys,
        migrated_bytes: outcome.bytes,
        committed: ok,
    };
    match outcome.error {
        None => Ok(report),
        Some(e) => Err(HclError::Rebalance(e)),
    }
}

/// begin + transfer every (move, migrator) pair; first failure wins and the
/// partial state is left for the `end(committed: false)` sweep.
fn run_copy_phase(
    rank: &Rank,
    t: &Transition,
    migrators: &[Arc<dyn ShardMigrator>],
) -> CopyOutcome {
    let mut keys = 0u64;
    let mut bytes = 0u64;
    for mv in &t.moves {
        for m in migrators {
            if let Err(e) = m.begin(rank, mv) {
                return CopyOutcome {
                    keys,
                    bytes,
                    error: Some(format!(
                        "begin failed for {} vpart {} ({} -> {}): {e}",
                        m.name(),
                        mv.vpart,
                        mv.from,
                        mv.to
                    )),
                };
            }
        }
    }
    for mv in &t.moves {
        for m in migrators {
            match m.transfer(rank, mv) {
                Ok((k, b)) => {
                    keys += k;
                    bytes += b;
                    rank.telemetry().flight().record(FlightEvent::op(
                        EventKind::Migration,
                        "rebalance.transfer",
                        mv.to,
                        b,
                        k,
                        Outcome::Ok,
                        0,
                    ));
                }
                Err(e) => {
                    return CopyOutcome {
                        keys,
                        bytes,
                        error: Some(format!(
                            "transfer failed for {} vpart {} ({} -> {}): {e}",
                            m.name(),
                            mv.vpart,
                            mv.from,
                            mv.to
                        )),
                    };
                }
            }
        }
    }
    CopyOutcome { keys, bytes, error: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_runtime::{ShardMove, World, WorldConfig};
    use std::sync::atomic::AtomicU64;

    /// A migrator that counts state-machine calls and can be told to fail
    /// its transfers.
    struct FakeMigrator {
        begins: AtomicU64,
        transfers: AtomicU64,
        ends_committed: AtomicU64,
        ends_aborted: AtomicU64,
        fail_transfer: bool,
    }

    impl FakeMigrator {
        fn new(fail_transfer: bool) -> Self {
            FakeMigrator {
                begins: AtomicU64::new(0),
                transfers: AtomicU64::new(0),
                ends_committed: AtomicU64::new(0),
                ends_aborted: AtomicU64::new(0),
                fail_transfer,
            }
        }
    }

    impl ShardMigrator for FakeMigrator {
        fn name(&self) -> &str {
            "fake"
        }
        fn begin(&self, _rank: &Rank, _mv: &ShardMove) -> HclResult<()> {
            self.begins.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn transfer(&self, _rank: &Rank, _mv: &ShardMove) -> HclResult<(u64, u64)> {
            self.transfers.fetch_add(1, Ordering::Relaxed);
            if self.fail_transfer {
                Err(HclError::Persist("injected transfer failure".into()))
            } else {
                Ok((3, 24))
            }
        }
        fn end(&self, _rank: &Rank, _mv: &ShardMove, committed: bool) -> HclResult<()> {
            if committed {
                self.ends_committed.fetch_add(1, Ordering::Relaxed);
            } else {
                self.ends_aborted.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        }
    }

    #[test]
    fn registry_register_once_dedups_by_key() {
        let reg = MigratorRegistry::default();
        reg.register_once("umap:a", Arc::new(FakeMigrator::new(false)));
        reg.register_once("umap:a", Arc::new(FakeMigrator::new(false)));
        reg.register_once("umap:b", Arc::new(FakeMigrator::new(false)));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn drain_commits_walks_the_state_machine_and_bumps_the_epoch() {
        let cfg = WorldConfig { nodes: 3, ranks_per_node: 1, ..WorldConfig::small() };
        World::run(cfg, |rank| {
            let mig = rank.get_or_create_shared("test.fake-mig", || FakeMigrator::new(false));
            MigratorRegistry::shared(rank)
                .register_once("fake", Arc::clone(&mig) as Arc<dyn ShardMigrator>);
            let m = Arc::clone(rank.world().membership());
            let epoch0 = m.epoch();
            let moves = m.plan_remove(2).expect("plannable").moves.len() as u64;

            let report = drain_rank(rank, 2).expect("drain commits");
            assert!(report.committed);
            assert_eq!(report.moves, moves);
            assert_eq!(report.migrated_keys, moves * 3);
            assert_eq!(report.migrated_bytes, moves * 24);
            assert_eq!(report.epoch, epoch0 + 1);
            assert_eq!(m.epoch(), epoch0 + 1);
            assert!(!m.current().members().contains(&2));
            rank.barrier();
            if rank.id() == 0 {
                // Driver-only state machine: one begin/transfer/end(commit)
                // per move, no abort sweeps.
                assert_eq!(mig.begins.load(Ordering::Relaxed), moves);
                assert_eq!(mig.transfers.load(Ordering::Relaxed), moves);
                assert_eq!(mig.ends_committed.load(Ordering::Relaxed), moves);
                assert_eq!(mig.ends_aborted.load(Ordering::Relaxed), 0);
                let c = m.counters();
                assert_eq!(c.migrated_keys.load(Ordering::Relaxed), moves * 3);
                assert_eq!(c.migrated_bytes.load(Ordering::Relaxed), moves * 24);
            }
        });
    }

    #[test]
    fn failed_transfer_aborts_without_committing() {
        let cfg = WorldConfig { nodes: 3, ranks_per_node: 1, ..WorldConfig::small() };
        World::run(cfg, |rank| {
            let mig = rank.get_or_create_shared("test.failing-mig", || FakeMigrator::new(true));
            MigratorRegistry::shared(rank)
                .register_once("fake", Arc::clone(&mig) as Arc<dyn ShardMigrator>);
            let m = Arc::clone(rank.world().membership());
            let epoch0 = m.epoch();
            let members0 = m.current().members().to_vec();

            let err = drain_rank(rank, 1).expect_err("transfer failure aborts");
            assert!(
                matches!(&err, HclError::Rebalance(msg) if msg.contains("transfer failed")),
                "unexpected error: {err}"
            );
            // Nothing committed: same epoch, same members, zero migrated
            // counters — the old map stays authoritative.
            assert_eq!(m.epoch(), epoch0);
            assert_eq!(m.current().members(), &members0[..]);
            rank.barrier();
            if rank.id() == 0 {
                assert_eq!(mig.ends_committed.load(Ordering::Relaxed), 0);
                assert!(mig.ends_aborted.load(Ordering::Relaxed) > 0);
                assert_eq!(m.counters().migrated_keys.load(Ordering::Relaxed), 0);
            }
        });
    }

    #[test]
    fn draining_the_last_member_is_rejected_on_every_rank() {
        let cfg = WorldConfig { nodes: 1, ranks_per_node: 2, ..WorldConfig::small() };
        World::run(cfg, |rank| {
            let err = drain_rank(rank, 0).expect_err("last member cannot drain");
            assert!(matches!(err, HclError::Rebalance(_)));
        });
    }
}
