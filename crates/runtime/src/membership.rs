//! Epoch-versioned membership and virtual-partition ownership.
//!
//! HCL's evaluation assumes a frozen world: every container resolved owners
//! as `stable_hash(key) % nparts`, so no rank could join, leave, or shed
//! load without a restart. This module replaces that static modulo with an
//! indirection layer:
//!
//! * a [`PartitionMap`] maps a fixed number of **virtual partitions**
//!   (default [`DEFAULT_VPARTS_PER_MEMBER`]× the member count) to owner
//!   ranks. Key → vpart is still a stable hash; vpart → rank is a table
//!   lookup that rebalancing can rewrite;
//! * a world-level [`Membership`] view owns the current map behind an
//!   atomically published `Arc`, plus the **unified ownership epoch**: one
//!   shared `AtomicU64` cell bumped on every committed map transition *and*
//!   every effective [`DownedRegistry`](crate::DownedRegistry)
//!   `mark_down`/`mark_up` — lease caches, dispatchers and servers all
//!   watch the same number, so there is exactly one source of truth for
//!   "ownership may have moved";
//! * [`Membership::plan_remove`]/[`Membership::plan_add`] produce a
//!   [`Transition`] — the minimal set of [`ShardMove`]s plus the next map —
//!   and [`Membership::commit`] publishes it with compare-and-swap
//!   generation semantics (first committer wins; committed at a barrier by
//!   the rebalance collective in `hcl-core`).
//!
//! The initial member set is the node-leader ranks (one per node: the
//! paper's placement, "an unordered_map can be placed on all nodes"), and
//! the initial slot table is round-robin:
//! `slots[i] = members[i % m]` with `vparts = k·m`, so
//! `owner_of(hash) = members[(hash % k·m) % m] = members[hash % m]` — the
//! steady-state placement is bit-identical to the old static modulo, and
//! every placement-pinning test keeps passing untouched.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Default virtual partitions per member (the paper-suggested 8–16× range).
pub const DEFAULT_VPARTS_PER_MEMBER: u32 = 8;

/// An immutable snapshot of the vpart → owner-rank table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    /// Commit counter of this map (0 for the initial map). Distinct from
    /// the unified ownership epoch, which also moves on down/up marks.
    generation: u64,
    /// Current owner ranks, in join order.
    members: Vec<u32>,
    /// Virtual partition → owner rank.
    slots: Vec<u32>,
}

impl PartitionMap {
    /// The initial round-robin map over `members` with
    /// `vparts_per_member × members.len()` virtual partitions.
    pub fn round_robin(members: &[u32], vparts_per_member: u32) -> Self {
        assert!(!members.is_empty(), "a partition map needs at least one member");
        let vparts = (vparts_per_member.max(1) as usize) * members.len();
        PartitionMap {
            generation: 0,
            members: members.to_vec(),
            slots: (0..vparts).map(|i| members[i % members.len()]).collect(),
        }
    }

    /// Commit counter of this map.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Current owner ranks, in join order.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Number of virtual partitions (fixed across transitions).
    pub fn vparts(&self) -> usize {
        self.slots.len()
    }

    /// The virtual partition of a stable key hash.
    #[inline]
    pub fn vpart_of_hash(&self, hash: u64) -> usize {
        (hash % self.slots.len() as u64) as usize
    }

    /// The owner rank of a stable key hash — THE owner-resolution call; no
    /// container computes `hash % len` itself any more.
    #[inline]
    pub fn owner_of_hash(&self, hash: u64) -> u32 {
        self.slots[self.vpart_of_hash(hash)]
    }

    /// The owner rank of a virtual partition.
    #[inline]
    pub fn owner_of_vpart(&self, vpart: usize) -> u32 {
        self.slots[vpart]
    }

    /// Position of `rank` in the member list.
    pub fn member_index_of(&self, rank: u32) -> Option<usize> {
        self.members.iter().position(|&m| m == rank)
    }

    /// The member index serving a stable key hash (the legacy "partition
    /// index" every pre-membership API exposed). For the initial round-robin
    /// map this equals `hash % members.len()` exactly.
    #[inline]
    pub fn member_index_of_hash(&self, hash: u64) -> usize {
        let owner = self.owner_of_hash(hash);
        self.member_index_of(owner).expect("slot owners are always members")
    }

    /// Virtual partitions currently owned by `rank`.
    pub fn vparts_owned_by(&self, rank: u32) -> Vec<usize> {
        (0..self.slots.len()).filter(|&v| self.slots[v] == rank).collect()
    }
}

/// One shard movement of a [`Transition`]: virtual partition `vpart` leaves
/// `from` for `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMove {
    /// The virtual partition being migrated.
    pub vpart: usize,
    /// Current owner rank.
    pub from: u32,
    /// Owner rank after the transition commits.
    pub to: u32,
}

/// A planned membership change: the next map plus the minimal move set.
/// Produced by [`Membership::plan_remove`]/[`Membership::plan_add`];
/// published by [`Membership::commit`].
#[derive(Debug, Clone)]
pub struct Transition {
    /// Generation of the map this plan was derived from (the CAS guard).
    pub from_generation: u64,
    /// The map that takes effect on commit.
    pub next: PartitionMap,
    /// Shards that must migrate before the commit.
    pub moves: Vec<ShardMove>,
}

/// Monotonic counters describing membership activity, exported as
/// `hcl_runtime_membership_*` gauges by `Rank::telemetry_snapshot`.
#[derive(Debug, Default)]
pub struct MembershipCounters {
    /// Committed map transitions (each bumps the unified epoch once).
    pub commits: AtomicU64,
    /// Keys migrated by rebalance transfers.
    pub migrated_keys: AtomicU64,
    /// Encoded bytes migrated by rebalance transfers.
    pub migrated_bytes: AtomicU64,
    /// Client-observed `WrongEpoch` rejections (each costs one re-resolve).
    pub wrong_epoch_rejects: AtomicU64,
    /// Writes dual-applied through a migration forwarding window.
    pub forwarded_writes: AtomicU64,
    /// Forwarded writes whose send or acknowledgement failed.
    pub forward_failures: AtomicU64,
}

/// A point-in-time copy of the membership state and counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MembershipSnapshot {
    /// Unified ownership epoch (map commits + down/up transitions).
    pub epoch: u64,
    /// Map commit counter.
    pub generation: u64,
    /// Current member count.
    pub members: u64,
    /// Virtual partition count.
    pub vparts: u64,
    /// See [`MembershipCounters::commits`].
    pub commits: u64,
    /// See [`MembershipCounters::migrated_keys`].
    pub migrated_keys: u64,
    /// See [`MembershipCounters::migrated_bytes`].
    pub migrated_bytes: u64,
    /// See [`MembershipCounters::wrong_epoch_rejects`].
    pub wrong_epoch_rejects: u64,
    /// See [`MembershipCounters::forwarded_writes`].
    pub forwarded_writes: u64,
    /// See [`MembershipCounters::forward_failures`].
    pub forward_failures: u64,
}

/// The world-level membership view: current [`PartitionMap`] + the unified
/// ownership-epoch cell.
pub struct Membership {
    /// The unified ownership epoch. Shared (via
    /// [`Membership::epoch_cell`]) into every dispatcher's
    /// [`DownedRegistry`](crate::DownedRegistry) so mark-down/up transitions
    /// and map commits move one number.
    epoch: Arc<AtomicU64>,
    map: RwLock<Arc<PartitionMap>>,
    counters: MembershipCounters,
}

impl Membership {
    /// A membership view whose initial map is round-robin over
    /// `initial_members`.
    pub fn new(initial_members: Vec<u32>, vparts_per_member: u32) -> Self {
        Membership {
            epoch: Arc::new(AtomicU64::new(0)),
            map: RwLock::new(Arc::new(PartitionMap::round_robin(
                &initial_members,
                vparts_per_member,
            ))),
            counters: MembershipCounters::default(),
        }
    }

    /// The shared unified-epoch cell (for
    /// [`DownedRegistry::with_epoch_cell`](crate::DownedRegistry::with_epoch_cell)).
    pub fn epoch_cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.epoch)
    }

    /// The current unified ownership epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        // ORDERING: Acquire pairs with the Release bump in `commit` (and the
        // DownedRegistry bumps sharing this cell): observing an epoch implies
        // observing the map/marks published before it.
        self.epoch.load(Ordering::Acquire)
    }

    /// The current partition map.
    #[inline]
    pub fn current(&self) -> Arc<PartitionMap> {
        Arc::clone(&self.map.read())
    }

    /// Activity counters.
    pub fn counters(&self) -> &MembershipCounters {
        &self.counters
    }

    /// Plan the drain of `victim`: every vpart it owns moves, round-robin,
    /// to the remaining members; all other assignments are untouched.
    /// `None` when `victim` is not a member or is the last one.
    pub fn plan_remove(&self, victim: u32) -> Option<Transition> {
        let cur = self.current();
        cur.member_index_of(victim)?;
        if cur.members.len() <= 1 {
            return None;
        }
        let members: Vec<u32> = cur.members.iter().copied().filter(|&m| m != victim).collect();
        let mut slots = cur.slots.clone();
        let mut moves = Vec::new();
        let mut next_target = 0usize;
        for (vpart, slot) in slots.iter_mut().enumerate() {
            if *slot == victim {
                let to = members[next_target % members.len()];
                next_target += 1;
                moves.push(ShardMove { vpart, from: victim, to });
                *slot = to;
            }
        }
        Some(Transition {
            from_generation: cur.generation,
            next: PartitionMap { generation: cur.generation + 1, members, slots },
            moves,
        })
    }

    /// Plan the admission of `newcomer`: it joins the member list and steals
    /// vparts from the most-loaded members until it holds a fair share
    /// (`⌊vparts / m'⌋`). `None` when `newcomer` is already a member.
    pub fn plan_add(&self, newcomer: u32) -> Option<Transition> {
        let cur = self.current();
        if cur.member_index_of(newcomer).is_some() {
            return None;
        }
        let mut members = cur.members.clone();
        members.push(newcomer);
        let mut slots = cur.slots.clone();
        let fair = slots.len() / members.len();
        let mut moves = Vec::new();
        while moves.len() < fair {
            // Steal one vpart from whichever member currently owns the most.
            let donor = *cur
                .members
                .iter()
                .max_by_key(|&&m| slots.iter().filter(|&&s| s == m).count())
                .expect("non-empty member list");
            let Some(vpart) = slots.iter().rposition(|&s| s == donor) else {
                break;
            };
            moves.push(ShardMove { vpart, from: donor, to: newcomer });
            slots[vpart] = newcomer;
        }
        Some(Transition {
            from_generation: cur.generation,
            next: PartitionMap { generation: cur.generation + 1, members, slots },
            moves,
        })
    }

    /// Atomically publish a planned transition. Returns `false` (and changes
    /// nothing) when the current map's generation no longer matches the
    /// plan's CAS guard — a competing commit won. On success the unified
    /// epoch is bumped *after* the map swap: a reader that observes the new
    /// epoch re-resolves against the new map.
    pub fn commit(&self, t: &Transition) -> bool {
        let mut map = self.map.write();
        if map.generation != t.from_generation {
            return false;
        }
        *map = Arc::new(t.next.clone());
        drop(map);
        // ORDERING: Release pairs with the Acquire in `epoch()`: observing
        // the bumped epoch implies observing the newly published map.
        self.epoch.fetch_add(1, Ordering::Release);
        // ORDERING: Relaxed statistic.
        self.counters.commits.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Point-in-time copy of the state + counters.
    pub fn snapshot(&self) -> MembershipSnapshot {
        let map = self.current();
        MembershipSnapshot {
            epoch: self.epoch(),
            generation: map.generation(),
            members: map.members().len() as u64,
            vparts: map.vparts() as u64,
            commits: self.counters.commits.load(Ordering::Relaxed),
            migrated_keys: self.counters.migrated_keys.load(Ordering::Relaxed),
            migrated_bytes: self.counters.migrated_bytes.load(Ordering::Relaxed),
            wrong_epoch_rejects: self.counters.wrong_epoch_rejects.load(Ordering::Relaxed),
            forwarded_writes: self.counters.forwarded_writes.load(Ordering::Relaxed),
            forward_failures: self.counters.forward_failures.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_map_preserves_static_modulo_placement() {
        // The contract the whole refactor rests on: for the initial map,
        // owner_of(hash) must equal members[hash % members.len()] for every
        // hash — the old static modulo, bit for bit.
        for members in [vec![0u32], vec![0, 2], vec![0, 1, 2, 3], vec![0, 4, 8, 12, 16]] {
            let map = PartitionMap::round_robin(&members, 8);
            assert_eq!(map.vparts(), 8 * members.len());
            for hash in (0..10_000u64).chain([u64::MAX, u64::MAX - 7]) {
                assert_eq!(
                    map.owner_of_hash(hash),
                    members[(hash % members.len() as u64) as usize],
                );
                assert_eq!(
                    map.member_index_of_hash(hash),
                    (hash % members.len() as u64) as usize,
                );
            }
        }
    }

    #[test]
    fn plan_remove_moves_only_the_victims_vparts() {
        let m = Membership::new(vec![0, 2, 4, 6], 8);
        let before = m.current();
        let t = m.plan_remove(2).unwrap();
        assert_eq!(t.moves.len(), before.vparts_owned_by(2).len());
        for mv in &t.moves {
            assert_eq!(mv.from, 2);
            assert_ne!(mv.to, 2);
            assert!(t.next.members().contains(&mv.to));
        }
        // Untouched vparts keep their owner.
        for v in 0..before.vparts() {
            if before.owner_of_vpart(v) != 2 {
                assert_eq!(t.next.owner_of_vpart(v), before.owner_of_vpart(v));
            }
        }
        assert_eq!(t.next.members(), &[0, 4, 6]);
    }

    #[test]
    fn plan_remove_rejects_non_members_and_last_member() {
        let m = Membership::new(vec![0, 2], 8);
        assert!(m.plan_remove(1).is_none());
        let t = m.plan_remove(2).unwrap();
        assert!(m.commit(&t));
        assert!(m.plan_remove(0).is_none(), "cannot drain the last member");
    }

    #[test]
    fn plan_add_gives_the_newcomer_a_fair_share() {
        let m = Membership::new(vec![0, 2, 4], 8);
        let t = m.plan_add(6).unwrap();
        let fair = t.next.vparts() / 4;
        assert_eq!(t.moves.len(), fair);
        assert_eq!(t.next.vparts_owned_by(6).len(), fair);
        assert!(m.plan_add(0).is_none(), "already a member");
        for mv in &t.moves {
            assert_eq!(mv.to, 6);
        }
    }

    #[test]
    fn commit_is_first_wins_and_bumps_the_unified_epoch() {
        let m = Membership::new(vec![0, 2, 4], 8);
        let e0 = m.epoch();
        let t1 = m.plan_remove(2).unwrap();
        let t2 = m.plan_remove(4).unwrap();
        assert!(m.commit(&t1));
        assert_eq!(m.epoch(), e0 + 1);
        assert!(!m.commit(&t2), "stale plan must lose the CAS");
        assert_eq!(m.epoch(), e0 + 1);
        assert_eq!(m.current().members(), &[0, 4]);
        assert_eq!(m.snapshot().commits, 1);
    }

    #[test]
    fn remove_then_add_round_trips_ownership_coverage() {
        let m = Membership::new(vec![0, 1, 2, 3], 8);
        let t = m.plan_remove(3).unwrap();
        assert!(m.commit(&t));
        let t = m.plan_add(3).unwrap();
        assert!(m.commit(&t));
        let map = m.current();
        assert_eq!(map.members().len(), 4);
        // Every vpart is owned by a member; every member owns something.
        for v in 0..map.vparts() {
            assert!(map.members().contains(&map.owner_of_vpart(v)));
        }
        for &mem in map.members() {
            assert!(!map.vparts_owned_by(mem).is_empty());
        }
    }
}
