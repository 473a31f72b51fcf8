//! `HCL::queue` — the distributed MWMR FIFO queue (paper §III-D3A).
//!
//! "HCL queues are implemented as a single-partitioned structure, but are
//! globally visible. The queues are identified by the process ID that hosts
//! the partition." Elements may be of variable length; the queue grows
//! dynamically (our lock-free MS queue is unbounded, so the paper's
//! stall-pushes-during-migration resize protocol is satisfied without
//! stalls).
//!
//! Every operation is one [`Dispatcher`] call against the table in [`ops`]:
//! the engine owns locality, issue, degradation and cost accounting; this
//! module owns only the descriptor table, the server-side handler bindings,
//! and the data shaping.

use std::sync::Arc;

use hcl_containers::LockFreeQueue;
use hcl_databox::DataBox;
use hcl_fabric::EpId;
use hcl_rpc::FnId;
use hcl_runtime::Rank;

use crate::cost::CostSnapshot;
use crate::dispatch::{hist_invoke, hist_return, Dispatcher};
use crate::persist::{fenced, log_pops, Flusher, PersistConfig, SpLog};
use crate::{HclFuture, HclResult};

const FN_PUSH: u32 = 0;
const FN_POP: u32 = 1;
const FN_PUSH_BULK: u32 = 2;
const FN_POP_BULK: u32 = 3;
const FN_LEN: u32 = 4;
const FN_SNAPSHOT: u32 = 5;
// Migration seam (host move): drain every element in one invocation. The
// install half reuses `push_bulk` — a queue shard is just its elements.
const FN_MIG_EXTRACT: u32 = 6;
const N_FNS: u32 = 7;

/// Table I op descriptors for the queue.
mod ops {
    use crate::dispatch::{CostSig, OpClass, OpDescriptor};

    pub const PUSH: OpDescriptor = OpDescriptor {
        name: "queue.push",
        class: OpClass::Write,
        fn_off: super::FN_PUSH,
        cost: CostSig::lrw(1, 0, 1),
        idempotent: false,
        degradable: true,
    };
    pub const POP: OpDescriptor = OpDescriptor {
        name: "queue.pop",
        class: OpClass::ReadWrite,
        fn_off: super::FN_POP,
        cost: CostSig::lrw(1, 1, 0),
        idempotent: false,
        degradable: true,
    };
    pub const PUSH_BULK: OpDescriptor = OpDescriptor {
        name: "queue.push_bulk",
        class: OpClass::Write,
        fn_off: super::FN_PUSH_BULK,
        cost: CostSig::write_scaled(1, 1),
        idempotent: false,
        degradable: true,
    };
    pub const POP_BULK: OpDescriptor = OpDescriptor {
        name: "queue.pop_bulk",
        class: OpClass::ReadWrite,
        fn_off: super::FN_POP_BULK,
        cost: CostSig::read_scaled(1, 1),
        idempotent: false,
        degradable: true,
    };
    pub const LEN: OpDescriptor = OpDescriptor {
        name: "queue.len",
        class: OpClass::Admin,
        fn_off: super::FN_LEN,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const SNAPSHOT: OpDescriptor = OpDescriptor {
        name: "queue.snapshot",
        class: OpClass::Admin,
        fn_off: super::FN_SNAPSHOT,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const MIG_EXTRACT: OpDescriptor = OpDescriptor {
        name: "queue.mig_extract",
        class: OpClass::ReadWrite,
        fn_off: super::FN_MIG_EXTRACT,
        cost: CostSig::ZERO,
        idempotent: false,
        degradable: true,
    };
}

/// Configuration for [`Queue`] (and [`crate::PriorityQueue`]).
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// The rank hosting the single partition (default: rank 0).
    pub owner: u32,
    /// Hybrid access model toggle.
    pub hybrid: bool,
    /// Durability: when set, the hosting partition appends pushes and pops
    /// to a segmented write-ahead log and replays it on (re)construction —
    /// same subsystem and guarantees as [`crate::UnorderedMap`] (§III-C6,
    /// DESIGN.md §16).
    pub persist: Option<PersistConfig>,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig { owner: 0, hybrid: true, persist: None }
    }
}

struct Core<T>
where
    T: DataBox + Clone + Send + Sync + 'static,
{
    fn_base: FnId,
    owner: u32,
    q: Arc<LockFreeQueue<T>>,
    log: Option<Arc<SpLog<T>>>,
    /// Background sync thread bounding the relaxed-policy flush gap.
    #[allow(dead_code)]
    flusher: Option<Flusher>,
    cfg: QueueConfig,
}

/// A distributed FIFO queue hosted on one rank, pushed/popped by all.
pub struct Queue<'a, T>
where
    T: DataBox + Clone + Send + Sync + 'static,
{
    core: Arc<Core<T>>,
    d: Dispatcher<'a>,
}

impl<'a, T> Queue<'a, T>
where
    T: DataBox + Clone + Send + Sync + 'static,
{
    /// Collective constructor with defaults (hosted on rank 0).
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        Self::with_config(rank, name, QueueConfig::default())
    }

    /// Collective constructor with configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: QueueConfig) -> Self {
        let world = Arc::clone(rank.world());
        let name2 = name.to_string();
        let pmetrics = if rank.telemetry().enabled() {
            crate::persist::PersistMetrics::from_registry(
                rank.telemetry().registry(),
                Arc::clone(rank.telemetry().flight()),
            )
        } else {
            crate::persist::PersistMetrics::detached()
        };
        let core = rank.get_or_create_shared(&format!("hcl.queue.{name}"), move || {
            let fn_base = world.alloc_fn_ids(N_FNS);
            let q = Arc::new(LockFreeQueue::new());
            let owner = cfg.owner;
            let flusher =
                cfg.persist.as_ref().and_then(|p| p.policy.interval()).map(Flusher::spawn);
            let log = cfg.persist.as_ref().map(|p| {
                let log = Arc::new(
                    SpLog::open(p, &name2, owner, pmetrics, |tag, v: Option<T>| match (tag, v) {
                        (0, Some(v)) => q.push(v),
                        (1, _) => {
                            q.pop();
                        }
                        _ => {}
                    })
                    .expect("open queue op log"),
                );
                if let Some(f) = &flusher {
                    f.register(log.wal());
                }
                log
            });
            let reg = world.registry();
            let q2 = Arc::clone(&q);
            let l = log.clone();
            reg.bind_typed(fn_base + FN_PUSH, move |_: EpId, _, v: T| {
                if let Some(l) = &l {
                    l.record(0, Some(&v), FN_PUSH);
                }
                q2.push(v);
                true
            });
            let q2 = Arc::clone(&q);
            let l = log.clone();
            reg.bind_typed(fn_base + FN_POP, move |_: EpId, _, ()| {
                let v = q2.pop();
                log_pops(&l, v.is_some() as usize, |l| l.record(1, None, FN_POP));
                v
            });
            let q2 = Arc::clone(&q);
            let l = log.clone();
            reg.bind_typed(fn_base + FN_PUSH_BULK, move |_: EpId, _, vs: Vec<T>| {
                if let Some(l) = &l {
                    for v in &vs {
                        l.record_local(0, Some(v), FN_PUSH_BULK);
                    }
                }
                q2.push_bulk(vs) as u64
            });
            let q2 = Arc::clone(&q);
            let l = log.clone();
            reg.bind_typed(fn_base + FN_POP_BULK, move |_: EpId, _, max: u64| {
                let vs = q2.pop_bulk(max as usize);
                log_pops(&l, vs.len(), |l| l.record_local(1, None, FN_POP_BULK));
                vs
            });
            let q2 = Arc::clone(&q);
            let l = log.clone();
            reg.bind_typed(fn_base + FN_LEN, move |_: EpId, _, ()| fenced(&l, || q2.len() as u64));
            let q2 = Arc::clone(&q);
            let l = log.clone();
            reg.bind_typed(fn_base + FN_SNAPSHOT, move |_: EpId, _, ()| {
                fenced(&l, || q2.iter_snapshot())
            });
            let q2 = Arc::clone(&q);
            let l = log.clone();
            reg.bind_typed(fn_base + FN_MIG_EXTRACT, move |_: EpId, _, ()| {
                let vs = q2.pop_bulk(usize::MAX);
                // The shard moved wholesale: compact to the (now empty)
                // contents so a restart never resurrects migrated elements.
                if let Some(l) = &l {
                    let _ = l.compact_to(&[]);
                }
                vs
            });
            Core { fn_base, owner, q, log, flusher, cfg }
        });
        let d = Dispatcher::new(rank, "queue", core.fn_base, core.cfg.hybrid);
        Queue { core, d }
    }

    /// Attach a shared history recorder: synchronous `push`/`pop` through
    /// this handle are logged as invoke/return pairs for offline
    /// linearizability checking ([`crate::check`]). Asynchronous and bulk
    /// variants are not recorded.
    #[cfg(feature = "history")]
    pub fn set_recorder(&mut self, rec: crate::HistoryRecorder) {
        self.d.set_recorder(rec);
    }

    /// The hosting rank.
    pub fn owner(&self) -> u32 {
        self.core.owner
    }

    /// Mark the hosting rank failed: subsequent ops through this handle
    /// degrade immediately with [`crate::HclError::OwnerDown`] instead of
    /// issuing RPCs that cannot be served.
    pub fn mark_down(&self, owner_rank: u32) {
        self.d.mark_down(owner_rank);
    }

    /// Clear a failure mark set by [`Queue::mark_down`].
    pub fn mark_up(&self, owner_rank: u32) {
        self.d.mark_up(owner_rank);
    }

    /// Push one element (Table I: `F + L + W`).
    pub fn push(&self, value: T) -> HclResult<bool> {
        let tok = hist_invoke!(
            self.d,
            crate::DsOp::QueuePush { value: crate::history_enc(&value) }
        );
        let result = self.d.sync(&ops::PUSH, self.core.owner, value, |v| {
            self.log_push(&v, FN_PUSH);
            self.core.q.push(v);
            true
        });
        hist_return!(self.d, tok, &result, |acked| crate::DsRet::Pushed(*acked));
        result
    }

    /// Asynchronous push. Remote pushes stage on the rank's op coalescer
    /// and may ride a batched message with neighbouring async ops.
    pub fn push_async(&self, value: T) -> HclResult<HclFuture<bool>> {
        self.d.dispatch_async(&ops::PUSH, self.core.owner, value, |v| {
            self.log_push(&v, FN_PUSH);
            self.core.q.push(v);
            true
        })
    }

    /// Log one hybrid-bypass push (the remote path logs in the handler).
    fn log_push(&self, v: &T, fn_off: u32) {
        if let Some(l) = &self.core.log {
            l.record(0, Some(v), fn_off);
        }
    }

    /// Pop one element (Table I: `F + L + R`).
    pub fn pop(&self) -> HclResult<Option<T>> {
        let tok = hist_invoke!(self.d, crate::DsOp::QueuePop);
        let result = self.d.sync_ref(&ops::POP, self.core.owner, &(), || {
            let v = self.core.q.pop();
            log_pops(&self.core.log, v.is_some() as usize, |l| l.record(1, None, FN_POP));
            v
        });
        hist_return!(self.d, tok, &result, |v| crate::DsRet::Popped(
            v.as_ref().map(crate::history_enc)
        ));
        result
    }

    /// Bulk push (Table I: `F + L + E·W`): one invocation carries `E`
    /// elements.
    pub fn push_bulk(&self, values: Vec<T>) -> HclResult<u64> {
        let n = values.len() as u64;
        self.d.sync_scaled(&ops::PUSH_BULK, self.core.owner, n, values, |vs| {
            if let Some(l) = &self.core.log {
                for v in &vs {
                    l.record_local(0, Some(v), FN_PUSH_BULK);
                }
            }
            self.core.q.push_bulk(vs) as u64
        })
    }

    /// Bulk pop of up to `max` elements (Table I: `F + L + E·R`).
    pub fn pop_bulk(&self, max: u64) -> HclResult<Vec<T>> {
        self.d.sync_scaled(&ops::POP_BULK, self.core.owner, max, max, |m| {
            let vs = self.core.q.pop_bulk(m as usize);
            log_pops(&self.core.log, vs.len(), |l| l.record_local(1, None, FN_POP_BULK));
            vs
        })
    }

    /// Elements currently queued (approximate under concurrency).
    pub fn len(&self) -> HclResult<u64> {
        self.d.sync_ref(&ops::LEN, self.core.owner, &(), || {
            fenced(&self.core.log, || self.core.q.len() as u64)
        })
    }

    /// True when the queue appears empty.
    pub fn is_empty(&self) -> HclResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Clone out the queued elements front-to-back without consuming them.
    pub fn snapshot(&self) -> HclResult<Vec<T>> {
        self.d.sync_ref(&ops::SNAPSHOT, self.core.owner, &(), || {
            fenced(&self.core.log, || self.core.q.iter_snapshot())
        })
    }

    /// Migration seam, extract half: drain *every* queued element from the
    /// hosting partition in one invocation, front-to-back. Pair with
    /// [`Queue::install_bulk`] against a twin queue hosted elsewhere to move
    /// the shard (the single-partition analogue of the maps' live-migration
    /// extract/install; see [`crate::rebalance`]).
    pub fn extract_all(&self) -> HclResult<Vec<T>> {
        self.d.sync_ref(&ops::MIG_EXTRACT, self.core.owner, &(), || {
            let vs = self.core.q.pop_bulk(usize::MAX);
            if let Some(l) = &self.core.log {
                let _ = l.compact_to(&[]);
            }
            vs
        })
    }

    /// Compact the op log down to a push-per-element snapshot of the live
    /// contents (no-op when persistence is off). Call from the owner rank.
    pub fn compact_log(&self) -> HclResult<()> {
        if let Some(l) = &self.core.log {
            let snap = self.core.q.iter_snapshot();
            l.compact_to(&snap).map_err(|e| crate::HclError::Persist(e.to_string()))?;
        }
        Ok(())
    }

    /// Migration seam, install half: append extracted elements in order.
    pub fn install_bulk(&self, values: Vec<T>) -> HclResult<u64> {
        self.push_bulk(values)
    }

    /// Persist the current contents to `path` as a DataBox-encoded snapshot
    /// (§III-C6 durability for single-partition structures).
    pub fn persist_snapshot(&self, path: impl AsRef<std::path::Path>) -> HclResult<()> {
        let snap = self.snapshot()?;
        let bytes = snap.to_bytes();
        std::fs::write(path, &bytes).map_err(|e| crate::HclError::Persist(e.to_string()))
    }

    /// Reload a snapshot written by [`Queue::persist_snapshot`], appending
    /// its elements (call on an empty queue for exact recovery). Returns
    /// the number of restored elements.
    pub fn restore_snapshot(&self, path: impl AsRef<std::path::Path>) -> HclResult<u64> {
        let bytes =
            std::fs::read(path).map_err(|e| crate::HclError::Persist(e.to_string()))?;
        let snap: Vec<T> = hcl_databox::DataBox::from_bytes(&bytes)
            .map_err(|e| crate::HclError::Persist(e.to_string()))?;
        self.push_bulk(snap)
    }

    /// Client-side cost counters.
    pub fn costs(&self) -> CostSnapshot {
        self.d.costs()
    }
}
