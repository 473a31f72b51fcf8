//! `HCL::priority_queue` (paper §III-D3B).
//!
//! Single-partitioned like the FIFO queue, but pops deliver the *minimum*
//! element. The local structure is the lock-free logical-deletion priority
//! queue of [`hcl_containers::SkipListPq`] (DESIGN.md substitution #6), with
//! its background purge exposed through [`PriorityQueue::purge`].
//!
//! Push cost is `F + L·log(N) + W` (Table I): one invocation, then an
//! ordered O(log n) placement at local-memory speed on the owner — this is
//! exactly what lets the ISx port keep data sorted "for free" while it
//! arrives (§IV-D1).
//!
//! Every operation is one [`Dispatcher`] call against the table in [`ops`].

use std::sync::Arc;

use hcl_containers::SkipListPq;
use hcl_databox::DataBox;
use hcl_fabric::EpId;
use hcl_rpc::FnId;
use hcl_runtime::Rank;

use crate::cost::CostSnapshot;
use crate::dispatch::{hist_invoke, hist_return, Dispatcher};
use crate::persist::{fenced, log_pops, Flusher, SpLog};
use crate::queue::QueueConfig;
use crate::{HclFuture, HclResult};

const FN_PUSH: u32 = 0;
const FN_POP: u32 = 1;
const FN_PEEK: u32 = 2;
const FN_PUSH_BULK: u32 = 3;
const FN_POP_BULK: u32 = 4;
const FN_LEN: u32 = 5;
const FN_PURGE: u32 = 6;
const FN_SNAPSHOT: u32 = 7;
// Migration seam (host move): drain every element in one invocation. The
// install half reuses `push_bulk` — order is recovered by the skiplist.
const FN_MIG_EXTRACT: u32 = 8;
const N_FNS: u32 = 9;

/// Table I op descriptors for the priority queue.
mod ops {
    use crate::dispatch::{CostSig, OpClass, OpDescriptor};

    pub const PUSH: OpDescriptor = OpDescriptor {
        name: "pq.push",
        class: OpClass::Write,
        fn_off: super::FN_PUSH,
        cost: CostSig::lrw(1, 0, 1),
        idempotent: false,
        degradable: true,
    };
    pub const POP: OpDescriptor = OpDescriptor {
        name: "pq.pop",
        class: OpClass::ReadWrite,
        fn_off: super::FN_POP,
        cost: CostSig::lrw(1, 1, 0),
        idempotent: false,
        degradable: true,
    };
    pub const PEEK: OpDescriptor = OpDescriptor {
        name: "pq.peek",
        class: OpClass::Read,
        fn_off: super::FN_PEEK,
        cost: CostSig::lrw(1, 1, 0),
        idempotent: true,
        degradable: true,
    };
    pub const PUSH_BULK: OpDescriptor = OpDescriptor {
        name: "pq.push_bulk",
        class: OpClass::Write,
        fn_off: super::FN_PUSH_BULK,
        cost: CostSig::write_scaled(1, 1),
        idempotent: false,
        degradable: true,
    };
    pub const POP_BULK: OpDescriptor = OpDescriptor {
        name: "pq.pop_bulk",
        class: OpClass::ReadWrite,
        fn_off: super::FN_POP_BULK,
        cost: CostSig::read_scaled(1, 1),
        idempotent: false,
        degradable: true,
    };
    pub const LEN: OpDescriptor = OpDescriptor {
        name: "pq.len",
        class: OpClass::Admin,
        fn_off: super::FN_LEN,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const PURGE: OpDescriptor = OpDescriptor {
        name: "pq.purge",
        class: OpClass::Admin,
        fn_off: super::FN_PURGE,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const SNAPSHOT: OpDescriptor = OpDescriptor {
        name: "pq.snapshot",
        class: OpClass::Admin,
        fn_off: super::FN_SNAPSHOT,
        cost: CostSig::ZERO,
        idempotent: true,
        degradable: true,
    };
    pub const MIG_EXTRACT: OpDescriptor = OpDescriptor {
        name: "pq.mig_extract",
        class: OpClass::ReadWrite,
        fn_off: super::FN_MIG_EXTRACT,
        cost: CostSig::ZERO,
        idempotent: false,
        degradable: true,
    };
}

struct Core<T>
where
    T: DataBox + Ord + Clone + Send + Sync + 'static,
{
    fn_base: FnId,
    owner: u32,
    pq: Arc<SkipListPq<T>>,
    log: Option<Arc<SpLog<T>>>,
    /// Background sync thread bounding the relaxed-policy flush gap.
    #[allow(dead_code)]
    flusher: Option<Flusher>,
    cfg: QueueConfig,
}

/// A distributed min-priority queue hosted on one rank.
pub struct PriorityQueue<'a, T>
where
    T: DataBox + Ord + Clone + Send + Sync + 'static,
{
    core: Arc<Core<T>>,
    d: Dispatcher<'a>,
}

impl<'a, T> PriorityQueue<'a, T>
where
    T: DataBox + Ord + Clone + Send + Sync + 'static,
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
        let core = rank.get_or_create_shared(&format!("hcl.pq.{name}"), move || {
            let fn_base = world.alloc_fn_ids(N_FNS);
            let pq = Arc::new(SkipListPq::new());
            let flusher =
                cfg.persist.as_ref().and_then(|p| p.policy.interval()).map(Flusher::spawn);
            let log = cfg.persist.as_ref().map(|p| {
                let log = Arc::new(
                    SpLog::open(p, &name2, cfg.owner, pmetrics, |tag, v: Option<T>| {
                        match (tag, v) {
                            (0, Some(v)) => pq.push(v),
                            (1, _) => {
                                pq.pop();
                            }
                            _ => {}
                        }
                    })
                    .expect("open priority-queue op log"),
                );
                if let Some(f) = &flusher {
                    f.register(log.wal());
                }
                log
            });
            let reg = world.registry();
            let q = Arc::clone(&pq);
            let l = log.clone();
            reg.bind_typed(fn_base + FN_PUSH, move |_: EpId, _, v: T| {
                if let Some(l) = &l {
                    l.record(0, Some(&v), FN_PUSH);
                }
                q.push(v);
                true
            });
            let q = Arc::clone(&pq);
            let l = log.clone();
            reg.bind_typed(fn_base + FN_POP, move |_: EpId, _, ()| {
                let v = q.pop();
                log_pops(&l, v.is_some() as usize, |l| l.record(1, None, FN_POP));
                v
            });
            let q = Arc::clone(&pq);
            let l = log.clone();
            reg.bind_typed(fn_base + FN_PEEK, move |_: EpId, _, ()| fenced(&l, || q.peek()));
            let q = Arc::clone(&pq);
            let l = log.clone();
            reg.bind_typed(fn_base + FN_PUSH_BULK, move |_: EpId, _, vs: Vec<T>| {
                if let Some(l) = &l {
                    for v in &vs {
                        l.record_local(0, Some(v), FN_PUSH_BULK);
                    }
                }
                q.push_bulk(vs) as u64
            });
            let q = Arc::clone(&pq);
            let l = log.clone();
            reg.bind_typed(fn_base + FN_POP_BULK, move |_: EpId, _, max: u64| {
                let vs = q.pop_bulk(max as usize);
                log_pops(&l, vs.len(), |l| l.record_local(1, None, FN_POP_BULK));
                vs
            });
            let q = Arc::clone(&pq);
            let l = log.clone();
            reg.bind_typed(fn_base + FN_LEN, move |_: EpId, _, ()| fenced(&l, || q.len() as u64));
            let q = Arc::clone(&pq);
            reg.bind_typed(fn_base + FN_PURGE, move |_: EpId, _, ()| q.purge() as u64);
            let q = Arc::clone(&pq);
            let l = log.clone();
            reg.bind_typed(fn_base + FN_SNAPSHOT, move |_: EpId, _, ()| {
                fenced(&l, || q.iter_snapshot())
            });
            let q = Arc::clone(&pq);
            let l = log.clone();
            reg.bind_typed(fn_base + FN_MIG_EXTRACT, move |_: EpId, _, ()| {
                let vs = q.pop_bulk(usize::MAX);
                if let Some(l) = &l {
                    let _ = l.compact_to(&[]);
                }
                vs
            });
            Core { fn_base, owner: cfg.owner, pq, log, flusher, cfg }
        });
        let d = Dispatcher::new(rank, "pq", core.fn_base, core.cfg.hybrid);
        PriorityQueue { core, d }
    }

    /// Attach a shared history recorder: synchronous `push`/`pop` through
    /// this handle are logged as invoke/return pairs for offline
    /// linearizability checking ([`crate::check`]). The sequential pq spec
    /// orders elements by their encoded bytes, so recorded workloads should
    /// use element types whose `DataBox` encoding is order-preserving
    /// (e.g. fixed-width strings).
    #[cfg(feature = "history")]
    pub fn set_recorder(&mut self, rec: crate::HistoryRecorder) {
        self.d.set_recorder(rec);
    }

    /// The hosting rank.
    pub fn owner(&self) -> u32 {
        self.core.owner
    }

    /// Mark the hosting rank failed: subsequent ops through this handle
    /// degrade immediately with [`crate::HclError::OwnerDown`].
    pub fn mark_down(&self, owner_rank: u32) {
        self.d.mark_down(owner_rank);
    }

    /// Clear a failure mark set by [`PriorityQueue::mark_down`].
    pub fn mark_up(&self, owner_rank: u32) {
        self.d.mark_up(owner_rank);
    }

    /// Push one element (Table I: `F + L·log(N) + W`).
    pub fn push(&self, value: T) -> HclResult<bool> {
        let tok = hist_invoke!(
            self.d,
            crate::DsOp::PqPush { value: crate::history_enc(&value) }
        );
        let result = self.d.sync(&ops::PUSH, self.core.owner, value, |v| {
            self.log_push(&v, FN_PUSH);
            self.core.pq.push(v);
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
            self.core.pq.push(v);
            true
        })
    }

    /// Log one hybrid-bypass push (the remote path logs in the handler).
    fn log_push(&self, v: &T, fn_off: u32) {
        if let Some(l) = &self.core.log {
            l.record(0, Some(v), fn_off);
        }
    }

    /// Pop the minimum element (Table I: `F + L + R`).
    pub fn pop(&self) -> HclResult<Option<T>> {
        let tok = hist_invoke!(self.d, crate::DsOp::PqPop);
        let result = self.d.sync_ref(&ops::POP, self.core.owner, &(), || {
            let v = self.core.pq.pop();
            log_pops(&self.core.log, v.is_some() as usize, |l| l.record(1, None, FN_POP));
            v
        });
        hist_return!(self.d, tok, &result, |v| crate::DsRet::Popped(
            v.as_ref().map(crate::history_enc)
        ));
        result
    }

    /// Clone of the minimum without removing it.
    pub fn peek(&self) -> HclResult<Option<T>> {
        self.d.sync_ref(&ops::PEEK, self.core.owner, &(), || {
            fenced(&self.core.log, || self.core.pq.peek())
        })
    }

    /// Bulk push (Table I: `F + L·log(N) + E·W`).
    pub fn push_bulk(&self, values: Vec<T>) -> HclResult<u64> {
        let n = values.len() as u64;
        self.d.sync_scaled(&ops::PUSH_BULK, self.core.owner, n, values, |vs| {
            if let Some(l) = &self.core.log {
                for v in &vs {
                    l.record_local(0, Some(v), FN_PUSH_BULK);
                }
            }
            self.core.pq.push_bulk(vs) as u64
        })
    }

    /// Bulk pop of up to `max` elements, in priority order.
    pub fn pop_bulk(&self, max: u64) -> HclResult<Vec<T>> {
        self.d.sync_scaled(&ops::POP_BULK, self.core.owner, max, max, |m| {
            let vs = self.core.pq.pop_bulk(m as usize);
            log_pops(&self.core.log, vs.len(), |l| l.record_local(1, None, FN_POP_BULK));
            vs
        })
    }

    /// Live elements (approximate under concurrency).
    pub fn len(&self) -> HclResult<u64> {
        self.d.sync_ref(&ops::LEN, self.core.owner, &(), || {
            fenced(&self.core.log, || self.core.pq.len() as u64)
        })
    }

    /// True when empty.
    pub fn is_empty(&self) -> HclResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Run one physical-unlink pass over logically deleted nodes (the
    /// paper's background purge, on demand).
    pub fn purge(&self) -> HclResult<u64> {
        self.d.sync_ref(&ops::PURGE, self.core.owner, &(), || self.core.pq.purge() as u64)
    }

    /// Clone out the live elements in priority order without popping.
    pub fn snapshot(&self) -> HclResult<Vec<T>> {
        self.d.sync_ref(&ops::SNAPSHOT, self.core.owner, &(), || {
            fenced(&self.core.log, || self.core.pq.iter_snapshot())
        })
    }

    /// Migration seam, extract half: drain *every* live element from the
    /// hosting partition in one invocation, in priority order. Pair with
    /// [`PriorityQueue::install_bulk`] against a twin hosted elsewhere to
    /// move the shard (the single-partition analogue of the maps'
    /// live-migration extract/install; see [`crate::rebalance`]).
    pub fn extract_all(&self) -> HclResult<Vec<T>> {
        self.d.sync_ref(&ops::MIG_EXTRACT, self.core.owner, &(), || {
            let vs = self.core.pq.pop_bulk(usize::MAX);
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
            let snap = self.core.pq.iter_snapshot();
            l.compact_to(&snap).map_err(|e| crate::HclError::Persist(e.to_string()))?;
        }
        Ok(())
    }

    /// Migration seam, install half: re-insert extracted elements.
    pub fn install_bulk(&self, values: Vec<T>) -> HclResult<u64> {
        self.push_bulk(values)
    }

    /// Persist the current contents to `path` (§III-C6).
    pub fn persist_snapshot(&self, path: impl AsRef<std::path::Path>) -> HclResult<()> {
        let snap = self.snapshot()?;
        std::fs::write(path, &snap.to_bytes())
            .map_err(|e| crate::HclError::Persist(e.to_string()))
    }

    /// Reload a snapshot written by [`PriorityQueue::persist_snapshot`];
    /// returns the number of restored elements.
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
