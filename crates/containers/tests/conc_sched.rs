//! Schedule-exploration tests for the lock-free containers, compiled only
//! under `--cfg conc_check` (see `just check-conc`). Each test drives a small
//! concurrent workload through ≥ 1000 seeded deterministic schedules of the
//! `conc_check` scheduler; every atomic access in the containers (directly or
//! through the epoch shim) is a preemption point.
//!
//! The `reclaim_*` tests explore the epoch reclamation under the containers:
//! under `conc_check` every retirement seals its bag and tries to advance
//! the epoch, and an expired bag is quarantined rather than freed, so pin,
//! advance and free interleave inside each schedule, and a dereference of,
//! or a `RaceCell` access inside, a reclaimed allocation fails it. The epoch is process-wide: tests that run
//! beside each other can hold one another's advances back, so replay a
//! failing seed with only its test selected.
//!
//! A test failure prints the seed that reproduces the interleaving, e.g.
//! `sched::run_one(0x2a, Some(3), ..)`.
#![cfg(conc_check)]

use std::sync::atomic::Ordering;
use std::sync::Arc;

use conc_check::sched::{self, ExploreConfig};
use crossbeam::epoch::{self, Atomic, Owned, Shared};
use hcl_containers::cuckoo::CuckooMap;
use hcl_containers::pq::SkipListPq;
use hcl_containers::queue::LockFreeQueue;
use hcl_containers::skiplist::SkipListMap;

/// Schedules per test. `explore` seeds are `seed(tag) + i`, so runs are
/// reproducible end to end; distinct-trace counts are asserted per test.
const SCHEDULES: u64 = 1500;

const fn seed(tag: u64) -> u64 {
    // Fixed per-test base seeds; spread them out so tests never share seeds.
    0x5eed_0000_0000_0000 | (tag << 16)
}

/// Unbounded-preemption config: these workloads are tiny (a handful of ops
/// per task), so the full interleaving space is affordable and explores far
/// more distinct traces than bound-3 sampling does.
///
/// Soak knobs (`just check-conc-soak`): `HCL_CONC_SCHEDULES` raises the
/// schedule count, `HCL_CONC_SEED_OFFSET` shifts every base seed so repeated
/// sweeps sample fresh regions of the interleaving space.
fn cfg(tag: u64) -> ExploreConfig {
    let env_u64 = |name: &str| std::env::var(name).ok().and_then(|v| v.parse::<u64>().ok());
    ExploreConfig {
        base_seed: seed(tag).wrapping_add(env_u64("HCL_CONC_SEED_OFFSET").unwrap_or(0)),
        schedules: env_u64("HCL_CONC_SCHEDULES").unwrap_or(SCHEDULES),
        preemption_bound: None,
    }
}

#[test]
fn queue_len_never_underflows_under_racing_push_pop() {
    // Regression for the signed-length fix: `pop` decrements `len` as soon as
    // it wins the head CAS, which can land *before* the racing `push`'s
    // increment (the node is linked by the tail CAS first). With a usize
    // counter the observer read `usize::MAX`; with the signed counter plus
    // clamp, `len()` must never exceed the number of pushes.
    let stats = sched::explore(cfg(1), || {
        let q = Arc::new(LockFreeQueue::new());
        let pusher = {
            let q = Arc::clone(&q);
            sched::spawn(move || {
                q.push(7u64);
                q.push(8);
            })
        };
        let popper = {
            let q = Arc::clone(&q);
            sched::spawn(move || {
                let mut n = 0;
                for _ in 0..2 {
                    if q.pop().is_some() {
                        n += 1;
                    }
                }
                n
            })
        };
        // Sample the length while both tasks are in flight: any read above
        // the number of pushes means the raw counter wrapped below zero.
        for _ in 0..4 {
            let observed = q.len();
            assert!(observed <= 2, "queue len underflowed: observed {observed}");
        }
        pusher.join();
        let popped = popper.join();
        assert_eq!(q.len(), 2 - popped);
        let mut left = 0;
        while q.pop().is_some() {
            left += 1;
        }
        assert_eq!(popped + left, 2, "queue lost or duplicated an element");
    });
    assert!(
        stats.distinct_schedules >= 1000,
        "only {} distinct schedules explored",
        stats.distinct_schedules
    );
}

#[test]
fn queue_conserves_elements_across_two_pushers_one_popper() {
    let stats = sched::explore(cfg(2), || {
        let q = Arc::new(LockFreeQueue::new());
        let a = {
            let q = Arc::clone(&q);
            sched::spawn(move || {
                q.push(1u32);
                q.push(2);
            })
        };
        let b = {
            let q = Arc::clone(&q);
            sched::spawn(move || q.push(3u32))
        };
        let c = {
            let q = Arc::clone(&q);
            sched::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..2 {
                    if let Some(v) = q.pop() {
                        got.push(v);
                    }
                }
                got
            })
        };
        a.join();
        b.join();
        let mut all = c.join();
        while let Some(v) = q.pop() {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3], "elements lost or duplicated");
        assert_eq!(q.len(), 0);
        // Per-producer FIFO: 1 must have been popped before 2.
        // (checked implicitly: both present exactly once; order across
        // producers is unconstrained)
    });
    assert!(stats.distinct_schedules >= 1000, "only {}", stats.distinct_schedules);
}

#[test]
fn cuckoo_concurrent_inserts_remain_consistent() {
    let stats = sched::explore(cfg(3), || {
        let m = Arc::new(CuckooMap::new());
        let a = {
            let m = Arc::clone(&m);
            sched::spawn(move || m.insert(10u64, 100u64))
        };
        let b = {
            let m = Arc::clone(&m);
            sched::spawn(move || m.insert(10u64, 200u64))
        };
        let ra = a.join();
        let rb = b.join();
        // Exactly one insert saw an empty slot.
        assert_eq!(ra.is_none() as u32 + rb.is_none() as u32, 1);
        let v = m.get(&10).expect("key must be present");
        assert!(v == 100 || v == 200);
        assert_eq!(m.len(), 1);
    });
    assert!(stats.distinct_schedules >= 1000, "only {}", stats.distinct_schedules);
}

#[test]
fn cuckoo_insert_remove_len_never_drifts() {
    let stats = sched::explore(cfg(4), || {
        let m = Arc::new(CuckooMap::new());
        m.insert(1u64, 1u64);
        let a = {
            let m = Arc::clone(&m);
            sched::spawn(move || m.insert(2u64, 2u64))
        };
        let b = {
            let m = Arc::clone(&m);
            sched::spawn(move || m.remove(&1u64))
        };
        a.join();
        let removed = b.join();
        assert_eq!(removed, Some(1));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&2), Some(2));
        assert_eq!(m.get(&1), None);
    });
    assert!(stats.distinct_schedules >= 1000, "only {}", stats.distinct_schedules);
}

#[test]
fn skiplist_len_never_underflows_under_racing_insert_remove() {
    // Same signed-counter regression as the queue: `claim` decrements `len`
    // the moment it wins the value-claim CAS, which can precede the racing
    // inserter's increment (nodes publish before the counter bump).
    let stats = sched::explore(cfg(5), || {
        let m = Arc::new(SkipListMap::new());
        let ins = {
            let m = Arc::clone(&m);
            sched::spawn(move || m.insert(5u64, 50u64))
        };
        let rem = {
            let m = Arc::clone(&m);
            sched::spawn(move || m.remove(&5u64))
        };
        // Sample while both tasks are in flight (see the queue test).
        for _ in 0..4 {
            let observed = m.len();
            assert!(observed <= 1, "skiplist len underflowed: observed {observed}");
        }
        ins.join();
        let removed = rem.join();
        let expect = if removed.is_some() { 0 } else { 1 };
        assert_eq!(m.len(), expect);
        assert_eq!(m.get(&5).is_some(), removed.is_none());
    });
    assert!(stats.distinct_schedules >= 1000, "only {}", stats.distinct_schedules);
}

#[test]
fn skiplist_concurrent_remove_min_hands_out_each_key_once() {
    let stats = sched::explore(cfg(6), || {
        let m = Arc::new(SkipListMap::new());
        m.insert(1u64, ());
        m.insert(2u64, ());
        let a = {
            let m = Arc::clone(&m);
            sched::spawn(move || m.remove_min())
        };
        let b = {
            let m = Arc::clone(&m);
            sched::spawn(move || m.remove_min())
        };
        let ra = a.join();
        let rb = b.join();
        let mut keys: Vec<u64> = ra.into_iter().chain(rb).map(|(k, ())| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2], "remove_min lost or duplicated a key");
        assert_eq!(m.len(), 0);
    });
    assert!(stats.distinct_schedules >= 1000, "only {}", stats.distinct_schedules);
}

#[test]
fn pq_concurrent_push_pop_conserves_elements() {
    let stats = sched::explore(cfg(7), || {
        let pq = Arc::new(SkipListPq::new());
        pq.push(5u64);
        let a = {
            let pq = Arc::clone(&pq);
            sched::spawn(move || pq.push(3u64))
        };
        let b = {
            let pq = Arc::clone(&pq);
            sched::spawn(move || pq.pop())
        };
        a.join();
        let popped = b.join().expect("an element was available throughout");
        assert!(popped == 3 || popped == 5);
        let rest = pq.drain_sorted();
        let mut all = rest;
        all.push(popped);
        all.sort_unstable();
        assert_eq!(all, vec![3, 5], "pq lost or duplicated an element");
    });
    assert!(stats.distinct_schedules >= 1000, "only {}", stats.distinct_schedules);
}

/// Run a reclamation case twice: under unbounded random preemption, which
/// explores fine-grained interleavings (≥ 1000 distinct), and under a bound
/// of 2 preemptions, under which a task runs long stretches alone — the only
/// way a reader stalls while another task retires, advances twice and frees.
fn explore_reclaim(tag: u64, f: impl Fn() + std::panic::RefUnwindSafe) {
    let stats = sched::explore(cfg(tag), &f);
    assert!(stats.distinct_schedules >= 1000, "only {}", stats.distinct_schedules);
    sched::explore(ExploreConfig { preemption_bound: Some(2), ..cfg(tag) }, &f);
}

/// Let the epoch advance twice after the tasks are done, so that whatever
/// they retired is quarantined before the final checks traverse the
/// structure.
fn quiesce() {
    for _ in 0..4 {
        epoch::pin().flush();
    }
}

#[test]
fn reclaim_queue_push_pop_racing_pop() {
    // Each pop retires the old sentinel while the other task may still be
    // reading it: the retirement must wait out that task's pin.
    explore_reclaim(8, || {
        let q = Arc::new(LockFreeQueue::new());
        q.push(1u64);
        q.push(2);
        let a = {
            let q = Arc::clone(&q);
            sched::spawn(move || {
                q.push(3);
                let got = q.pop();
                epoch::pin().flush();
                got
            })
        };
        let b = {
            let q = Arc::clone(&q);
            sched::spawn(move || {
                let got = q.pop();
                epoch::pin().flush();
                got
            })
        };
        let mut all: Vec<u64> = [a.join(), b.join()].into_iter().flatten().collect();
        quiesce();
        while let Some(v) = q.pop() {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3], "queue lost or duplicated an element");
    });
}

#[test]
fn reclaim_cuckoo_overwrite_racing_get_of_the_same_key() {
    // Every overwrite retires the entry a racing `get` may be cloning from.
    explore_reclaim(9, || {
        let m = Arc::new(CuckooMap::new());
        m.insert(7u64, 70u64);
        let writer = {
            let m = Arc::clone(&m);
            sched::spawn(move || {
                let first = m.insert(7, 71);
                let second = m.insert(7, 72);
                epoch::pin().flush();
                (first, second)
            })
        };
        let reader = {
            let m = Arc::clone(&m);
            sched::spawn(move || {
                let x = m.get(&7).expect("the key is present throughout");
                let y = m.get(&7).expect("the key is present throughout");
                epoch::pin().flush();
                (x, y)
            })
        };
        assert_eq!(writer.join(), (Some(70), Some(71)));
        let (x, y) = reader.join();
        quiesce();
        assert!((70..=72).contains(&x) && x <= y && y <= 72, "read {x} then {y}");
        assert_eq!(m.get(&7), Some(72));
    });
}

#[test]
fn reclaim_skiplist_replace_racing_remove_and_get() {
    // The replace's CAS takes the old value out of the node, so the replacer
    // retires it even when the remove wins the node; the node frees only the
    // value it holds last. A double retire or a freed value read by `get`
    // fails the schedule.
    explore_reclaim(10, || {
        let m = Arc::new(SkipListMap::new());
        m.insert(5u64, 50u64);
        let replace = {
            let m = Arc::clone(&m);
            sched::spawn(move || {
                let r = m.insert(5, 51);
                epoch::pin().flush();
                r
            })
        };
        let remove = {
            let m = Arc::clone(&m);
            sched::spawn(move || {
                let r = m.remove(&5);
                epoch::pin().flush();
                r
            })
        };
        let get = {
            let m = Arc::clone(&m);
            sched::spawn(move || m.get(&5))
        };
        let (replaced, removed, got) = (replace.join(), remove.join(), get.join());
        quiesce();
        assert!(matches!(removed, Some(50) | Some(51)), "remove returned {removed:?}");
        assert!(matches!(got, None | Some(50) | Some(51)), "get returned {got:?}");
        let last = m.get(&5);
        match replaced {
            // Replaced in place before the remove claimed the node.
            Some(50) => assert_eq!((removed, last), (Some(51), None)),
            // The remove won the node; the replace inserted a fresh one.
            None => assert_eq!(last, Some(51)),
            other => panic!("replace returned {other:?}"),
        }
        assert_eq!(m.len(), usize::from(last.is_some()));
    });
}

#[test]
fn reclaim_skiplist_insert_racing_remove_of_the_same_key() {
    // The map's first node has a 5-level tower (its height sequence is
    // fixed). The inserter links levels 1.. after publishing level 0, and the
    // remove can claim and unlink the node meanwhile: the inserter's own
    // reference keeps the count above zero until it stops linking, so the
    // node is never retired while it can still be relinked. Without it, a
    // retired node stays reachable and the final walk dereferences it.
    explore_reclaim(12, || {
        let m = Arc::new(SkipListMap::new());
        let ins = {
            let m = Arc::clone(&m);
            sched::spawn(move || m.insert(5u64, 50u64))
        };
        let rem = {
            let m = Arc::clone(&m);
            sched::spawn(move || {
                let r = m.remove(&5);
                epoch::pin().flush();
                r
            })
        };
        assert_eq!(ins.join(), None);
        let removed = rem.join();
        quiesce();
        assert_eq!(m.get(&5).is_some(), removed.is_none());
        assert_eq!(m.iter_snapshot().len(), usize::from(removed.is_none()));
        // Dropping the map walks every level of every node still linked.
    });
}

#[test]
fn reclaim_negative_control_pointer_kept_past_its_guard_is_caught() {
    // The bug class the quarantine exists for: a reader keeps a raw pointer
    // after its guard drops, another task retires the pointee and advances
    // the epoch twice, and the reader dereferences it under a fresh pin,
    // which does not protect it. Some schedule must fail.
    let caught = std::panic::catch_unwind(|| {
        sched::explore(cfg(11), || {
            let cell = Arc::new(Atomic::new(1u64));
            let raw = {
                let g = epoch::pin();
                cell.load(Ordering::Acquire, &g).as_raw()
            };
            let retirer = {
                let cell = Arc::clone(&cell);
                sched::spawn(move || {
                    let g = epoch::pin();
                    let old = cell.swap(Owned::new(2u64), Ordering::AcqRel, &g);
                    // SAFETY: the swap took `old` out of the cell, once.
                    unsafe { g.defer_destroy(old) };
                    drop(g);
                    for _ in 0..8 {
                        epoch::pin().flush();
                    }
                })
            };
            retirer.join();
            let g = epoch::pin();
            // SAFETY: none — this is the planted bug: `g` began after `raw`
            // was retired, so it does not protect it. The quarantine keeps
            // the memory allocated, so the read itself stays defined.
            let v = unsafe { Shared::from(raw).deref() };
            assert_eq!(*v, 1);
            let last = cell.swap(Shared::null(), Ordering::AcqRel, &g);
            // SAFETY: the schedule is over; `last` is the cell's sole value.
            drop(unsafe { last.into_owned() });
        });
    });
    assert!(caught.is_err(), "a dereference of a reclaimed pointer went unnoticed");
}
