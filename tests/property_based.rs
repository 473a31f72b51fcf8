//! Property-based tests (proptest) on the core invariants:
//! serialization roundtrips, container-vs-model equivalence, and ISx
//! validation. (Log replay equivalence is checked through the real
//! containers in `persist_property.rs`.)

use std::collections::{BTreeMap, HashMap};

use hcl_containers::{CuckooMap, SkipListMap, SkipListPq};
use hcl_databox::codec::{AnyCodec, Codec};
use hcl_databox::DataBox;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every codec roundtrips arbitrary nested values.
    #[test]
    fn databox_roundtrip_nested(
        a in any::<u64>(),
        s in ".{0,40}",
        v in proptest::collection::vec(any::<u32>(), 0..50),
        opt in proptest::option::of(any::<i64>()),
        pairs in proptest::collection::vec((any::<u16>(), ".{0,10}"), 0..20),
    ) {
        let value = (a, s.clone(), v.clone(), opt, pairs.clone());
        for codec in [AnyCodec::Fixed, AnyCodec::Pack, AnyCodec::SelfDescribing] {
            let enc = codec.encode(&value);
            let dec: (u64, String, Vec<u32>, Option<i64>, Vec<(u16, String)>) =
                codec.decode(&enc).unwrap();
            prop_assert_eq!(&dec, &value);
        }
    }

    /// Decoding never panics on arbitrary garbage (errors only).
    #[test]
    fn databox_decode_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = <(u64, String, Vec<u32>)>::from_bytes(&bytes);
        let _ = AnyCodec::Pack.decode::<Vec<String>>(&bytes);
        let _ = AnyCodec::SelfDescribing.decode::<u64>(&bytes);
        let _ = String::from_bytes(&bytes);
        let _ = <HashMap<u64, String>>::from_bytes(&bytes);
    }

    /// CuckooMap behaves exactly like HashMap under any op sequence.
    #[test]
    fn cuckoo_matches_hashmap_model(
        ops in proptest::collection::vec((0u8..3, 0u64..64, any::<u64>()), 0..400)
    ) {
        let m = CuckooMap::with_buckets(2);
        let mut model = HashMap::new();
        for (op, k, v) in ops {
            match op {
                0 => prop_assert_eq!(m.insert(k, v), model.insert(k, v)),
                1 => prop_assert_eq!(m.get(&k), model.get(&k).copied()),
                _ => prop_assert_eq!(m.remove(&k), model.remove(&k)),
            }
            prop_assert_eq!(m.len(), model.len());
        }
    }

    /// SkipListMap behaves exactly like BTreeMap, including order.
    #[test]
    fn skiplist_matches_btreemap_model(
        ops in proptest::collection::vec((0u8..3, 0u64..64, any::<u64>()), 0..400)
    ) {
        let m = SkipListMap::new();
        let mut model = BTreeMap::new();
        for (op, k, v) in ops {
            match op {
                0 => prop_assert_eq!(m.insert(k, v), model.insert(k, v)),
                1 => prop_assert_eq!(m.get(&k), model.get(&k).copied()),
                _ => prop_assert_eq!(m.remove(&k), model.remove(&k)),
            }
        }
        let snap: Vec<(u64, u64)> = m.iter_snapshot();
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(snap, want);
    }

    /// The priority queue drains any multiset in sorted order.
    #[test]
    fn pq_drains_sorted(values in proptest::collection::vec(any::<u32>(), 0..300)) {
        let pq = SkipListPq::new();
        for &v in &values {
            pq.push(v);
        }
        let drained = pq.drain_sorted();
        let mut want = values.clone();
        want.sort_unstable();
        prop_assert_eq!(drained, want);
    }

    /// ISx bucket assignment is total and order-preserving across buckets.
    #[test]
    fn isx_bucketing_is_monotone(keys in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        use hcl_apps::isx::bucket_of;
        let buckets = 8u64;
        let space = 1_000_000u64;
        for &k in &keys {
            let b = bucket_of(k, space, buckets);
            prop_assert!(b < buckets);
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let bs: Vec<u64> = sorted.iter().map(|&k| bucket_of(k, space, buckets)).collect();
        prop_assert!(bs.windows(2).all(|w| w[0] <= w[1]), "bucket ids must be monotone in key");
    }

    /// k-mer pack/unpack roundtrips arbitrary base strings.
    #[test]
    fn kmer_roundtrip(idx in proptest::collection::vec(0usize..4, 1..32)) {
        use hcl_apps::genome::{pack_kmer, unpack_kmer, BASES};
        let seq: Vec<u8> = idx.iter().map(|&i| BASES[i]).collect();
        let k = seq.len();
        prop_assert_eq!(unpack_kmer(pack_kmer(&seq, k), k), seq);
    }

    /// The segment allocator never hands out overlapping live ranges.
    #[test]
    fn allocator_no_overlap(sizes in proptest::collection::vec(1usize..256, 1..60)) {
        use hcl_mem::{Segment, SegmentAllocator};
        let a = SegmentAllocator::new(Segment::new(128), 0);
        let mut live: Vec<(usize, usize)> = Vec::new();
        for (i, &len) in sizes.iter().enumerate() {
            let off = a.alloc(len).unwrap();
            let rounded = hcl_mem::align8(len);
            for &(o, l) in &live {
                prop_assert!(off + rounded <= o || o + l <= off, "overlap");
            }
            live.push((off, rounded));
            if i % 3 == 2 {
                let (o, _) = live.swap_remove(i % live.len());
                a.free(o).unwrap();
            }
        }
    }
}

// --- fault-injection invariants (ChaosFabric + RetryPolicy) ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Retry backoff is monotone non-decreasing, bounded by the cap, and a
    /// pure function of (policy, seed, retry index).
    #[test]
    fn retry_backoff_monotone_bounded_deterministic(
        seed in any::<u64>(),
        attempts in 2u32..12,
        base_ms in 1u64..20,
        cap_ms in 20u64..500,
        jitter in 0u32..100,
    ) {
        use hcl_rpc::RetryPolicy;
        use std::time::Duration;
        let policy = RetryPolicy {
            max_attempts: attempts,
            base_delay: Duration::from_millis(base_ms),
            max_delay: Duration::from_millis(cap_ms),
            multiplier: 2.0,
            jitter_frac: jitter as f64 / 100.0,
            seed,
            attempt_timeout: None,
        };
        let mut prev = Duration::ZERO;
        for k in 0..attempts {
            let d = policy.backoff(k);
            prop_assert!(d >= prev, "backoff regressed at retry {}", k);
            prop_assert!(d <= Duration::from_millis(cap_ms), "backoff exceeded cap");
            // Pure: recomputing the same index yields the same duration.
            prop_assert_eq!(d, policy.backoff(k));
            prev = d;
        }
    }

    /// The chaos fault schedule is a pure function of the plan seed: two
    /// fabrics fed the identical send sequence deliver the identical
    /// message subsequence and count the identical faults.
    #[test]
    fn chaos_fault_sequence_is_seed_deterministic(
        seed in any::<u64>(),
        n in 10usize..60,
    ) {
        use bytes::Bytes;
        use hcl_fabric::chaos::{ChaosFabric, FaultPlan, FaultRule, OpClass};
        use hcl_fabric::{EpId, Fabric};
        use std::time::Duration;

        let run = |seed: u64| {
            let plan = FaultPlan::new(seed).for_class(
                OpClass::Send,
                FaultRule::NONE.drop(0.3).dup(0.2).error(0.1),
            );
            let fab = ChaosFabric::over_memory(plan);
            let a = EpId::new(0, 0);
            let b = EpId::new(1, 1);
            fab.register_endpoint(a).unwrap();
            fab.register_endpoint(b).unwrap();
            let mut errors = 0u32;
            for i in 0..n {
                if fab.send(a, b, Bytes::from(vec![i as u8])).is_err() {
                    errors += 1;
                }
            }
            let mut delivered = Vec::new();
            while let Some((_, msg)) =
                fab.recv(b, Some(Duration::from_millis(5))).unwrap()
            {
                delivered.push(msg.to_vec());
            }
            (delivered, errors, fab.chaos_stats())
        };
        let (d1, e1, s1) = run(seed);
        let (d2, e2, s2) = run(seed);
        prop_assert_eq!(d1, d2, "delivered sequences diverged for the same seed");
        prop_assert_eq!(e1, e2);
        prop_assert_eq!(s1, s2, "fault counters diverged for the same seed");
    }
}
