//! Property-based tests for rum-core invariants.

use proptest::prelude::*;
use rum_core::triangle::project;
use rum_core::workload::{
    Drift, KeyDist, KeySpace, Op, OpMix, OpStream, Workload, WorkloadSpec, Zipfian,
};
use rum_core::{
    encode_records, CostSnapshot, Record, RecordSlice, PAGE_SIZE, RECORDS_PER_PAGE, RECORD_SIZE,
};

fn inside_triangle(x: f64, y: f64) -> bool {
    if !(-1e-9..=1.0 + 1e-9).contains(&y) {
        return false;
    }
    let half = (1.0 - y) / 2.0;
    (0.5 - half - 1e-9..=0.5 + half + 1e-9).contains(&x)
}

proptest! {
    #[test]
    fn projection_always_lands_inside_the_triangle(
        ro in 1.0f64..1e12,
        uo in 1.0f64..1e12,
        mo in 1.0f64..1e6,
    ) {
        let (x, y) = project(ro, uo, mo);
        prop_assert!(inside_triangle(x, y), "({ro},{uo},{mo}) -> ({x},{y})");
    }

    #[test]
    fn projection_is_scale_monotone_toward_read_corner(
        base in 1.5f64..100.0,
        factor in 1.1f64..50.0,
    ) {
        // Making RO strictly better (smaller) while UO/MO stay put must not
        // move the point away from the read corner.
        let (_, y_worse) = project(base * factor, base, base);
        let (_, y_better) = project(base, base, base);
        prop_assert!(y_better >= y_worse - 1e-12);
    }

    #[test]
    fn record_encoding_roundtrips(key in any::<u64>(), value in any::<u64>()) {
        let r = Record::new(key, value);
        prop_assert_eq!(Record::decode(&r.encode()), r);
    }

    #[test]
    fn page_encoder_is_the_per_record_loop_and_record_slice_reads_it_back(
        pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..RECORDS_PER_PAGE + 1),
        header in any::<bool>(),
    ) {
        let records: Vec<Record> = pairs.into_iter().map(Record::from).collect();
        let offset = if header { 8 } else { 0 };
        let end = offset + records.len() * RECORD_SIZE;
        // Dirty on purpose: the encoder owns every byte from `offset` on.
        let mut buf = vec![0xAAu8; PAGE_SIZE + 24];
        encode_records(&mut buf, offset, &records);
        // The loop every call site used to carry, as the oracle.
        let mut oracle = vec![0xAAu8; PAGE_SIZE + 24];
        oracle[offset..].fill(0);
        for (i, r) in records.iter().enumerate() {
            r.encode_into(&mut oracle[offset + i * RECORD_SIZE..offset + (i + 1) * RECORD_SIZE]);
        }
        prop_assert_eq!(&buf, &oracle);
        prop_assert!(buf[..offset].iter().all(|&b| b == 0xAA), "header untouched");
        prop_assert!(buf[end..].iter().all(|&b| b == 0), "tail zeroed");
        let back = RecordSlice::new(&buf[offset..end]);
        prop_assert_eq!(back.iter().collect::<Vec<_>>(), records);
    }

    #[test]
    fn snapshot_delta_add_roundtrip(
        a in 0u64..1_000_000, b in 0u64..1_000_000,
        c in 0u64..1_000_000, d in 0u64..1_000_000,
    ) {
        let early = CostSnapshot { base_read_bytes: a, aux_read_bytes: b, ..Default::default() };
        let delta = CostSnapshot { base_read_bytes: c, aux_read_bytes: d, ..Default::default() };
        let later = early.add(&delta);
        prop_assert_eq!(later.delta(&early), delta);
    }

    #[test]
    fn zipfian_stays_in_domain(n in 2usize..5000, theta in 0.0f64..0.999, seed in any::<u64>()) {
        let z = Zipfian::new(n, theta);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::SeedableRng;
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    #[test]
    fn workload_generation_invariants(
        initial in 1usize..2000,
        operations in 1usize..2000,
        seed in any::<u64>(),
        sparse in any::<bool>(),
    ) {
        let spec = WorkloadSpec {
            initial_records: initial,
            operations,
            mix: OpMix::BALANCED,
            dist: KeyDist::Uniform,
            key_space: if sparse {
                KeySpace::Sparse { universe_factor: 4 }
            } else {
                KeySpace::Dense { spacing: 1 }
            },
            range_len: 16,
            miss_fraction: 0.0,
            seed,
            drift: Drift::None,
        };
        let w = Workload::generate(&spec);
        // Initial is sorted and unique.
        prop_assert!(w.initial.windows(2).all(|p| p[0].key < p[1].key));
        prop_assert_eq!(w.initial.len(), initial);
        // Replaying the stream against a model never violates liveness.
        let mut live: std::collections::HashSet<u64> =
            w.initial.iter().map(|r| r.key).collect();
        for op in &w.ops {
            match *op {
                Op::Insert(k, _) => {
                    prop_assert!(!live.contains(&k));
                    live.insert(k);
                }
                Op::Update(k, _) => prop_assert!(live.contains(&k)),
                Op::Delete(k) => {
                    prop_assert!(live.contains(&k));
                    live.remove(&k);
                }
                Op::Range(lo, hi) => prop_assert!(lo <= hi),
                Op::Get(_) => {}
            }
        }
    }
}

/// Every drifting-workload scenario the generator supports, with
/// scenario-relative knobs (period, flip point) drawn by the runner.
fn drift_strategy() -> impl Strategy<Value = Drift> {
    prop_oneof![
        Just(Drift::None),
        (64usize..4096).prop_map(|period| Drift::Diurnal { period }),
        (64usize..4096).prop_map(|period| Drift::FlashCrowd { period }),
        (64usize..4096).prop_map(|period| Drift::ScanStorm { period }),
        (1usize..4096).prop_map(|at| Drift::Flip {
            at,
            mix: OpMix::WRITE_HEAVY,
        }),
    ]
}

proptest! {
    #[test]
    fn drifting_streams_are_exact_and_deterministic(
        initial in 64usize..1024,
        operations in 1usize..4096,
        seed in any::<u64>(),
        drift in drift_strategy(),
    ) {
        let spec = WorkloadSpec {
            initial_records: initial,
            operations,
            mix: OpMix::BALANCED,
            range_len: 8,
            seed,
            drift,
            ..Default::default()
        };
        // Every drift scenario yields exactly the requested op count —
        // no slot is lost when the active mix rotates mid-stream.
        let a: Vec<Op> = OpStream::new(&spec).collect();
        prop_assert_eq!(a.len(), operations);
        // Same seed ⇒ bit-identical stream, and the materialized
        // workload is that same stream op for op.
        let b: Vec<Op> = OpStream::new(&spec).collect();
        prop_assert_eq!(&a, &b);
        let w = Workload::generate(&spec);
        prop_assert_eq!(&w.ops, &a);
        // The initial dataset is drift-independent: a drifting spec
        // loads the same records as its static twin.
        let static_spec = WorkloadSpec { drift: Drift::None, ..spec };
        prop_assert_eq!(&w.initial, &Workload::generate(&static_spec).initial);
    }
}
