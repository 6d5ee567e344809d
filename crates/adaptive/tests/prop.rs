//! Property-based differential tests for the adaptive methods: results
//! must stay exact no matter how the structure reorganizes mid-stream.

use proptest::prelude::*;
use rum_adaptive::{AdaptiveMerger, CrackConfig, CrackedColumn, IntervalSet};
use rum_core::oracle::check;
use rum_core::workload::Op;
use rum_core::{AccessMethod, Record};

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k as u64, v as u64)),
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Update(k as u64, v as u64)),
        any::<u16>().prop_map(|k| Op::Delete(k as u64)),
        any::<u16>().prop_map(|k| Op::Get(k as u64)),
        (any::<u16>(), any::<u8>()).prop_map(|(lo, s)| Op::Range(lo as u64, lo as u64 + s as u64)),
    ]
}

fn run(method: &mut dyn AccessMethod, base: Vec<Record>, ops: Vec<Op>) {
    check(method, (base, ops.into_iter())).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cracking_matches_model(
        base_keys in proptest::collection::btree_set(0u16..500, 0..200),
        ops in proptest::collection::vec(op_strategy(), 1..200),
        stochastic in any::<bool>(),
        threshold in 4usize..64,
    ) {
        let base: Vec<Record> = base_keys
            .iter()
            .map(|&k| Record::new(k as u64, k as u64))
            .collect();
        let mut c = CrackedColumn::with_config(CrackConfig {
            stochastic,
            pending_threshold: threshold,
            seed: 1,
        });
        run(&mut c, base, ops);
    }

    #[test]
    fn adaptive_merging_matches_model(
        base_keys in proptest::collection::btree_set(0u16..500, 0..200),
        ops in proptest::collection::vec(op_strategy(), 1..200),
        run_size in 16usize..128,
    ) {
        let base: Vec<Record> = base_keys
            .iter()
            .map(|&k| Record::new(k as u64, k as u64))
            .collect();
        let mut m = AdaptiveMerger::new(run_size);
        run(&mut m, base, ops);
    }

    #[test]
    fn interval_set_covers_exactly_what_was_added(
        intervals in proptest::collection::vec((0u64..1000, 0u64..60), 1..60),
        probes in proptest::collection::vec(0u64..1100, 1..60),
    ) {
        let mut s = IntervalSet::new();
        let mut model = vec![false; 1100];
        for &(lo, span) in &intervals {
            let hi = (lo + span).min(1099);
            s.add(lo, hi);
            for m in model.iter_mut().take(hi as usize + 1).skip(lo as usize) {
                *m = true;
            }
        }
        for &p in &probes {
            prop_assert_eq!(s.contains(p), model[p as usize], "point {}", p);
        }
    }
}
