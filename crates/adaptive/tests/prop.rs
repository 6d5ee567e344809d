//! Property-based differential tests for the adaptive methods: results
//! must stay exact no matter how the structure reorganizes mid-stream.

use proptest::prelude::*;
use rum_adaptive::{AdaptiveMerger, CrackedColumn, IntervalSet};
use rum_core::oracle::Oracle;
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

/// Step each of `ops` through `oracle`, held to the model.
fn run(oracle: &mut Oracle, method: &mut dyn AccessMethod, ops: &[Op]) {
    for &op in ops {
        oracle.step(method, op).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cracking_matches_model(
        base_keys in proptest::collection::btree_set(0u16..500, 0..200),
        ops in proptest::collection::vec(op_strategy(), 1..200),
        stochastic in any::<bool>(),
    ) {
        let base: Vec<Record> = base_keys
            .iter()
            .map(|&k| Record::new(k as u64, k as u64))
            .collect();
        let mut c = if stochastic {
            CrackedColumn::stochastic()
        } else {
            CrackedColumn::new()
        };
        let mut oracle = Oracle::load(&mut c, &base).unwrap();
        let (head, tail) = ops.split_at(ops.len() / 2);
        run(&mut oracle, &mut c, head);
        run(&mut oracle, &mut c, &[Op::Get(0)]);
        prop_assert!(c.pieces() > 1);
        // Every base key deleted and every other one reinserted, then a
        // burst of fresh keys past the pending threshold (4096): the fold
        // purges the stale copies of the reinserted keys from the column
        // and resets the cracker index.
        let deletes = base_keys.iter().map(|&k| Op::Delete(k as u64));
        let reinserts = base_keys.iter().step_by(2).map(|&k| Op::Insert(k as u64, 7));
        let fresh = (0..4097u64).map(|k| Op::Insert(1 << 20 | k, k));
        let burst: Vec<Op> = deletes.chain(reinserts).chain(fresh).collect();
        run(&mut oracle, &mut c, &burst);
        prop_assert_eq!(c.pieces(), 1, "the pending merge must have run");
        run(&mut oracle, &mut c, tail);
        oracle.finish(&mut c).unwrap();
    }

    #[test]
    fn adaptive_merging_matches_model(
        n in 4097u64..9000,
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        // Keys spread over the ops' u16 domain, in two or more 4096-record
        // runs.
        let base: Vec<Record> = (0..n).map(|k| Record::new(k * 7, k)).collect();
        let mut m = AdaptiveMerger::new();
        let mut oracle = Oracle::load(&mut m, &base).unwrap();
        prop_assert!(m.unmerged_records() > 4096, "one run holds at most 4096");
        run(&mut oracle, &mut m, &ops);
        oracle.finish(&mut m).unwrap();
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
