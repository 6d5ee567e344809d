//! Property-based differential tests for the column organizations and the
//! §2 extreme designs.

use proptest::prelude::*;
use rum_columns::{AppendLog, DenseArray, DirectAddressArray, SortedColumn, UnsortedColumn};
use rum_core::oracle::check;
use rum_core::workload::Op;
use rum_core::AccessMethod;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k as u64, v as u64)),
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Update(k as u64, v as u64)),
        any::<u16>().prop_map(|k| Op::Delete(k as u64)),
        any::<u16>().prop_map(|k| Op::Get(k as u64)),
        (any::<u16>(), any::<u8>()).prop_map(|(lo, s)| Op::Range(lo as u64, lo as u64 + s as u64)),
    ]
}

fn run_against_model(method: &mut dyn AccessMethod, ops: &[Op]) {
    let name = method.name();
    check(method, (Vec::new(), ops.iter().copied())).unwrap_or_else(|d| panic!("{name}: {d:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sorted_column_matches_model(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        run_against_model(&mut SortedColumn::new(), &ops);
    }

    #[test]
    fn unsorted_column_matches_model(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        run_against_model(&mut UnsortedColumn::new(), &ops);
    }

    #[test]
    fn dense_array_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        run_against_model(&mut DenseArray::new(), &ops);
    }

    #[test]
    fn append_log_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        // The log reserves u64::MAX as the tombstone; u32 values avoid it.
        run_against_model(&mut AppendLog::new(), &ops);
    }

    #[test]
    fn direct_address_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        run_against_model(&mut DirectAddressArray::new(), &ops);
    }

    #[test]
    fn dense_array_mo_is_always_exactly_one(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let mut a = DenseArray::new();
        run_against_model(&mut a, &ops);
        if a.len() > 0 {
            prop_assert_eq!(a.space_profile().space_amplification(), 1.0);
        }
    }
}
