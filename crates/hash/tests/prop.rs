//! Property-based differential tests for the hash indexes.

use proptest::prelude::*;
use rum_core::oracle::check;
use rum_core::workload::Op;
use rum_core::AccessMethod;
use rum_hash::{ExtendibleHash, StaticHash};

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k as u64, v as u64)),
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Update(k as u64, v as u64)),
        any::<u16>().prop_map(|k| Op::Delete(k as u64)),
        any::<u16>().prop_map(|k| Op::Get(k as u64)),
    ]
}

fn run(method: &mut dyn AccessMethod, ops: Vec<Op>) {
    check(method, (Vec::new(), ops.into_iter())).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn static_hash_matches_model(ops in proptest::collection::vec(op_strategy(), 1..500)) {
        // The one-page initial table exercises tombstone reuse.
        run(&mut StaticHash::new(), ops);
    }

    #[test]
    fn extendible_hash_matches_model(ops in proptest::collection::vec(op_strategy(), 1..500)) {
        run(&mut ExtendibleHash::new(), ops);
    }
}
