//! Property-based differential tests for the in-memory indexes.

use proptest::prelude::*;
use rum_core::oracle::check;
use rum_core::workload::Op;
use rum_core::AccessMethod;
use rum_memindex::{CsbTree, RadixTrie, SkipList};

fn op_strategy() -> impl Strategy<Value = Op> {
    // Full 64-bit keys: tries must handle arbitrary byte paths.
    prop_oneof![
        (any::<u64>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v as u64)),
        (any::<u64>(), any::<u32>()).prop_map(|(k, v)| Op::Update(k, v as u64)),
        any::<u64>().prop_map(Op::Delete),
        any::<u64>().prop_map(Op::Get),
        (any::<u64>(), any::<u16>()).prop_map(|(lo, s)| Op::Range(lo, lo.saturating_add(s as u64))),
    ]
}

fn run(method: &mut dyn AccessMethod, ops: &[Op], keys: &[u64]) {
    // Seed with a base set, one insert at a time (duplicates overwrite),
    // so deletes/updates hit sometimes.
    let seeds = keys.iter().map(|&k| Op::Insert(k, 1));
    check(method, (Vec::new(), seeds.chain(ops.iter().copied()))).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn skiplist_matches_model(
        keys in proptest::collection::vec(any::<u64>(), 0..100),
        ops in proptest::collection::vec(op_strategy(), 1..250),
    ) {
        run(&mut SkipList::new(), &ops, &keys);
    }

    #[test]
    fn trie_matches_model(
        keys in proptest::collection::vec(any::<u64>(), 0..100),
        ops in proptest::collection::vec(op_strategy(), 1..250),
    ) {
        run(&mut RadixTrie::new(), &ops, &keys);
    }

    #[test]
    fn csb_tree_matches_model(
        keys in proptest::collection::vec(any::<u64>(), 0..100),
        ops in proptest::collection::vec(op_strategy(), 1..250),
    ) {
        run(&mut CsbTree::new(), &ops, &keys);
    }
}
