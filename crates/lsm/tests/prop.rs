//! Property-based differential tests for the LSM-tree under both
//! compaction policies and varied geometry.

use proptest::prelude::*;
use rum_core::oracle::Oracle;
use rum_core::workload::Op;
use rum_core::AccessMethod;
use rum_lsm::{CompactionPolicy, LsmConfig, LsmTree};
use rum_storage::{Durable, FaultInjector, FaultPlan};

/// An op, or `None` for a flush between two of them.
fn op_strategy() -> impl Strategy<Value = Option<Op>> {
    prop_oneof![
        4 => (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Some(Op::Insert(k as u64, v as u64))),
        2 => (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Some(Op::Update(k as u64, v as u64))),
        2 => any::<u16>().prop_map(|k| Some(Op::Delete(k as u64))),
        2 => any::<u16>().prop_map(|k| Some(Op::Get(k as u64))),
        1 => (any::<u16>(), any::<u8>())
            .prop_map(|(lo, s)| Some(Op::Range(lo as u64, lo as u64 + s as u64))),
        1 => Just(None),
    ]
}

fn run(config: LsmConfig, ops: &[Option<Op>]) {
    let mut t = LsmTree::with_config(config);
    let mut oracle = Oracle::load(&mut t, &[]).unwrap();
    for &op in ops {
        match op {
            Some(op) => oracle.step(&mut t, op).unwrap(),
            None => t.flush().unwrap(),
        }
    }
    oracle.finish(&mut t).unwrap();
}

/// Small memtables under each policy, so every stream flushes and merges.
fn levelling() -> LsmConfig {
    LsmConfig {
        memtable_records: 16,
        size_ratio: 2,
        policy: CompactionPolicy::Levelling,
        bloom_bits_per_key: 8.0,
        ..Default::default()
    }
}

fn tiering() -> LsmConfig {
    LsmConfig {
        memtable_records: 16,
        size_ratio: 3,
        policy: CompactionPolicy::Tiering,
        bloom_bits_per_key: 0.0,
        ..Default::default()
    }
}

/// The same geometry with the sorted view on: held to the model the
/// view-off tests use, so the two configurations agree with each other.
fn viewed(config: LsmConfig) -> LsmConfig {
    LsmConfig {
        sorted_view: true,
        ..config
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn levelling_matches_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        run(levelling(), &ops);
    }

    #[test]
    fn tiering_matches_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        run(tiering(), &ops);
    }

    #[test]
    fn view_equals_no_view_levelling(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        run(viewed(levelling()), &ops);
    }

    #[test]
    fn view_equals_no_view_tiering(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        run(viewed(tiering()), &ops);
    }

    /// Crash at a random WAL offset mid-stream with the view enabled (and
    /// warm: range queries run before the crash). After recovery the tree
    /// must serve ranges bit-identical to the model of the committed
    /// prefix — i.e. the view rebuilds cleanly from scratch.
    #[test]
    fn view_rebuilds_after_crash(seed in 0u64..64, torn in any::<bool>()) {
        let config = LsmConfig {
            memtable_records: 16,
            size_ratio: 2,
            sorted_view: true,
            ..Default::default()
        };
        let tree = move || LsmTree::with_config(config);
        let ops: Vec<(u64, u64)> = (0..150u64).map(|k| (k * 7 % 211, k)).collect();
        // Reference run to learn the stream's WAL footprint.
        let mut reference = Durable::new(tree);
        for &(k, v) in &ops {
            reference.insert(k, v).unwrap();
            if k % 13 == 0 {
                reference.range(k, k + 20).unwrap(); // keep the view warm
            }
        }
        let total = reference.wal().synced_total();

        let plan = FaultPlan::seeded_crash(seed, total, torn);
        let mut d = Durable::with_injector(tree, FaultInjector::new(plan));
        // The oracle's model advances on acknowledged ops only: at the
        // crash it holds the committed prefix.
        let mut oracle = Oracle::load(&mut d, &[]).unwrap();
        let stream = ops.iter().flat_map(|&(k, v)| {
            let warm = (k % 13 == 0).then_some(Op::Range(k, k + 20));
            warm.into_iter().chain([Op::Insert(k, v)])
        });
        oracle.step_until_crash(&mut d, stream).unwrap();
        d.recover().unwrap();
        oracle.finish(&mut d).unwrap();
        oracle.step(&mut d, Op::Range(50, 120)).unwrap();
    }
}
