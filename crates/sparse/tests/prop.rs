//! Property-based tests for the sparse indexes.

use proptest::prelude::*;
use rum_core::oracle::check;
use rum_core::workload::Op;
use rum_core::{AccessMethod, Record, RECORDS_PER_PAGE};
use rum_sparse::{ColumnImprint, ZoneMapConfig, ZoneMappedColumn};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn zonemap_matches_model(
        base_keys in proptest::collection::btree_set(0u16..800, 0..150),
        ops in proptest::collection::vec(
            (0u8..5, any::<u16>(), any::<u32>()), 1..150
        ),
    ) {
        let base: Vec<Record> = base_keys
            .iter()
            .map(|&k| Record::new(k as u64, 7))
            .collect();
        let mut z = ZoneMappedColumn::with_config(ZoneMapConfig {
            partition_records: RECORDS_PER_PAGE,
            ..Default::default()
        });
        let ops = ops.iter().map(|&(op, k, v)| {
            let (k, v) = (k as u64, v as u64);
            match op {
                0 => Op::Insert(k, v),
                1 => Op::Update(k, v),
                2 => Op::Delete(k),
                3 => Op::Get(k),
                _ => Op::Range(k, k + v % 64),
            }
        });
        check(&mut z, (base, ops)).unwrap();
        // Aggregates agree with direct computation over the contents the
        // oracle has just confirmed.
        let held = z.range(0, u64::MAX).unwrap();
        let (count, sum) = z.aggregate(0, u64::MAX).unwrap();
        prop_assert_eq!(count as usize, held.len());
        let expect_sum = held.iter().fold(0u64, |a, r| a.wrapping_add(r.value));
        prop_assert_eq!(sum, expect_sum);
    }

    #[test]
    fn imprint_scans_never_lose_records(
        keys in proptest::collection::vec(0u64..100_000, 0..800),
        queries in proptest::collection::vec((0u64..100_000, 0u64..20_000), 1..20),
    ) {
        let col: Vec<Record> = keys.iter().map(|&k| Record::new(k, k)).collect();
        let imp = ColumnImprint::build(&col);
        for &(lo, span) in &queries {
            let hi = lo + span;
            let (hits, _) = imp.scan(&col, lo, hi);
            let mut expect: Vec<Record> = col
                .iter()
                .copied()
                .filter(|r| r.key >= lo && r.key <= hi)
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(hits, expect);
        }
    }
}
