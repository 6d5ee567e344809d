//! Property-based differential tests for the column organizations and the
//! §2 extreme designs, and reference tests for the packed file's two shared
//! lookups.

use proptest::prelude::*;
use rum_columns::packed::PackedFile;
use rum_columns::{AppendLog, DenseArray, DirectAddressArray, SortedColumn, UnsortedColumn};
use rum_core::oracle::check;
use rum_core::workload::Op;
use rum_core::{AccessMethod, CostSnapshot, Record, RECORDS_PER_PAGE};

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

/// A packed file holding `keys` in order, and its records.
fn packed(keys: impl IntoIterator<Item = u64>) -> (PackedFile, Vec<Record>) {
    let records: Vec<Record> = keys.into_iter().map(|k| Record::new(k, k ^ 7)).collect();
    let mut file = PackedFile::default();
    file.rebuild(&records).unwrap();
    (file, records)
}

/// `(a, b)` folded into an ascending range within `0..=n`.
fn span(a: u16, b: u16, n: usize) -> std::ops::Range<usize> {
    let (a, b) = (a as usize % (n + 1), b as usize % (n + 1));
    a.min(b)..a.max(b)
}

/// A `get` of an index the lookup just returned is charged nothing: the
/// lookup left its page in the memo.
fn get_is_free(file: &mut PackedFile, idx: usize, want: Record) {
    let before = file.tracker().snapshot();
    assert_eq!(file.get(idx).unwrap(), want);
    assert_eq!(file.tracker().since(&before), CostSnapshot::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `search` answers what `slice::binary_search` answers on the records
    /// it is given, over files and ranges that cross page boundaries.
    #[test]
    fn packed_search_is_binary_search(
        keys in proptest::collection::btree_set(any::<u16>(), 0..4 * RECORDS_PER_PAGE),
        (a, b, key, live) in (any::<u16>(), any::<u16>(), any::<u16>(), any::<bool>()),
    ) {
        let (mut file, records) = packed(keys.into_iter().map(u64::from));
        let r = span(a, b, records.len());
        // Half the probes are keys the range holds.
        let key = if live && !r.is_empty() {
            records[r.start + key as usize % r.len()].key
        } else {
            u64::from(key)
        };
        let want = records[r.clone()]
            .binary_search_by_key(&key, |rec| rec.key)
            .map(|i| i + r.start)
            .map_err(|i| i + r.start);
        let got = file.search(key, r).unwrap();
        prop_assert_eq!(got, want);
        if let Ok(idx) = got {
            get_is_free(&mut file, idx, records[idx]);
        }
    }

    /// `find` returns the first record with the key in the pages it is
    /// given; keys repeat, so "first" matters.
    #[test]
    fn packed_find_is_the_first_match(
        keys in proptest::collection::vec(any::<u8>(), 0..4 * RECORDS_PER_PAGE),
        (a, b, key) in (any::<u16>(), any::<u16>(), any::<u8>()),
    ) {
        let (mut file, records) = packed(keys.into_iter().map(u64::from));
        let pages = span(a, b, file.num_pages());
        let at = |page: usize| (page * RECORDS_PER_PAGE).min(records.len());
        let first = at(pages.start);
        let want = records[first..at(pages.end)]
            .iter()
            .position(|rec| rec.key == u64::from(key))
            .map(|i| i + first);
        let got = file.find(u64::from(key), pages).unwrap();
        prop_assert_eq!(got, want);
        if let Some(idx) = got {
            get_is_free(&mut file, idx, records[idx]);
        }
    }
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
