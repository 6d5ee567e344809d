//! The sorted column — Table 1's "Sorted column" row: O(log₂ N) point
//! queries without any auxiliary structure, at the price of O(N/B/2)
//! inserts and deletes (half the column shifts on average).
//!
//! "Even without an auxiliary data structure, adding structure to the data
//! affects read and write behavior" (§4): sortedness is free space-wise
//! (MO = 1) but is paid for on every insert.

use std::sync::Arc;

use rum_core::{AccessMethod, CostTracker, Key, Record, Result, SpaceProfile, Value};

use crate::packed::PackedFile;

/// Packed pages kept globally sorted by key.
#[derive(Default)]
pub struct SortedColumn {
    file: PackedFile,
}

impl SortedColumn {
    pub fn new() -> Self {
        Self::default()
    }

    /// [`PackedFile::search`] over the whole column.
    fn search(&mut self, key: Key) -> Result<std::result::Result<usize, usize>> {
        self.file.search(key, 0..self.file.len())
    }
}

impl AccessMethod for SortedColumn {
    fn name(&self) -> String {
        "sorted-column".into()
    }

    fn len(&self) -> usize {
        self.file.len()
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        self.file.tracker()
    }

    fn space_profile(&self) -> SpaceProfile {
        SpaceProfile::from_physical(self.file.len(), self.file.physical_bytes())
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        match self.search(key)? {
            Ok(idx) => Ok(Some(self.file.get(idx)?.value)),
            Err(_) => Ok(None),
        }
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        let start = match self.search(lo)? {
            Ok(i) | Err(i) => i,
        };
        // Sequential page reads from the start position.
        self.file.range_from(start, hi)
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        match self.search(key)? {
            Ok(idx) => self.file.set(idx, Record::new(key, value)),
            Err(idx) => self.file.insert_at(idx, Record::new(key, value)),
        }
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        match self.search(key)? {
            Ok(idx) => {
                self.file.set(idx, Record::new(key, value))?;
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        match self.search(key)? {
            Ok(idx) => {
                self.file.remove_at(idx)?;
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.file.rebuild(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::oracle::check;
    use rum_core::workload::Op;
    use rum_core::RECORDS_PER_PAGE;

    fn loaded(n: u64) -> SortedColumn {
        let recs: Vec<Record> = (0..n).map(|k| Record::new(k * 2, k)).collect();
        let mut c = SortedColumn::new();
        c.bulk_load(&recs).unwrap();
        c
    }

    #[test]
    fn crud_roundtrip() {
        let mut c = SortedColumn::new();
        for k in [5u64, 1, 9, 3, 7] {
            c.insert(k, k * 10).unwrap();
        }
        assert_eq!(c.len(), 5);
        assert_eq!(c.get(7).unwrap(), Some(70));
        assert_eq!(c.get(8).unwrap(), None);
        assert!(c.update(9, 99).unwrap());
        assert_eq!(c.get(9).unwrap(), Some(99));
        assert!(c.delete(1).unwrap());
        assert_eq!(c.get(1).unwrap(), None);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn stays_sorted_under_random_inserts() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let inserts = (0..1500).map(|_| Op::Insert(rng.gen_range(0..10_000), rng.gen()));
        check(&mut SortedColumn::new(), (Vec::new(), inserts)).unwrap();
    }

    #[test]
    fn range_returns_inclusive_sorted_slice() {
        let mut c = loaded(1000); // keys 0,2,...,1998
        let rs = c.range(10, 20).unwrap();
        let keys: Vec<u64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![10, 12, 14, 16, 18, 20]);
    }

    #[test]
    fn point_query_is_logarithmic_in_pages() {
        // 64 pages => binary search should touch ≈ log2(64) + O(1) pages,
        // far fewer than a scan.
        let n = 64 * RECORDS_PER_PAGE as u64;
        let mut c = loaded(n);
        let before = c.tracker().snapshot();
        c.get(2 * (n / 3)).unwrap();
        let reads = c.tracker().since(&before).page_reads;
        assert!(reads <= 10, "expected ~log2(64)+2 page reads, got {reads}");
        assert!(reads >= 3);
    }

    #[test]
    fn insert_shifts_tail_pages() {
        let n = 16 * RECORDS_PER_PAGE as u64;
        let mut c = loaded(n);
        let before = c.tracker().snapshot();
        c.insert(1, 0).unwrap(); // lands near the front: nearly all pages shift
        let writes = c.tracker().since(&before).page_writes;
        assert!(
            writes >= 16,
            "front insert must rewrite ~all pages, got {writes}"
        );
        let before = c.tracker().snapshot();
        c.insert(u64::MAX, 0).unwrap(); // lands at the back: 1 page write
        let writes = c.tracker().since(&before).page_writes;
        assert!(
            writes <= 2,
            "back insert should touch the tail, got {writes}"
        );
    }

    #[test]
    fn update_in_place_is_cheap() {
        let mut c = loaded(16 * RECORDS_PER_PAGE as u64);
        let before = c.tracker().snapshot();
        assert!(c.update(100, 1).unwrap());
        let d = c.tracker().since(&before);
        assert_eq!(d.page_writes, 1, "in-place update writes one page");
    }

    #[test]
    fn mo_is_minimal() {
        let c = loaded(32 * RECORDS_PER_PAGE as u64);
        let mo = c.space_profile().space_amplification();
        assert!(mo < 1.01, "sorted column MO should be ~1, got {mo}");
    }

    #[test]
    fn range_across_page_boundaries() {
        let n = 4 * RECORDS_PER_PAGE as u64;
        let mut c = loaded(n);
        let lo = 2 * (RECORDS_PER_PAGE as u64) - 4; // near page 0/1 boundary
        let rs = c.range(lo, lo + 16).unwrap();
        assert_eq!(rs.len(), 9); // even keys only
        for w in rs.windows(2) {
            assert!(w[0].key < w[1].key);
        }
    }

    #[test]
    fn empty_column_behaves() {
        let mut c = SortedColumn::new();
        assert_eq!(c.get(1).unwrap(), None);
        assert!(c.range(0, 100).unwrap().is_empty());
        assert!(!c.delete(1).unwrap());
        assert!(!c.update(1, 1).unwrap());
    }
}
