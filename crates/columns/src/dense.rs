//! The dense array — Proposition 3 of the paper.
//!
//! "When minimizing MO, no auxiliary data is stored and the base data is
//! stored as a dense array. During a selection, we need to scan all data to
//! find the values we are interested in, while updates are performed in
//! place. The minimum MO = 1.0 is achieved. The RO, however, is now
//! dictated by the size of the relation since a full scan is needed in the
//! worst case. The UO cost of in-place updates is also optimal because only
//! the base data intended to be updated is ever updated."
//!
//! Accounting is byte-granular: MO must be *exactly* 1.0, which page slack
//! would spoil. (The page-based sibling is
//! [`UnsortedColumn`](crate::UnsortedColumn).)

use std::sync::Arc;

use rum_core::{base_bytes, AccessMethod, CostTracker, Key, Record, Result, SpaceProfile, Value};

/// Records packed contiguously with zero slack; no order, no index.
pub struct DenseArray {
    data: Vec<Record>,
    tracker: Arc<CostTracker>,
}

impl DenseArray {
    pub fn new() -> Self {
        DenseArray {
            data: Vec::new(),
            tracker: CostTracker::new(),
        }
    }

    /// Linear scan; charges the bytes examined up to (and including) the
    /// hit, or the whole array on a miss.
    fn find(&self, key: Key) -> Option<usize> {
        let pos = self.data.iter().position(|r| r.key == key);
        let examined = match pos {
            Some(i) => i + 1,
            None => self.data.len(),
        };
        self.tracker.read_records(examined);
        pos
    }
}

impl Default for DenseArray {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessMethod for DenseArray {
    fn name(&self) -> String {
        "dense-array".into()
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        &self.tracker
    }

    fn space_profile(&self) -> SpaceProfile {
        // Exactly the live data, nothing else: MO = 1.0 by construction.
        SpaceProfile::from_physical(self.data.len(), base_bytes(self.data.len()))
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        Ok(self.find(key).map(|i| self.data[i].value))
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        // Full scan: every selection reads the whole relation.
        self.tracker.read_records(self.data.len());
        let mut out: Vec<Record> = self
            .data
            .iter()
            .copied()
            .filter(|r| r.key >= lo && r.key <= hi)
            .collect();
        out.sort_unstable();
        Ok(out)
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        match self.find(key) {
            Some(i) => {
                self.data[i].value = value;
                self.tracker.write_records(1);
            }
            None => {
                self.data.push(Record::new(key, value));
                self.tracker.write_records(1);
            }
        }
        Ok(())
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        match self.find(key) {
            Some(i) => {
                self.data[i].value = value;
                self.tracker.write_records(1);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        match self.find(key) {
            Some(i) => {
                // Swap-remove keeps the array dense with one cell write.
                self.data.swap_remove(i);
                self.tracker.write_records(1);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.data = records.to_vec();
        self.tracker.write_records(records.len());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_check_random_ops() {
        use rum_core::oracle::{check, hostile_ops};
        check(&mut DenseArray::new(), &hostile_ops(61, 3000, 2000)).unwrap();
    }

    #[test]
    fn proposition_3_mo_is_exactly_one() {
        let mut a = DenseArray::new();
        for k in 0..1000u64 {
            a.insert(k, k).unwrap();
        }
        assert_eq!(a.space_profile().space_amplification(), 1.0);
    }

    #[test]
    fn proposition_3_uo_is_exactly_one_for_updates() {
        let mut a = DenseArray::new();
        for k in 0..100u64 {
            a.insert(k, 0).unwrap();
        }
        a.tracker().reset();
        for k in 0..100u64 {
            assert!(a.update(k, 1).unwrap());
        }
        let s = a.tracker().snapshot();
        assert_eq!(s.write_amplification(), 1.0, "in-place UO = 1.0");
    }

    #[test]
    fn proposition_3_ro_scales_with_n() {
        let cost_of_miss = |n: u64| {
            let mut a = DenseArray::new();
            let recs: Vec<Record> = (0..n).map(|k| Record::new(k, k)).collect();
            a.bulk_load(&recs).unwrap();
            a.tracker().reset();
            a.get(u64::MAX).unwrap();
            a.tracker().snapshot().total_read_bytes()
        };
        assert_eq!(cost_of_miss(1000), base_bytes(1000));
        assert_eq!(
            cost_of_miss(4000),
            base_bytes(4000),
            "RO = N: linear in the relation"
        );
    }

    #[test]
    fn crud_roundtrip() {
        let mut a = DenseArray::new();
        a.insert(1, 10).unwrap();
        a.insert(2, 20).unwrap();
        a.insert(1, 11).unwrap(); // upsert
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(1).unwrap(), Some(11));
        assert!(a.delete(1).unwrap());
        assert_eq!(a.get(1).unwrap(), None);
        assert!(!a.update(1, 0).unwrap());
    }

    #[test]
    fn range_is_sorted() {
        let mut a = DenseArray::new();
        for k in [5u64, 2, 8, 1] {
            a.insert(k, k).unwrap();
        }
        let rs = a.range(1, 6).unwrap();
        let keys: Vec<u64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![1, 2, 5]);
    }

    #[test]
    fn early_hit_reads_less_than_late_hit() {
        let mut a = DenseArray::new();
        let recs: Vec<Record> = (0..1000u64).map(|k| Record::new(k, k)).collect();
        a.bulk_load(&recs).unwrap();
        a.tracker().reset();
        a.get(0).unwrap();
        let first = a.tracker().snapshot().total_read_bytes();
        a.tracker().reset();
        a.get(999).unwrap();
        let last = a.tracker().snapshot().total_read_bytes();
        assert!(first < last);
        assert_eq!(first, base_bytes(1));
        assert_eq!(last, base_bytes(1000));
    }
}
