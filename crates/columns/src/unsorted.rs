//! The unsorted column (heap file) — Table 1's "Unsorted column" row:
//! O(1) bulk creation and inserts (append), O(N/B/2) expected point query,
//! O(N/B) range query (full scan), minimal space.
//!
//! This is the baseline organization the paper measures every access
//! method against: "when data is stored in a heap file without an index,
//! we have to perform costly scans to locate any data we are interested
//! in".

use std::ops::ControlFlow;
use std::sync::Arc;

use rum_core::{AccessMethod, CostTracker, Key, Record, Result, SpaceProfile, Value};

use crate::packed::PackedFile;

/// A heap of packed pages; records appear in arrival order.
#[derive(Default)]
pub struct UnsortedColumn {
    file: PackedFile,
    /// Blind-append mode: `insert` skips the uniqueness scan (the paper's
    /// O(1) heap append). The caller guarantees fresh keys.
    blind: bool,
}

impl UnsortedColumn {
    pub fn new() -> Self {
        Self::default()
    }

    /// A column whose inserts are blind appends, matching the paper's
    /// O(1) heap-insert model. The caller must not insert duplicate keys
    /// (duplicates would shadow nondeterministically).
    pub fn blind_appends() -> Self {
        UnsortedColumn {
            blind: true,
            ..Self::new()
        }
    }

    /// [`PackedFile::find`] over the whole column.
    fn find(&mut self, key: Key) -> Result<Option<usize>> {
        self.file.find(key, 0..self.file.num_pages())
    }
}

impl AccessMethod for UnsortedColumn {
    fn name(&self) -> String {
        "unsorted-column".into()
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
        match self.find(key)? {
            Some(idx) => Ok(Some(self.file.get(idx)?.value)),
            None => Ok(None),
        }
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        // Full scan, filter, sort — there is no order to exploit.
        let mut out = Vec::new();
        let pages = 0..self.file.num_pages();
        self.file.scan(pages, |_, recs| {
            out.extend(recs.iter().filter(|r| r.key >= lo && r.key <= hi));
            ControlFlow::<()>::Continue(())
        })?;
        out.sort_unstable();
        Ok(out)
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        if self.blind {
            // The paper's heap append: O(1), no uniqueness scan.
            return self.file.push(Record::new(key, value));
        }
        // Upsert semantics require a scan to preserve key uniqueness.
        match self.find(key)? {
            Some(idx) => self.file.set(idx, Record::new(key, value)),
            None => self.file.push(Record::new(key, value)),
        }
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        match self.find(key)? {
            Some(idx) => {
                self.file.set(idx, Record::new(key, value))?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        match self.find(key)? {
            Some(idx) => {
                // Swap-remove: move the tail record into the hole.
                let last = self.file.len() - 1;
                if idx != last {
                    let tail = self.file.get(last)?;
                    self.file.set(idx, tail)?;
                }
                self.file.pop()?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.file.rebuild(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::RECORDS_PER_PAGE;

    fn loaded(n: u64) -> UnsortedColumn {
        let recs: Vec<Record> = (0..n).map(|k| Record::new(k, k * 2)).collect();
        let mut c = UnsortedColumn::new();
        c.bulk_load(&recs).unwrap();
        c
    }

    #[test]
    fn crud_roundtrip() {
        let mut c = UnsortedColumn::new();
        c.insert(5, 50).unwrap();
        c.insert(3, 30).unwrap();
        assert_eq!(c.get(5).unwrap(), Some(50));
        assert_eq!(c.get(4).unwrap(), None);
        assert!(c.update(5, 55).unwrap());
        assert_eq!(c.get(5).unwrap(), Some(55));
        assert!(c.delete(5).unwrap());
        assert!(!c.delete(5).unwrap());
        assert_eq!(c.get(5).unwrap(), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn insert_is_upsert() {
        let mut c = UnsortedColumn::new();
        c.insert(1, 10).unwrap();
        c.insert(1, 11).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1).unwrap(), Some(11));
    }

    #[test]
    fn range_is_sorted_despite_heap_order() {
        let mut c = UnsortedColumn::new();
        for k in [9u64, 1, 7, 3, 5] {
            c.insert(k, k).unwrap();
        }
        let rs = c.range(2, 8).unwrap();
        let keys: Vec<u64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![3, 5, 7]);
    }

    #[test]
    fn point_query_scans_half_on_average() {
        let n = 4 * RECORDS_PER_PAGE as u64; // 4 pages
        let mut c = loaded(n);
        let before = c.tracker().snapshot();
        // Key on the first page: 1 page read.
        c.get(0).unwrap();
        let first = c.tracker().since(&before).page_reads;
        assert_eq!(first, 1);
        let before = c.tracker().snapshot();
        // Key on the last page: the whole file is scanned (page 0 may be
        // memoized from the previous probe).
        c.get(n - 1).unwrap();
        let last = c.tracker().since(&before).page_reads;
        assert!((3..=4).contains(&last), "got {last}");
        assert!(last > first);
    }

    #[test]
    fn miss_scans_everything() {
        let mut c = loaded(4 * RECORDS_PER_PAGE as u64);
        let before = c.tracker().snapshot();
        assert_eq!(c.get(u64::MAX).unwrap(), None);
        assert_eq!(c.tracker().since(&before).page_reads, 4);
    }

    #[test]
    fn append_touches_only_tail_page() {
        let mut c = loaded(4 * RECORDS_PER_PAGE as u64 - 1);
        let before = c.tracker().snapshot();
        // A fresh key: the scan for upsert still reads all pages, but only
        // the tail page is written.
        c.insert(u64::MAX - 1, 0).unwrap();
        let d = c.tracker().since(&before);
        assert_eq!(d.page_writes, 1);
    }

    #[test]
    fn space_is_near_minimal() {
        let c = loaded(10 * RECORDS_PER_PAGE as u64);
        let mo = c.space_profile().space_amplification();
        assert!(mo < 1.01, "heap MO should be ~1, got {mo}");
    }

    #[test]
    fn delete_swaps_tail_into_hole() {
        let mut c = loaded(300);
        assert!(c.delete(0).unwrap());
        assert_eq!(c.len(), 299);
        // Every other key still reachable.
        assert_eq!(c.get(299).unwrap(), Some(598));
        assert_eq!(c.get(1).unwrap(), Some(2));
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let mut c = UnsortedColumn::new();
        assert!(c
            .bulk_load(&[Record::new(2, 0), Record::new(1, 0)])
            .is_err());
    }
}
