//! A bitmap index as a full access method: an append-only paged row store
//! (base data) plus one update-friendly bitmap per key-range bin
//! (auxiliary data).
//!
//! Deleted rows leave holes — the row slots of live records must stay
//! stable because every bitmap addresses rows by position. That dead space
//! and the bitmaps themselves are the MO this method pays; in exchange,
//! range queries touch only the pages whose bins intersect the predicate.

use std::sync::Arc;

use rum_columns::packed::PackedFile;
use rum_core::{AccessMethod, CostTracker, DataClass, Key, Record, Result, SpaceProfile, Value};

use crate::updatable::UpdateFriendlyBitmap;

/// Number of key-range bins (the "cardinality" of the index).
const BINS: usize = 64;
/// Key-domain upper bound until a bulk load re-derives it; keys beyond it
/// land in the last bin (pruning degrades gracefully).
const INITIAL_KEY_DOMAIN: u64 = 1 << 20;
/// Delta entries per bitmap before a merge.
const MERGE_THRESHOLD: usize = 1024;

/// The bitmap index.
pub struct BitmapIndex {
    rows: PackedFile,
    bitmaps: Vec<UpdateFriendlyBitmap>,
    /// Expected key-domain upper bound, the span the bins divide.
    key_domain: u64,
    live: usize,
}

impl BitmapIndex {
    pub fn new() -> Self {
        BitmapIndex {
            rows: PackedFile::default(),
            bitmaps: Self::empty_bitmaps(0),
            key_domain: INITIAL_KEY_DOMAIN,
            live: 0,
        }
    }

    /// One empty bitmap per bin, each `rows` rows long.
    fn empty_bitmaps(rows: u64) -> Vec<UpdateFriendlyBitmap> {
        (0..BINS)
            .map(|_| UpdateFriendlyBitmap::new(rows, MERGE_THRESHOLD))
            .collect()
    }

    fn bin_of(&self, key: Key) -> usize {
        let width = (self.key_domain / BINS as u64).max(1);
        ((key / width) as usize).min(BINS - 1)
    }

    /// Charge reading one bin's bitmap (auxiliary traffic).
    fn charge_bitmap_read(&self, bin: usize) {
        self.tracker()
            .read(DataClass::Aux, self.bitmaps[bin].size_bytes());
    }

    /// Charge a delta update to one bin's bitmap.
    fn charge_bitmap_write(&self) {
        self.tracker().write(DataClass::Aux, 8);
    }

    fn grow_bitmaps(&mut self, rows: u64) {
        for b in &mut self.bitmaps {
            b.grow(rows);
        }
    }

    /// Find the live row holding `key`, if any: walk its bin's set bits
    /// (one charged bitmap read), probing each candidate row.
    fn find_row(&mut self, key: Key) -> Result<Option<u64>> {
        let bin = self.bin_of(key);
        self.charge_bitmap_read(bin);
        for row in self.bitmaps[bin].iter_ones() {
            if self.rows.get(row as usize)?.key == key {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    /// Dead (deleted) row slots currently wasting space.
    pub fn dead_rows(&self) -> usize {
        self.rows.len() - self.live
    }
}

impl Default for BitmapIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessMethod for BitmapIndex {
    fn name(&self) -> String {
        "bitmap-index".into()
    }

    fn len(&self) -> usize {
        self.live
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        self.rows.tracker()
    }

    fn space_profile(&self) -> SpaceProfile {
        let bitmap_bytes: u64 = self.bitmaps.iter().map(|b| b.size_bytes()).sum();
        let physical = self.rows.physical_bytes() + bitmap_bytes;
        SpaceProfile::from_physical(self.live, physical)
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        match self.find_row(key)? {
            Some(row) => Ok(Some(self.rows.get(row as usize)?.value)),
            None => Ok(None),
        }
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        if self.rows.is_empty() {
            return Ok(Vec::new());
        }
        let (b_lo, b_hi) = (self.bin_of(lo), self.bin_of(hi.max(lo)));
        // OR the candidate bins' row sets, then fetch touched pages once.
        let mut rows: Vec<u64> = Vec::new();
        for bin in b_lo..=b_hi {
            self.charge_bitmap_read(bin);
            rows.extend(self.bitmaps[bin].iter_ones());
        }
        rows.sort_unstable();
        rows.dedup();
        let mut out = Vec::new();
        for row in rows {
            let rec = self.rows.get(row as usize)?;
            if rec.key >= lo && rec.key <= hi {
                out.push(rec);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        if let Some(row) = self.find_row(key)? {
            // Upsert: value change, bins untouched (bins are on the key).
            self.rows.set(row as usize, Record::new(key, value))?;
            return Ok(());
        }
        let row = self.rows.len() as u64;
        self.rows.push(Record::new(key, value))?;
        self.grow_bitmaps(row + 1);
        let bin = self.bin_of(key);
        self.bitmaps[bin].set(row);
        self.charge_bitmap_write();
        self.live += 1;
        Ok(())
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        match self.find_row(key)? {
            Some(row) => {
                self.rows.set(row as usize, Record::new(key, value))?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        match self.find_row(key)? {
            Some(row) => {
                let bin = self.bin_of(key);
                self.bitmaps[bin].clear(row);
                self.charge_bitmap_write();
                self.live -= 1;
                // The row slot stays behind as a hole: bitmaps address rows
                // by position.
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.rows.rebuild(records)?;
        // Re-derive the domain so bins are balanced for this dataset.
        if let Some(last) = records.last() {
            self.key_domain = last.key.saturating_add(1).max(BINS as u64);
        }
        self.bitmaps = Self::empty_bitmaps(records.len() as u64);
        for (row, r) in records.iter().enumerate() {
            let bin = self.bin_of(r.key);
            self.bitmaps[bin].set(row as u64);
        }
        for b in &mut self.bitmaps {
            b.merge();
            self.rows.tracker().write(DataClass::Aux, b.size_bytes());
        }
        self.live = records.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::oracle::{check, hostile_ops};
    use rum_core::RECORDS_PER_PAGE;

    fn loaded(n: u64) -> BitmapIndex {
        let recs: Vec<Record> = (0..n).map(|k| Record::new(k, k + 1)).collect();
        let mut b = BitmapIndex::new();
        b.bulk_load(&recs).unwrap();
        b
    }

    #[test]
    fn crud_roundtrip() {
        let mut b = BitmapIndex::new();
        b.insert(10, 100).unwrap();
        b.insert(500, 200).unwrap();
        assert_eq!(b.get(10).unwrap(), Some(100));
        assert_eq!(b.get(11).unwrap(), None);
        assert!(b.update(500, 222).unwrap());
        assert!(!b.update(501, 0).unwrap());
        assert!(b.delete(10).unwrap());
        assert!(!b.delete(10).unwrap());
        assert_eq!(b.get(10).unwrap(), None);
        assert_eq!(b.len(), 1);
        assert_eq!(b.dead_rows(), 1);
    }

    #[test]
    fn insert_is_upsert_without_new_row() {
        let mut b = BitmapIndex::new();
        b.insert(5, 1).unwrap();
        b.insert(5, 2).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.dead_rows(), 0);
        assert_eq!(b.get(5).unwrap(), Some(2));
    }

    #[test]
    fn range_reads_only_matching_bins() {
        let n = 64 * RECORDS_PER_PAGE as u64;
        let mut b = loaded(n);
        let before = b.tracker().snapshot();
        let rs = b.range(100, 150).unwrap();
        assert_eq!(rs.len(), 51);
        let d = b.tracker().since(&before);
        // One bin covers n/64 = 256 keys here; candidates live on one page.
        assert!(
            d.page_reads <= 4,
            "narrow range should touch few pages, read {}",
            d.page_reads
        );
    }

    #[test]
    fn range_correctness_across_bins() {
        let mut b = loaded(5000);
        let rs = b.range(1000, 3000).unwrap();
        let keys: Vec<u64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(keys, (1000..=3000).collect::<Vec<_>>());
    }

    #[test]
    fn deletes_leave_holes_that_cost_space() {
        let mut b = loaded(4096);
        let before_mo = b.space_profile().space_amplification();
        for k in 0..2048u64 {
            assert!(b.delete(k).unwrap());
        }
        let after_mo = b.space_profile().space_amplification();
        assert!(after_mo > before_mo * 1.5, "{before_mo} -> {after_mo}");
        // Deleted rows really are invisible.
        assert_eq!(b.get(100).unwrap(), None);
        assert_eq!(b.get(3000).unwrap(), Some(3001));
        assert_eq!(b.range(0, 4095).unwrap().len(), 2048);
    }

    #[test]
    fn model_check_random_ops() {
        // Bulk-loaded, the bins split the stream's key domain 64 ways.
        let mut stream = hostile_ops(61, 3000, 2000);
        stream.initial = (0..2000u64).step_by(2).map(|k| Record::new(k, k)).collect();
        check(&mut BitmapIndex::new(), &stream).unwrap();
        // A sparse tail out to 248 000 makes the bins 3875 keys wide, so
        // the stream's churn falls in bins 0 and 1, each passing the merge
        // threshold while ranges span bin boundaries and the tail.
        let mut stream = hostile_ops(61, 12_000, 8000);
        stream.initial = (1..32u64).map(|k| Record::new(k * 8000, k)).collect();
        let mut b = BitmapIndex::new();
        check(&mut b, &stream).unwrap();
        let merged: Vec<u64> = b.bitmaps.iter().map(|m| m.merges()).collect();
        assert!(
            merged[..2].iter().all(|&m| m > 0),
            "merges per bin: {merged:?}"
        );
    }
}
