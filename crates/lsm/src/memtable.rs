//! The in-memory write buffer (level 0 of the merge hierarchy).
//!
//! Inserts are absorbed here at byte granularity — this is where the LSM's
//! low write amplification comes from: a record costs 16 bytes now and its
//! share of page-granular merge traffic later. A range reads the map in
//! place: [`Memtable::range`] is a walk the tree lays straight over the
//! runs' answer ([`overlay`](crate::run::overlay)), not a `Vec`.

use rum_core::{CostTracker, Key, Record, Value};
use std::collections::BTreeMap;

/// Estimated in-memory bytes per entry (record + tree-node overhead).
pub const ENTRY_OVERHEAD_BYTES: u64 = 48;

/// A sorted write buffer; tombstones are records with the
/// [`TOMBSTONE`](crate::TOMBSTONE) value.
#[derive(Debug, Default)]
pub struct Memtable {
    entries: BTreeMap<Key, Value>,
}

impl Memtable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// In-memory footprint.
    pub fn size_bytes(&self) -> u64 {
        self.entries.len() as u64 * ENTRY_OVERHEAD_BYTES
    }

    /// Upsert (tombstones included); charges one record of base write.
    pub fn put(&mut self, key: Key, value: Value, tracker: &CostTracker) {
        tracker.write_records(1);
        self.entries.insert(key, value);
    }

    /// Probe; charges one record of base read on a hit.
    pub fn get(&self, key: Key, tracker: &CostTracker) -> Option<Value> {
        let r = self.entries.get(&key).copied();
        if r.is_some() {
            tracker.read_records(1);
        }
        r
    }

    /// Entries in `[lo, hi]` (`lo <= hi`), ascending, as a walk over the
    /// map; charges the records it yields up front.
    pub fn range(
        &self,
        lo: Key,
        hi: Key,
        tracker: &CostTracker,
    ) -> impl DoubleEndedIterator<Item = Record> + Clone + '_ {
        let slice = self.entries.range(lo..=hi);
        tracker.read_records(slice.clone().count());
        slice.map(|(&k, &v)| Record::new(k, v))
    }

    /// Drain all entries in key order (for a flush).
    pub fn drain_sorted(&mut self) -> Vec<Record> {
        let out = self
            .entries
            .iter()
            .map(|(&k, &v)| Record::new(k, v))
            .collect();
        self.entries.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_overwrite() {
        let t = CostTracker::new();
        let mut m = Memtable::new();
        m.put(1, 10, &t);
        m.put(1, 11, &t);
        assert_eq!(m.get(1, &t), Some(11));
        assert_eq!(m.get(2, &t), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn drain_is_sorted_and_empties() {
        let t = CostTracker::new();
        let mut m = Memtable::new();
        for k in [5u64, 1, 3] {
            m.put(k, k, &t);
        }
        let drained = m.drain_sorted();
        let keys: Vec<u64> = drained.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![1, 3, 5]);
        assert!(m.is_empty());
    }

    #[test]
    fn range_inclusive() {
        let t = CostTracker::new();
        let mut m = Memtable::new();
        for k in 0..10u64 {
            m.put(k, k, &t);
        }
        let before = t.snapshot();
        let keys: Vec<Key> = m.range(3, 6, &t).map(|r| r.key).collect();
        assert_eq!(keys, vec![3, 4, 5, 6]);
        assert_eq!(t.since(&before).base_read_bytes, rum_core::base_bytes(4));
    }

    #[test]
    fn writes_charge_byte_granular() {
        let t = CostTracker::new();
        let mut m = Memtable::new();
        for k in 0..100u64 {
            m.put(k, k, &t);
        }
        assert_eq!(t.snapshot().base_write_bytes, 1600);
    }
}
