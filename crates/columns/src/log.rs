//! The append-only log — Proposition 2 of the paper.
//!
//! "In order to minimize UO, we append every update, effectively forming an
//! ever increasing log. That way we achieve the minimum UO, which is equal
//! to 1.0, at the cost of continuously increasing RO and MO. ... for
//! minimum UO, both RO and MO perpetually increase as updates are
//! appended."
//!
//! Appends land in an in-memory tail buffer that is sealed to a page once
//! full, so the physical write per record is exactly one record's worth of
//! bytes amortized — UO → 1.0. Lookups scan the log newest-to-oldest;
//! deletes append a tombstone. Nothing is ever reclaimed: that is the
//! point.

use std::sync::Arc;

use rum_core::{
    encode_records, AccessMethod, CostTracker, DataClass, Key, KeySet, Record, RecordSlice, Result,
    SpaceProfile, Value, RECORDS_PER_PAGE, RECORD_SIZE,
};
use rum_storage::{MemDevice, PageBuf, PageId, Pager};

/// Value sentinel marking a tombstone entry. User values must avoid it.
pub use rum_core::TOMBSTONE;

/// An ever-growing log of record versions.
pub struct AppendLog {
    /// Sealed pages, oldest first, with their record counts.
    sealed: Vec<(PageId, usize)>,
    /// In-memory tail buffer (the page being filled).
    tail: Vec<Record>,
    /// Liveness oracle: which keys currently resolve to a value. This is
    /// bookkeeping for `len()` and return values, *not* part of the
    /// structure — it is neither charged as traffic nor counted as space
    /// (the log itself has no index; that is its defining property).
    live: KeySet,
    pager: Pager<MemDevice>,
}

impl AppendLog {
    pub fn new() -> Self {
        AppendLog {
            sealed: Vec::new(),
            tail: Vec::new(),
            live: KeySet::default(),
            pager: Pager::new(MemDevice::new(), CostTracker::new()),
        }
    }

    /// Total versions ever appended (live + dead).
    pub fn total_entries(&self) -> usize {
        self.sealed.iter().map(|&(_, c)| c).sum::<usize>() + self.tail.len()
    }

    fn append(&mut self, rec: Record) -> Result<()> {
        // Appending into the tail buffer costs exactly the record's bytes.
        self.tracker().write_records(1);
        self.tail.push(rec);
        if self.tail.len() == RECORDS_PER_PAGE {
            self.seal()?;
        }
        Ok(())
    }

    /// Write the tail buffer out as a sealed page. The page write is the
    /// physical materialization of bytes already charged at append time,
    /// so it charges the page access but not double byte traffic.
    fn seal(&mut self) -> Result<()> {
        if self.tail.is_empty() {
            return Ok(());
        }
        let id = self.pager.allocate()?;
        let mut buf = PageBuf::zeroed();
        encode_records(&mut buf, 0, &self.tail);
        self.pager.write_precharged(id, &buf)?;
        self.sealed.push((id, self.tail.len()));
        self.tail.clear();
        Ok(())
    }

    /// Lend sealed page `idx`'s records, oldest first, to `f`.
    fn with_sealed<R>(&mut self, idx: usize, f: impl FnOnce(RecordSlice<'_>) -> R) -> Result<R> {
        let (id, count) = self.sealed[idx];
        self.pager.with_page(id, DataClass::Base, |bytes| {
            f(RecordSlice::new(&bytes[..count * RECORD_SIZE]))
        })
    }

    /// Newest-to-oldest search for the latest version of `key`.
    fn find_latest(&mut self, key: Key) -> Result<Option<Record>> {
        // Tail first (newest), scanned backward; charge the bytes examined.
        if let Some(pos) = self.tail.iter().rposition(|r| r.key == key) {
            self.tracker().read_records(self.tail.len() - pos);
            return Ok(Some(self.tail[pos]));
        }
        self.tracker().read_records(self.tail.len());
        for idx in (0..self.sealed.len()).rev() {
            let hit = self.with_sealed(idx, |recs| recs.iter().rev().find(|r| r.key == key))?;
            if hit.is_some() {
                return Ok(hit);
            }
        }
        Ok(None)
    }
}

impl Default for AppendLog {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessMethod for AppendLog {
    fn name(&self) -> String {
        "append-log".into()
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        self.pager.tracker()
    }

    fn space_profile(&self) -> SpaceProfile {
        let physical = self.pager.physical_bytes() + (self.tail.len() * RECORD_SIZE) as u64;
        SpaceProfile::from_physical(self.live.len(), physical)
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        match self.find_latest(key)? {
            Some(r) if r.value != TOMBSTONE => Ok(Some(r.value)),
            _ => Ok(None),
        }
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        // Full log scan (every sealed page lent, the whole tail read),
        // keeping the versions in range, oldest first.
        let in_range = |r: &Record| r.key >= lo && r.key <= hi;
        let mut versions: Vec<Record> = Vec::new();
        for idx in 0..self.sealed.len() {
            self.with_sealed(idx, |recs| versions.extend(recs.iter().filter(in_range)))?;
        }
        self.tracker().read_records(self.tail.len());
        versions.extend(self.tail.iter().copied().filter(in_range));
        // Stable: each key's versions stay oldest first, and the newest
        // overwrites the one kept.
        versions.sort_by_key(|r| r.key);
        versions.dedup_by(|newer, kept| {
            let same = newer.key == kept.key;
            if same {
                *kept = *newer;
            }
            same
        });
        versions.retain(|r| r.value != TOMBSTONE);
        Ok(versions)
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        self.append(Record::new(key, value))?;
        self.live.insert(key);
        Ok(())
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        if !self.live.contains(key) {
            return Ok(false);
        }
        self.append(Record::new(key, value))?;
        Ok(true)
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        if !self.live.contains(key) {
            return Ok(false);
        }
        self.append(Record::new(key, TOMBSTONE))?;
        self.live.remove(key);
        Ok(true)
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        for (id, _) in self.sealed.drain(..) {
            self.pager.free(id)?;
        }
        self.tail.clear();
        self.live.assign(records.iter().map(|r| r.key));
        for r in records {
            self.append(*r)?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.seal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposition_2_write_amplification_is_one() {
        let mut log = AppendLog::new();
        // Append a few pages' worth so page sealing is amortized.
        for k in 0..(4 * RECORDS_PER_PAGE as u64) {
            log.insert(k, k).unwrap();
        }
        let s = log.tracker().snapshot();
        assert!(
            (s.write_amplification() - 1.0).abs() < 1e-9,
            "min(UO) = 1.0, got {}",
            s.write_amplification()
        );
    }

    #[test]
    fn proposition_2_ro_grows_with_history() {
        let mut log = AppendLog::new();
        log.insert(0, 1).unwrap();
        // Pile up dead versions of *other* keys.
        for round in 0..8u64 {
            for k in 1..=(RECORDS_PER_PAGE as u64) {
                log.update_or_insert(k, round);
            }
        }
        // Reading key 0 (the oldest entry) must scan the whole history.
        log.tracker().reset();
        assert_eq!(log.get(0).unwrap(), Some(1));
        let ro1 = log.tracker().snapshot().read_amplification();
        // More history, strictly worse reads.
        for round in 8..16u64 {
            for k in 1..=(RECORDS_PER_PAGE as u64) {
                log.update_or_insert(k, round);
            }
        }
        log.tracker().reset();
        assert_eq!(log.get(0).unwrap(), Some(1));
        let ro2 = log.tracker().snapshot().read_amplification();
        assert!(ro2 > ro1, "RO must grow with the log: {ro1} -> {ro2}");
    }

    impl AppendLog {
        /// Test helper: upsert regardless of liveness.
        fn update_or_insert(&mut self, k: Key, v: Value) {
            if self.live.contains(k) {
                self.update(k, v).unwrap();
            } else {
                self.insert(k, v).unwrap();
            }
        }
    }

    #[test]
    fn proposition_2_mo_grows_with_updates() {
        let mut log = AppendLog::new();
        for k in 0..256u64 {
            log.insert(k, 0).unwrap();
        }
        let mo1 = log.space_profile().space_amplification();
        for _ in 0..4 {
            for k in 0..256u64 {
                log.update(k, 1).unwrap();
            }
        }
        let mo2 = log.space_profile().space_amplification();
        assert!(
            mo2 > 3.0 * mo1,
            "MO must grow with dead versions: {mo1} -> {mo2}"
        );
        assert_eq!(log.len(), 256, "live count unchanged");
    }

    #[test]
    fn newest_version_wins() {
        let mut log = AppendLog::new();
        log.insert(7, 1).unwrap();
        log.update(7, 2).unwrap();
        log.update(7, 3).unwrap();
        assert_eq!(log.get(7).unwrap(), Some(3));
    }

    #[test]
    fn tombstone_hides_key() {
        let mut log = AppendLog::new();
        log.insert(7, 1).unwrap();
        assert!(log.delete(7).unwrap());
        assert_eq!(log.get(7).unwrap(), None);
        assert!(!log.delete(7).unwrap());
        assert_eq!(log.len(), 0);
        // Re-insert resurrects.
        log.insert(7, 9).unwrap();
        assert_eq!(log.get(7).unwrap(), Some(9));
    }

    #[test]
    fn tombstone_sentinel_is_rejected_as_value() {
        let mut log = AppendLog::new();
        assert!(log.insert(1, TOMBSTONE).is_err());
    }

    #[test]
    fn range_sees_latest_versions_only() {
        let mut log = AppendLog::new();
        for k in 0..10u64 {
            log.insert(k, k).unwrap();
        }
        log.update(3, 33).unwrap();
        log.delete(4).unwrap();
        let rs = log.range(2, 5).unwrap();
        assert_eq!(
            rs,
            vec![Record::new(2, 2), Record::new(3, 33), Record::new(5, 5)]
        );
    }

    #[test]
    fn versions_survive_page_sealing() {
        let mut log = AppendLog::new();
        let n = 3 * RECORDS_PER_PAGE as u64 + 17;
        for k in 0..n {
            log.insert(k, k * 2).unwrap();
        }
        assert_eq!(log.total_entries(), n as usize);
        assert_eq!(log.get(0).unwrap(), Some(0));
        assert_eq!(log.get(n - 1).unwrap(), Some((n - 1) * 2));
    }

    #[test]
    fn flush_seals_partial_tail() {
        let mut log = AppendLog::new();
        for k in 0..10u64 {
            log.insert(k, k).unwrap();
        }
        log.flush().unwrap();
        assert_eq!(log.total_entries(), 10);
        assert_eq!(log.get(5).unwrap(), Some(5));
        // A second flush is a no-op.
        log.flush().unwrap();
        assert_eq!(log.total_entries(), 10);
    }

    #[test]
    fn bulk_load_resets_history() {
        let mut log = AppendLog::new();
        for k in 0..100u64 {
            log.insert(k, 0).unwrap();
            log.update(k, 1).unwrap();
        }
        let recs: Vec<Record> = (0..50u64).map(|k| Record::new(k, k)).collect();
        log.bulk_load(&recs).unwrap();
        assert_eq!(log.len(), 50);
        assert_eq!(log.total_entries(), 50, "history reset by rebuild");
        assert_eq!(log.get(10).unwrap(), Some(10));
    }

    #[test]
    fn charges_of_a_fixed_sequence_are_pinned() {
        let mut log = AppendLog::new();
        for k in 0..600u64 {
            log.insert(k, k).unwrap();
        }
        log.update(5, 55).unwrap();
        log.delete(7).unwrap();
        let t = Arc::clone(log.tracker());
        let start = t.snapshot();
        let mut reads = Vec::new();
        let mut probe = |log: &mut AppendLog, key: Key, want: Option<Value>| {
            let before = t.snapshot();
            assert_eq!(log.get(key).unwrap(), want);
            reads.push(t.since(&before).page_reads);
        };
        probe(&mut log, 5, Some(55)); // in the tail: no page
        probe(&mut log, 7, None); // tombstone in the tail
        probe(&mut log, 300, Some(300)); // newest sealed page
        probe(&mut log, 0, Some(0)); // oldest: every sealed page
        probe(&mut log, 99_999, None); // a miss reads the whole log
        assert_eq!(reads, [0, 0, 1, 2, 2]);
        let rs = log.range(4, 8).unwrap();
        assert_eq!(
            rs,
            [(4, 4), (5, 55), (6, 6), (8, 8)].map(|(k, v)| Record::new(k, v))
        );
        // Number for number what the copying implementation charged.
        assert_eq!(
            t.since(&start),
            rum_core::CostSnapshot {
                base_read_bytes: 34480,
                aux_read_bytes: 0,
                base_write_bytes: 0,
                aux_write_bytes: 0,
                logical_read_bytes: 112,
                logical_write_bytes: 0,
                page_reads: 7,
                page_writes: 0,
                sim_time_ns: 4600
            }
        );
    }
}
