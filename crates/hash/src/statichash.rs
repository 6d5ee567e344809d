//! Open-addressing hash table over packed pages — Table 1's "Perfect Hash
//! Index" idealization: with a healthy load factor, a point query touches
//! one page in expectation.

use std::sync::Arc;

use rum_core::{
    encode_records, AccessMethod, CostTracker, DataClass, Key, Record, RecordSlice, Result,
    RumError, SpaceProfile, Value, RECORDS_PER_PAGE, RECORD_SIZE,
};
use rum_storage::{MemDevice, PageBuf, PageId, Pager};

use crate::hash64;

/// Slot marker: never used by a live record.
const EMPTY: Key = Key::MAX;
/// Slot marker: a deleted slot that probes must walk through.
const GRAVE: Key = Key::MAX - 1;

/// Default target load factor for sizing.
const DEFAULT_LOAD: f64 = 0.5;
/// Grow when the occupancy (live + graves) exceeds this.
const GROW_AT: f64 = 0.85;

/// A linear-probing hash table of 16-byte slots packed 256 to a page.
pub struct StaticHash {
    pager: Pager<MemDevice>,
    pages: Vec<PageId>,
    /// Total slots (pages × 256); always a power of two.
    slots: usize,
    live: usize,
    /// Live + tombstones: what drives probe lengths and growth.
    occupied: usize,
    target_load: f64,
}

impl StaticHash {
    /// An empty table sized for ~64 records at the default load factor.
    pub fn new() -> Self {
        Self::with_capacity(64, DEFAULT_LOAD)
    }

    /// A table pre-sized for `expected` records at `load` occupancy.
    pub fn with_capacity(expected: usize, load: f64) -> Self {
        assert!((0.0..1.0).contains(&load) && load > 0.0, "bad load factor");
        let mut pager = Pager::new(MemDevice::new(), CostTracker::new());
        let slots = Self::slots_for(expected, load);
        let pages = Self::fresh_pages(&mut pager, slots).expect("initial allocation");
        pager.tracker().reset();
        StaticHash {
            pager,
            pages,
            slots,
            live: 0,
            occupied: 0,
            target_load: load,
        }
    }

    fn slots_for(expected: usize, load: f64) -> usize {
        let want = ((expected.max(1) as f64 / load).ceil() as usize).max(RECORDS_PER_PAGE);
        want.next_power_of_two()
    }

    fn fresh_pages(pager: &mut Pager<MemDevice>, slots: usize) -> Result<Vec<PageId>> {
        let n_pages = slots / RECORDS_PER_PAGE;
        let mut pages = Vec::with_capacity(n_pages);
        let empty = Self::empty_page();
        for _ in 0..n_pages {
            let id = pager.allocate()?;
            pager.write(id, DataClass::Base, &empty)?;
            pages.push(id);
        }
        Ok(pages)
    }

    fn empty_page() -> PageBuf {
        let mut p = PageBuf::zeroed();
        encode_records(&mut p, 0, &[Record::new(EMPTY, 0); RECORDS_PER_PAGE]);
        p
    }

    /// Current total slot count.
    pub fn capacity(&self) -> usize {
        self.slots
    }

    #[inline]
    fn home_slot(&self, key: Key) -> usize {
        (hash64(key) >> (64 - self.slots.trailing_zeros() as u64)) as usize
    }

    /// Probe for `key`. Returns `(slot, Some(record))` on a hit, or
    /// `(first_insertable_slot, None)` when the chain ends at EMPTY.
    /// The chain is followed inside each lent page; every time it enters
    /// a page (the home page, the next one, page 0 after the last) that
    /// is one charged read.
    fn probe(&mut self, key: Key) -> Result<(usize, Option<Record>)> {
        debug_assert!(key < GRAVE, "keys u64::MAX-1 and u64::MAX are reserved");
        let mut slot = self.home_slot(key);
        let mut first_free: Option<usize> = None;
        let (mut left, mask) = (self.slots, self.slots - 1);
        while left > 0 {
            let page_idx = slot / RECORDS_PER_PAGE;
            let end = self
                .pager
                .with_page(self.pages[page_idx], DataClass::Base, |bytes| {
                    let recs = RecordSlice::new(bytes);
                    while left > 0 && slot / RECORDS_PER_PAGE == page_idx {
                        let rec = recs
                            .get(slot % RECORDS_PER_PAGE)
                            .expect("a device page holds RECORDS_PER_PAGE slots");
                        match rec.key {
                            k if k == key => return Some((slot, Some(rec))),
                            EMPTY => return Some((first_free.unwrap_or(slot), None)),
                            GRAVE if first_free.is_none() => first_free = Some(slot),
                            _ => {}
                        }
                        slot = (slot + 1) & mask;
                        left -= 1;
                    }
                    None
                })?;
            if let Some(end) = end {
                return Ok(end);
            }
        }
        Err(RumError::Corrupt("probe wrapped the whole table".into()))
    }

    /// The slot and record of a live `key`. The two marker keys are never
    /// stored, so they are absent without a probe: an `EMPTY` or `GRAVE`
    /// slot must not read as a hit.
    fn find(&mut self, key: Key) -> Result<Option<(usize, Record)>> {
        if key >= GRAVE {
            return Ok(None);
        }
        let (slot, found) = self.probe(key)?;
        Ok(found.map(|rec| (slot, rec)))
    }

    /// Overwrite one slot where its page lies (one read-modify-write).
    fn write_slot(&mut self, slot: usize, rec: Record) -> Result<()> {
        let id = self.pages[slot / RECORDS_PER_PAGE];
        let at = (slot % RECORDS_PER_PAGE) * RECORD_SIZE;
        self.pager.with_page_mut(id, DataClass::Base, |bytes| {
            rec.encode_into(&mut bytes[at..at + RECORD_SIZE]);
            ((), true)
        })
    }

    /// Double the table and rehash everything (also clears tombstones).
    fn grow(&mut self) -> Result<()> {
        let old_pages = std::mem::take(&mut self.pages);
        let mut records = Vec::with_capacity(self.live);
        for id in &old_pages {
            self.pager.with_page(*id, DataClass::Base, |bytes| {
                records.extend(RecordSlice::new(bytes).iter().filter(|r| r.key < GRAVE))
            })?;
        }
        for id in old_pages {
            self.pager.free(id)?;
        }
        self.slots *= 2;
        self.pages = Self::fresh_pages(&mut self.pager, self.slots)?;
        self.occupied = 0;
        self.live = 0;
        // Re-insert without the growth check (the new table fits them all).
        for r in records {
            let (slot, existing) = self.probe(r.key)?;
            debug_assert!(existing.is_none());
            self.write_slot(slot, r)?;
            self.live += 1;
            self.occupied += 1;
        }
        Ok(())
    }

    fn maybe_grow(&mut self) -> Result<()> {
        if (self.occupied + 1) as f64 / self.slots as f64 > GROW_AT {
            self.grow()?;
        }
        Ok(())
    }
}

impl Default for StaticHash {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessMethod for StaticHash {
    fn name(&self) -> String {
        "hash-index".into()
    }

    fn len(&self) -> usize {
        self.live
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        self.pager.tracker()
    }

    fn space_profile(&self) -> SpaceProfile {
        SpaceProfile::from_physical(self.live, self.pager.physical_bytes())
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        Ok(self.find(key)?.map(|(_, r)| r.value))
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        // Hashing destroys order: a range query is a full scan (Table 1's
        // O(N/B) row for the hash index).
        let mut out = Vec::new();
        for idx in 0..self.pages.len() {
            self.pager
                .with_page(self.pages[idx], DataClass::Base, |bytes| {
                    let recs = RecordSlice::new(bytes).iter();
                    out.extend(recs.filter(|r| r.key < GRAVE && r.key >= lo && r.key <= hi))
                })?;
        }
        out.sort_unstable();
        Ok(out)
    }

    /// `EMPTY` and `GRAVE` mark slots, so no key may be either.
    fn check_records(&self, records: &[Record]) -> Result<()> {
        if records.iter().any(|r| r.key >= GRAVE) {
            return Err(RumError::InvalidArgument(
                "keys u64::MAX-1 and u64::MAX are reserved slot markers".into(),
            ));
        }
        Ok(())
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        self.maybe_grow()?;
        let (slot, existing) = self.probe(key)?;
        self.write_slot(slot, Record::new(key, value))?;
        if existing.is_none() {
            self.live += 1;
            self.occupied += 1;
        }
        Ok(())
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        match self.find(key)? {
            Some((slot, _)) => {
                self.write_slot(slot, Record::new(key, value))?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        match self.find(key)? {
            Some((slot, _)) => {
                self.write_slot(slot, Record::new(GRAVE, 0))?;
                self.live -= 1;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        for id in std::mem::take(&mut self.pages) {
            self.pager.free(id)?;
        }
        self.slots = Self::slots_for(records.len(), self.target_load);
        self.pages = Self::fresh_pages(&mut self.pager, self.slots)?;
        self.live = 0;
        self.occupied = 0;
        for r in records {
            let (slot, existing) = self.probe(r.key)?;
            debug_assert!(existing.is_none(), "bulk input keys are unique");
            self.write_slot(slot, *r)?;
            self.live += 1;
            self.occupied += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::oracle::{check, hostile_ops};

    fn loaded(n: u64) -> StaticHash {
        let recs: Vec<Record> = (0..n).map(|k| Record::new(k, k * 3)).collect();
        let mut h = StaticHash::with_capacity(n as usize, DEFAULT_LOAD);
        h.bulk_load(&recs).unwrap();
        h
    }

    #[test]
    fn crud_roundtrip() {
        let mut h = StaticHash::new();
        h.insert(1, 10).unwrap();
        h.insert(2, 20).unwrap();
        assert_eq!(h.get(1).unwrap(), Some(10));
        assert_eq!(h.get(3).unwrap(), None);
        assert!(h.update(2, 22).unwrap());
        assert!(!h.update(3, 0).unwrap());
        assert!(h.delete(1).unwrap());
        assert!(!h.delete(1).unwrap());
        assert_eq!(h.get(1).unwrap(), None);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn insert_is_upsert() {
        let mut h = StaticHash::new();
        h.insert(5, 1).unwrap();
        h.insert(5, 2).unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h.get(5).unwrap(), Some(2));
    }

    #[test]
    fn point_query_is_constant_cost() {
        // O(1): the probe cost must not grow with N.
        let cost = |n: u64| {
            let mut h = loaded(n);
            let before = h.tracker().snapshot();
            for k in (0..n).step_by((n / 64) as usize) {
                h.get(k).unwrap();
            }
            h.tracker().since(&before).page_reads as f64 / 64.0
        };
        let small = cost(1 << 10);
        let large = cost(1 << 16);
        assert!(small <= 1.6, "expected ~1 page per probe, got {small}");
        assert!(large <= 1.6, "expected ~1 page per probe, got {large}");
    }

    #[test]
    fn range_is_a_full_scan() {
        let mut h = loaded(10_000);
        let before = h.tracker().snapshot();
        let rs = h.range(100, 110).unwrap();
        assert_eq!(rs.len(), 11);
        let keys: Vec<u64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(keys, (100..=110).collect::<Vec<_>>());
        let reads = h.tracker().since(&before).page_reads as usize;
        assert_eq!(reads, h.capacity() / RECORDS_PER_PAGE, "every page read");
    }

    #[test]
    fn grows_transparently() {
        let mut h = StaticHash::with_capacity(16, 0.5);
        let initial_cap = h.capacity();
        for k in 0..10_000u64 {
            h.insert(k, k).unwrap();
        }
        assert!(h.capacity() > initial_cap);
        assert_eq!(h.len(), 10_000);
        for k in (0..10_000u64).step_by(397) {
            assert_eq!(h.get(k).unwrap(), Some(k));
        }
    }

    #[test]
    fn tombstones_keep_probe_chains_intact() {
        // Force collisions into a tiny table, then delete a middle link.
        let mut h = StaticHash::with_capacity(16, 0.5);
        for k in 0..100u64 {
            h.insert(k, k).unwrap();
        }
        for k in (0..100u64).step_by(2) {
            assert!(h.delete(k).unwrap());
        }
        for k in (1..100u64).step_by(2) {
            assert_eq!(h.get(k).unwrap(), Some(k), "odd key {k} must survive");
        }
        assert_eq!(h.len(), 50);
    }

    #[test]
    fn tombstone_slots_are_reused() {
        let mut h = StaticHash::with_capacity(64, 0.5);
        for k in 0..30u64 {
            h.insert(k, k).unwrap();
        }
        for k in 0..30u64 {
            h.delete(k).unwrap();
        }
        for k in 0..30u64 {
            h.insert(k, k + 1).unwrap();
        }
        assert_eq!(h.len(), 30);
        assert_eq!(h.get(7).unwrap(), Some(8));
    }

    #[test]
    fn reserved_keys_rejected() {
        let mut h = StaticHash::new();
        assert!(h.insert(u64::MAX, 0).is_err());
        assert!(h.insert(u64::MAX - 1, 0).is_err());
    }

    #[test]
    fn space_reflects_load_factor() {
        let h = loaded(1 << 14);
        let mo = h.space_profile().space_amplification();
        // At a 0.5 target load, MO ≈ 2.
        assert!((1.8..=4.1).contains(&mo), "mo = {mo}");
    }

    #[test]
    fn model_check_random_ops() {
        let mut h = StaticHash::with_capacity(16, 0.5);
        check(&mut h, &hostile_ops(31, 5000, 1000)).unwrap();
    }

    #[test]
    fn reserved_keys_are_absent_and_never_probed() {
        // Ten records leave most of the table EMPTY, and the delete a GRAVE.
        let mut h = loaded(10);
        assert!(h.delete(4).unwrap());
        let before = h.tracker().snapshot();
        for key in [EMPTY, GRAVE] {
            assert_eq!(h.get(key).unwrap(), None, "get {key}");
            assert!(!h.delete(key).unwrap(), "delete {key}");
            // A write carrying a marker key is refused before any hook.
            assert!(h.update(key, 9).is_err(), "update {key}");
            assert!(h.insert(key, 9).is_err(), "insert {key}");
        }
        assert_eq!(h.len(), 9);
        assert_eq!(h.tracker().snapshot(), before, "no probe, nothing charged");
        assert_eq!(h.range(0, Key::MAX).unwrap().len(), 9);
    }

    #[test]
    fn probe_chains_cross_pages_and_wrap_at_pinned_cost() {
        // Two pages: a chain that starts in the last two slots of page 1
        // runs on into page 0.
        let mut h = StaticHash::with_capacity(256, DEFAULT_LOAD);
        assert_eq!(h.capacity(), 2 * RECORDS_PER_PAGE);
        let keys: Vec<Key> = (0..u64::MAX)
            .filter(|&k| h.home_slot(k) >= h.capacity() - 2)
            .take(7)
            .collect();
        let t = Arc::clone(h.tracker());
        let start = t.snapshot();
        for &k in &keys[..6] {
            h.insert(k, k + 1).unwrap();
        }
        let mut reads = Vec::new();
        let mut probe = |h: &mut StaticHash, key: Key, want: Option<Value>| {
            let before = t.snapshot();
            assert_eq!(h.get(key).unwrap(), want);
            reads.push(t.since(&before).page_reads);
        };
        probe(&mut h, keys[0], Some(keys[0] + 1)); // at home, page 1
        probe(&mut h, keys[5], Some(keys[5] + 1)); // wrapped into page 0
        probe(&mut h, keys[6], None); // the whole chain, then EMPTY
        assert!(h.delete(keys[3]).unwrap()); // a grave in page 0
        probe(&mut h, keys[5], Some(keys[5] + 1)); // walks through it
        h.insert(keys[6], 1).unwrap(); // and reuses it
        probe(&mut h, keys[6], Some(1));
        assert_eq!(reads, [1, 2, 2, 2, 2]);
        assert_eq!(h.range(0, u64::MAX - 2).unwrap().len(), 6);
        // Number for number what the copying implementation charged.
        assert_eq!(
            t.since(&start),
            rum_core::CostSnapshot {
                base_read_bytes: 135168,
                aux_read_bytes: 0,
                base_write_bytes: 32768,
                aux_write_bytes: 0,
                logical_read_bytes: 160,
                logical_write_bytes: 128,
                page_reads: 33,
                page_writes: 8,
                sim_time_ns: 22400
            }
        );

        // One page: the same chain wraps inside the page it started in.
        let mut h = StaticHash::with_capacity(64, DEFAULT_LOAD);
        assert_eq!(h.capacity(), RECORDS_PER_PAGE);
        let keys: Vec<Key> = (0..u64::MAX)
            .filter(|&k| h.home_slot(k) >= h.capacity() - 2)
            .take(5)
            .collect();
        for &k in &keys {
            h.insert(k, k).unwrap();
        }
        let before = h.tracker().snapshot();
        assert_eq!(h.get(keys[4]).unwrap(), Some(keys[4]));
        assert_eq!(h.tracker().since(&before).page_reads, 1);
        // Number for number what the copying implementation charged.
        assert_eq!(
            h.tracker().snapshot(),
            rum_core::CostSnapshot {
                base_read_bytes: 45056,
                aux_read_bytes: 0,
                base_write_bytes: 20480,
                aux_write_bytes: 0,
                logical_read_bytes: 16,
                logical_write_bytes: 80,
                page_reads: 11,
                page_writes: 5,
                sim_time_ns: 6400
            }
        );
    }
}
