//! The direct-address array — Proposition 1 of the paper.
//!
//! "In order to minimize RO we organize data in an array and we store each
//! value in the block with blkid = value. ... RO is now minimal because we
//! always know where to find a specific value (if it exists), and we only
//! read useful data. On the other hand, the array is sparsely populated,
//! with unbounded MO ... When we change a value we need to update two
//! blocks: empty the old block and insert the new value in its new block,
//! effectively increasing the worst case UO to two physical updates for one
//! logical update."
//!
//! We address slots by *key* (our records are key/value pairs rather than
//! bare values); [`relocate`](DirectAddressArray::relocate) is the paper's
//! "change a value" operation that moves a record between slots and incurs
//! the UO = 2.0 bound. Accounting is byte-granular: the whole point of this
//! structure is that a lookup touches exactly one record-sized cell.

use std::sync::Arc;

use rum_core::{
    base_bytes, AccessMethod, CostTracker, Key, Record, Result, RumError, SpaceProfile, Value,
};

/// One slot per key in `[0, universe)`; the universe grows to cover the
/// largest key ever inserted — that growth *is* the unbounded MO.
pub struct DirectAddressArray {
    slots: Vec<Option<Value>>,
    live: usize,
    tracker: Arc<CostTracker>,
    /// Hard cap on universe growth, to keep experiments from exhausting
    /// host memory: a write of a key at or past it is refused before it
    /// runs, and a relocation there returns `CapacityExceeded`.
    max_universe: usize,
}

impl DirectAddressArray {
    pub fn new() -> Self {
        Self::with_max_universe(1 << 28)
    }

    /// Array that refuses to grow beyond `max_universe` slots.
    pub fn with_max_universe(max_universe: usize) -> Self {
        DirectAddressArray {
            slots: Vec::new(),
            live: 0,
            tracker: CostTracker::new(),
            max_universe,
        }
    }

    /// Slots currently allocated (the universe size).
    pub fn universe(&self) -> usize {
        self.slots.len()
    }

    fn ensure(&mut self, key: Key) -> Result<()> {
        // Saturating: `u64::MAX` is refused like any key past the cap.
        let needed = key.saturating_add(1);
        if needed > self.max_universe as u64 {
            return Err(RumError::CapacityExceeded(format!(
                "key {key} exceeds max universe {}",
                self.max_universe
            )));
        }
        if needed as usize > self.slots.len() {
            self.slots.resize(needed as usize, None);
        }
        Ok(())
    }

    /// The paper's "change a value": move the record at `old_key` to
    /// `new_key`. Two physical cell writes (clear + set) for one logical
    /// update — UO = 2.0, the Proposition 1 bound. A move onto a live slot
    /// or past the universe is refused and charged nothing: whether a slot
    /// is free is known from its address, as a missed `get` is.
    pub fn relocate(&mut self, old_key: Key, new_key: Key) -> Result<bool> {
        if old_key == new_key {
            return Ok(true);
        }
        let Some(value) = self.slots.get(old_key as usize).copied().flatten() else {
            self.tracker.read_records(1);
            return Ok(false);
        };
        self.ensure(new_key)?;
        if self.slots[new_key as usize].is_some() {
            return Err(RumError::DuplicateKey(new_key));
        }
        self.tracker.read_records(1);
        // Empty the old block...
        self.slots[old_key as usize] = None;
        self.tracker.write_records(1);
        // ...and insert the value in its new block.
        self.slots[new_key as usize] = Some(value);
        self.tracker.write_records(1);
        self.tracker.logical_write(base_bytes(1));
        Ok(true)
    }
}

impl Default for DirectAddressArray {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessMethod for DirectAddressArray {
    fn name(&self) -> String {
        "direct-address-array".into()
    }

    fn len(&self) -> usize {
        self.live
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        &self.tracker
    }

    fn space_profile(&self) -> SpaceProfile {
        // Every slot occupies a record-sized cell whether live or not.
        SpaceProfile::from_physical(self.live, base_bytes(self.slots.len()))
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        // Exactly one cell read — min(RO) = 1.0.
        let v = self.slots.get(key as usize).copied().flatten();
        if v.is_some() {
            self.tracker.read_records(1);
        }
        // A miss in a direct-address array reads nothing: slot emptiness is
        // knowable from the address alone in the paper's model.
        Ok(v)
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        let hi_clamped = (hi as usize).min(self.slots.len().saturating_sub(1));
        let mut out = Vec::new();
        if self.slots.is_empty() || lo as usize > hi_clamped {
            return Ok(out);
        }
        // Touch every slot in the range — sparse population is the cost.
        self.tracker.read_records(hi_clamped - lo as usize + 1);
        for k in lo as usize..=hi_clamped {
            if let Some(v) = self.slots[k] {
                out.push(Record::new(k as Key, v));
            }
        }
        Ok(out)
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        self.ensure(key)?;
        if self.slots[key as usize].is_none() {
            self.live += 1;
        }
        self.slots[key as usize] = Some(value);
        self.tracker.write_records(1);
        Ok(())
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        match self.slots.get_mut(key as usize) {
            Some(slot @ Some(_)) => {
                *slot = Some(value);
                self.tracker.write_records(1);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        match self.slots.get_mut(key as usize) {
            Some(slot @ Some(_)) => {
                *slot = None;
                self.live -= 1;
                self.tracker.write_records(1);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Keys at or past the universe cap are refused before any write runs.
    fn check_records(&self, records: &[Record]) -> Result<()> {
        match records.iter().find(|r| r.key >= self.max_universe as u64) {
            Some(r) => Err(RumError::InvalidArgument(format!(
                "key {} exceeds max universe {}",
                r.key, self.max_universe
            ))),
            None => Ok(()),
        }
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.slots.clear();
        self.live = 0;
        if let Some(last) = records.last() {
            self.ensure(last.key)?;
        }
        for r in records {
            self.slots[r.key as usize] = Some(r.value);
            self.tracker.write_records(1);
        }
        self.live = records.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposition_1_read_amplification_is_one() {
        let mut a = DirectAddressArray::new();
        a.insert(17, 1).unwrap();
        a.tracker().reset();
        assert_eq!(a.get(17).unwrap(), Some(1));
        let s = a.tracker().snapshot();
        assert_eq!(s.read_amplification(), 1.0, "min(RO) = 1.0");
    }

    #[test]
    fn proposition_1_relocation_write_amplification_is_two() {
        let mut a = DirectAddressArray::new();
        a.insert(1, 42).unwrap();
        a.tracker().reset();
        assert!(a.relocate(1, 17).unwrap());
        let s = a.tracker().snapshot();
        assert_eq!(s.write_amplification(), 2.0, "UO = 2.0 for a key change");
        assert_eq!(a.get(17).unwrap(), Some(42));
        assert_eq!(a.get(1).unwrap(), None);
    }

    #[test]
    fn proposition_1_mo_tracks_the_universe() {
        // The paper's example: the relation {1, 17} occupies 17 blocks.
        let mut a = DirectAddressArray::new();
        a.insert(1, 0).unwrap();
        a.insert(17, 0).unwrap();
        assert_eq!(a.universe(), 18);
        let mo = a.space_profile().space_amplification();
        assert_eq!(mo, 18.0 / 2.0, "MO = universe / live = 9");
    }

    #[test]
    fn mo_is_unbounded_in_the_max_key() {
        let mut a = DirectAddressArray::new();
        a.insert(1, 0).unwrap();
        let mo1 = a.space_profile().space_amplification();
        a.insert(100_000, 0).unwrap();
        let mo2 = a.space_profile().space_amplification();
        assert!(mo2 > 1000.0 * mo1 / 100.0, "{mo1} -> {mo2}");
    }

    #[test]
    fn capacity_cap_is_enforced() {
        let mut a = DirectAddressArray::with_max_universe(100);
        assert!(a.insert(99, 0).is_ok());
        assert!(matches!(
            a.insert(100, 0),
            Err(RumError::InvalidArgument(_))
        ));
        assert!(matches!(
            a.relocate(99, 100),
            Err(RumError::CapacityExceeded(_))
        ));
    }

    #[test]
    fn the_largest_key_is_refused_and_charges_nothing() {
        let mut a = DirectAddressArray::new();
        a.insert(1, 0).unwrap();
        let before = a.tracker().snapshot();
        assert!(matches!(
            a.insert(u64::MAX, 0),
            Err(RumError::InvalidArgument(_))
        ));
        assert_eq!(a.tracker().snapshot(), before);
        assert_eq!((a.len(), a.universe()), (1, 2));
    }

    #[test]
    fn a_refused_load_keeps_contents_and_account() {
        let mut a = DirectAddressArray::with_max_universe(1000);
        a.insert(1, 10).unwrap();
        a.insert(2, 20).unwrap();
        let before = a.tracker().snapshot();
        let load = [Record::new(5, 5), Record::new(5000, 5)];
        assert!(matches!(
            a.bulk_load(&load),
            Err(RumError::InvalidArgument(_))
        ));
        assert_eq!(a.tracker().snapshot(), before);
        assert_eq!(a.len(), 2);
        assert_eq!(
            a.range(0, Key::MAX).unwrap(),
            [Record::new(1, 10), Record::new(2, 20)]
        );
    }

    #[test]
    fn relocate_to_occupied_slot_errors() {
        let mut a = DirectAddressArray::new();
        a.insert(1, 10).unwrap();
        a.insert(2, 20).unwrap();
        assert!(matches!(a.relocate(1, 2), Err(RumError::DuplicateKey(2))));
    }

    #[test]
    fn refused_relocates_charge_nothing() {
        let mut a = DirectAddressArray::with_max_universe(100);
        a.insert(1, 10).unwrap();
        a.insert(2, 20).unwrap();
        let before = a.tracker().snapshot();
        assert!(matches!(a.relocate(1, 2), Err(RumError::DuplicateKey(2))));
        assert!(matches!(
            a.relocate(1, 100),
            Err(RumError::CapacityExceeded(_))
        ));
        assert_eq!(a.tracker().snapshot(), before);
        assert_eq!((a.get(1).unwrap(), a.universe()), (Some(10), 3));
    }

    #[test]
    fn model_check_random_ops() {
        use rum_core::oracle::{check, hostile_ops};
        check(&mut DirectAddressArray::new(), &hostile_ops(61, 3000, 2000)).unwrap();
    }

    #[test]
    fn relocate_missing_is_false() {
        let mut a = DirectAddressArray::new();
        a.insert(5, 0).unwrap();
        assert!(!a.relocate(3, 4).unwrap());
    }

    #[test]
    fn crud_and_range() {
        let mut a = DirectAddressArray::new();
        for k in [3u64, 7, 11] {
            a.insert(k, k * 100).unwrap();
        }
        assert!(a.update(7, 777).unwrap());
        assert!(!a.update(8, 0).unwrap());
        assert!(a.delete(3).unwrap());
        assert!(!a.delete(3).unwrap());
        let rs = a.range(0, 20).unwrap();
        assert_eq!(rs, vec![Record::new(7, 777), Record::new(11, 1100)]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn bulk_load_populates_slots() {
        let recs: Vec<Record> = [2u64, 5, 9].iter().map(|&k| Record::new(k, k)).collect();
        let mut a = DirectAddressArray::new();
        a.bulk_load(&recs).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.universe(), 10);
        assert_eq!(a.get(5).unwrap(), Some(5));
    }
}
