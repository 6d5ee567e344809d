//! Extendible hashing: a dynamic hash index whose in-memory directory
//! doubles as buckets split, so growth never rehashes the whole table.
//!
//! Directory entries are auxiliary data (charged byte-granular on every
//! lookup and counted in MO); bucket pages hold the records (base data).

use std::sync::Arc;

use rum_core::{
    encode_records, insert_record_at, remove_record_at, AccessMethod, CostTracker, DataClass, Key,
    Record, RecordSlice, Result, RumError, SpaceProfile, Value, RECORD_SIZE,
};
use rum_storage::{MemDevice, PageBuf, PageId, Pager};

use crate::hash64;

/// Per-bucket header: local depth (u16) + count (u16) + padding.
const HEADER: usize = 8;
/// Records per bucket page.
const BUCKET_CAP: usize = (rum_core::PAGE_SIZE - HEADER) / RECORD_SIZE;

/// Maximum global depth (2^20 directory entries ≈ 8 MiB of pointers).
const MAX_DEPTH: u32 = 20;

#[derive(Clone, Debug)]
struct Bucket {
    local_depth: u32,
    records: Vec<Record>,
}

impl Bucket {
    /// Validate a bucket page where it lies: its local depth and its
    /// records, in insertion order. A header this index never wrote (more
    /// records than fit, a depth past the directory's `global_depth`,
    /// itself at most [`MAX_DEPTH`]) is refused, never clamped.
    fn parse(page: &[u8], global_depth: u32) -> Result<(u32, RecordSlice<'_>)> {
        let local_depth = u32::from(u16::from_le_bytes([page[0], page[1]]));
        let count = usize::from(u16::from_le_bytes([page[2], page[3]]));
        if local_depth > global_depth || count > BUCKET_CAP {
            return Err(RumError::Corrupt(format!(
                "bucket header: local depth {local_depth} (directory depth {global_depth}), \
                 {count} records (capacity {BUCKET_CAP})"
            )));
        }
        let records = &page[HEADER..HEADER + count * RECORD_SIZE];
        Ok((local_depth, RecordSlice::new(records)))
    }

    fn encode(&self) -> PageBuf {
        debug_assert!(self.records.len() <= BUCKET_CAP);
        let mut buf = PageBuf::zeroed();
        buf.write_u16(0, self.local_depth as u16);
        buf.write_u16(2, self.records.len() as u16);
        encode_records(&mut buf, HEADER, &self.records);
        buf
    }
}

/// A validated bucket page edited where it lies. After every edit the
/// bytes are what [`Bucket::encode`] writes for the edited bucket.
struct BucketMut<'a> {
    page: &'a mut [u8],
    count: usize,
}

impl<'a> BucketMut<'a> {
    /// Validate `page` as [`Bucket::parse`] does.
    fn new(page: &'a mut [u8], global_depth: u32) -> Result<Self> {
        let count = Bucket::parse(page, global_depth)?.1.len();
        Ok(BucketMut { page, count })
    }

    /// Index of the record holding `key`.
    fn position(&self, key: Key) -> Option<usize> {
        RecordSlice::new(&self.page[HEADER..HEADER + self.count * RECORD_SIZE])
            .iter()
            .position(|r| r.key == key)
    }

    fn set_value(&mut self, i: usize, value: Value) {
        let at = HEADER + i * RECORD_SIZE + 8;
        self.page[at..at + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Append `rec`; `false` (and nothing changed) when the bucket is full.
    fn push(&mut self, rec: Record) -> bool {
        if self.count == BUCKET_CAP {
            return false;
        }
        insert_record_at(&mut self.page[HEADER..], self.count, self.count, rec);
        self.set_count(self.count + 1);
        true
    }

    /// Remove record `i`, keeping the others in insertion order.
    fn remove(&mut self, i: usize) {
        remove_record_at(&mut self.page[HEADER..], self.count, i);
        self.set_count(self.count - 1);
    }

    fn set_count(&mut self, count: usize) {
        self.count = count;
        self.page[2..4].copy_from_slice(&(count as u16).to_le_bytes());
    }
}

/// The extendible hash index.
pub struct ExtendibleHash {
    pager: Pager<MemDevice>,
    /// `2^global_depth` entries; entry `i` points at the bucket page for
    /// hash prefixes equal to `i`.
    directory: Vec<PageId>,
    global_depth: u32,
    live: usize,
}

impl ExtendibleHash {
    pub fn new() -> Self {
        let mut pager = Pager::new(MemDevice::new(), CostTracker::new());
        let first = pager.allocate().expect("first bucket");
        let bucket = Bucket {
            local_depth: 0,
            records: Vec::new(),
        };
        pager
            .write(first, DataClass::Base, &bucket.encode())
            .expect("first bucket write");
        pager.tracker().reset();
        ExtendibleHash {
            pager,
            directory: vec![first],
            global_depth: 0,
            live: 0,
        }
    }

    pub fn global_depth(&self) -> u32 {
        self.global_depth
    }

    pub fn directory_size(&self) -> usize {
        self.directory.len()
    }

    /// Directory slot for `key` at the current global depth: the top
    /// `global_depth` bits of the hash.
    #[inline]
    fn dir_slot(&self, key: Key) -> usize {
        if self.global_depth == 0 {
            0
        } else {
            (hash64(key) >> (64 - self.global_depth)) as usize
        }
    }

    /// Charge a directory lookup (in-memory auxiliary metadata).
    fn charge_dir(&self) {
        self.pager.tracker().read(DataClass::Aux, 8);
    }

    /// Lend the validated bucket at `page` (local depth, records) to `f`.
    fn with_bucket<R>(
        &mut self,
        page: PageId,
        f: impl FnOnce(u32, RecordSlice<'_>) -> R,
    ) -> Result<R> {
        let global_depth = self.global_depth;
        self.pager.with_page(page, DataClass::Base, |bytes| {
            Bucket::parse(bytes, global_depth).map(|(depth, records)| f(depth, records))
        })?
    }

    /// An owned copy of the bucket at `page`, for writers.
    fn read_bucket(&mut self, page: PageId) -> Result<Bucket> {
        self.with_bucket(page, |local_depth, records| Bucket {
            local_depth,
            records: records.iter().collect(),
        })
    }

    fn write_bucket(&mut self, page: PageId, bucket: &Bucket) -> Result<()> {
        self.pager.write(page, DataClass::Base, &bucket.encode())
    }

    /// Edit the bucket for `key` where it lies: one charged read, and one
    /// charged write if `f` reports a change. Returns the bucket's
    /// directory slot with `f`'s answer.
    fn edit_bucket<R>(
        &mut self,
        key: Key,
        f: impl FnOnce(&mut BucketMut<'_>) -> (R, bool),
    ) -> Result<(usize, R)> {
        self.charge_dir();
        let slot = self.dir_slot(key);
        let (page, global_depth) = (self.directory[slot], self.global_depth);
        let answer =
            self.pager.with_page_mut(page, DataClass::Base, |bytes| {
                match BucketMut::new(bytes, global_depth) {
                    Ok(mut bucket) => {
                        let (answer, changed) = f(&mut bucket);
                        (Ok(answer), changed)
                    }
                    Err(e) => (Err(e), false),
                }
            })??;
        Ok((slot, answer))
    }

    /// Split the bucket at directory slot `slot` once, doubling the
    /// directory if its local depth equals the global depth.
    fn split(&mut self, slot: usize) -> Result<()> {
        let page = self.directory[slot];
        let bucket = self.read_bucket(page)?;
        if bucket.local_depth == self.global_depth {
            if self.global_depth >= MAX_DEPTH {
                return Err(RumError::CapacityExceeded(format!(
                    "extendible hash directory at max depth {MAX_DEPTH}"
                )));
            }
            // Double the directory: entry i maps to old entry i >> 1.
            let old = std::mem::take(&mut self.directory);
            self.directory = Vec::with_capacity(old.len() * 2);
            for &p in &old {
                self.directory.push(p);
                self.directory.push(p);
            }
            self.global_depth += 1;
        }
        // Re-locate the directory range that points at this bucket.
        let new_depth = bucket.local_depth + 1;
        let shift = 64 - new_depth;
        let new_page = self.pager.allocate()?;
        let (mut zero, mut one) = (Vec::new(), Vec::new());
        for r in bucket.records {
            if (hash64(r.key) >> shift) & 1 == 0 {
                zero.push(r);
            } else {
                one.push(r);
            }
        }
        self.write_bucket(
            page,
            &Bucket {
                local_depth: new_depth,
                records: zero,
            },
        )?;
        self.write_bucket(
            new_page,
            &Bucket {
                local_depth: new_depth,
                records: one,
            },
        )?;
        // Rewire the directory: every entry that pointed at the split
        // bucket re-routes by its own copy of the new depth bit (bit
        // `new_depth - 1` from the top of the slot index).
        for i in 0..self.directory.len() {
            if self.directory[i] == page {
                let bit = (i >> (self.global_depth - new_depth)) & 1;
                if bit == 1 {
                    self.directory[i] = new_page;
                }
            }
        }
        Ok(())
    }

    /// Upsert `rec`, splitting full buckets as needed; whether the key is
    /// new.
    fn insert_record(&mut self, rec: Record) -> Result<bool> {
        loop {
            let (slot, inserted) =
                self.edit_bucket(rec.key, |bucket| match bucket.position(rec.key) {
                    Some(i) => {
                        bucket.set_value(i, rec.value);
                        (Some(false), true)
                    }
                    None => {
                        let pushed = bucket.push(rec);
                        (pushed.then_some(true), pushed)
                    }
                })?;
            if let Some(inserted) = inserted {
                return Ok(inserted);
            }
            self.split(slot)?;
        }
    }
}

impl Default for ExtendibleHash {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessMethod for ExtendibleHash {
    fn name(&self) -> String {
        "extendible-hash".into()
    }

    fn len(&self) -> usize {
        self.live
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        self.pager.tracker()
    }

    fn space_profile(&self) -> SpaceProfile {
        let physical = self.pager.physical_bytes() + (self.directory.len() * 8) as u64;
        SpaceProfile::from_physical(self.live, physical)
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        self.charge_dir();
        let slot = self.dir_slot(key);
        let page = self.directory[slot];
        self.with_bucket(page, |_, records| {
            records.iter().find(|r| r.key == key).map(|r| r.value)
        })
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        // Scan each distinct bucket once: the entries that share a bucket
        // share a hash prefix, so they are adjacent in the directory.
        let mut out = Vec::new();
        for i in 0..self.directory.len() {
            let page = self.directory[i];
            if i > 0 && self.directory[i - 1] == page {
                continue;
            }
            self.with_bucket(page, |_, records| {
                out.extend(records.iter().filter(|r| r.key >= lo && r.key <= hi))
            })?;
        }
        out.sort_unstable();
        Ok(out)
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        if self.insert_record(Record::new(key, value))? {
            self.live += 1;
        }
        Ok(())
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        let (_, found) = self.edit_bucket(key, |bucket| match bucket.position(key) {
            Some(i) => {
                bucket.set_value(i, value);
                (true, true)
            }
            None => (false, false),
        })?;
        Ok(found)
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        let (_, found) = self.edit_bucket(key, |bucket| match bucket.position(key) {
            Some(i) => {
                bucket.remove(i);
                (true, true)
            }
            None => (false, false),
        })?;
        if found {
            self.live -= 1;
        }
        Ok(found)
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        // Rebuild in place, keeping the SAME tracker (callers hold clones
        // of it): reset to a single bucket, then insert — splits pre-size
        // the directory quickly.
        let mut pager = Pager::new(MemDevice::new(), Arc::clone(self.pager.tracker()));
        let first = pager.allocate()?;
        pager.write(
            first,
            DataClass::Base,
            &Bucket {
                local_depth: 0,
                records: Vec::new(),
            }
            .encode(),
        )?;
        self.pager = pager;
        self.directory = vec![first];
        self.global_depth = 0;
        self.live = 0;
        for r in records {
            if self.insert_record(*r)? {
                self.live += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::oracle::{check, hostile_ops};
    use rum_core::workload::Op;

    #[test]
    fn crud_roundtrip() {
        let mut h = ExtendibleHash::new();
        h.insert(1, 10).unwrap();
        h.insert(2, 20).unwrap();
        assert_eq!(h.get(1).unwrap(), Some(10));
        assert_eq!(h.get(3).unwrap(), None);
        assert!(h.update(2, 22).unwrap());
        assert!(h.delete(1).unwrap());
        assert!(!h.delete(1).unwrap());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn directory_doubles_under_growth() {
        let mut h = ExtendibleHash::new();
        assert_eq!(h.directory_size(), 1);
        for k in 0..20_000u64 {
            h.insert(k, k).unwrap();
        }
        assert!(h.global_depth() >= 6);
        assert_eq!(h.len(), 20_000);
        for k in (0..20_000u64).step_by(997) {
            assert_eq!(h.get(k).unwrap(), Some(k));
        }
    }

    #[test]
    fn point_query_stays_constant_as_it_grows() {
        let cost = |n: u64| {
            let recs: Vec<Record> = (0..n).map(|k| Record::new(k, k)).collect();
            let mut h = ExtendibleHash::new();
            h.bulk_load(&recs).unwrap();
            let before = h.tracker().snapshot();
            for k in (0..n).step_by((n / 64).max(1) as usize) {
                h.get(k).unwrap();
            }
            h.tracker().since(&before).page_reads as f64 / 64.0
        };
        assert!(cost(1 << 10) <= 1.1);
        assert!(cost(1 << 15) <= 1.1, "one bucket page per probe, always");
    }

    #[test]
    fn splits_preserve_all_records() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let inserts = (0..30_000).map(|_| Op::Insert(rng.gen(), rng.gen()));
        check(&mut ExtendibleHash::new(), (Vec::new(), inserts)).unwrap();
    }

    #[test]
    fn range_scans_each_bucket_once() {
        let mut h = ExtendibleHash::new();
        for k in 0..5000u64 {
            h.insert(k, k).unwrap();
        }
        let rs = h.range(100, 120).unwrap();
        let keys: Vec<u64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(keys, (100..=120).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_then_query() {
        let recs: Vec<Record> = (0..10_000u64).map(|k| Record::new(k * 7, k)).collect();
        let mut h = ExtendibleHash::new();
        h.bulk_load(&recs).unwrap();
        assert_eq!(h.len(), 10_000);
        assert_eq!(h.get(7 * 123).unwrap(), Some(123));
        assert_eq!(h.get(5).unwrap(), None);
    }

    #[test]
    fn model_check_random_ops() {
        check(&mut ExtendibleHash::new(), &hostile_ops(41, 8000, 2000)).unwrap();
    }

    #[test]
    fn directory_counts_as_aux_space() {
        let mut h = ExtendibleHash::new();
        for k in 0..50_000u64 {
            h.insert(k, k).unwrap();
        }
        let p = h.space_profile();
        assert!(p.aux_bytes > 0);
        let mo = p.space_amplification();
        assert!(mo > 1.0 && mo < 5.0, "mo = {mo}");
    }

    #[test]
    fn charges_of_a_fixed_sequence_are_pinned() {
        let mut h = ExtendibleHash::loaded_600();
        assert!(h.global_depth() >= 2, "600 records need at least 3 buckets");
        for k in (0..700u64).step_by(7) {
            assert_eq!(h.get(k).unwrap(), (k < 600).then_some(k));
        }
        assert!(h.update(3, 33).unwrap());
        assert!(!h.update(601, 0).unwrap());
        assert!(h.delete(4).unwrap());
        assert!(!h.delete(4).unwrap());
        let rs = h.range(2, 6).unwrap();
        assert_eq!(
            rs,
            [(2, 2), (3, 33), (5, 5), (6, 6)].map(|(k, v)| Record::new(k, v))
        );
        // Number for number what the copying implementation charged.
        assert_eq!(
            h.tracker().snapshot(),
            rum_core::CostSnapshot {
                base_read_bytes: 2924544,
                aux_read_bytes: 5656,
                base_write_bytes: 2490368,
                aux_write_bytes: 0,
                logical_read_bytes: 1440,
                logical_write_bytes: 9632,
                page_reads: 714,
                page_writes: 608,
                sim_time_ns: 675800
            }
        );
    }

    #[test]
    fn a_hostile_bucket_header_is_corrupt_never_clamped() {
        use rum_storage::BlockDevice;
        let corrupt = |r: Result<()>| assert!(matches!(r, Err(RumError::Corrupt(_))), "{r:?}");
        let global = ExtendibleHash::loaded_600().global_depth() as u16;
        for (off, forged) in [
            (2, BUCKET_CAP as u16 + 1),
            (2, u16::MAX),
            (0, global + 1),
            (0, MAX_DEPTH as u16 + 1),
        ] {
            let mut h = ExtendibleHash::loaded_600();
            let page = h.directory[h.dir_slot(1)];
            let mut buf = h.pager.device_mut().read_page(page).unwrap();
            buf.write_u16(off, forged);
            h.pager.device_mut().write_page(page, &buf).unwrap();
            corrupt(h.get(1).map(drop));
            corrupt(h.range(0, 10).map(drop));
            corrupt(h.insert(1, 9));
            corrupt(h.update(1, 9).map(drop));
            corrupt(h.delete(1).map(drop));
            assert_eq!(h.len(), 600, "a refused write changes nothing");
            // The other buckets still answer.
            let other = (0..600).find(|&k| h.directory[h.dir_slot(k)] != page);
            let other = other.expect("600 records span several buckets");
            assert_eq!(h.get(other).unwrap(), Some(other));
        }
    }

    impl ExtendibleHash {
        fn loaded_600() -> Self {
            let mut h = ExtendibleHash::new();
            for k in 0..600u64 {
                h.insert(k, k).unwrap();
            }
            h
        }
    }
}
