//! The record and block model shared by every access method.
//!
//! Section 2 of the paper reasons about "an array of N (N >> 1) fixed-sized
//! elements in blocks". We fix the element to a 16-byte record (`u64` key +
//! `u64` value) and the block to a 4 KiB page, giving `B = 256` records per
//! block — the block-size parameter of Table 1.

/// Key type: unsigned 64-bit integers, as in the paper's integer-array model.
pub type Key = u64;

/// Value (payload) type.
pub type Value = u64;

/// Size of a storage block / page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Size of one fixed-length record in bytes (key + value).
pub const RECORD_SIZE: usize = 16;

/// `B` in Table 1 of the paper: records per block.
pub const RECORDS_PER_PAGE: usize = PAGE_SIZE / RECORD_SIZE;

/// A fixed-size key/value record — the paper's "element".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Record {
    pub key: Key,
    pub value: Value,
}

impl Record {
    /// Create a record.
    #[inline]
    pub const fn new(key: Key, value: Value) -> Self {
        Record { key, value }
    }

    /// Serialize into a fixed 16-byte little-endian layout.
    #[inline]
    pub fn encode(&self) -> [u8; RECORD_SIZE] {
        let mut buf = [0u8; RECORD_SIZE];
        buf[..8].copy_from_slice(&self.key.to_le_bytes());
        buf[8..].copy_from_slice(&self.value.to_le_bytes());
        buf
    }

    /// Deserialize from the fixed 16-byte layout produced by [`encode`].
    ///
    /// [`encode`]: Record::encode
    #[inline]
    pub fn decode(buf: &[u8]) -> Self {
        debug_assert!(buf.len() >= RECORD_SIZE);
        let key = u64::from_le_bytes(buf[..8].try_into().expect("key slice"));
        let value = u64::from_le_bytes(buf[8..16].try_into().expect("value slice"));
        Record { key, value }
    }

    /// Write this record into `buf` (which must be at least 16 bytes).
    #[inline]
    pub fn encode_into(&self, buf: &mut [u8]) {
        buf[..8].copy_from_slice(&self.key.to_le_bytes());
        buf[8..16].copy_from_slice(&self.value.to_le_bytes());
    }
}

impl From<(Key, Value)> for Record {
    fn from((key, value): (Key, Value)) -> Self {
        Record { key, value }
    }
}

/// Borrowed, densely packed encoded records — a leaf's or a run page's
/// payload searched where it lies, with no [`Record`] materialised but the
/// ones asked for. Keys are expected in ascending order, as in every
/// packed page this workspace writes; the searches are binary searches
/// and answer arbitrarily (never out of bounds) on unsorted bytes.
#[derive(Clone, Copy, Debug)]
pub struct RecordSlice<'a>(&'a [[u8; RECORD_SIZE]]);

impl<'a> RecordSlice<'a> {
    /// View the whole records in `bytes`; a trailing partial record is
    /// not part of the view.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        RecordSlice(bytes.as_chunks().0)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Record `i`, `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Record> {
        self.0.get(i).map(|r| Record::decode(r))
    }

    /// The last record, `None` when there is none.
    #[inline]
    pub fn last(&self) -> Option<Record> {
        self.0.last().map(|r| Record::decode(r))
    }

    /// The records in order.
    #[inline]
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = Record> + ExactSizeIterator + 'a {
        self.0.iter().map(|r| Record::decode(r))
    }

    /// The records from index `start` on (empty when `start` is past the
    /// end).
    #[inline]
    pub fn tail(&self, start: usize) -> RecordSlice<'a> {
        RecordSlice(self.0.get(start..).unwrap_or_default())
    }

    /// Index of the first record whose key is `>= key`.
    #[inline]
    pub fn lower_bound(&self, key: Key) -> usize {
        self.0.partition_point(|r| Record::decode(r).key < key)
    }

    /// `Ok(i)` when record `i` holds `key`, else `Err(i)` with the index
    /// where it would be inserted — `binary_search_by_key` on the decoded
    /// records.
    #[inline]
    pub fn search(&self, key: Key) -> std::result::Result<usize, usize> {
        let i = self.lower_bound(key);
        match self.get(i) {
            Some(r) if r.key == key => Ok(i),
            _ => Err(i),
        }
    }

    /// The value stored under `key`.
    #[inline]
    pub fn find(&self, key: Key) -> Option<Value> {
        let i = self.lower_bound(key);
        self.get(i).filter(|r| r.key == key).map(|r| r.value)
    }
}

/// [`RecordSlice`]'s encoding twin, and the only place records are laid
/// into a page: `records` packed densely into `buf` from byte `offset` on,
/// every byte after them zeroed. `buf[..offset]` (a node or bucket header)
/// is left alone. Panics if the records do not fit; callers check their
/// capacity first.
pub fn encode_records(buf: &mut [u8], offset: usize, records: &[Record]) {
    let (body, tail) = buf[offset..].split_at_mut(records.len() * RECORD_SIZE);
    for (slot, r) in body.as_chunks_mut().0.iter_mut().zip(records) {
        *slot = r.encode();
    }
    tail.fill(0);
}

/// Insert `rec` as record `i` of the `count` records packed at the start
/// of `area`, where they lie: records `i..count` move up one slot. The
/// bytes are what [`encode_records`] writes for the records with `rec`
/// inserted. Panics if `area` has no room for `count + 1` records.
pub fn insert_record_at(area: &mut [u8], count: usize, i: usize, rec: Record) {
    area.copy_within(i * RECORD_SIZE..count * RECORD_SIZE, (i + 1) * RECORD_SIZE);
    rec.encode_into(&mut area[i * RECORD_SIZE..]);
}

/// Remove record `i` of the `count` records packed at the start of
/// `area`, where they lie: records `i + 1..count` move down one slot and
/// the slot they leave is zeroed, so the bytes are what
/// [`encode_records`] writes for the records without it.
pub fn remove_record_at(area: &mut [u8], count: usize, i: usize) {
    area.copy_within((i + 1) * RECORD_SIZE..count * RECORD_SIZE, i * RECORD_SIZE);
    area[(count - 1) * RECORD_SIZE..count * RECORD_SIZE].fill(0);
}

/// The value a delete writes into a differential structure (the LSM-tree,
/// the append log): a user value must avoid it, and those methods refuse
/// it in [`AccessMethod::check_records`](crate::AccessMethod::check_records).
pub const TOMBSTONE: Value = Value::MAX;

/// Logical size in bytes of `n` records of base data.
#[inline]
pub const fn base_bytes(n: usize) -> u64 {
    (n * RECORD_SIZE) as u64
}

/// Merge sorted, unique-key `inputs` ordered **oldest → newest** into one
/// sorted, unique-key `Vec`: where a key repeats across inputs the newest
/// input's item wins, and a winner `keep` rejects is dropped with every
/// version it shadows (tombstones at the bottom level, or in a query
/// answer). Every newest-wins merge in the workspace calls it: the
/// LSM-tree's flush, compaction, probe-every-run range and sorted-view
/// refresh (over its added runs), the partitioned B-tree's consolidation
/// and range, and the sharded range fan-in (whose inputs are key-disjoint).
///
/// A k-way cursor merge by linear scans of the heads, since k is the
/// handful of runs a merge or a range touches. One scan finds the input
/// to take from, a second how far: up to the smallest head of the others,
/// so a big run merged with small ones streams out in long streaks. A
/// lone non-empty input is taken out of `inputs` and returned filtered,
/// without a copy.
pub fn merge_streams<T: Copy>(
    inputs: &mut [Vec<T>],
    key: impl Fn(&T) -> Key,
    keep: impl Fn(&T) -> bool,
) -> Vec<T> {
    let mut occupied = inputs.iter().enumerate().filter(|(_, s)| !s.is_empty());
    match (occupied.next(), occupied.next()) {
        (None, _) => return Vec::new(),
        (Some((i, _)), None) => {
            let mut only = std::mem::take(&mut inputs[i]);
            only.retain(keep);
            return only;
        }
        _ => {}
    }
    // One cursor per input, on the stack for the handful a range or a
    // merge usually has.
    let (mut few, mut many) = ([0usize; 8], Vec::new());
    let at: &mut [usize] = if inputs.len() <= few.len() {
        &mut few[..inputs.len()]
    } else {
        many.resize(inputs.len(), 0);
        &mut many
    };
    let mut out = Vec::with_capacity(inputs.iter().map(Vec::len).sum());
    loop {
        // Smallest head key; `<=` lets the newest input holding it win.
        let mut min: Option<(Key, usize)> = None;
        for (i, s) in inputs.iter().enumerate() {
            if let Some(item) = s.get(at[i]) {
                let k = key(item);
                if min.is_none_or(|(m, _)| k <= m) {
                    min = Some((k, i));
                }
            }
        }
        let Some((k, newest)) = min else {
            return out;
        };
        // Step the others over the version they lost with; below their
        // smallest remaining head nothing shadows the winner's items.
        let mut bound: Option<Key> = None;
        for (i, s) in inputs.iter().enumerate() {
            if i == newest {
                continue;
            }
            if s.get(at[i]).is_some_and(|item| key(item) == k) {
                at[i] += 1;
            }
            if let Some(item) = s.get(at[i]) {
                bound = Some(bound.map_or(key(item), |b| b.min(key(item))));
            }
        }
        let streak = &inputs[newest][at[newest]..];
        let len = streak
            .iter()
            .position(|item| bound.is_some_and(|b| key(item) >= b))
            .unwrap_or(streak.len());
        out.extend(streak[..len].iter().filter(|item| keep(item)));
        at[newest] += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `merge_streams` replaced, kept as its oracle: push every
    /// stream through a map, oldest first, so newer versions overwrite.
    fn merge_oracle(inputs: &[Vec<Record>], drop_tombstones: bool) -> Vec<Record> {
        let mut map = std::collections::BTreeMap::new();
        for r in inputs.iter().flatten() {
            map.insert(r.key, r.value);
        }
        map.into_iter()
            .filter(|&(_, v)| !(drop_tombstones && v == TOMBSTONE))
            .map(|(k, v)| Record::new(k, v))
            .collect()
    }

    proptest::proptest! {
        /// 0–11 inputs (past the 8 whose cursors live on the stack), some
        /// empty, over a key domain small enough that keys repeat across
        /// inputs; a fifth of the values are tombstones.
        #[test]
        fn the_merge_kernel_matches_the_map_oracle(
            raw in proptest::collection::vec(
                proptest::collection::btree_set((0u64..48, 0u64..5), 0..40),
                0..12,
            ),
            drop_tombstones in proptest::prelude::any::<bool>(),
        ) {
            let inputs: Vec<Vec<Record>> = raw
                .iter()
                .enumerate()
                .map(|(i, set)| {
                    let mut stream: Vec<Record> = set
                        .iter()
                        .map(|&(k, v)| Record::new(k, if v == 0 { TOMBSTONE } else { i as u64 }))
                        .collect();
                    stream.dedup_by_key(|r| r.key);
                    stream
                })
                .collect();
            let expect = merge_oracle(&inputs, drop_tombstones);
            let got = merge_streams(
                &mut inputs.clone(),
                |r| r.key,
                |r| !(drop_tombstones && r.value == TOMBSTONE),
            );
            proptest::prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn the_merge_kernel_takes_a_lone_input_without_copying() {
        let mut inputs = vec![
            Vec::new(),
            (0..100).map(|k| Record::new(k * 2, k)).collect(),
            Vec::new(),
        ];
        let at = inputs[1].as_ptr();
        let got = merge_streams(&mut inputs, |r| r.key, |r| r.key != 4);
        assert_eq!(got.as_ptr(), at);
        assert_eq!(got.len(), 99);
        assert!(merge_streams(&mut [Vec::<Record>::new()], |r| r.key, |_| true).is_empty());
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(RECORDS_PER_PAGE, 256);
        assert_eq!(RECORDS_PER_PAGE * RECORD_SIZE, PAGE_SIZE);
    }

    #[test]
    fn record_roundtrip() {
        let r = Record::new(0xDEAD_BEEF_0123_4567, 42);
        assert_eq!(Record::decode(&r.encode()), r);
    }

    #[test]
    fn record_roundtrip_extremes() {
        for r in [
            Record::new(0, 0),
            Record::new(u64::MAX, u64::MAX),
            Record::new(u64::MAX, 0),
            Record::new(0, u64::MAX),
        ] {
            assert_eq!(Record::decode(&r.encode()), r);
        }
    }

    #[test]
    fn encode_into_matches_encode() {
        let r = Record::new(7, 9);
        let mut buf = [0u8; 32];
        r.encode_into(&mut buf[4..20]);
        assert_eq!(&buf[4..20], &r.encode());
    }

    #[test]
    fn record_slice_searches_like_the_decoded_records() {
        let recs: Vec<Record> = (0..37u64).map(|k| Record::new(k * 3 + 1, k)).collect();
        let mut bytes: Vec<u8> = recs.iter().flat_map(|r| r.encode()).collect();
        bytes.extend_from_slice(&[0xFF; 5]); // partial record: ignored
        let s = RecordSlice::new(&bytes);
        assert_eq!(s.len(), recs.len());
        assert_eq!(s.iter().collect::<Vec<_>>(), recs);
        assert_eq!(s.get(36), Some(recs[36]));
        assert_eq!(s.get(37), None);
        assert_eq!(s.last(), Some(recs[36]));
        for key in 0..120u64 {
            assert_eq!(s.search(key), recs.binary_search_by_key(&key, |r| r.key));
            assert_eq!(s.lower_bound(key), recs.partition_point(|r| r.key < key));
            let want = recs.iter().find(|r| r.key == key).map(|r| r.value);
            assert_eq!(s.find(key), want);
        }
        assert_eq!(s.tail(30).iter().collect::<Vec<_>>(), recs[30..]);
        assert!(s.tail(99).is_empty());
        assert!(RecordSlice::new(&[]).is_empty());
        assert_eq!(RecordSlice::new(&[]).find(1), None);
        assert_eq!(RecordSlice::new(&[]).last(), None);
    }

    #[test]
    fn in_place_insert_and_remove_write_what_encode_records_writes() {
        let encoded = |recs: &[Record]| {
            let mut buf = vec![0xAAu8; 6 * RECORD_SIZE];
            encode_records(&mut buf, 0, recs);
            buf
        };
        for count in 0..=5u64 {
            let recs: Vec<Record> = (0..count).map(|k| Record::new(k * 2, k + 10)).collect();
            for i in 0..=recs.len() {
                let mut want = recs.clone();
                want.insert(i, Record::new(99, 7));
                let mut area = encoded(&recs);
                insert_record_at(&mut area, recs.len(), i, Record::new(99, 7));
                assert_eq!(area, encoded(&want), "insert at {i} of {count}");
            }
            for i in 0..recs.len() {
                let mut want = recs.clone();
                want.remove(i);
                let mut area = encoded(&recs);
                remove_record_at(&mut area, recs.len(), i);
                assert_eq!(area, encoded(&want), "remove {i} of {count}");
            }
        }
    }

    #[test]
    fn record_ordering_is_key_major() {
        assert!(Record::new(1, 100) < Record::new(2, 0));
        assert!(Record::new(1, 0) < Record::new(1, 1));
    }
}
