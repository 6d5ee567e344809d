//! A densely packed record file over pages — the shared physical layout of
//! [`SortedColumn`](crate::SortedColumn),
//! [`UnsortedColumn`](crate::UnsortedColumn), and of the zone-mapped
//! column, the BF-tree and the bitmap index built on them in rum-sparse and
//! rum-bitmap.
//!
//! Record `i` lives at page `i / B`, slot `i % B`. There is no per-page
//! header: the file's length lives in the in-memory directory, which is
//! deliberately tiny (8 bytes per page) and reported as auxiliary space by
//! the methods that use this layout. The file owns its [`Pager`], and
//! through it the method's account: a method built on one holds no pager
//! or tracker of its own.

use std::cmp::Ordering;
use std::ops::{ControlFlow, Range};
use std::sync::Arc;

use rum_core::{
    encode_records, insert_record_at, remove_record_at, CostTracker, DataClass, Key, Record,
    RecordSlice, Result, RECORDS_PER_PAGE, RECORD_SIZE,
};
use rum_storage::{MemDevice, PageBuf, PageId, Pager};

/// A packed record file: its pager, directory and length.
pub struct PackedFile {
    pager: Pager<MemDevice>,
    pages: Vec<PageId>,
    len: usize,
    /// Memo of the page read most recently, so repeated probes into the
    /// same page during one binary search charge a single page access —
    /// any real implementation keeps the page it is searching in memory.
    /// `memo` holds that page's records and a zeroed tail while
    /// `memo_page` names it; one buffer, reused by every miss.
    memo: PageBuf,
    memo_page: Option<usize>,
    /// Where [`write_page`](Self::write_page) lays a page out, and where
    /// [`remove_at`](Self::remove_at) holds the next page of its ripple;
    /// one buffer, reused by every write.
    staging: PageBuf,
}

impl Default for PackedFile {
    /// An empty file on a fresh in-memory device, charging a fresh tracker.
    fn default() -> Self {
        PackedFile {
            pager: Pager::new(MemDevice::new(), CostTracker::new()),
            pages: Vec::new(),
            len: 0,
            memo: PageBuf::default(),
            memo_page: None,
            staging: PageBuf::default(),
        }
    }
}

impl PackedFile {
    /// The account every page access of this file is charged to.
    pub fn tracker(&self) -> &Arc<CostTracker> {
        self.pager.tracker()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Physical footprint: the live pages plus the in-memory directory
    /// (8 bytes per page).
    pub fn physical_bytes(&self) -> u64 {
        self.pager.physical_bytes() + (self.pages.len() * std::mem::size_of::<PageId>()) as u64
    }

    fn records_in_page(&self, page_idx: usize) -> usize {
        debug_assert!(page_idx < self.pages.len());
        if page_idx + 1 == self.pages.len() {
            let rem = self.len % RECORDS_PER_PAGE;
            if rem == 0 {
                RECORDS_PER_PAGE
            } else {
                rem
            }
        } else {
            RECORDS_PER_PAGE
        }
    }

    /// Lend all records of page `page_idx`, charging one page access
    /// (unless it is the memoized page).
    fn read_page(&mut self, page_idx: usize) -> Result<RecordSlice<'_>> {
        let used = self.records_in_page(page_idx) * RECORD_SIZE;
        if self.memo_page != Some(page_idx) {
            let memo = &mut self.memo;
            self.pager
                .with_page(self.pages[page_idx], DataClass::Base, |bytes| {
                    // Bytes past the count are a popped record's; not kept.
                    memo[..used].copy_from_slice(&bytes[..used]);
                    memo[used..].fill(0);
                })?;
            self.memo_page = Some(page_idx);
        }
        Ok(RecordSlice::new(&self.memo[..used]))
    }

    /// Lend pages `pages` (ascending) to `f` in turn, with their indices,
    /// until `f` breaks; the break value is returned.
    ///
    /// Charged exactly like `read_page` on each page visited. `read_page`
    /// moves the memo to every page it reads, so in an ascending scan only
    /// the *first* page can be a free memo hit; every later page is a
    /// charged read however it was memoized before. Pages are lent where
    /// the device holds them, and only the page the scan stops on (the
    /// breaking one, or the last) is copied into the memo, so the memo ends
    /// where `read_page` would have left it.
    pub fn scan<B>(
        &mut self,
        pages: Range<usize>,
        mut f: impl FnMut(usize, RecordSlice<'_>) -> ControlFlow<B>,
    ) -> Result<Option<B>> {
        let last = pages.end.saturating_sub(1);
        for page_idx in pages {
            let used = self.records_in_page(page_idx) * RECORD_SIZE;
            let flow = if self.memo_page == Some(page_idx) {
                f(page_idx, RecordSlice::new(&self.memo[..used]))
            } else {
                // Dropped first: a read that fails leaves no stale memo.
                self.memo_page = None;
                let memo = &mut self.memo;
                let flow =
                    self.pager
                        .with_page(self.pages[page_idx], DataClass::Base, |bytes| {
                            let flow = f(page_idx, RecordSlice::new(&bytes[..used]));
                            if flow.is_break() || page_idx == last {
                                memo[..used].copy_from_slice(&bytes[..used]);
                                memo[used..].fill(0);
                            }
                            flow
                        })?;
                if flow.is_break() || page_idx == last {
                    self.memo_page = Some(page_idx);
                }
                flow
            };
            if let ControlFlow::Break(b) = flow {
                return Ok(Some(b));
            }
        }
        Ok(None)
    }

    /// The global index of the first record in pages `pages` whose key is
    /// `key`: one [`scan`](Self::scan), which stops on the page holding
    /// the hit, so a `get` or `set` of that index is a memo hit.
    pub fn find(&mut self, key: Key, pages: Range<usize>) -> Result<Option<usize>> {
        self.scan(pages, |page_idx, recs| {
            match recs.iter().position(|r| r.key == key) {
                Some(slot) => ControlFlow::Break(page_idx * RECORDS_PER_PAGE + slot),
                None => ControlFlow::Continue(()),
            }
        })
    }

    /// Binary search for `key` among the records at global indices
    /// `records`, which are sorted by key: `Ok(idx)` for a hit and
    /// `Err(insertion_idx)` for a miss, as `slice::binary_search` answers
    /// on those records (offset by `records.start`). Each probe charges
    /// the page it lands on unless it is memoized, so the tail probes
    /// share the final page and a `get` of the hit costs nothing.
    pub fn search(
        &mut self,
        key: Key,
        records: Range<usize>,
    ) -> Result<std::result::Result<usize, usize>> {
        let (mut lo, mut hi) = (records.start, records.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.get(mid)?.key.cmp(&key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(Ok(mid)),
            }
        }
        Ok(Err(lo))
    }

    /// The records from global index `start` on, in file order, up to the
    /// first whose key passes `hi`: the sequential half of a range query
    /// on a file kept sorted by key. One [`scan`](Self::scan) from
    /// `start`'s page; nothing is read when `start` is past the end.
    pub fn range_from(&mut self, start: usize, hi: Key) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        if start >= self.len {
            return Ok(out);
        }
        let first_page = start / RECORDS_PER_PAGE;
        let pages = first_page..self.pages.len();
        self.scan(pages, |page_idx, recs| {
            let skip = if page_idx == first_page {
                start % RECORDS_PER_PAGE
            } else {
                0
            };
            for r in recs.tail(skip).iter() {
                if r.key > hi {
                    return ControlFlow::Break(());
                }
                out.push(r);
            }
            ControlFlow::Continue(())
        })?;
        Ok(out)
    }

    /// Overwrite page `page_idx` with `records`, charging one page access.
    fn write_page(&mut self, page_idx: usize, records: &[Record]) -> Result<()> {
        debug_assert!(records.len() <= RECORDS_PER_PAGE);
        if self.memo_page == Some(page_idx) {
            self.memo_page = None;
        }
        encode_records(&mut self.staging, 0, records);
        self.pager
            .write(self.pages[page_idx], DataClass::Base, &self.staging)
    }

    /// Second half of a read-modify-write: set one slot of the page
    /// [`read_page`](Self::read_page) just memoized and write the memo
    /// back, which drops it like any write to its page.
    fn write_memo(&mut self, slot: usize, rec: Record) -> Result<()> {
        let page_idx = self.memo_page.take().expect("read_page memoized it");
        let at = slot * RECORD_SIZE;
        encode_records(&mut self.memo[at..at + RECORD_SIZE], 0, &[rec]);
        self.pager
            .write(self.pages[page_idx], DataClass::Base, &self.memo)
    }

    /// Record at global index `idx` (one charged page read, memoized).
    pub fn get(&mut self, idx: usize) -> Result<Record> {
        debug_assert!(idx < self.len);
        let recs = self.read_page(idx / RECORDS_PER_PAGE)?;
        Ok(recs
            .get(idx % RECORDS_PER_PAGE)
            .expect("idx < len, so its page holds the slot"))
    }

    /// Overwrite the record at `idx` (read-modify-write of its page).
    pub fn set(&mut self, idx: usize, rec: Record) -> Result<()> {
        debug_assert!(idx < self.len);
        self.read_page(idx / RECORDS_PER_PAGE)?;
        self.write_memo(idx % RECORDS_PER_PAGE, rec)
    }

    /// Append one record (read-modify-write of the tail page, allocating a
    /// fresh page at each page boundary).
    pub fn push(&mut self, rec: Record) -> Result<()> {
        let slot = self.len % RECORDS_PER_PAGE;
        if slot == 0 {
            let id = self.pager.allocate()?;
            self.pages.push(id);
            self.len += 1;
            self.write_page(self.pages.len() - 1, &[rec])
        } else {
            // Read at the old count: the new slot is the first of the
            // memo's zeroed tail.
            self.read_page(self.pages.len() - 1)?;
            self.len += 1;
            self.write_memo(slot, rec)
        }
    }

    /// Remove and return the last record.
    pub fn pop(&mut self) -> Result<Option<Record>> {
        if self.len == 0 {
            return Ok(None);
        }
        let rec = self.get(self.len - 1)?;
        self.len -= 1;
        // The memoized tail page still contains the popped record; drop it
        // so later reads see the page at its new count.
        self.memo_page = None;
        if self.len.is_multiple_of(RECORDS_PER_PAGE) {
            let id = self.pages.pop().expect("page exists for nonzero len");
            self.pager.free(id)?;
        }
        Ok(Some(rec))
    }

    /// Insert `rec` at global index `idx`, shifting everything after it one
    /// slot right. Page-wise ripple: each page from `idx / B` to the end is
    /// read once and written once — the O(N/B/2) average insert cost of
    /// Table 1's sorted column. Records move where they lie: a full page
    /// shifts its slots up one and hands its last record to the next page.
    /// A memoized first page is edited in the memo (a free read, as in
    /// `read_page`); every other page is one [`Pager::with_page_mut`].
    pub fn insert_at(&mut self, idx: usize, rec: Record) -> Result<()> {
        debug_assert!(idx <= self.len);
        if idx == self.len {
            return self.push(rec);
        }
        let first_page = idx / RECORDS_PER_PAGE;
        let mut slot = idx % RECORDS_PER_PAGE;
        // Page `first_page` onward is rewritten, so no memo survives.
        let memo_hit = self.memo_page.take() == Some(first_page);
        let mut carry = Some(rec);
        for page_idx in first_page..self.pages.len() {
            let Some(rec) = carry else { break };
            let count = self.records_in_page(page_idx);
            let ripple = |bytes: &mut [u8]| {
                let carry = (count == RECORDS_PER_PAGE).then(|| {
                    RecordSlice::new(bytes)
                        .last()
                        .expect("a full page has a last record")
                });
                let kept = count - usize::from(carry.is_some());
                insert_record_at(bytes, kept, slot, rec);
                // The bytes past the count are zero, as `write_page` lays
                // them out.
                bytes[(kept + 1) * RECORD_SIZE..].fill(0);
                (carry, true)
            };
            let id = self.pages[page_idx];
            carry = if memo_hit && page_idx == first_page {
                let carry = ripple(&mut self.memo).0;
                self.pager.write(id, DataClass::Base, &self.memo)?;
                carry
            } else {
                self.pager.with_page_mut(id, DataClass::Base, ripple)?
            };
            slot = 0;
        }
        self.len += 1;
        if let Some(rec) = carry {
            // The carry overflowed past the old tail: start a fresh page.
            self.pages.push(self.pager.allocate()?);
            self.write_page(self.pages.len() - 1, &[rec])?;
        }
        Ok(())
    }

    /// Remove the record at global index `idx`, shifting everything after
    /// it one slot left. Same page-wise ripple cost as
    /// [`insert_at`](Self::insert_at), charged in the same order as a
    /// forward walk that reads page `k + 1` for its head record before it
    /// writes page `k`: the page being edited rides in the memo, the next
    /// page is lent into `staging` for its head, and the two trade places.
    pub fn remove_at(&mut self, idx: usize) -> Result<Record> {
        debug_assert!(idx < self.len);
        let first_page = idx / RECORDS_PER_PAGE;
        let last_page = self.pages.len() - 1;
        let slot = idx % RECORDS_PER_PAGE;

        let removed = self
            .read_page(first_page)?
            .get(slot)
            .expect("idx < len, so its page holds the slot");
        let count = self.records_in_page(first_page);
        remove_record_at(&mut self.memo[..], count, slot);
        // The memo now holds edits not yet written: no longer a copy.
        self.memo_page = None;
        for page_idx in first_page..last_page {
            // Pages before the last are full: the next page's head fills
            // this page's last slot.
            let used = self.records_in_page(page_idx + 1) * RECORD_SIZE;
            let staging = &mut self.staging;
            self.pager
                .with_page(self.pages[page_idx + 1], DataClass::Base, |bytes| {
                    staging[..used].copy_from_slice(&bytes[..used]);
                    staging[used..].fill(0);
                })?;
            let tail = (RECORDS_PER_PAGE - 1) * RECORD_SIZE;
            self.memo[tail..].copy_from_slice(&self.staging[..RECORD_SIZE]);
            self.pager
                .write(self.pages[page_idx], DataClass::Base, &self.memo)?;
            std::mem::swap(&mut self.memo, &mut self.staging);
            remove_record_at(&mut self.memo[..], used / RECORD_SIZE, 0);
        }
        self.pager
            .write(self.pages[last_page], DataClass::Base, &self.memo)?;
        self.len -= 1;
        if self.len.is_multiple_of(RECORDS_PER_PAGE) {
            if let Some(id) = self.pages.pop() {
                self.pager.free(id)?;
            }
        }
        Ok(removed)
    }

    /// Replace the file's contents with `records`, packed densely. Frees
    /// existing pages first. Charges one write per page.
    pub fn rebuild(&mut self, records: &[Record]) -> Result<()> {
        for id in self.pages.drain(..) {
            self.pager.free(id)?;
        }
        self.memo_page = None;
        self.len = records.len();
        for chunk in records.chunks(RECORDS_PER_PAGE) {
            let id = self.pager.allocate()?;
            self.pages.push(id);
            self.write_page(self.pages.len() - 1, chunk)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> PackedFile {
        PackedFile::default()
    }

    fn rec(k: u64) -> Record {
        Record::new(k, k * 10)
    }

    impl PackedFile {
        /// The whole file in order, page by page.
        fn scan_all(&mut self) -> Result<Vec<Record>> {
            let mut out = Vec::with_capacity(self.len);
            for page_idx in 0..self.pages.len() {
                out.extend(self.read_page(page_idx)?.iter());
            }
            Ok(out)
        }
    }

    #[test]
    fn push_get_roundtrip_across_pages() {
        let mut f = setup();
        for k in 0..600u64 {
            f.push(rec(k)).unwrap();
        }
        assert_eq!(f.len(), 600);
        assert_eq!(f.num_pages(), 3);
        for k in [0u64, 255, 256, 511, 599] {
            assert_eq!(f.get(k as usize).unwrap(), rec(k));
        }
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut f = setup();
        for k in 0..300u64 {
            f.push(rec(k)).unwrap();
        }
        f.set(257, Record::new(999, 1)).unwrap();
        assert_eq!(f.get(257).unwrap(), Record::new(999, 1));
        assert_eq!(f.len(), 300);
    }

    #[test]
    fn pop_shrinks_and_frees_pages() {
        let mut f = setup();
        for k in 0..257u64 {
            f.push(rec(k)).unwrap();
        }
        assert_eq!(f.num_pages(), 2);
        assert_eq!(f.pop().unwrap(), Some(rec(256)));
        assert_eq!(f.num_pages(), 1);
        assert_eq!(f.len(), 256);
        assert_eq!(f.pager.live_pages(), 1);
    }

    #[test]
    fn pop_empty_is_none() {
        let mut f = setup();
        assert_eq!(f.pop().unwrap(), None);
    }

    #[test]
    fn insert_at_shifts_right_across_pages() {
        let mut f = setup();
        for k in 0..512u64 {
            f.push(rec(k * 2)).unwrap(); // 0,2,4,...
        }
        // Insert 101 between 100 and 102 (global idx 51).
        f.insert_at(51, Record::new(101, 0)).unwrap();
        assert_eq!(f.len(), 513);
        assert_eq!(f.get(50).unwrap().key, 100);
        assert_eq!(f.get(51).unwrap().key, 101);
        assert_eq!(f.get(52).unwrap().key, 102);
        // The very last record shifted into a new page.
        assert_eq!(f.get(512).unwrap().key, 1022);
        assert_eq!(f.num_pages(), 3);
    }

    #[test]
    fn insert_at_end_is_push() {
        let mut f = setup();
        f.insert_at(0, rec(1)).unwrap();
        f.insert_at(1, rec(2)).unwrap();
        assert_eq!(f.scan_all().unwrap(), vec![rec(1), rec(2)]);
    }

    #[test]
    fn remove_at_shifts_left_across_pages() {
        let mut f = setup();
        for k in 0..600u64 {
            f.push(rec(k)).unwrap();
        }
        let removed = f.remove_at(100).unwrap();
        assert_eq!(removed, rec(100));
        assert_eq!(f.len(), 599);
        assert_eq!(f.get(99).unwrap(), rec(99));
        assert_eq!(f.get(100).unwrap(), rec(101));
        assert_eq!(f.get(598).unwrap(), rec(599));
    }

    #[test]
    fn remove_last_record_frees_page() {
        let mut f = setup();
        f.push(rec(1)).unwrap();
        let r = f.remove_at(0).unwrap();
        assert_eq!(r, rec(1));
        assert_eq!(f.num_pages(), 0);
        assert_eq!(f.pager.live_pages(), 0);
    }

    #[test]
    fn rebuild_replaces_contents() {
        let mut f = setup();
        for k in 0..100u64 {
            f.push(rec(k)).unwrap();
        }
        let new: Vec<Record> = (0..300u64).map(rec).collect();
        f.rebuild(&new).unwrap();
        assert_eq!(f.len(), 300);
        assert_eq!(f.scan_all().unwrap(), new);
        assert_eq!(f.pager.live_pages(), 2, "old page freed, two new allocated");
    }

    #[test]
    fn repeated_probes_same_page_charge_once() {
        let mut f = setup();
        for k in 0..100u64 {
            f.push(rec(k)).unwrap();
        }
        let before = f.tracker().snapshot();
        f.get(10).unwrap();
        f.get(20).unwrap();
        f.get(30).unwrap();
        let d = f.tracker().since(&before);
        assert_eq!(d.page_reads, 1, "all three probes hit the memoized page");
    }

    #[test]
    fn writes_invalidate_the_memo() {
        let mut f = setup();
        for k in 0..10u64 {
            f.push(rec(k)).unwrap();
        }
        f.get(1).unwrap();
        f.set(2, Record::new(999, 9)).unwrap();
        // The memoized copy was refreshed or invalidated; read sees new data.
        assert_eq!(f.get(2).unwrap(), Record::new(999, 9));
    }

    #[test]
    fn model_check_random_ops() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut f = setup();
        let mut model: Vec<Record> = Vec::new();
        let mut rng = StdRng::seed_from_u64(5);
        for step in 0..2000u64 {
            match rng.gen_range(0..4) {
                0 => {
                    let idx = rng.gen_range(0..=model.len());
                    let r = rec(step);
                    model.insert(idx, r);
                    f.insert_at(idx, r).unwrap();
                }
                1 if !model.is_empty() => {
                    let idx = rng.gen_range(0..model.len());
                    let a = model.remove(idx);
                    let b = f.remove_at(idx).unwrap();
                    assert_eq!(a, b);
                }
                2 if !model.is_empty() => {
                    let idx = rng.gen_range(0..model.len());
                    model[idx] = rec(step + 1_000_000);
                    f.set(idx, rec(step + 1_000_000)).unwrap();
                }
                _ => {
                    let r = rec(step);
                    model.push(r);
                    f.push(r).unwrap();
                }
            }
            assert_eq!(f.len(), model.len());
        }
        assert_eq!(f.scan_all().unwrap(), model);
    }

    #[test]
    fn scan_charges_what_a_read_page_loop_charges() {
        // (memoized page, pages scanned, page the scan stops on)
        let cases = [
            (0, 0..5, None),
            (3, 0..5, None),
            (2, 2..5, Some(3)),
            (4, 1..5, Some(1)),
            (1, 1..1, None),
        ];
        for (memo, pages, stop) in cases {
            let mut sides = [setup(), setup()];
            for f in &mut sides {
                for k in 0..(5 * RECORDS_PER_PAGE as u64 - 7) {
                    f.push(rec(k)).unwrap();
                }
                f.get(memo * RECORDS_PER_PAGE).unwrap();
            }
            let [f, g] = &mut sides;
            let (before_f, before_g) = (f.tracker().snapshot(), g.tracker().snapshot());
            let mut seen = Vec::new();
            let broke = f
                .scan(pages.clone(), |page_idx, recs| {
                    seen.push((page_idx, recs.get(0).unwrap()));
                    match stop {
                        Some(s) if s == page_idx => ControlFlow::Break(page_idx),
                        _ => ControlFlow::Continue(()),
                    }
                })
                .unwrap();
            assert_eq!(broke, stop);
            let mut want = Vec::new();
            for page_idx in pages.clone() {
                let head = g.read_page(page_idx).unwrap().get(0).unwrap();
                want.push((page_idx, head));
                if stop == Some(page_idx) {
                    break;
                }
            }
            assert_eq!(seen, want);
            // Then every page once more: the memo was left in one place.
            for idx in (0..5).map(|page| page * RECORDS_PER_PAGE + 1) {
                assert_eq!(f.get(idx).unwrap(), g.get(idx).unwrap());
            }
            assert_eq!(
                f.tracker().since(&before_f),
                g.tracker().since(&before_g),
                "memo {memo}, pages {pages:?}, stop {stop:?}"
            );
        }
    }

    #[test]
    fn memo_rule_charges_are_pinned() {
        let mut f = setup();
        for k in 0..300u64 {
            f.push(rec(k)).unwrap();
        }
        let start = f.tracker().snapshot();
        let mut last = start;
        let mut steps = Vec::new();
        let mut step = |f: &PackedFile| {
            let d = f.tracker().since(&last);
            last = f.tracker().snapshot();
            steps.push((d.page_reads, d.page_writes));
        };
        // Three probes into one page charge one read.
        for idx in [10, 20, 30] {
            assert_eq!(f.get(idx).unwrap(), rec(idx as u64));
        }
        step(&f);
        // A read of another page replaces the memo; coming back is a miss.
        assert_eq!(f.get(260).unwrap(), rec(260));
        assert_eq!(f.get(10).unwrap(), rec(10));
        step(&f);
        // A write to the memoized page reads it for free and drops it.
        f.set(11, Record::new(999, 9)).unwrap();
        step(&f);
        assert_eq!(f.get(11).unwrap(), Record::new(999, 9));
        assert_eq!(f.get(12).unwrap(), rec(12));
        step(&f);
        // A write to another page leaves the memo alone.
        let tail: Vec<Record> = (256..300).map(|k| Record::new(k, 7)).collect();
        f.write_page(1, &tail).unwrap();
        assert_eq!(f.get(13).unwrap(), rec(13));
        step(&f);
        // `pop` reads the tail page and drops the memo; so does `push`.
        assert_eq!(f.pop().unwrap(), Some(Record::new(299, 7)));
        assert_eq!(f.get(298).unwrap(), Record::new(298, 7));
        step(&f);
        f.push(rec(1234)).unwrap();
        assert_eq!(f.get(299).unwrap(), rec(1234));
        assert_eq!(f.get(256).unwrap(), Record::new(256, 7));
        step(&f);
        assert_eq!(
            steps,
            [(1, 0), (2, 0), (0, 1), (1, 0), (0, 1), (2, 0), (1, 1)],
            "(page reads, page writes) per step"
        );
        // Number for number what the copying implementation charged.
        assert_eq!(
            f.tracker().since(&start),
            rum_core::CostSnapshot {
                base_read_bytes: 28672,
                aux_read_bytes: 0,
                base_write_bytes: 12288,
                aux_write_bytes: 0,
                logical_read_bytes: 0,
                logical_write_bytes: 0,
                page_reads: 7,
                page_writes: 3,
                sim_time_ns: 5200
            }
        );
    }
}
