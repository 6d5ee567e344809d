//! Immutable sorted runs: packed pages + fence pointers + an optional
//! point-probe filter (Bloom or quotient), and [`overlay`], the crate's
//! in-place kernel over sorted, unique-key streams.
//!
//! Fence pointers (first key per page, kept in memory) route a point probe
//! to exactly one page; the filter short-circuits probes for absent keys —
//! the paper's "more efficient reads ... by avoiding accessing unnecessary
//! data at the expense of additional space".
//!
//! [`merge_streams`](rum_core::merge_streams), the workspace's one merge
//! kernel, merges k streams into
//! a new `Vec` (flush, compaction, the probe-every-run range, the sorted
//! view's added runs); [`overlay`] lays one short newer stream over a long
//! older one in place (the memtable over a range answer, added runs over
//! the view's anchors).

use rum_core::{
    encode_records, DataClass, Key, Record, RecordSlice, Result, RumError, Value, RECORDS_PER_PAGE,
    RECORD_SIZE,
};
use rum_sketch::{BloomFilter, QuotientFilter};
use rum_storage::{BlockDevice, PageBuf, PageId, Pager};

/// Which probabilistic filter guards point probes into a run. The per-key
/// space budget for [`Bloom`](FilterKind::Bloom) comes from
/// `LsmConfig::bloom_bits_per_key`; setting that knob to zero disables the
/// filter for either kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterKind {
    /// A Bloom filter (the classic choice: smallest for a given FPR, but
    /// supports neither deletes nor resizing).
    Bloom,
    /// A quotient filter with `rbits`-bit remainders — the §5 roadmap's
    /// updatable probabilistic structure. FPR ≈ `load × 2^-rbits`.
    Quotient { rbits: u32 },
}

/// A built per-run filter. Both kinds are charged identically: the build
/// is an aux write of [`size_bytes`](Self::size_bytes), every membership
/// probe an aux read of [`probe_bytes`](Self::probe_bytes).
enum RunFilter {
    Bloom(BloomFilter),
    Quotient(QuotientFilter),
}

impl RunFilter {
    fn build(kind: FilterKind, bits_per_key: f64, records: &[Record]) -> Option<RunFilter> {
        if bits_per_key <= 0.0 || records.is_empty() {
            return None;
        }
        Some(match kind {
            FilterKind::Bloom => {
                let mut b = BloomFilter::new(records.len(), bits_per_key);
                for r in records {
                    b.insert(r.key);
                }
                RunFilter::Bloom(b)
            }
            FilterKind::Quotient { rbits } => {
                let mut q = QuotientFilter::with_capacity(records.len(), rbits);
                for r in records {
                    q.insert(r.key);
                }
                RunFilter::Quotient(q)
            }
        })
    }

    fn may_contain(&self, key: Key) -> bool {
        match self {
            RunFilter::Bloom(b) => b.may_contain(key),
            RunFilter::Quotient(q) => q.may_contain(key),
        }
    }

    /// Auxiliary bytes the filter occupies.
    fn size_bytes(&self) -> u64 {
        match self {
            RunFilter::Bloom(b) => b.size_bytes(),
            RunFilter::Quotient(q) => q.size_bytes(),
        }
    }

    /// Bytes one membership probe touches: `k` bit probes for a Bloom
    /// filter, one `(rbits + 3)`-bit slot cluster for a quotient filter —
    /// both rounded up to whole bytes.
    fn probe_bytes(&self) -> u64 {
        match self {
            RunFilter::Bloom(b) => (b.hashes() as u64).div_ceil(8).max(1),
            RunFilter::Quotient(q) => (q.rbits() as u64 + 3).div_ceil(8).max(1),
        }
    }
}

/// Lay `newer` over `base` in place: the answer of
/// [`merge_streams`](rum_core::merge_streams)`(&mut [base, newer], key, |e| !dead(e))` without a second
/// array. Both ascend with unique keys, every item of `newer` is newer
/// than every item of `base`, and `base` holds nothing `dead`. A newer
/// item overwrites the item of its key, or deletes it if `dead`; a dead
/// item with nothing to shadow is dropped; the rest are inserted. The
/// sorted view's refresh lays its added runs over the surviving anchors
/// with it, and both range paths lay the memtable over the runs' answer.
///
/// Two passes over `newer`, each finding an item's place by galloping
/// from where the last one landed, so `m` items over `n` cost
/// O(m log(n/m)) probes rather than a bisect of `base` each. The forward
/// pass overwrites and deletes; a deletion leaves a hole that moves up
/// block by block (`copy_within`) until an insert fills it or the end
/// closes it. The backward pass makes room for the other inserts: one
/// `reserve_exact`, so the capacity is no more than MO counts, then each
/// block moves once, back to front, straight to its final place.
pub fn overlay<T: Copy>(
    base: &mut Vec<T>,
    newer: impl DoubleEndedIterator<Item = T> + Clone,
    key: impl Fn(&T) -> Key,
    dead: impl Fn(&T) -> bool,
) {
    debug_assert!(base.windows(2).all(|w| key(&w[0]) < key(&w[1])));
    debug_assert!(!base.iter().any(&dead));
    // `base[..w]` is final and `base[r..]` unvisited; `w < r` while a
    // deletion's hole is open.
    let (mut r, mut w) = (0, 0);
    let mut deferred = 0;
    let mut filler = None;
    for item in newer.clone() {
        let k = key(&item);
        let p = r + gallop(&base[r..], |b| key(b) < k);
        if w < r {
            base.copy_within(r..p, w);
        }
        w += p - r;
        r = p;
        if base.get(r).is_some_and(|b| key(b) == k) {
            r += 1;
        }
        if dead(&item) {
            continue;
        }
        // A live item takes the slot it shadows or an open hole; with
        // neither, it waits for the backward pass.
        if w < r {
            base[w] = item;
            w += 1;
        } else {
            deferred += 1;
            filler = Some(item);
        }
    }
    if w < r {
        base.copy_within(r.., w);
        base.truncate(base.len() - (r - w));
    }
    let Some(filler) = filler else {
        return;
    };
    let mut r = base.len();
    base.reserve_exact(deferred);
    // Every slot `resize` fills is overwritten below.
    base.resize(r + deferred, filler);
    // `base[..r]` has not moved yet. A live item found in it was laid
    // down by the forward pass; the others go in above it.
    for item in newer.rev().filter(|item| !dead(item)) {
        if deferred == 0 {
            break;
        }
        let k = key(&item);
        let q = gallop_back(&base[..r], |b| key(b) < k);
        if base[..r].get(q).is_some_and(|b| key(b) == k) {
            continue;
        }
        base.copy_within(q..r, q + deferred);
        deferred -= 1;
        base[q + deferred] = item;
        r = q;
    }
}

/// How many leading items of `s` are `below` (a monotone predicate),
/// probing 1, 2, 4, … items in: O(log d) probes for an answer of d.
fn gallop<T>(s: &[T], below: impl Fn(&T) -> bool) -> usize {
    let (mut lo, mut hi) = (0, 1);
    while hi <= s.len() && below(&s[hi - 1]) {
        lo = hi;
        hi *= 2;
    }
    lo + s[lo..(hi - 1).min(s.len())].partition_point(below)
}

/// [`gallop`] from the back: O(log d) probes for an answer d items short
/// of `s.len()`.
fn gallop_back<T>(s: &[T], below: impl Fn(&T) -> bool) -> usize {
    let (mut hi, mut step) = (s.len(), 1);
    while step <= s.len() && !below(&s[s.len() - step]) {
        hi = s.len() - step;
        step *= 2;
    }
    let lo = (s.len() + 1).saturating_sub(step);
    lo + s[lo..hi].partition_point(below)
}

/// One immutable sorted run.
pub struct SortedRun {
    /// Identity among the owning tree's runs (see [`with_id`](Self::with_id)).
    id: u32,
    pages: Vec<PageId>,
    /// First key of each page.
    fences: Vec<Key>,
    filter: Option<RunFilter>,
    /// Largest key in the run (meaningful only when `len > 0`).
    last_key: Key,
    len: usize,
}

impl SortedRun {
    /// Write `records` (sorted, unique keys, tombstones included) as a new
    /// run. `bits_per_key = 0` disables the filter regardless of `filter`.
    pub fn build<D: BlockDevice>(
        pager: &mut Pager<D>,
        records: &[Record],
        filter: FilterKind,
        bits_per_key: f64,
    ) -> Result<SortedRun> {
        debug_assert!(records.windows(2).all(|w| w[0].key < w[1].key));
        let mut pages = Vec::with_capacity(records.len().div_ceil(RECORDS_PER_PAGE));
        let mut fences = Vec::with_capacity(pages.capacity());
        for chunk in records.chunks(RECORDS_PER_PAGE) {
            let id = pager.allocate()?;
            let mut buf = PageBuf::zeroed();
            encode_records(&mut buf, 0, chunk);
            pager.write(id, DataClass::Base, &buf)?;
            fences.push(chunk[0].key);
            pages.push(id);
        }
        let filter = RunFilter::build(filter, bits_per_key, records);
        if let Some(f) = &filter {
            // Building the filter is an auxiliary write.
            pager.tracker().write(DataClass::Aux, f.size_bytes());
        }
        Ok(SortedRun {
            id: 0,
            pages,
            fences,
            filter,
            last_key: records.last().map_or(0, |r| r.key),
            len: records.len(),
        })
    }

    /// Stamp the run with the id its owner knows it by. The tree gives
    /// every run it places a fresh one, so the sorted view's anchors can
    /// name a run across flushes and compactions that reorder the levels.
    pub fn with_id(mut self, id: u32) -> SortedRun {
        self.id = id;
        self
    }

    pub fn id(&self) -> u32 {
        self.id
    }

    /// Entries in the run (live + tombstones).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Auxiliary bytes: fences + point-probe filter.
    pub fn aux_bytes(&self) -> u64 {
        (self.fences.len() * 8) as u64 + self.filter.as_ref().map_or(0, |f| f.size_bytes())
    }

    pub fn has_bloom(&self) -> bool {
        self.filter.is_some()
    }

    /// Whether the run's `[min, max]` key envelope intersects `[lo, hi]`.
    /// A pure in-memory comparison against two cached keys — deliberately
    /// charge-free, so callers can prune disjoint runs for nothing.
    pub fn overlaps(&self, lo: Key, hi: Key) -> bool {
        self.len > 0 && self.fences[0] <= hi && self.last_key >= lo
    }

    fn records_in_page(&self, page_idx: usize) -> usize {
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

    /// Lend one page's records, by in-run page index, to `f` (charged like
    /// any base read). Public so the cross-run sorted view can fetch
    /// exactly the pages its anchors name; an index past the run's last
    /// page is a bad anchor, not a bug here, so it is `Corrupt`.
    pub fn with_page<D: BlockDevice, R>(
        &self,
        pager: &mut Pager<D>,
        page_idx: usize,
        f: impl FnOnce(RecordSlice<'_>) -> R,
    ) -> Result<R> {
        if page_idx >= self.pages.len() {
            return Err(RumError::Corrupt(format!(
                "page {page_idx} of a run of {} pages",
                self.pages.len()
            )));
        }
        let used = self.records_in_page(page_idx) * RECORD_SIZE;
        pager.with_page(self.pages[page_idx], DataClass::Base, |bytes| {
            f(RecordSlice::new(&bytes[..used]))
        })
    }

    /// Point probe. Charges: one filter probe (if present), a fence binary
    /// search, and at most one page read.
    pub fn get<D: BlockDevice>(&self, pager: &mut Pager<D>, key: Key) -> Result<Option<Value>> {
        if self.len == 0 {
            return Ok(None);
        }
        if let Some(f) = &self.filter {
            pager.tracker().read(DataClass::Aux, f.probe_bytes());
            if !f.may_contain(key) {
                return Ok(None);
            }
        }
        // Fence binary search (in-memory aux metadata).
        pager.tracker().search(DataClass::Aux, self.fences.len(), 8);
        let page_idx = match self.fences.binary_search(&key) {
            Ok(i) => i,
            Err(0) => return Ok(None), // key below the run's first fence
            Err(i) => i - 1,
        };
        self.with_page(pager, page_idx, |recs| recs.find(key))
    }

    /// All entries with keys in `[lo, hi]`, ascending (tombstones
    /// included — the caller resolves versions across runs), in one
    /// allocation sized by the pages the fences say it will read.
    pub fn range<D: BlockDevice>(
        &self,
        pager: &mut Pager<D>,
        lo: Key,
        hi: Key,
    ) -> Result<Vec<Record>> {
        if self.len == 0 || lo > hi {
            return Ok(Vec::new());
        }
        pager.tracker().search(DataClass::Aux, self.fences.len(), 8);
        let mut page_idx = match self.fences.binary_search(&lo) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        let end = page_idx + self.fences[page_idx..].partition_point(|&f| f <= hi);
        // Keys are unique, so `[lo, hi]` also bounds the answer.
        let span = (end * RECORDS_PER_PAGE).min(self.len) - page_idx * RECORDS_PER_PAGE;
        let keys = usize::try_from(hi - lo).map_or(usize::MAX, |d| d.saturating_add(1));
        let mut out = Vec::with_capacity(span.min(keys));
        while page_idx < end {
            let done = self.with_page(pager, page_idx, |recs| {
                for r in recs.tail(recs.lower_bound(lo)).iter() {
                    if r.key > hi {
                        return true;
                    }
                    out.push(r);
                }
                false
            })?;
            if done {
                break;
            }
            page_idx += 1;
        }
        Ok(out)
    }

    /// Read the whole run in order (for merges).
    pub fn scan_all<D: BlockDevice>(&self, pager: &mut Pager<D>) -> Result<Vec<Record>> {
        let mut out = Vec::with_capacity(self.len);
        for page_idx in 0..self.pages.len() {
            self.with_page(pager, page_idx, |recs| out.extend(recs.iter()))?;
        }
        Ok(out)
    }

    /// Free the run's pages.
    pub fn destroy<D: BlockDevice>(self, pager: &mut Pager<D>) -> Result<()> {
        for id in self.pages {
            pager.free(id)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::{merge_streams, CostTracker};
    use rum_storage::MemDevice;

    fn pager() -> Pager<MemDevice> {
        Pager::new(MemDevice::new(), CostTracker::new())
    }

    fn recs(n: u64) -> Vec<Record> {
        (0..n).map(|k| Record::new(k * 2, k)).collect()
    }

    /// `overlay` against the merge it stands for, through `Record` (key,
    /// `TOMBSTONE`) and through the sorted view's anchors.
    fn check_overlay<T: Copy + PartialEq + std::fmt::Debug>(
        base: Vec<T>,
        newer: Vec<T>,
        key: impl Fn(&T) -> Key + Copy,
        dead: impl Fn(&T) -> bool + Copy,
    ) {
        let expect = merge_streams(&mut [base.clone(), newer.clone()], key, |e| !dead(e));
        let mut got = base;
        let capacity = got.capacity();
        overlay(&mut got, newer.iter().copied(), key, dead);
        assert_eq!(got, expect);
        assert!(
            got.capacity() <= capacity.max(got.len()),
            "no slack past MO"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// Base keys lie in 1000..2000 and newer keys in 0..3000, so newer
        /// keys land below, between, on and above the base's. `shape`
        /// forces the edges: 0 empties the base, 1 the newer list, 2 kills
        /// every newer item.
        #[test]
        fn overlay_matches_merge_streams(
            base in proptest::collection::btree_set(1000u64..2000, 0..300),
            newer in proptest::collection::btree_set(0u64..3000, 0..80),
            deaths in proptest::collection::vec(0u8..4, 80..81),
            shape in 0u8..6,
        ) {
            use crate::view::{ViewEntry, DEAD_PAGE};
            use crate::TOMBSTONE;
            let base: Vec<u64> = match shape {
                0 => Vec::new(),
                _ => base.into_iter().collect(),
            };
            let newer: Vec<(u64, bool)> = match shape {
                1 => Vec::new(),
                _ => newer
                    .into_iter()
                    .zip(&deaths)
                    .map(|(k, &d)| (k, shape == 2 || d == 0))
                    .collect(),
            };
            check_overlay(
                base.iter().map(|&k| Record::new(k, k)).collect(),
                newer
                    .iter()
                    .map(|&(k, dead)| Record::new(k, if dead { TOMBSTONE } else { k + 1 }))
                    .collect(),
                |r| r.key,
                |r| r.value == TOMBSTONE,
            );
            let anchor = |key, run, page| ViewEntry { key, run, page };
            check_overlay(
                base.iter().map(|&k| anchor(k, 0, k as u32 % 7)).collect(),
                newer
                    .iter()
                    .map(|&(k, dead)| anchor(k, 1, if dead { DEAD_PAGE } else { 3 }))
                    .collect(),
                |e| e.key,
                |e| e.page == DEAD_PAGE,
            );
        }
    }

    #[test]
    fn gallops_agree_with_partition_point() {
        for n in 0..40u64 {
            let s: Vec<u64> = (0..n).map(|k| 2 * k).collect();
            for k in 0..2 * n + 2 {
                let want = s.partition_point(|&x| x < k);
                assert_eq!(gallop(&s, |&x| x < k), want, "n={n} k={k}");
                assert_eq!(gallop_back(&s, |&x| x < k), want, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn page_past_the_end_is_corrupt_not_a_panic() {
        let mut p = pager();
        let run = SortedRun::build(&mut p, &recs(1000), FilterKind::Bloom, 0.0).unwrap();
        let err = run.with_page(&mut p, run.num_pages(), |_| ()).unwrap_err();
        assert!(matches!(err, RumError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn build_and_probe() {
        let mut p = pager();
        let run = SortedRun::build(&mut p, &recs(1000), FilterKind::Bloom, 10.0).unwrap();
        assert_eq!(run.len(), 1000);
        assert_eq!(run.get(&mut p, 500).unwrap(), Some(250));
        assert_eq!(run.get(&mut p, 501).unwrap(), None);
        assert_eq!(run.get(&mut p, 0).unwrap(), Some(0));
        assert_eq!(run.get(&mut p, 1998).unwrap(), Some(999));
    }

    #[test]
    fn probe_reads_at_most_one_page() {
        let mut p = pager();
        let run = SortedRun::build(
            &mut p,
            &recs(64 * RECORDS_PER_PAGE as u64),
            FilterKind::Bloom,
            10.0,
        )
        .unwrap();
        let before = p.tracker().snapshot();
        run.get(&mut p, 12346).unwrap();
        let d = p.tracker().since(&before);
        assert_eq!(d.page_reads, 1, "fences route to exactly one page");
    }

    #[test]
    fn bloom_short_circuits_misses() {
        let mut p = pager();
        let run = SortedRun::build(&mut p, &recs(10_000), FilterKind::Bloom, 10.0).unwrap();
        let before = p.tracker().snapshot();
        let mut pages = 0;
        for k in 0..1000u64 {
            run.get(&mut p, 1_000_001 + k).unwrap();
            pages += 0;
        }
        let _ = pages;
        let d = p.tracker().since(&before);
        // ~1% FPR at 10 bits/key: almost no page reads for 1000 misses.
        assert!(d.page_reads < 50, "bloom failed to prune: {}", d.page_reads);
    }

    #[test]
    fn no_bloom_means_every_miss_reads_a_page() {
        let mut p = pager();
        let run = SortedRun::build(&mut p, &recs(10_000), FilterKind::Bloom, 0.0).unwrap();
        assert!(!run.has_bloom());
        let before = p.tracker().snapshot();
        for k in 0..100u64 {
            // In-domain misses (odd keys).
            run.get(&mut p, 2 * k + 1).unwrap();
        }
        let d = p.tracker().since(&before);
        assert_eq!(d.page_reads, 100);
    }

    #[test]
    fn range_is_inclusive_and_sequential() {
        let mut p = pager();
        let run = SortedRun::build(&mut p, &recs(5000), FilterKind::Bloom, 10.0).unwrap();
        let rs = run.range(&mut p, 100, 200).unwrap();
        let keys: Vec<u64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(keys, (100..=200).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn range_cost_scales_with_result() {
        let mut p = pager();
        let run = SortedRun::build(
            &mut p,
            &recs(64 * RECORDS_PER_PAGE as u64),
            FilterKind::Bloom,
            10.0,
        )
        .unwrap();
        let cost = |run: &SortedRun, p: &mut Pager<MemDevice>, span: u64| {
            let before = p.tracker().snapshot();
            run.range(p, 1000, 1000 + span).unwrap();
            p.tracker().since(&before).page_reads
        };
        let small = cost(&run, &mut p, 256);
        let large = cost(&run, &mut p, 256 * 64);
        assert!(large > small * 8, "{small} vs {large}");
    }

    #[test]
    fn scan_all_roundtrips() {
        let mut p = pager();
        let data = recs(3000);
        let run = SortedRun::build(&mut p, &data, FilterKind::Bloom, 5.0).unwrap();
        assert_eq!(run.scan_all(&mut p).unwrap(), data);
    }

    #[test]
    fn destroy_frees_pages() {
        let mut p = pager();
        let run = SortedRun::build(&mut p, &recs(1000), FilterKind::Bloom, 5.0).unwrap();
        assert!(p.live_pages() > 0);
        run.destroy(&mut p).unwrap();
        assert_eq!(p.live_pages(), 0);
    }

    #[test]
    fn empty_run() {
        let mut p = pager();
        let run = SortedRun::build(&mut p, &[], FilterKind::Bloom, 10.0).unwrap();
        assert!(run.is_empty());
        assert_eq!(run.get(&mut p, 5).unwrap(), None);
        assert!(run.range(&mut p, 0, 100).unwrap().is_empty());
    }
}
