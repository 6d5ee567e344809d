//! REMIX-style cross-run sorted view.
//!
//! An LSM range query normally probes every run (fence search + boundary
//! pages) and k-way-merges the results. The sorted view trades memory for
//! those reads, exactly the RUM read/memory corner: a globally-sorted
//! array of `(key, run, page)` anchors, one per **live, newest** key
//! across all runs, resolved once at build time. A range query then does
//! a single binary search into the view and walks forward in key order,
//! fetching each referenced page at most once — shadowed versions,
//! tombstoned keys, and runs outside the range are never touched.
//!
//! The view is an auxiliary structure: its resident bytes are charged to
//! MO by [`LsmTree::space_profile`](crate::LsmTree), and the I/O of each
//! lazy (re)build is re-classed as auxiliary *write* traffic (UO) by the
//! tree, so the RO it buys on queries is paid for in the other two
//! corners rather than hidden.

use std::collections::BTreeMap;

use rum_core::{DataClass, Key, Record, Result, RumError};
use rum_storage::{BlockDevice, Pager};

use crate::run::SortedRun;
use crate::TOMBSTONE;

/// Bytes one anchor occupies: an 8-byte key plus two 4-byte indices.
const ENTRY_BYTES: u64 = 16;

/// One anchor: the newest live version of `key` lives in page `page` of
/// run `run` (both indices into the tree's oldest→newest run order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ViewEntry {
    pub key: Key,
    pub run: u32,
    pub page: u32,
}

/// A globally-sorted view over a fixed set of runs. Valid only for the
/// exact run set it was built from; the tree drops it whenever a flush,
/// compaction, or bulk load changes the runs.
pub struct SortedView {
    /// Anchors sorted by key, tombstones and shadowed versions excluded.
    entries: Vec<ViewEntry>,
}

impl SortedView {
    /// Build the view by scanning `runs` (ordered **oldest → newest**)
    /// once. All read traffic lands on `pager`'s current tracker; the
    /// caller decides how to class it (the tree books it as UO).
    pub fn build<D: BlockDevice>(pager: &mut Pager<D>, runs: &[&SortedRun]) -> Result<SortedView> {
        // Newest version wins: later (newer) runs overwrite earlier ones.
        let mut newest: BTreeMap<Key, (u32, u32, u64)> = BTreeMap::new();
        for (run_idx, run) in runs.iter().enumerate() {
            for page_idx in 0..run.num_pages() {
                run.with_page(pager, page_idx, |recs| {
                    for rec in recs.iter() {
                        newest.insert(rec.key, (run_idx as u32, page_idx as u32, rec.value));
                    }
                })?;
            }
        }
        Ok(SortedView {
            entries: newest
                .into_iter()
                .filter(|&(_, (_, _, v))| v != TOMBSTONE)
                .map(|(key, (run, page, _))| ViewEntry { key, run, page })
                .collect(),
        })
    }

    /// Anchors in the view.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resident auxiliary bytes, charged to MO by the tree.
    pub fn size_bytes(&self) -> u64 {
        self.entries.len() as u64 * ENTRY_BYTES
    }

    /// Serve `[lo, hi]` from the view: one binary search, then a forward
    /// walk fetching each referenced `(run, page)` at most once. Returns
    /// the live on-disk records in the range, sorted by key — the exact
    /// run contents the probe-every-run path would produce after merging
    /// (memtable entries are the caller's to merge in).
    pub fn range<D: BlockDevice>(
        &self,
        pager: &mut Pager<D>,
        runs: &[&SortedRun],
        lo: Key,
        hi: Key,
    ) -> Result<Vec<Record>> {
        // The binary search touches log2(n) anchors of in-memory aux
        // metadata — same pricing as a run's fence search.
        let steps = (self.entries.len().max(2) as f64).log2().ceil() as u64;
        pager.tracker().read(DataClass::Aux, steps * 8);
        let start = self.entries.partition_point(|e| e.key < lo);
        let anchors = &self.entries[start..];
        let anchors = &anchors[..anchors.partition_point(|e| e.key <= hi)];
        // Pages are fetched in the order the key walk first names them,
        // each once; while a page is lent, every anchor in the range that
        // names it is resolved, so no page is kept after its read.
        let mut out = vec![Record::default(); anchors.len()];
        let mut resolved = vec![false; anchors.len()];
        for i in 0..anchors.len() {
            if resolved[i] {
                continue;
            }
            let (run, page) = (anchors[i].run, anchors[i].page);
            runs[run as usize].with_page(pager, page as usize, |recs| {
                let last = recs.last().map_or(0, |r| r.key);
                // Anchors and records both ascend: one forward cursor.
                let mut at = 0;
                for (j, e) in anchors.iter().enumerate().skip(i) {
                    if e.key > last {
                        break;
                    }
                    if (e.run, e.page) != (run, page) {
                        continue;
                    }
                    // Neighbouring live keys are usually neighbouring
                    // records, so the record under the cursor is tried
                    // before the rest of the page is searched.
                    if recs.get(at).is_none_or(|r| r.key != e.key) {
                        at += recs.tail(at).lower_bound(e.key);
                    }
                    match recs.get(at) {
                        Some(r) if r.key == e.key => {
                            out[j] = r;
                            resolved[j] = true;
                            at += 1;
                        }
                        _ => break,
                    }
                }
            })?;
            if !resolved[i] {
                return Err(RumError::Corrupt(format!(
                    "stale view anchor: key {} is not in page {page} of run {run}",
                    anchors[i].key
                )));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::FilterKind;
    use rum_core::CostTracker;
    use rum_storage::MemDevice;

    fn pager() -> Pager<MemDevice> {
        Pager::new(MemDevice::new(), CostTracker::new())
    }

    fn run_of(p: &mut Pager<MemDevice>, recs: &[Record]) -> SortedRun {
        SortedRun::build(p, recs, FilterKind::Bloom, 0.0).unwrap()
    }

    #[test]
    fn newest_version_wins_and_tombstones_drop() {
        let mut p = pager();
        let old = run_of(
            &mut p,
            &[
                Record::new(1, 10),
                Record::new(2, 20),
                Record::new(3, 30),
                Record::new(4, 40),
            ],
        );
        let new = run_of(&mut p, &[Record::new(2, 99), Record::new(3, TOMBSTONE)]);
        let runs = [&old, &new];
        let view = SortedView::build(&mut p, &runs).unwrap();
        assert_eq!(view.len(), 3); // 1, 2 (new), 4 — tombstoned 3 dropped
        let got = view.range(&mut p, &runs, 0, u64::MAX).unwrap();
        assert_eq!(
            got,
            vec![Record::new(1, 10), Record::new(2, 99), Record::new(4, 40)]
        );
    }

    #[test]
    fn range_reads_each_page_once() {
        let mut p = pager();
        let recs: Vec<Record> = (0..2000u64).map(|k| Record::new(k, k)).collect();
        let run = run_of(&mut p, &recs);
        let runs = [&run];
        let view = SortedView::build(&mut p, &runs).unwrap();
        let before = p.tracker().snapshot();
        let got = view.range(&mut p, &runs, 100, 400).unwrap();
        assert_eq!(got.len(), 301);
        let d = p.tracker().since(&before);
        // 301 keys spanning at most ceil(301/256)+1 = 3 pages.
        assert!(d.page_reads <= 3, "pages read: {}", d.page_reads);
    }

    #[test]
    fn empty_view_yields_empty_range() {
        let mut p = pager();
        let view = SortedView::build(&mut p, &[]).unwrap();
        assert!(view.is_empty());
        assert_eq!(view.size_bytes(), 0);
        assert_eq!(view.range(&mut p, &[], 0, u64::MAX).unwrap(), vec![]);
    }
}
