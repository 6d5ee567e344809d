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
//! A flush or compaction does not throw the anchors away. The next
//! view-enabled range [`refresh`](SortedView::refresh)es them the way
//! REMIX absorbs a run-set change: only the *added* runs' pages are read,
//! their candidates are merged with each other, and the result is laid
//! over the surviving anchors in place ([`overlay`]), so a memtable fill
//! moves blocks of the anchor array instead of copying it into a new one.
//! The anchors of runs that are gone are dropped first. A cold build is a
//! refresh from the empty view.
//!
//! The view is an auxiliary structure: its resident bytes are charged to
//! MO by [`LsmTree::space_profile`](crate::LsmTree) whether or not they
//! are current, and the I/O and anchor traffic of each lazy refresh is
//! re-classed as auxiliary *write* traffic by the tree, so the RO it buys
//! on queries is paid for in the other two corners rather than hidden.

use rum_core::{merge_streams, DataClass, Key, Record, Result, RumError};
use rum_storage::{BlockDevice, Pager};

use crate::run::{overlay, SortedRun};
use crate::TOMBSTONE;

/// Bytes one anchor occupies: an 8-byte key plus two 4-byte indices.
pub(crate) const ENTRY_BYTES: u64 = 16;

/// `page` of a refresh candidate whose record is a tombstone: it shadows
/// older anchors of its key during the merge and is never kept.
pub(crate) const DEAD_PAGE: u32 = u32::MAX;

/// One anchor: the newest live version of `key` lives in page `page` of
/// the run whose [`id`](SortedRun::id) is `run`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ViewEntry {
    pub key: Key,
    pub run: u32,
    pub page: u32,
}

/// A globally-sorted view over a set of runs, named by id. It answers
/// ranges only for exactly that run set; after a flush, compaction or
/// bulk load the tree [`refresh`](Self::refresh)es it first.
#[derive(Default)]
pub struct SortedView {
    /// Anchors sorted by key, tombstones and shadowed versions excluded.
    entries: Vec<ViewEntry>,
    /// Ids of the runs the anchors were resolved over: a word per run of
    /// bookkeeping, like a run's own page list, not a priced index.
    runs: Vec<u32>,
}

/// What one [`SortedView::refresh`] did, for the tree to charge and trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Refresh {
    /// Runs new to the view, each scanned once.
    pub added_runs: usize,
    /// Runs the view knew that are gone; their anchors were dropped.
    pub dropped_runs: usize,
    /// Surviving old anchors the added runs were laid over.
    pub old_anchors: usize,
}

impl SortedView {
    /// Build the view over `runs` (ordered **oldest → newest**): a
    /// [`refresh`](Self::refresh) from the empty view, so every run is
    /// scanned once, in order.
    pub fn build<'a, D: BlockDevice>(
        pager: &mut Pager<D>,
        runs: impl Iterator<Item = &'a SortedRun> + Clone,
    ) -> Result<SortedView> {
        let mut view = SortedView::default();
        view.refresh(pager, runs)?;
        Ok(view)
    }

    /// Bring the view up to date with `runs` (ordered **oldest →
    /// newest**) by overlaying, not rebuilding: scan only the runs the
    /// view has not seen and merge their candidates, tombstones kept;
    /// drop the anchors of runs that are gone; then lay the candidates
    /// over the surviving anchors in place, where a candidate beats the
    /// anchor of its key and a tombstone deletes it. All read traffic
    /// lands on `pager`'s current tracker; the caller decides how to class
    /// it (the tree books it as maintenance). Every page is read before
    /// an anchor changes, so on an error the view is left as it was.
    ///
    /// Two facts about the tree make the merge sound. (1) A run the tree
    /// places is newer than every run that survives it, so an added run
    /// always beats a surviving anchor. (2) Every key of a removed run
    /// reappears in the run its merge produced, unless its newest version
    /// was a tombstone dropped at the bottom level, where nothing older
    /// is left; so dropping a removed run's anchors never un-shadows an
    /// older version.
    pub fn refresh<'a, D: BlockDevice>(
        &mut self,
        pager: &mut Pager<D>,
        runs: impl Iterator<Item = &'a SortedRun> + Clone,
    ) -> Result<Refresh> {
        let live: Vec<u32> = runs.clone().map(SortedRun::id).collect();
        let known = |id: &u32| self.runs.contains(id);
        debug_assert!(
            live.iter().skip_while(|id| known(id)).all(|id| !known(id)),
            "an added run must be newer than every surviving run"
        );
        let mut fresh = Vec::new();
        for run in runs.filter(|r| !known(&r.id())) {
            assert!(run.num_pages() < DEAD_PAGE as usize, "page index is a u32");
            let mut candidates = Vec::with_capacity(run.len());
            for page_idx in 0..run.num_pages() {
                run.with_page(pager, page_idx, |recs| {
                    candidates.extend(recs.iter().map(|rec| ViewEntry {
                        key: rec.key,
                        run: run.id(),
                        page: if rec.value == TOMBSTONE {
                            DEAD_PAGE
                        } else {
                            page_idx as u32
                        },
                    }));
                })?;
            }
            fresh.push(candidates);
        }
        let added_runs = fresh.len();
        let dropped_runs = self.runs.iter().filter(|id| !live.contains(id)).count();
        let dead = |e: &ViewEntry| e.page == DEAD_PAGE;
        let mut newer = merge_streams(&mut fresh, |e| e.key, |_| true);
        if dropped_runs > 0 {
            self.entries.retain(|e| live.contains(&e.run));
        }
        let old_anchors = self.entries.len();
        if old_anchors == 0 {
            // A cold build: the candidates are the anchors.
            newer.retain(|e| !dead(e));
            self.entries = newer;
        } else {
            overlay(&mut self.entries, newer.iter().copied(), |e| e.key, dead);
        }
        self.runs = live;
        Ok(Refresh {
            added_runs,
            dropped_runs,
            old_anchors,
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
    /// (memtable entries are the caller's to lay over it). `runs` must be
    /// the run set the view was last refreshed over; an anchor that names no
    /// such run, a page its run does not have or a page that does not
    /// hold its key is `Corrupt`.
    pub fn range<'a, D: BlockDevice>(
        &self,
        pager: &mut Pager<D>,
        runs: impl Iterator<Item = &'a SortedRun> + Clone,
        lo: Key,
        hi: Key,
    ) -> Result<Vec<Record>> {
        // The binary search touches log2(n) anchors of in-memory aux
        // metadata — same pricing as a run's fence search.
        pager
            .tracker()
            .search(DataClass::Aux, self.entries.len(), 8);
        let tail = &self.entries[self.entries.partition_point(|e| e.key < lo)..];
        // A range is short against the view: gallop to its end rather
        // than bisect the whole tail.
        let mut reach = 1;
        while reach < tail.len() && tail[reach - 1].key <= hi {
            reach *= 2;
        }
        let tail = &tail[..reach.min(tail.len())];
        let anchors = &tail[..tail.partition_point(|e| e.key <= hi)];
        // Pages are fetched in the order the key walk first names them,
        // each once; while a page is lent, every anchor in the range that
        // names it is resolved, so no page is kept after its read. No
        // anchor names a tombstone, so that value marks the unresolved.
        let mut out: Vec<Record> = anchors
            .iter()
            .map(|e| Record::new(e.key, TOMBSTONE))
            .collect();
        for i in 0..anchors.len() {
            if out[i].value != TOMBSTONE {
                continue;
            }
            let (id, page) = (anchors[i].run, anchors[i].page);
            let run = runs.clone().find(|r| r.id() == id).ok_or_else(|| {
                RumError::Corrupt(format!(
                    "view anchor for key {} names unknown run {id}",
                    anchors[i].key
                ))
            })?;
            run.with_page(pager, page as usize, |recs| {
                let last = recs.last().map_or(0, |r| r.key);
                // Anchors and records both ascend: one forward cursor.
                let mut at = 0;
                for (j, e) in anchors.iter().enumerate().skip(i) {
                    if e.key > last {
                        break;
                    }
                    if (e.run, e.page) != (id, page) {
                        continue;
                    }
                    // Neighbouring live keys are usually neighbouring
                    // records, so the record under the cursor is tried
                    // before the rest of the page is searched.
                    if recs.get(at).is_none_or(|r| r.key != e.key) {
                        at += recs.tail(at).lower_bound(e.key);
                    }
                    match recs.get(at) {
                        Some(r) if r.key == e.key && r.value != TOMBSTONE => {
                            out[j] = r;
                            at += 1;
                        }
                        _ => break,
                    }
                }
            })?;
            if out[i].value == TOMBSTONE {
                return Err(RumError::Corrupt(format!(
                    "stale view anchor: key {} is not in page {page} of run {id}",
                    anchors[i].key
                )));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
impl SortedView {
    /// A view with whatever anchors a test wants, hostile ones included.
    pub(crate) fn forged(entries: Vec<ViewEntry>, runs: Vec<u32>) -> SortedView {
        SortedView { entries, runs }
    }

    pub(crate) fn anchors(&self) -> &[ViewEntry] {
        &self.entries
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

    fn run_of(p: &mut Pager<MemDevice>, id: u32, recs: &[Record]) -> SortedRun {
        SortedRun::build(p, recs, FilterKind::Bloom, 0.0)
            .unwrap()
            .with_id(id)
    }

    #[test]
    fn newest_version_wins_and_tombstones_drop() {
        let mut p = pager();
        let old = run_of(
            &mut p,
            7,
            &[
                Record::new(1, 10),
                Record::new(2, 20),
                Record::new(3, 30),
                Record::new(4, 40),
            ],
        );
        let new = run_of(&mut p, 9, &[Record::new(2, 99), Record::new(3, TOMBSTONE)]);
        let runs = [&old, &new];
        let view = SortedView::build(&mut p, runs.into_iter()).unwrap();
        assert_eq!(view.len(), 3); // 1, 2 (new), 4 — tombstoned 3 dropped
        let got = view.range(&mut p, runs.into_iter(), 0, u64::MAX).unwrap();
        assert_eq!(
            got,
            vec![Record::new(1, 10), Record::new(2, 99), Record::new(4, 40)]
        );
    }

    #[test]
    fn refresh_merges_added_runs_and_drops_removed_ones() {
        let mut p = pager();
        let base: Vec<Record> = (0..600u64).map(|k| Record::new(k, k)).collect();
        let bottom = run_of(&mut p, 1, &base);
        let doomed = run_of(&mut p, 2, &[Record::new(5, 50), Record::new(700, 7)]);
        let mut view = SortedView::build(&mut p, [&bottom, &doomed].into_iter()).unwrap();
        assert_eq!(view.len(), 601);
        // `doomed` is merged with newer writes into `merged`: key 5 is
        // rewritten, key 700 deleted (the tombstone stays, `bottom` is
        // deeper), key 9 deleted in `bottom`, key 800 is new.
        let merged = run_of(
            &mut p,
            3,
            &[
                Record::new(5, 51),
                Record::new(9, TOMBSTONE),
                Record::new(700, TOMBSTONE),
                Record::new(800, 8),
            ],
        );
        let live = [&bottom, &merged];
        let before = p.tracker().snapshot();
        let did = view.refresh(&mut p, live.into_iter()).unwrap();
        assert_eq!(
            did,
            Refresh {
                added_runs: 1,
                dropped_runs: 1,
                old_anchors: 599 // key 5's anchor went with `doomed`
            }
        );
        // Only the added run was read.
        assert_eq!(
            p.tracker().since(&before).page_reads,
            merged.num_pages() as u64
        );
        let cold = SortedView::build(&mut p, live.into_iter()).unwrap();
        assert_eq!(view.anchors(), cold.anchors());
        assert_eq!(view.len(), 600); // 600 - key 9 + key 800
        let got = view.range(&mut p, live.into_iter(), 0, 10).unwrap();
        assert_eq!(got.len(), 10);
        assert_eq!(got[5], Record::new(5, 51));
        // A refresh with nothing to do reads nothing and keeps the anchors.
        let before = p.tracker().snapshot();
        let did = view.refresh(&mut p, live.into_iter()).unwrap();
        assert_eq!((did.added_runs, did.dropped_runs), (0, 0));
        assert_eq!(p.tracker().since(&before).page_reads, 0);
        assert_eq!(view.anchors(), cold.anchors());
    }

    #[test]
    fn range_reads_each_page_once() {
        let mut p = pager();
        let recs: Vec<Record> = (0..2000u64).map(|k| Record::new(k, k)).collect();
        let run = run_of(&mut p, 0, &recs);
        let runs = [&run];
        let view = SortedView::build(&mut p, runs.into_iter()).unwrap();
        let before = p.tracker().snapshot();
        let got = view.range(&mut p, runs.into_iter(), 100, 400).unwrap();
        assert_eq!(got.len(), 301);
        let d = p.tracker().since(&before);
        // 301 keys spanning at most ceil(301/256)+1 = 3 pages.
        assert!(d.page_reads <= 3, "pages read: {}", d.page_reads);
    }

    #[test]
    fn empty_view_yields_empty_range() {
        let mut p = pager();
        let view = SortedView::build(&mut p, std::iter::empty()).unwrap();
        assert!(view.is_empty());
        assert_eq!(view.size_bytes(), 0);
        assert_eq!(
            view.range(&mut p, std::iter::empty(), 0, u64::MAX).unwrap(),
            vec![]
        );
    }

    #[test]
    fn hostile_anchors_are_corrupt_not_a_panic() {
        let mut p = pager();
        let recs: Vec<Record> = (0..300u64).map(|k| Record::new(k, k)).collect();
        let run = run_of(&mut p, 4, &recs);
        let anchor = |run, page| ViewEntry { key: 10, run, page };
        for (bad, why) in [
            (anchor(5, 0), "unknown run"),
            (anchor(4, 2), "page past the run's end"),
            (anchor(4, u32::MAX), "page far past the run's end"),
            (anchor(4, 1), "page that does not hold the key"),
        ] {
            let view = SortedView::forged(vec![bad], vec![4]);
            let err = view.range(&mut p, [&run].into_iter(), 0, 100).unwrap_err();
            assert!(matches!(err, RumError::Corrupt(_)), "{why}: {err:?}");
        }
    }
}
