//! Adaptive merging (Graefe & Kuno): "self-selecting, self-tuning,
//! incrementally optimized indexes". Data starts as sorted runs; each
//! query merges only the key ranges it touches into a consolidated store,
//! so the index materializes exactly where the workload looks.

use std::collections::BTreeMap;
use std::sync::Arc;

use rum_core::{
    base_bytes, AccessMethod, CostTracker, DataClass, Key, Record, Result, SpaceProfile, Value,
};

/// A set of disjoint inclusive intervals over `u64`.
#[derive(Clone, Debug, Default)]
pub struct IntervalSet {
    /// Sorted, disjoint, non-adjacent `(lo, hi)` inclusive intervals.
    iv: Vec<(u64, u64)>,
}

impl IntervalSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.iv.len()
    }

    pub fn is_empty(&self) -> bool {
        self.iv.is_empty()
    }

    /// Add `[lo, hi]`, merging with overlapping/adjacent intervals.
    pub fn add(&mut self, lo: u64, hi: u64) {
        debug_assert!(lo <= hi);
        let mut new_lo = lo;
        let mut new_hi = hi;
        let mut out = Vec::with_capacity(self.iv.len() + 1);
        let mut placed = false;
        for &(a, b) in &self.iv {
            if b.saturating_add(1) < new_lo {
                out.push((a, b)); // entirely left
            } else if a > new_hi.saturating_add(1) {
                if !placed {
                    out.push((new_lo, new_hi));
                    placed = true;
                }
                out.push((a, b)); // entirely right
            } else {
                // Overlapping or adjacent: absorb.
                new_lo = new_lo.min(a);
                new_hi = new_hi.max(b);
            }
        }
        if !placed {
            out.push((new_lo, new_hi));
        }
        self.iv = out;
    }

    /// Whether `[lo, hi]` is fully covered.
    pub fn covers(&self, lo: u64, hi: u64) -> bool {
        self.iv.iter().any(|&(a, b)| a <= lo && hi <= b)
    }

    /// Whether the point `p` is covered.
    pub fn contains(&self, p: u64) -> bool {
        self.covers(p, p)
    }

    /// Sub-intervals of `[lo, hi]` NOT covered yet.
    pub fn uncovered(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cursor = lo;
        for &(a, b) in &self.iv {
            if b < cursor {
                continue;
            }
            if a > hi {
                break;
            }
            if a > cursor {
                out.push((cursor, a - 1));
            }
            if b >= hi {
                return out; // covered through the end of the query
            }
            cursor = b + 1; // safe: b < hi <= u64::MAX
        }
        if cursor <= hi {
            out.push((cursor, hi));
        }
        out
    }
}

/// The adaptive merger.
///
/// `consolidate` drains every run copy of each key range it covers, so
/// the runs hold only uncovered keys and `merged` holds exactly the live
/// covered ones: the two stores together are the live set, and nothing
/// else needs to remember which keys exist.
pub struct AdaptiveMerger {
    /// Initial sorted runs; records migrate out as queries touch them.
    runs: Vec<Vec<Record>>,
    /// The consolidated (fully indexed) store; authoritative for every
    /// covered key.
    merged: BTreeMap<Key, Value>,
    /// Key ranges already consolidated.
    covered: IntervalSet,
    run_records: usize,
    tracker: Arc<CostTracker>,
}

impl AdaptiveMerger {
    /// Runs of `run_records` records each.
    pub fn new(run_records: usize) -> Self {
        AdaptiveMerger {
            runs: Vec::new(),
            merged: BTreeMap::new(),
            covered: IntervalSet::new(),
            run_records: run_records.max(16),
            tracker: CostTracker::new(),
        }
    }

    /// Records still sitting in un-merged runs.
    pub fn unmerged_records(&self) -> usize {
        self.runs.iter().map(|r| r.len()).sum()
    }

    /// Records consolidated so far.
    pub fn merged_records(&self) -> usize {
        self.merged.len()
    }

    /// Pull every record in `[lo, hi]` out of the runs into the merged
    /// store, charging the binary searches, the records moved, and the
    /// shifts within each run.
    fn consolidate(&mut self, lo: Key, hi: Key) {
        for (flo, fhi) in self.covered.uncovered(lo, hi) {
            for run in &mut self.runs {
                let start = run.partition_point(|r| r.key < flo);
                let end = run.partition_point(|r| r.key <= fhi);
                // One binary search over the run per bound (auxiliary
                // probing).
                self.tracker.search(DataClass::Aux, run.len(), 8);
                self.tracker.search(DataClass::Aux, run.len(), 8);
                if start == end {
                    continue;
                }
                let moved = end - start;
                let shifted = run.len() - end;
                // Read the extracted records, write them into the merged
                // store, and pay for closing the gap in the run.
                self.tracker.read_records(moved);
                self.tracker.write_records(moved + shifted);
                for r in run.drain(start..end) {
                    // Never clobber a newer version already consolidated.
                    self.merged.entry(r.key).or_insert(r.value);
                }
            }
            self.covered.add(flo, fhi);
        }
        self.runs.retain(|r| !r.is_empty());
    }

    /// Charged read of merged entries in `[lo, hi]`.
    fn read_merged(&self, lo: Key, hi: Key) -> Vec<Record> {
        let out: Vec<Record> = self
            .merged
            .range(lo..=hi)
            .map(|(&k, &v)| Record::new(k, v))
            .collect();
        self.tracker.read_records(out.len().max(1));
        out
    }
}

impl Default for AdaptiveMerger {
    fn default() -> Self {
        Self::new(4096)
    }
}

impl AccessMethod for AdaptiveMerger {
    fn name(&self) -> String {
        "adaptive-merging".into()
    }

    fn len(&self) -> usize {
        self.merged.len() + self.unmerged_records()
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        &self.tracker
    }

    fn space_profile(&self) -> SpaceProfile {
        let records = base_bytes(self.unmerged_records() + self.merged.len());
        let interval_meta = self.covered.len() as u64 * 16;
        // The merged store keeps tree structure: ~16 bytes/entry overhead.
        let tree_overhead = self.merged.len() as u64 * 16;
        SpaceProfile::from_physical(self.len(), records + interval_meta + tree_overhead)
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        self.consolidate(key, key);
        let r = self.merged.get(&key).copied();
        self.tracker.read_records(1);
        Ok(r)
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        self.consolidate(lo, hi);
        Ok(self.read_merged(lo, hi))
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        // New data goes straight to the consolidated store and marks its
        // point covered, so stale run copies can never resurface over it.
        self.consolidate(key, key);
        self.merged.insert(key, value);
        self.tracker.write_records(1);
        Ok(())
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        self.consolidate(key, key);
        let Some(slot) = self.merged.get_mut(&key) else {
            return Ok(false);
        };
        *slot = value;
        self.tracker.write_records(1);
        Ok(true)
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        self.consolidate(key, key);
        if self.merged.remove(&key).is_none() {
            return Ok(false);
        }
        self.tracker.write_records(1);
        Ok(true)
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.merged.clear();
        self.covered = IntervalSet::new();
        // Initial runs: contiguous chunks, each sorted (input is sorted,
        // so chunks are too — real systems sort each run at load).
        self.runs = records
            .chunks(self.run_records)
            .map(|c| c.to_vec())
            .collect();
        self.tracker.write_records(records.len());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::oracle::{check, hostile_ops};

    mod interval_set {
        use super::*;

        #[test]
        fn add_and_merge() {
            let mut s = IntervalSet::new();
            s.add(10, 20);
            s.add(30, 40);
            assert_eq!(s.len(), 2);
            s.add(18, 32); // bridges both
            assert_eq!(s.len(), 1);
            assert!(s.covers(10, 40));
            assert!(!s.covers(9, 40));
        }

        #[test]
        fn adjacent_intervals_coalesce() {
            let mut s = IntervalSet::new();
            s.add(0, 9);
            s.add(10, 19);
            assert_eq!(s.len(), 1);
            assert!(s.covers(0, 19));
        }

        #[test]
        fn uncovered_complement() {
            let mut s = IntervalSet::new();
            s.add(10, 20);
            s.add(40, 50);
            assert_eq!(s.uncovered(0, 60), vec![(0, 9), (21, 39), (51, 60)]);
            assert_eq!(s.uncovered(15, 18), vec![]);
            assert_eq!(s.uncovered(15, 45), vec![(21, 39)]);
            assert_eq!(s.uncovered(25, 30), vec![(25, 30)]);
        }

        #[test]
        fn edge_of_domain() {
            let mut s = IntervalSet::new();
            s.add(u64::MAX - 5, u64::MAX);
            assert!(s.contains(u64::MAX));
            assert_eq!(
                s.uncovered(u64::MAX - 10, u64::MAX),
                vec![(u64::MAX - 10, u64::MAX - 6)]
            );
        }

        #[test]
        fn random_model_check() {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(17);
            let mut s = IntervalSet::new();
            let mut model = vec![false; 1000];
            for _ in 0..200 {
                let lo = rng.gen_range(0..1000u64);
                let hi = (lo + rng.gen_range(0..50u64)).min(999);
                s.add(lo, hi);
                for m in model.iter_mut().take(hi as usize + 1).skip(lo as usize) {
                    *m = true;
                }
                // Verify covers/uncovered against the model.
                let qlo = rng.gen_range(0..990u64);
                let qhi = qlo + rng.gen_range(0..10u64);
                let expect_cover = (qlo..=qhi).all(|i| model[i as usize]);
                assert_eq!(s.covers(qlo, qhi), expect_cover);
                let unc = s.uncovered(qlo, qhi);
                for i in qlo..=qhi {
                    let in_unc = unc.iter().any(|&(a, b)| a <= i && i <= b);
                    assert_eq!(in_unc, !model[i as usize], "point {i}");
                }
            }
        }
    }

    fn loaded(n: u64, run: usize) -> AdaptiveMerger {
        let recs: Vec<Record> = (0..n).map(|k| Record::new(k, k + 1)).collect();
        let mut m = AdaptiveMerger::new(run);
        m.bulk_load(&recs).unwrap();
        m
    }

    #[test]
    fn crud_roundtrip() {
        let mut m = loaded(1000, 100);
        assert_eq!(m.get(500).unwrap(), Some(501));
        assert_eq!(m.get(1000).unwrap(), None);
        assert!(m.update(500, 9).unwrap());
        assert_eq!(m.get(500).unwrap(), Some(9));
        assert!(m.delete(500).unwrap());
        assert!(!m.delete(500).unwrap());
        assert_eq!(m.get(500).unwrap(), None);
        m.insert(500, 77).unwrap();
        assert_eq!(m.get(500).unwrap(), Some(77));
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn queries_consolidate_their_ranges() {
        let mut m = loaded(10_000, 1000);
        assert_eq!(m.unmerged_records(), 10_000);
        let rs = m.range(2000, 2999).unwrap();
        assert_eq!(rs.len(), 1000);
        assert_eq!(m.merged_records(), 1000);
        assert_eq!(m.unmerged_records(), 9000);
        // Re-querying the hot range touches runs no more.
        let before = m.tracker().snapshot();
        m.range(2100, 2200).unwrap();
        let d = m.tracker().since(&before);
        assert_eq!(d.total_write_bytes(), 0, "no more reorganization");
    }

    #[test]
    fn repeated_queries_get_cheaper() {
        let mut m = loaded(100_000, 10_000);
        let cost = |m: &mut AdaptiveMerger| {
            let before = m.tracker().snapshot();
            m.range(50_000, 50_999).unwrap();
            m.tracker().since(&before).total_read_bytes()
        };
        let first = cost(&mut m);
        let second = cost(&mut m);
        assert!(
            second < first / 2,
            "adaptive merging should converge: {first} -> {second}"
        );
    }

    #[test]
    fn cold_data_is_never_reorganized() {
        let mut m = loaded(10_000, 1000);
        for _ in 0..50 {
            m.range(1000, 1099).unwrap();
        }
        // Only the queried range was consolidated.
        assert!(m.merged_records() <= 1100);
        assert!(m.unmerged_records() >= 8900);
    }

    #[test]
    fn results_correct_across_consolidation_boundaries() {
        let mut m = loaded(5000, 500);
        m.range(100, 200).unwrap();
        m.range(150, 400).unwrap(); // overlaps covered + uncovered
        let rs = m.range(90, 410).unwrap();
        let keys: Vec<u64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(keys, (90..=410).collect::<Vec<_>>());
    }

    #[test]
    fn inserts_never_resurface_stale_run_copies() {
        let mut m = loaded(1000, 100);
        // Overwrite key 555 before its run was ever consolidated.
        m.insert_impl(555, 42).unwrap();
        // Now consolidate the surrounding range: the run still holds the
        // old record (555, 556); it must not clobber the new value.
        let rs = m.range(550, 560).unwrap();
        let v555 = rs.iter().find(|r| r.key == 555).unwrap().value;
        assert_eq!(v555, 42);
    }

    #[test]
    fn model_check_random_ops() {
        let mut stream = hostile_ops(43, 4000, 2500);
        stream.initial = (0..2000u64).map(|k| Record::new(k, k)).collect();
        check(&mut AdaptiveMerger::new(128), &stream).unwrap();
    }
}
