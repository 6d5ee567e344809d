//! Database cracking: the column partitions itself a little more on every
//! query, converging from scan cost toward index cost.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rum_core::{
    base_bytes, AccessMethod, CostTracker, DataClass, Key, KeySet, Record, Result, SpaceProfile,
    Value,
};

/// Pending inserts (or deleted keys) held before they are folded into the
/// cracked region, which resets the cracker index: the simple "forget and
/// re-crack" update strategy.
const PENDING_THRESHOLD: usize = 4096;
/// Seed of a stochastic cracker's random pivots.
const SEED: u64 = 3;

/// A self-organizing in-memory column.
pub struct CrackedColumn {
    /// The cracked region.
    data: Vec<Record>,
    /// Pivot → first position with `key >= pivot`. The cracker index.
    index: BTreeMap<Key, usize>,
    /// Recent inserts, not yet cracked.
    pending: Vec<Record>,
    /// Keys deleted from the cracked region but not yet compacted away.
    deleted: KeySet,
    /// Liveness oracle (uncharged, like the LSM's): routes upserts and
    /// short-circuits deletes of absent keys without paying lookup cost
    /// that the real operation would not need.
    live_keys: KeySet,
    /// Add a random pivot alongside each query pivot (stochastic cracking,
    /// robust against sequential query patterns).
    stochastic: bool,
    rng: StdRng,
    tracker: Arc<CostTracker>,
}

impl CrackedColumn {
    pub fn new() -> Self {
        Self::cracker(false)
    }

    /// A stochastic cracker (random auxiliary pivots).
    pub fn stochastic() -> Self {
        Self::cracker(true)
    }

    fn cracker(stochastic: bool) -> Self {
        CrackedColumn {
            data: Vec::new(),
            index: BTreeMap::new(),
            pending: Vec::new(),
            deleted: KeySet::default(),
            live_keys: KeySet::default(),
            stochastic,
            rng: StdRng::seed_from_u64(SEED),
            tracker: CostTracker::new(),
        }
    }

    /// Number of pieces the column is currently cracked into.
    pub fn pieces(&self) -> usize {
        self.index.len() + 1
    }

    /// Cracker-index footprint in bytes.
    pub fn index_bytes(&self) -> u64 {
        self.index.len() as u64 * 16
    }

    /// Partition `data[lo..hi)` around `pivot`; returns the split point
    /// (first position with `key >= pivot`). Charges the piece read and
    /// the swapped records written.
    fn partition(&mut self, lo: usize, hi: usize, pivot: Key) -> usize {
        self.tracker.read_records(hi - lo);
        let mut i = lo;
        let mut j = hi;
        let mut swaps = 0;
        while i < j {
            if self.data[i].key < pivot {
                i += 1;
            } else {
                j -= 1;
                self.data.swap(i, j);
                swaps += 1;
            }
        }
        if swaps > 0 {
            self.tracker.write_records(2 * swaps);
        }
        i
    }

    /// Bounds of the piece that would contain `pivot`.
    fn piece_of(&self, pivot: Key) -> (usize, usize) {
        let lo = self
            .index
            .range(..pivot)
            .next_back()
            .map(|(_, &p)| p)
            .unwrap_or(0);
        let hi = self
            .index
            .range(pivot..)
            .next()
            .map(|(_, &p)| p)
            .unwrap_or(self.data.len());
        (lo, hi)
    }

    /// Crack at `pivot`, returning the first position with
    /// `key >= pivot`. Cracks the enclosing piece (and, stochastically, a
    /// second random pivot inside the larger half).
    fn crack_at(&mut self, pivot: Key) -> usize {
        if let Some(&pos) = self.index.get(&pivot) {
            return pos;
        }
        let (lo, hi) = self.piece_of(pivot);
        // Consulting the cracker index is an auxiliary read.
        self.tracker.read(DataClass::Aux, 32);
        if lo >= hi {
            self.index.insert(pivot, lo);
            self.tracker.write(DataClass::Aux, 16);
            return lo;
        }
        let split = self.partition(lo, hi, pivot);
        self.index.insert(pivot, split);
        self.tracker.write(DataClass::Aux, 16);

        if self.stochastic {
            // Crack the larger residual half at one of its own keys.
            let (rlo, rhi) = if split - lo >= hi - split {
                (lo, split)
            } else {
                (split, hi)
            };
            if rhi - rlo > 64 {
                let sample = self.data[self.rng.gen_range(rlo..rhi)].key;
                if sample != pivot && !self.index.contains_key(&sample) {
                    let (plo, phi) = self.piece_of(sample);
                    if plo < phi {
                        let s = self.partition(plo, phi, sample);
                        self.index.insert(sample, s);
                        self.tracker.write(DataClass::Aux, 16);
                    }
                }
            }
        }
        split
    }

    /// Crack just above `hi`: the first position with `key > hi`, which
    /// for `hi == u64::MAX` (no key above it to pivot on) is the end.
    fn crack_after(&mut self, hi: Key) -> usize {
        match hi.checked_add(1) {
            Some(pivot) => self.crack_at(pivot),
            None => self.data.len(),
        }
    }

    /// Fold pending inserts and deletes into the cracked region, resetting
    /// the cracker index (the simple update strategy: correctness first,
    /// adaptivity restarts).
    fn merge_pending(&mut self) {
        if self.pending.is_empty() && self.deleted.is_empty() {
            return;
        }
        let moved = self.pending.len();
        // Purge deleted keys from the old region *before* appending the
        // pending buffer: a deleted-then-reinserted key has its stale copy
        // in the region and its live copy in the buffer.
        if !self.deleted.is_empty() {
            self.data.retain(|r| !self.deleted.contains(r.key));
            self.deleted.clear();
        }
        self.data.append(&mut self.pending);
        // The fold rewrites the region.
        self.tracker.read_records(self.data.len());
        self.tracker.write_records(self.data.len() + moved);
        self.index.clear();
    }

    fn maybe_merge(&mut self) {
        if self.pending.len() > PENDING_THRESHOLD || self.deleted.len() > PENDING_THRESHOLD {
            self.merge_pending();
        }
    }

    /// Scan the pending buffer for `key` (charged).
    fn pending_pos(&self, key: Key) -> Option<usize> {
        let pos = self.pending.iter().position(|r| r.key == key);
        let examined = pos.map(|p| p + 1).unwrap_or(self.pending.len());
        self.tracker.read_records(examined);
        pos
    }
}

impl Default for CrackedColumn {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessMethod for CrackedColumn {
    fn name(&self) -> String {
        if self.stochastic {
            "stochastic-cracking".into()
        } else {
            "cracked-column".into()
        }
    }

    fn len(&self) -> usize {
        self.live_keys.len()
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        &self.tracker
    }

    fn space_profile(&self) -> SpaceProfile {
        let physical = base_bytes(self.data.len() + self.pending.len())
            + self.index_bytes()
            + self.deleted.len() as u64 * 8;
        SpaceProfile::from_physical(self.live_keys.len(), physical)
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        self.maybe_merge();
        if let Some(p) = self.pending_pos(key) {
            return Ok(Some(self.pending[p].value));
        }
        if self.deleted.contains(key) {
            self.tracker.read(DataClass::Aux, 8);
            return Ok(None);
        }
        let p1 = self.crack_at(key);
        let p2 = self.crack_after(key);
        // The piece [p1, p2) now contains exactly the matches.
        self.tracker.read_records(p2 - p1);
        Ok(self.data[p1..p2].first().map(|r| r.value))
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        self.maybe_merge();
        let p1 = self.crack_at(lo);
        let p2 = self.crack_after(hi);
        self.tracker.read_records(p2.saturating_sub(p1));
        let mut out: Vec<Record> = self.data[p1..p2]
            .iter()
            .filter(|r| !self.deleted.contains(r.key))
            .copied()
            .collect();
        // Pending inserts are unindexed: scan them too.
        self.tracker.read_records(self.pending.len());
        out.extend(
            self.pending
                .iter()
                .filter(|r| r.key >= lo && r.key <= hi)
                .copied(),
        );
        out.sort_unstable();
        Ok(out)
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        // Upsert: route to update when the key is live.
        if self.live_keys.contains(key) {
            self.update_impl(key, value)?;
            return Ok(());
        }
        // NB: a key surviving in `deleted` keeps hiding any stale copy in
        // the cracked region; the fresh copy lives in `pending`, which all
        // read paths consult first.
        self.pending.push(Record::new(key, value));
        self.tracker.write_records(1);
        self.live_keys.insert(key);
        self.maybe_merge();
        Ok(())
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        if !self.live_keys.contains(key) {
            return Ok(false);
        }
        if let Some(p) = self.pending_pos(key) {
            self.pending[p].value = value;
            self.tracker.write_records(1);
            return Ok(true);
        }
        if self.deleted.contains(key) {
            return Ok(false);
        }
        let p1 = self.crack_at(key);
        let p2 = self.crack_after(key);
        if p1 < p2 {
            self.data[p1].value = value;
            self.tracker.write_records(1);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        if !self.live_keys.remove(key) {
            return Ok(false);
        }
        if let Some(p) = self.pending_pos(key) {
            self.pending.swap_remove(p);
            self.tracker.write_records(1);
            return Ok(true);
        }
        self.deleted.insert(key);
        self.tracker.write(DataClass::Aux, 8);
        self.maybe_merge();
        Ok(true)
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.data = records.to_vec();
        self.index.clear();
        self.pending.clear();
        self.deleted.clear();
        self.live_keys.assign(records.iter().map(|r| r.key));
        self.tracker.write_records(records.len());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rum_core::oracle::{hostile_ops, Oracle};
    use rum_core::workload::Op;

    /// A shuffled dataset (cracking on pre-sorted data is degenerate).
    fn shuffled(n: u64, seed: u64) -> Vec<Record> {
        let mut recs: Vec<Record> = (0..n).map(|k| Record::new(k, k + 1)).collect();
        recs.shuffle(&mut StdRng::seed_from_u64(seed));
        recs
    }

    fn loaded(n: u64) -> CrackedColumn {
        let mut sorted: Vec<Record> = (0..n).map(|k| Record::new(k, k + 1)).collect();
        sorted.sort_unstable();
        let mut c = CrackedColumn::new();
        c.bulk_load(&sorted).unwrap();
        // Shuffle the physical layout to simulate unclustered arrival.
        c.data.shuffle(&mut StdRng::seed_from_u64(7));
        c
    }

    #[test]
    fn crud_roundtrip() {
        let mut c = CrackedColumn::new();
        for r in shuffled(100, 1) {
            c.insert(r.key, r.value).unwrap();
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.get(42).unwrap(), Some(43));
        assert_eq!(c.get(200).unwrap(), None);
        assert!(c.update(42, 0).unwrap());
        assert_eq!(c.get(42).unwrap(), Some(0));
        assert!(c.delete(42).unwrap());
        assert!(!c.delete(42).unwrap());
        assert_eq!(c.get(42).unwrap(), None);
        assert_eq!(c.len(), 99);
    }

    #[test]
    fn range_queries_converge() {
        let mut c = loaded(100_000);
        let mut rng = StdRng::seed_from_u64(3);
        let cost_of_query = |c: &mut CrackedColumn, lo: u64| {
            let before = c.tracker().snapshot();
            c.range(lo, lo + 100).unwrap();
            c.tracker().since(&before).total_read_bytes()
        };
        // First query scans everything.
        let first = cost_of_query(&mut c, 50_000);
        // Let it adapt.
        for _ in 0..200 {
            let lo = rng.gen_range(0..99_000u64);
            c.range(lo, lo + 100).unwrap();
        }
        let late = cost_of_query(&mut c, 20_000);
        assert!(
            late * 20 < first,
            "cracking should converge: first {first}, late {late}"
        );
        assert!(c.pieces() > 100);
    }

    #[test]
    fn index_grows_as_queries_arrive() {
        let mut c = loaded(10_000);
        assert_eq!(c.pieces(), 1);
        let mo_before = c.space_profile().space_amplification();
        for lo in (0..9000u64).step_by(500) {
            c.range(lo, lo + 99).unwrap();
        }
        assert!(c.pieces() >= 20);
        let mo_after = c.space_profile().space_amplification();
        assert!(mo_after > mo_before, "cracker index is real MO");
        assert!(mo_after < 1.01, "but it stays tiny: {mo_after}");
    }

    #[test]
    fn stochastic_defends_sequential_pattern() {
        // Sequential range queries from the left: plain cracking re-scans
        // the huge right piece every time; stochastic cracking splits it.
        let run = |stochastic: bool| {
            let mut c = if stochastic {
                CrackedColumn::stochastic()
            } else {
                CrackedColumn::new()
            };
            let recs: Vec<Record> = (0..200_000u64).map(|k| Record::new(k, k)).collect();
            c.bulk_load(&recs).unwrap();
            c.data.shuffle(&mut StdRng::seed_from_u64(11));
            let before = c.tracker().snapshot();
            for q in 0..100u64 {
                c.range(q * 100, q * 100 + 99).unwrap();
            }
            c.tracker().since(&before).total_read_bytes()
        };
        let plain = run(false);
        let stoch = run(true);
        assert!(
            stoch * 2 < plain,
            "stochastic ({stoch}) should beat plain ({plain}) on sequential queries"
        );
    }

    #[test]
    fn results_always_correct_while_adapting() {
        let mut c = loaded(5000);
        for lo in [2000u64, 100, 4000, 2500, 0, 4900] {
            let hi = lo + 50;
            let rs = c.range(lo, hi).unwrap();
            let keys: Vec<u64> = rs.iter().map(|r| r.key).collect();
            let expect: Vec<u64> = (lo..=hi.min(4999)).collect();
            assert_eq!(keys, expect, "range {lo}..{hi}");
        }
    }

    #[test]
    fn pending_inserts_are_visible_and_fold_in() {
        let mut c = CrackedColumn::new();
        let recs: Vec<Record> = (0..100u64).map(|k| Record::new(k * 2, k)).collect();
        c.bulk_load(&recs).unwrap();
        c.range(0, 100).unwrap(); // build some index
        let pieces = c.pieces();
        assert!(pieces > 1);
        for k in 0..5u64 {
            c.insert(k * 2 + 1, 99).unwrap();
        }
        // Visible while pending.
        assert_eq!(c.get(3).unwrap(), Some(99));
        assert_eq!(c.range(0, 9).unwrap().len(), 10);
        // Exceed the threshold: the fold empties the buffer (five inserts
        // arrive after it) and resets the index.
        let fresh = PENDING_THRESHOLD as u64 + 1;
        for k in 5..5 + fresh {
            c.insert(k * 2 + 1, 99).unwrap();
        }
        assert_eq!(c.pending.len(), 5, "the pending merge must have run");
        assert_eq!(c.pieces(), 1);
        assert_eq!(c.get(3).unwrap(), Some(99));
        assert_eq!(c.len(), 105 + fresh as usize);
    }

    #[test]
    fn model_check_random_ops() {
        // A dense column and a stream over the same domain: most ops hit
        // live keys, deleted base keys are reinserted into the pending
        // buffer, and the held deletes pass the threshold, so folds purge
        // stale region copies while their live copies wait in the buffer.
        let mut stream = hostile_ops(31, 12_000, 6000);
        stream.initial = (0..6000u64).map(|k| Record::new(k, k)).collect();
        // Two thirds of the column deleted up front bring the first fold
        // early.
        let head = (0..6000u64).filter(|k| k % 3 != 0).map(Op::Delete);
        stream.ops.splice(0..0, head);
        for mut c in [CrackedColumn::new(), CrackedColumn::stochastic()] {
            let mut oracle = Oracle::load(&mut c, &stream.initial).unwrap();
            c.data.shuffle(&mut StdRng::seed_from_u64(7));
            let mut stale_folds = 0;
            for &op in &stream.ops {
                let full = c.pending.len().max(c.deleted.len()) >= PENDING_THRESHOLD;
                let stale = full && c.pending.iter().any(|r| c.deleted.contains(r.key));
                oracle.step(&mut c, op).unwrap();
                if stale && c.pending.is_empty() && c.deleted.is_empty() {
                    stale_folds += 1;
                }
            }
            oracle.finish(&mut c).unwrap();
            assert!(
                stale_folds > 0,
                "{}: no fold ran with a reinserted key in both the buffer and the deleted set",
                c.name()
            );
        }
    }

    use rand::{rngs::StdRng, Rng, SeedableRng};
}
