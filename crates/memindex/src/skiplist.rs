//! A randomized skip list (Pugh): "a probabilistic alternative to balanced
//! trees". Expected O(log N) search/insert/delete; the tower pointers are
//! the auxiliary space it spends for that.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rum_core::{
    base_bytes, AccessMethod, CostTracker, DataClass, Key, Record, Result, SpaceProfile, Value,
};

const MAX_LEVEL: usize = 32;
const P: f64 = 0.5;
const NIL: usize = usize::MAX;
const PTR: u64 = 8;

struct SkipNode {
    rec: Record,
    /// forward[l] = next node at level l.
    forward: Vec<usize>,
}

/// A seeded skip list over an arena of nodes.
pub struct SkipList {
    nodes: Vec<SkipNode>,
    free: Vec<usize>,
    /// head forwards (level l entry points).
    head: Vec<usize>,
    level: usize,
    len: usize,
    rng: StdRng,
    tracker: Arc<CostTracker>,
}

impl SkipList {
    pub fn new() -> Self {
        Self::with_seed(0xC0FFEE)
    }

    /// Deterministic tower heights for reproducible experiments.
    pub fn with_seed(seed: u64) -> Self {
        SkipList {
            nodes: Vec::new(),
            free: Vec::new(),
            head: vec![NIL; MAX_LEVEL],
            level: 1,
            len: 0,
            rng: StdRng::seed_from_u64(seed),
            tracker: CostTracker::new(),
        }
    }

    /// Current tower height of the list.
    pub fn height(&self) -> usize {
        self.level
    }

    fn random_level(&mut self) -> usize {
        let mut l = 1;
        while l < MAX_LEVEL && self.rng.gen::<f64>() < P {
            l += 1;
        }
        l
    }

    /// Charge an inspection of node `idx`: its record (base) plus the one
    /// forward pointer followed to reach it (aux).
    fn charge_visit(&self, _idx: usize) {
        self.tracker.read_records(1);
        self.tracker.read(DataClass::Aux, PTR);
    }

    /// Find predecessors of `key` at every level. Returns the update array
    /// and the candidate node (first node with node.key >= key at level 0).
    fn find_update(&self, key: Key) -> ([usize; MAX_LEVEL], usize) {
        let mut update = [NIL; MAX_LEVEL]; // NIL here means "head"
        let mut cur = NIL; // NIL = head sentinel
        for l in (0..self.level).rev() {
            loop {
                let next = if cur == NIL {
                    self.head[l]
                } else {
                    self.nodes[cur].forward[l]
                };
                if next != NIL {
                    self.charge_visit(next);
                    if self.nodes[next].rec.key < key {
                        cur = next;
                        continue;
                    }
                }
                break;
            }
            update[l] = cur;
        }
        let candidate = if cur == NIL {
            self.head[0]
        } else {
            self.nodes[cur].forward[0]
        };
        (update, candidate)
    }

    fn alloc(&mut self, rec: Record, height: usize) -> usize {
        let node = SkipNode {
            rec,
            forward: vec![NIL; height],
        };
        if let Some(i) = self.free.pop() {
            self.nodes[i] = node;
            i
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }
}

impl Default for SkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessMethod for SkipList {
    fn name(&self) -> String {
        "skiplist".into()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        &self.tracker
    }

    fn space_profile(&self) -> SpaceProfile {
        // Record + tower pointers per node, plus the head tower.
        let tower_bytes: u64 = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.free.contains(i))
            .map(|(_, n)| n.forward.len() as u64 * PTR)
            .sum();
        let physical = base_bytes(self.len) + tower_bytes + MAX_LEVEL as u64 * PTR;
        SpaceProfile::from_physical(self.len, physical)
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        let (_, cand) = self.find_update(key);
        if cand != NIL && self.nodes[cand].rec.key == key {
            Ok(Some(self.nodes[cand].rec.value))
        } else {
            Ok(None)
        }
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        let (_, mut cur) = self.find_update(lo);
        let mut out = Vec::new();
        while cur != NIL {
            self.charge_visit(cur);
            let rec = self.nodes[cur].rec;
            if rec.key > hi {
                break;
            }
            out.push(rec);
            cur = self.nodes[cur].forward[0];
        }
        Ok(out)
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        let (update, cand) = self.find_update(key);
        if cand != NIL && self.nodes[cand].rec.key == key {
            self.nodes[cand].rec.value = value;
            self.tracker.write_records(1);
            return Ok(());
        }
        let height = self.random_level();
        if height > self.level {
            self.level = height;
        }
        let idx = self.alloc(Record::new(key, value), height);
        // Writing the new record and its tower.
        self.tracker.write_records(1);
        self.tracker.write(DataClass::Aux, height as u64 * PTR);
        for (l, &pred) in update.iter().enumerate().take(height) {
            if pred == NIL {
                self.nodes[idx].forward[l] = self.head[l];
                self.head[l] = idx;
            } else {
                self.nodes[idx].forward[l] = self.nodes[pred].forward[l];
                self.nodes[pred].forward[l] = idx;
            }
            // One predecessor pointer rewritten per level.
            self.tracker.write(DataClass::Aux, PTR);
        }
        self.len += 1;
        Ok(())
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        let (_, cand) = self.find_update(key);
        if cand != NIL && self.nodes[cand].rec.key == key {
            self.nodes[cand].rec.value = value;
            self.tracker.write_records(1);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        let (update, cand) = self.find_update(key);
        if cand == NIL || self.nodes[cand].rec.key != key {
            return Ok(false);
        }
        let height = self.nodes[cand].forward.len();
        for (l, &pred) in update.iter().enumerate().take(height) {
            let next = self.nodes[cand].forward[l];
            if pred == NIL {
                if self.head[l] == cand {
                    self.head[l] = next;
                }
            } else if self.nodes[pred].forward[l] == cand {
                self.nodes[pred].forward[l] = next;
            }
            self.tracker.write(DataClass::Aux, PTR);
        }
        while self.level > 1 && self.head[self.level - 1] == NIL {
            self.level -= 1;
        }
        self.free.push(cand);
        self.len -= 1;
        Ok(true)
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.nodes.clear();
        self.free.clear();
        self.head = vec![NIL; MAX_LEVEL];
        self.level = 1;
        self.len = 0;
        // Build by appending in order: predecessors are always the current
        // tails, so this is O(N) with no searches.
        let mut tails: [usize; MAX_LEVEL] = [NIL; MAX_LEVEL];
        for r in records {
            let height = self.random_level();
            if height > self.level {
                self.level = height;
            }
            let idx = self.alloc(*r, height);
            self.tracker.write_records(1);
            self.tracker.write(DataClass::Aux, height as u64 * PTR);
            for (l, tail) in tails.iter_mut().enumerate().take(height) {
                if *tail == NIL {
                    self.head[l] = idx;
                } else {
                    self.nodes[*tail].forward[l] = idx;
                }
                *tail = idx;
            }
            self.len += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::oracle::{check, hostile_ops, Model};

    #[test]
    fn crud_roundtrip() {
        let mut s = SkipList::new();
        for k in [5u64, 1, 9, 3, 7] {
            s.insert(k, k * 10).unwrap();
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.get(7).unwrap(), Some(70));
        assert_eq!(s.get(4).unwrap(), None);
        assert!(s.update(9, 99).unwrap());
        assert!(!s.update(4, 0).unwrap());
        assert!(s.delete(1).unwrap());
        assert!(!s.delete(1).unwrap());
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn range_is_ordered() {
        let mut s = SkipList::new();
        for k in [9u64, 2, 7, 4, 1, 8] {
            s.insert(k, k).unwrap();
        }
        let rs = s.range(2, 8).unwrap();
        let keys: Vec<u64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![2, 4, 7, 8]);
    }

    #[test]
    fn search_cost_is_logarithmic() {
        let visits = |n: u64| {
            let recs: Vec<Record> = (0..n).map(|k| Record::new(k, k)).collect();
            let mut s = SkipList::with_seed(3);
            s.bulk_load(&recs).unwrap();
            s.tracker().reset();
            let probes = 200u64;
            for i in 0..probes {
                s.get((i * (n / probes)) % n).unwrap();
            }
            s.tracker().snapshot().total_read_bytes() as f64 / probes as f64
        };
        let small = visits(1 << 10);
        let large = visits(1 << 16);
        // 64× the data should cost ~(16/10)× the reads, nowhere near 64×.
        assert!(
            large / small < 4.0,
            "expected logarithmic growth: {small} -> {large}"
        );
        assert!(large > small);
    }

    #[test]
    fn bulk_load_builds_valid_list() {
        let recs: Vec<Record> = (0..5000u64).map(|k| Record::new(k * 3, k)).collect();
        let mut s = SkipList::new();
        s.bulk_load(&recs).unwrap();
        assert_eq!(s.len(), 5000);
        assert_eq!(s.get(3 * 1234).unwrap(), Some(1234));
        assert_eq!(s.get(1).unwrap(), None);
        let all = s.range(0, u64::MAX).unwrap();
        assert_eq!(all, recs);
    }

    #[test]
    fn towers_are_aux_space() {
        let mut s = SkipList::new();
        for k in 0..10_000u64 {
            s.insert(k, k).unwrap();
        }
        let p = s.space_profile();
        assert!(p.aux_bytes > 0);
        let mo = p.space_amplification();
        // Expected pointer overhead: ~2 pointers/record (p=0.5) = 16B on a
        // 16B record ⇒ MO ≈ 2.
        assert!(mo > 1.5 && mo < 3.0, "mo = {mo}");
    }

    #[test]
    fn height_shrinks_after_deletes() {
        let mut s = SkipList::new();
        for k in 0..1000u64 {
            s.insert(k, k).unwrap();
        }
        let h = s.height();
        for k in 0..1000u64 {
            assert!(s.delete(k).unwrap());
        }
        assert_eq!(s.len(), 0);
        assert!(s.height() <= h);
        assert_eq!(s.height(), 1);
        // Reusable after emptying.
        s.insert(5, 5).unwrap();
        assert_eq!(s.get(5).unwrap(), Some(5));
    }

    #[test]
    fn deterministic_under_seed() {
        let build = || {
            let mut s = SkipList::with_seed(99);
            for k in 0..100u64 {
                s.insert(k, k).unwrap();
            }
            s.tracker().snapshot().total_read_bytes()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn model_check_random_ops() {
        check(&mut SkipList::new(), &hostile_ops(13, 5000, 1500)).unwrap();
    }

    /// The oracle's model checked from the other side (here and not in
    /// `rum-core`, which cannot depend on a method crate): op for op it
    /// answers what an independently written method answers, refusals and
    /// their messages included.
    #[test]
    fn model_answers_equal_a_reference_method() {
        let mut reference = SkipList::new();
        let mut model = Model::default();
        for (step, &op) in hostile_ops(29, 3000, 400).ops.iter().enumerate() {
            assert_eq!(
                model.answer(op),
                op.apply(&mut reference),
                "step {step}: {op:?}"
            );
            model.apply(op);
        }
        let held: Vec<Record> = model.records().collect();
        assert_eq!(held, reference.range(0, u64::MAX).unwrap());
    }
}
