//! An intrusive, O(1) LRU index used by the memory-hierarchy
//! simulator's buffer. It tracks *which* keys are resident
//! (and their dirty bits); payload storage is the caller's business.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K> {
    key: K,
    prev: usize,
    next: usize,
    dirty: bool,
}

/// Fixed-capacity LRU set with dirty tracking.
#[derive(Debug)]
pub struct LruSet<K: Eq + Hash + Copy> {
    nodes: Vec<Node<K>>,
    map: HashMap<K, usize>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Copy> LruSet<K> {
    /// A set that holds at most `capacity` keys (0 = always empty).
    pub fn new(capacity: usize) -> Self {
        LruSet {
            nodes: Vec::with_capacity(capacity.min(1 << 20)),
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Touch `key`, marking it most-recently-used; returns whether it was
    /// resident. Does not insert.
    pub fn touch(&mut self, key: &K) -> bool {
        if let Some(&idx) = self.map.get(key) {
            if self.head != idx {
                self.detach(idx);
                self.attach_front(idx);
            }
            true
        } else {
            false
        }
    }

    /// Insert `key` as most-recently-used. If the set is over capacity the
    /// least-recently-used key is evicted and returned as
    /// `(key, was_dirty)`. Inserting a resident key just touches it (and
    /// ORs the dirty bit).
    pub fn insert(&mut self, key: K, dirty: bool) -> Option<(K, bool)> {
        if self.capacity == 0 {
            // Degenerate cache: the entry is immediately evicted.
            return Some((key, dirty));
        }
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].dirty |= dirty;
            self.touch(&key);
            return None;
        }
        let idx = if let Some(free) = self.free.pop() {
            self.nodes[free] = Node {
                key,
                prev: NIL,
                next: NIL,
                dirty,
            };
            free
        } else {
            self.nodes.push(Node {
                key,
                prev: NIL,
                next: NIL,
                dirty,
            });
            self.nodes.len() - 1
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        if self.map.len() > self.capacity {
            return self.evict_lru();
        }
        None
    }

    /// Remove and return the least-recently-used key.
    pub fn evict_lru(&mut self) -> Option<(K, bool)> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        let key = self.nodes[idx].key;
        let dirty = self.nodes[idx].dirty;
        self.detach(idx);
        self.map.remove(&key);
        self.free.push(idx);
        Some((key, dirty))
    }

    /// Remove a specific key; returns its dirty bit if it was resident.
    pub fn remove(&mut self, key: &K) -> Option<bool> {
        let idx = self.map.remove(key)?;
        let dirty = self.nodes[idx].dirty;
        self.detach(idx);
        self.free.push(idx);
        Some(dirty)
    }

    /// Drain every resident key (MRU first), returning `(key, dirty)`.
    pub fn drain(&mut self) -> Vec<(K, bool)> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push((self.nodes[cur].key, self.nodes[cur].dirty));
            cur = self.nodes[cur].next;
        }
        self.map.clear();
        self.free.clear();
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
        out
    }

    /// Keys currently resident, MRU first.
    pub fn keys(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.nodes[cur].key);
            cur = self.nodes[cur].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_and_evicts_in_lru_order() {
        let mut l = LruSet::new(2);
        assert_eq!(l.insert(1, false), None);
        assert_eq!(l.insert(2, false), None);
        // 1 is LRU; inserting 3 evicts it.
        assert_eq!(l.insert(3, false), Some((1, false)));
        assert!(l.contains(&2) && l.contains(&3));
    }

    #[test]
    fn touch_reorders() {
        let mut l = LruSet::new(2);
        l.insert(1, false);
        l.insert(2, false);
        assert!(l.touch(&1));
        // Now 2 is LRU.
        assert_eq!(l.insert(3, false), Some((2, false)));
    }

    #[test]
    fn dirty_bit_travels_with_eviction() {
        let mut l = LruSet::new(1);
        l.insert(1, false);
        assert_eq!(l.insert(1, true), None, "1 is resident");
        assert_eq!(l.insert(2, false), Some((1, true)));
    }

    #[test]
    fn reinsert_ors_dirty() {
        let mut l = LruSet::new(2);
        l.insert(1, false);
        l.insert(1, true);
        assert_eq!(l.len(), 1);
        l.insert(2, false);
        assert_eq!(l.insert(3, false), Some((1, true)));
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut l = LruSet::new(0);
        assert_eq!(l.insert(1, true), Some((1, true)));
        assert!(l.is_empty());
    }

    #[test]
    fn remove_specific() {
        let mut l = LruSet::new(3);
        l.insert(1, false);
        l.insert(2, true);
        assert_eq!(l.remove(&2), Some(true));
        assert_eq!(l.remove(&2), None);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn drain_returns_mru_first() {
        let mut l = LruSet::new(3);
        l.insert(1, false);
        l.insert(2, true);
        l.insert(3, false);
        let d = l.drain();
        assert_eq!(d, vec![(3, false), (2, true), (1, false)]);
        assert!(l.is_empty());
        // Reusable after drain.
        l.insert(9, false);
        assert!(l.contains(&9));
    }

    #[test]
    fn slot_recycling_is_sound() {
        let mut l = LruSet::new(4);
        for round in 0..5 {
            for k in 0..4u64 {
                l.insert(round * 10 + k, false);
            }
        }
        assert_eq!(l.len(), 4);
        let keys = l.keys();
        assert_eq!(keys, vec![43, 42, 41, 40]);
    }

    #[test]
    fn heavy_churn_keeps_capacity_invariant() {
        let mut l = LruSet::new(16);
        for k in 0..10_000u64 {
            l.insert(k, k % 3 == 0);
            assert!(l.len() <= 16);
        }
        assert_eq!(l.len(), 16);
    }
}
