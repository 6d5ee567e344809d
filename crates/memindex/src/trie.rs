//! A radix trie over big-endian key bytes (8-bit stride, depth 8) with
//! adaptive (sorted-vector) fan-out nodes — Fredkin's "trie memory" with
//! ART-style compact nodes.
//!
//! Fixed access cost: a lookup touches at most 8 nodes regardless of N
//! (the paper's "fixed access cost (tries, hash tables)" building block),
//! paid for with fan-out metadata on every path — classic read-optimized,
//! memory-hungry territory in the RUM triangle.

use std::sync::Arc;

use rum_core::{
    base_bytes, AccessMethod, CostTracker, DataClass, Key, Record, Result, SpaceProfile, Value,
};

/// Key depth in bytes (u64 keys, 8-bit stride).
const DEPTH: usize = 8;
/// Bytes charged per node inspection: header + one child entry probed.
const NODE_TOUCH: u64 = 16;
/// Approximate in-memory cost of one child entry (byte + index + slack).
const CHILD_BYTES: u64 = 5;
/// Approximate per-node header cost.
const NODE_HEADER_BYTES: u64 = 24;

struct TrieNode {
    /// Sorted by byte; value is a node index.
    children: Vec<(u8, u32)>,
    /// Set on depth-8 terminal nodes.
    value: Option<Value>,
}

impl TrieNode {
    fn empty() -> Self {
        TrieNode {
            children: Vec::new(),
            value: None,
        }
    }

    fn child(&self, b: u8) -> Option<u32> {
        self.children
            .binary_search_by_key(&b, |&(x, _)| x)
            .ok()
            .map(|i| self.children[i].1)
    }

    fn set_child(&mut self, b: u8, idx: u32) {
        match self.children.binary_search_by_key(&b, |&(x, _)| x) {
            Ok(i) => self.children[i].1 = idx,
            Err(i) => self.children.insert(i, (b, idx)),
        }
    }

    fn remove_child(&mut self, b: u8) {
        if let Ok(i) = self.children.binary_search_by_key(&b, |&(x, _)| x) {
            self.children.remove(i);
        }
    }
}

/// The radix trie.
pub struct RadixTrie {
    nodes: Vec<TrieNode>,
    free: Vec<u32>,
    len: usize,
    tracker: Arc<CostTracker>,
}

impl RadixTrie {
    pub fn new() -> Self {
        RadixTrie {
            nodes: vec![TrieNode::empty()], // root
            free: Vec::new(),
            len: 0,
            tracker: CostTracker::new(),
        }
    }

    /// Live node count (including the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    fn alloc(&mut self) -> u32 {
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = TrieNode::empty();
            i
        } else {
            self.nodes.push(TrieNode::empty());
            (self.nodes.len() - 1) as u32
        }
    }

    fn charge_step(&self) {
        self.tracker.read(DataClass::Aux, NODE_TOUCH);
    }

    /// Walk the path for `key`, returning node indices visited (root
    /// first). Stops early on a missing edge.
    fn walk(&self, key: Key) -> (Vec<u32>, bool) {
        let bytes = key.to_be_bytes();
        let mut path = vec![0u32];
        let mut cur = 0u32;
        for &b in bytes.iter() {
            self.charge_step();
            match self.nodes[cur as usize].child(b) {
                Some(next) => {
                    path.push(next);
                    cur = next;
                }
                None => return (path, false),
            }
        }
        (path, true)
    }

    fn collect_range(
        &self,
        node: u32,
        depth: usize,
        prefix: u64,
        lo: Key,
        hi: Key,
        out: &mut Vec<Record>,
    ) {
        self.charge_step();
        let n = &self.nodes[node as usize];
        if depth == DEPTH {
            if let Some(v) = n.value {
                if prefix >= lo && prefix <= hi {
                    self.tracker.read_records(1);
                    out.push(Record::new(prefix, v));
                }
            }
            return;
        }
        let shift = 8 * (DEPTH - 1 - depth);
        for &(b, child) in &n.children {
            let p = prefix | ((b as u64) << shift);
            // Prune subtrees wholly outside [lo, hi].
            let mask = if shift == 0 { 0 } else { (1u64 << shift) - 1 };
            let subtree_lo = p;
            let subtree_hi = p | mask;
            if subtree_hi < lo || subtree_lo > hi {
                continue;
            }
            self.collect_range(child, depth + 1, p, lo, hi, out);
        }
    }
}

impl Default for RadixTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessMethod for RadixTrie {
    fn name(&self) -> String {
        "trie".into()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        &self.tracker
    }

    fn space_profile(&self) -> SpaceProfile {
        let aux: u64 = self
            .nodes
            .iter()
            .map(|n| NODE_HEADER_BYTES + n.children.len() as u64 * CHILD_BYTES)
            .sum::<u64>()
            - self.free.len() as u64 * NODE_HEADER_BYTES;
        let physical = base_bytes(self.len) + aux;
        SpaceProfile::from_physical(self.len, physical)
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        let (path, complete) = self.walk(key);
        if complete {
            Ok(self.nodes[*path.last().expect("root") as usize].value)
        } else {
            Ok(None)
        }
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        self.collect_range(0, 0, 0, lo, hi, &mut out);
        Ok(out)
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        let bytes = key.to_be_bytes();
        let mut cur = 0u32;
        for &b in bytes.iter() {
            self.charge_step();
            match self.nodes[cur as usize].child(b) {
                Some(next) => cur = next,
                None => {
                    let idx = self.alloc();
                    self.nodes[cur as usize].set_child(b, idx);
                    // A new edge: header + child entry written.
                    self.tracker
                        .write(DataClass::Aux, NODE_HEADER_BYTES + CHILD_BYTES);
                    cur = idx;
                }
            }
        }
        let node = &mut self.nodes[cur as usize];
        if node.value.is_none() {
            self.len += 1;
        }
        node.value = Some(value);
        self.tracker.write_records(1);
        Ok(())
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        let (path, complete) = self.walk(key);
        if !complete {
            return Ok(false);
        }
        let leaf = *path.last().expect("root") as usize;
        if self.nodes[leaf].value.is_none() {
            return Ok(false);
        }
        self.nodes[leaf].value = Some(value);
        self.tracker.write_records(1);
        Ok(true)
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        let (path, complete) = self.walk(key);
        if !complete {
            return Ok(false);
        }
        let leaf = *path.last().expect("root") as usize;
        if self.nodes[leaf].value.is_none() {
            return Ok(false);
        }
        self.nodes[leaf].value = None;
        self.len -= 1;
        self.tracker.write_records(1);
        // Prune now-empty nodes bottom-up (reclaiming auxiliary space).
        let bytes = key.to_be_bytes();
        for d in (1..=DEPTH).rev() {
            let node = path[d];
            let n = &self.nodes[node as usize];
            if n.children.is_empty() && n.value.is_none() {
                let parent = path[d - 1] as usize;
                self.nodes[parent].remove_child(bytes[d - 1]);
                self.free.push(node);
                self.tracker.write(DataClass::Aux, CHILD_BYTES);
            } else {
                break;
            }
        }
        Ok(true)
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.nodes = vec![TrieNode::empty()];
        self.free.clear();
        self.len = 0;
        for r in records {
            self.insert_impl(r.key, r.value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::oracle::{check, hostile_ops};

    #[test]
    fn crud_roundtrip() {
        let mut t = RadixTrie::new();
        t.insert(1, 10).unwrap();
        t.insert(257, 20).unwrap(); // shares low byte with 1
        assert_eq!(t.get(1).unwrap(), Some(10));
        assert_eq!(t.get(257).unwrap(), Some(20));
        assert_eq!(t.get(2).unwrap(), None);
        assert!(t.update(1, 11).unwrap());
        assert!(!t.update(2, 0).unwrap());
        assert!(t.delete(1).unwrap());
        assert!(!t.delete(1).unwrap());
        assert_eq!(t.get(1).unwrap(), None);
        assert_eq!(t.get(257).unwrap(), Some(20));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookup_cost_is_constant_in_n() {
        let cost = |n: u64| {
            let recs: Vec<Record> = (0..n).map(|k| Record::new(k, k)).collect();
            let mut t = RadixTrie::new();
            t.bulk_load(&recs).unwrap();
            t.tracker().reset();
            for k in (0..n).step_by((n / 32).max(1) as usize) {
                t.get(k).unwrap();
            }
            t.tracker().snapshot().total_read_bytes() / 32
        };
        let small = cost(1 << 10);
        let large = cost(1 << 16);
        // Both are exactly 8 node touches.
        assert_eq!(small, large, "trie lookup cost must not depend on N");
    }

    #[test]
    fn range_is_ordered_and_inclusive() {
        let mut t = RadixTrie::new();
        for k in [300u64, 5, 1000, 42, 999, 43] {
            t.insert(k, k).unwrap();
        }
        let rs = t.range(42, 999).unwrap();
        let keys: Vec<u64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![42, 43, 300, 999]);
    }

    #[test]
    fn range_spanning_high_bytes() {
        let mut t = RadixTrie::new();
        let keys = [0u64, 1 << 32, (1 << 32) + 5, u64::MAX - 1];
        for &k in &keys {
            t.insert(k, k).unwrap();
        }
        let rs = t.range(0, u64::MAX).unwrap();
        let got: Vec<u64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(got, keys.to_vec());
        let rs = t.range(1, u64::MAX - 2).unwrap();
        let got: Vec<u64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(got, vec![1 << 32, (1 << 32) + 5]);
    }

    #[test]
    fn delete_prunes_empty_paths() {
        let mut t = RadixTrie::new();
        t.insert(0xDEAD_BEEF, 1).unwrap();
        let nodes_with = t.node_count();
        t.delete(0xDEAD_BEEF).unwrap();
        assert!(t.node_count() < nodes_with, "path should be pruned");
        assert_eq!(t.node_count(), 1, "only the root survives");
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let mut a = RadixTrie::new();
        for k in 0..256u64 {
            a.insert(k, k).unwrap(); // all share 7 prefix bytes
        }
        let dense_nodes = a.node_count();
        let mut b = RadixTrie::new();
        for k in 0..256u64 {
            b.insert(k << 56, k).unwrap(); // top byte differs: no sharing
        }
        let sparse_nodes = b.node_count();
        assert!(dense_nodes < sparse_nodes / 4);
    }

    #[test]
    fn aux_space_dominates_for_sparse_keys() {
        let mut t = RadixTrie::new();
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            t.insert(rng.gen(), 0).unwrap();
        }
        let p = t.space_profile();
        assert!(
            p.aux_bytes > p.base_bytes,
            "random 64-bit keys make the trie memory-hungry: aux {} vs base {}",
            p.aux_bytes,
            p.base_bytes
        );
    }

    #[test]
    fn model_check_random_ops() {
        check(&mut RadixTrie::new(), &hostile_ops(59, 5000, 3000)).unwrap();
    }

    #[test]
    fn zero_key_works() {
        let mut t = RadixTrie::new();
        t.insert(0, 7).unwrap();
        assert_eq!(t.get(0).unwrap(), Some(7));
        assert_eq!(t.range(0, 0).unwrap(), vec![Record::new(0, 7)]);
    }
}
