//! A Cache-Sensitive B+-tree (CSB+, Rao & Ross, SIGMOD 2000) — from the
//! paper's §4 memory-hierarchy discussion: "Cache-sensitive B+-Trees
//! physically cluster sibling nodes together to reduce the number of
//! cache misses, and decrease the node size using offsets rather than
//! pointers."
//!
//! All children of a node live contiguously in one *node group*, so an
//! internal node stores the keys plus a **single** group reference instead
//! of one pointer per child. The RUM consequences are textbook:
//!
//! * **MO ↓ / RO ↓** — pointer bytes per fanout shrink from 8·(k+1) to 8,
//!   so more separators fit per cache line and probes touch fewer bytes;
//! * **UO ↑** — a split can no longer link in one node: the whole sibling
//!   group is rebuilt (copied) to keep it contiguous.

use std::sync::Arc;

use rum_core::{
    base_bytes, AccessMethod, CostTracker, DataClass, Key, Record, Result, SpaceProfile, Value,
};

/// Separator keys per internal node (two cache lines of keys).
const NODE_KEYS: usize = 14;
/// Records per leaf.
const LEAF_RECORDS: usize = 14;

#[derive(Clone, Debug)]
enum CsbNode {
    Internal {
        /// `keys[i]` separates `child(i)` (< key) from `child(i+1)` (>=).
        keys: Vec<Key>,
        /// All `keys.len() + 1` children live contiguously in this group.
        child_group: usize,
    },
    Leaf {
        records: Vec<Record>,
    },
}

impl CsbNode {
    /// In-memory footprint: keys/records plus ONE group reference — the
    /// CSB+ space trick.
    fn bytes(&self) -> u64 {
        match self {
            CsbNode::Internal { keys, .. } => keys.len() as u64 * 8 + 8 + 8,
            CsbNode::Leaf { records } => base_bytes(records.len()) + 8,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct NodeGroup {
    nodes: Vec<CsbNode>,
}

/// The CSB+ tree.
pub struct CsbTree {
    groups: Vec<NodeGroup>,
    free_groups: Vec<usize>,
    /// The root is `groups[root_group].nodes[0]`.
    root_group: usize,
    len: usize,
    tracker: Arc<CostTracker>,
}

impl CsbTree {
    pub fn new() -> Self {
        CsbTree {
            groups: vec![NodeGroup {
                nodes: vec![CsbNode::Leaf {
                    records: Vec::new(),
                }],
            }],
            free_groups: Vec::new(),
            root_group: 0,
            len: 0,
            tracker: CostTracker::new(),
        }
    }

    /// Number of node groups (diagnostic).
    pub fn group_count(&self) -> usize {
        self.groups.len() - self.free_groups.len()
    }

    fn alloc_group(&mut self, nodes: Vec<CsbNode>) -> usize {
        if let Some(g) = self.free_groups.pop() {
            self.groups[g] = NodeGroup { nodes };
            g
        } else {
            self.groups.push(NodeGroup { nodes });
            self.groups.len() - 1
        }
    }

    /// Charge an inspection of a node: its key/record payload.
    fn charge_visit(&self, node: &CsbNode) {
        match node {
            CsbNode::Internal { keys, .. } => {
                self.tracker.read(DataClass::Aux, keys.len() as u64 * 8 + 8)
            }
            CsbNode::Leaf { records } => self.tracker.read_records(records.len()),
        }
    }

    /// Charge a group rebuild (the CSB+ update tax): every node moved.
    fn charge_group_copy(&self, group: usize) {
        let bytes: u64 = self.groups[group].nodes.iter().map(|n| n.bytes()).sum();
        self.tracker.read(DataClass::Aux, bytes);
        self.tracker.write(DataClass::Aux, bytes);
    }

    /// Find the leaf (group, idx) covering `key`.
    fn find_leaf(&self, key: Key) -> (usize, usize) {
        let mut group = self.root_group;
        let mut idx = 0usize;
        loop {
            let node = &self.groups[group].nodes[idx];
            self.charge_visit(node);
            match node {
                CsbNode::Internal { keys, child_group } => {
                    let slot = keys.partition_point(|&k| k <= key);
                    group = *child_group;
                    idx = slot;
                }
                CsbNode::Leaf { .. } => return (group, idx),
            }
        }
    }

    /// Recursive insert below `groups[group].nodes[idx]`; on split returns
    /// the separator and the new right node (the CALLER rebuilds its child
    /// group to place it).
    fn insert_at(
        &mut self,
        group: usize,
        idx: usize,
        key: Key,
        value: Value,
    ) -> Option<(Key, CsbNode)> {
        let node = &self.groups[group].nodes[idx];
        self.charge_visit(node);
        match node {
            CsbNode::Leaf { .. } => {
                let CsbNode::Leaf { records } = &mut self.groups[group].nodes[idx] else {
                    unreachable!()
                };
                match records.binary_search_by_key(&key, |r| r.key) {
                    Ok(i) => {
                        records[i].value = value;
                        self.tracker.write_records(1);
                        None
                    }
                    Err(i) => {
                        records.insert(i, Record::new(key, value));
                        self.len += 1;
                        self.tracker.write_records(1);
                        if records.len() <= LEAF_RECORDS {
                            return None;
                        }
                        // Leaf split: right half becomes a new node that the
                        // parent must place next to this one.
                        let mid = records.len() / 2;
                        let right = records.split_off(mid);
                        let sep = right[0].key;
                        self.tracker.write_records(right.len());
                        Some((sep, CsbNode::Leaf { records: right }))
                    }
                }
            }
            CsbNode::Internal { keys, child_group } => {
                let slot = keys.partition_point(|&k| k <= key);
                let child_group = *child_group;
                let split = self.insert_at(child_group, slot, key, value)?;
                // A child split: rebuild the child group with the new node
                // in place (the contiguity tax).
                let (sep, right_node) = split;
                self.groups[child_group].nodes.insert(slot + 1, right_node);
                self.charge_group_copy(child_group);
                let CsbNode::Internal { keys, .. } = &mut self.groups[group].nodes[idx] else {
                    unreachable!()
                };
                keys.insert(slot, sep);
                self.tracker.write(DataClass::Aux, 8);
                if keys.len() <= NODE_KEYS {
                    return None;
                }
                // Internal split: keys and the child group both split.
                let mid = keys.len() / 2;
                let promoted = keys[mid];
                let right_keys: Vec<Key> = keys[mid + 1..].to_vec();
                keys.truncate(mid);
                let right_children: Vec<CsbNode> =
                    self.groups[child_group].nodes.split_off(mid + 1);
                let right_group = self.alloc_group(right_children);
                self.charge_group_copy(right_group);
                Some((
                    promoted,
                    CsbNode::Internal {
                        keys: right_keys,
                        child_group: right_group,
                    },
                ))
            }
        }
    }

    /// In-order walk collecting `[lo, hi]` with subtree pruning.
    fn collect_range(&self, group: usize, idx: usize, lo: Key, hi: Key, out: &mut Vec<Record>) {
        let node = &self.groups[group].nodes[idx];
        self.charge_visit(node);
        match node {
            CsbNode::Leaf { records } => {
                for r in records {
                    if r.key > hi {
                        return;
                    }
                    if r.key >= lo {
                        out.push(*r);
                    }
                }
            }
            CsbNode::Internal { keys, child_group } => {
                let first = keys.partition_point(|&k| k <= lo);
                for slot in first..=keys.len() {
                    // Prune children entirely above hi.
                    if slot > 0 && keys[slot - 1] > hi {
                        return;
                    }
                    self.collect_range(*child_group, slot, lo, hi, out);
                }
            }
        }
    }
}

impl Default for CsbTree {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessMethod for CsbTree {
    fn name(&self) -> String {
        "csb+tree".into()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        &self.tracker
    }

    fn space_profile(&self) -> SpaceProfile {
        let total: u64 = self
            .groups
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.free_groups.contains(i))
            .flat_map(|(_, g)| g.nodes.iter())
            .map(|n| n.bytes())
            .sum();
        SpaceProfile::from_physical(self.len, total)
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        let (group, idx) = self.find_leaf(key);
        let CsbNode::Leaf { records } = &self.groups[group].nodes[idx] else {
            unreachable!("find_leaf returns leaves")
        };
        Ok(records
            .binary_search_by_key(&key, |r| r.key)
            .ok()
            .map(|i| records[i].value))
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        self.collect_range(self.root_group, 0, lo, hi, &mut out);
        Ok(out)
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        if let Some((sep, right)) = self.insert_at(self.root_group, 0, key, value) {
            // Root split: the old root and the new right node become the
            // two members of a fresh child group under a new root.
            let old_root = self.groups[self.root_group].nodes[0].clone();
            let child_group = self.alloc_group(vec![old_root, right]);
            self.charge_group_copy(child_group);
            self.groups[self.root_group].nodes[0] = CsbNode::Internal {
                keys: vec![sep],
                child_group,
            };
            self.tracker.write(DataClass::Aux, 16);
        }
        Ok(())
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        let (group, idx) = self.find_leaf(key);
        let CsbNode::Leaf { records } = &mut self.groups[group].nodes[idx] else {
            unreachable!()
        };
        match records.binary_search_by_key(&key, |r| r.key) {
            Ok(i) => {
                records[i].value = value;
                self.tracker.write_records(1);
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        // Lazy deletion (like the paged B+-tree): no group rebalancing.
        let (group, idx) = self.find_leaf(key);
        let CsbNode::Leaf { records } = &mut self.groups[group].nodes[idx] else {
            unreachable!()
        };
        match records.binary_search_by_key(&key, |r| r.key) {
            Ok(i) => {
                records.remove(i);
                self.len -= 1;
                self.tracker.write_records(1);
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        // Rebuild in place but KEEP the tracker: callers hold clones of it
        // (replacing it would silently disconnect their accounting).
        let tracker = Arc::clone(&self.tracker);
        *self = CsbTree::new();
        self.tracker = tracker;
        // Build bottom-up: pack leaves, then stack internal levels so each
        // parent's children share one group.
        if records.is_empty() {
            return Ok(());
        }
        self.len = records.len();
        self.tracker.write_records(records.len());
        let mut level: Vec<(Key, CsbNode)> = records
            .chunks(LEAF_RECORDS)
            .map(|c| {
                (
                    c[0].key,
                    CsbNode::Leaf {
                        records: c.to_vec(),
                    },
                )
            })
            .collect();
        while level.len() > 1 {
            let mut next: Vec<(Key, CsbNode)> = Vec::new();
            for chunk in level.chunks(NODE_KEYS + 1) {
                let first_key = chunk[0].0;
                let keys: Vec<Key> = chunk[1..].iter().map(|(k, _)| *k).collect();
                let nodes: Vec<CsbNode> = chunk.iter().map(|(_, n)| n.clone()).collect();
                let group = self.alloc_group(nodes);
                next.push((
                    first_key,
                    CsbNode::Internal {
                        keys,
                        child_group: group,
                    },
                ));
            }
            level = next;
        }
        let root = level.pop().expect("non-empty").1;
        self.groups[self.root_group].nodes = vec![root];
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::oracle::{check, hostile_ops};

    #[test]
    fn crud_roundtrip() {
        let mut t = CsbTree::new();
        for k in [5u64, 1, 9, 3, 7] {
            t.insert(k, k * 10).unwrap();
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.get(7).unwrap(), Some(70));
        assert_eq!(t.get(6).unwrap(), None);
        assert!(t.update(9, 99).unwrap());
        assert!(!t.update(999, 0).unwrap());
        assert!(t.delete(5).unwrap());
        assert!(!t.delete(5).unwrap());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn grows_through_many_splits() {
        let mut t = CsbTree::new();
        for k in 0..5000u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.len(), 5000);
        for k in (0..5000u64).step_by(173) {
            assert_eq!(t.get(k).unwrap(), Some(k));
        }
        assert!(t.group_count() > 10);
    }

    #[test]
    fn range_is_ordered_and_complete() {
        let mut t = CsbTree::new();
        for k in (0..2000u64).rev() {
            t.insert(k * 2, k).unwrap();
        }
        let rs = t.range(100, 200).unwrap();
        let keys: Vec<u64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(keys, (100..=200).step_by(2).collect::<Vec<_>>());
        assert_eq!(t.range(0, u64::MAX).unwrap().len(), 2000);
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let recs: Vec<Record> = (0..3000u64).map(|k| Record::new(k * 3, k)).collect();
        let mut bulk = CsbTree::new();
        bulk.bulk_load(&recs).unwrap();
        let mut incr = CsbTree::new();
        for r in &recs {
            incr.insert(r.key, r.value).unwrap();
        }
        assert_eq!(
            bulk.range(0, u64::MAX).unwrap(),
            incr.range(0, u64::MAX).unwrap()
        );
        assert_eq!(bulk.len(), incr.len());
    }

    #[test]
    fn pointer_overhead_beats_the_skiplist() {
        // The CSB+ pitch: one group pointer per node instead of one
        // pointer per child/record.
        let recs: Vec<Record> = (0..10_000u64).map(|k| Record::new(k, k)).collect();
        let mut csb = CsbTree::new();
        csb.bulk_load(&recs).unwrap();
        let mut skip = crate::SkipList::new();
        skip.bulk_load(&recs).unwrap();
        let csb_mo = csb.space_profile().space_amplification();
        let skip_mo = skip.space_profile().space_amplification();
        assert!(
            csb_mo < skip_mo * 0.75,
            "CSB+ MO {csb_mo} should undercut skip list MO {skip_mo}"
        );
    }

    #[test]
    fn update_tax_group_copies_exceed_leaf_writes() {
        // Splitting copies whole groups: insert-heavy write traffic per
        // record must exceed the plain 16-byte record write.
        let mut t = CsbTree::new();
        t.tracker().reset();
        for k in 0..5000u64 {
            t.insert(k.wrapping_mul(7919) % 100_000, k).unwrap();
        }
        let s = t.tracker().snapshot();
        let per_record = s.total_write_bytes() as f64 / 5000.0;
        assert!(
            per_record > 32.0,
            "group-copy tax should exceed 2 records/insert, got {per_record}"
        );
    }

    #[test]
    fn model_check_random_ops() {
        check(&mut CsbTree::new(), &hostile_ops(3, 6000, 2000)).unwrap();
    }

    #[test]
    fn empty_tree_behaves() {
        let mut t = CsbTree::new();
        assert_eq!(t.get(1).unwrap(), None);
        assert!(t.range(0, 100).unwrap().is_empty());
        assert!(!t.delete(1).unwrap());
        t.bulk_load(&[]).unwrap();
        assert_eq!(t.len(), 0);
    }
}
