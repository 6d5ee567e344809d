//! The B+-tree proper.

use std::sync::Arc;

use rum_core::{
    AccessMethod, CostTracker, DataClass, Key, Record, RecordSlice, Result, RumError, SpaceProfile,
    Value,
};
use rum_storage::{BlockDevice, CheckedDevice, MemDevice, RetryPolicy, ScrubReport};

use crate::node::{internal_capacity, leaf_capacity, InternalRef, LeafMut, Node, NodeId, NodeRef};
use crate::store::NodeStore;

/// How a full node splits on insert — the "split condition" knob of §5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitPolicy {
    /// Split in the middle: robust for random inserts.
    Half,
    /// If the insert lands at the far right of the node, keep the left node
    /// completely full and start a nearly-empty right node. Sequential
    /// ingest then packs leaves at ~100% instead of ~50%, trading MO for
    /// nothing — *if* the workload really is sequential.
    RightHeavy,
}

/// Tuning knobs (§5: "dynamically tuned parameters, including tree height,
/// node size, and split condition").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BTreeConfig {
    /// Node size in bytes. May be less than a page (the slack is honest MO)
    /// or several pages (each node access charges them all).
    pub node_size: usize,
    /// Bulk-load fill factor in (0, 1]: lower leaves room for future
    /// inserts (fewer splits — lower UO) at the price of more nodes
    /// (higher MO and slightly higher RO).
    pub fill_factor: f64,
    pub split_policy: SplitPolicy,
}

impl Default for BTreeConfig {
    fn default() -> Self {
        BTreeConfig {
            node_size: rum_core::PAGE_SIZE,
            fill_factor: 1.0,
            split_policy: SplitPolicy::Half,
        }
    }
}

/// A clustered B+-tree over any block device.
pub struct BTree<D: BlockDevice = MemDevice> {
    store: NodeStore<D>,
    config: BTreeConfig,
    root: NodeId,
    height: usize,
    len: usize,
    /// Buffers an insert keeps its way down in, reused by the next one.
    path: Vec<PathNode>,
}

impl BTree<MemDevice> {
    /// A tree with default configuration over a fresh in-memory device.
    pub fn new() -> Self {
        Self::with_config(BTreeConfig::default())
    }

    /// A tree with the given configuration over a fresh in-memory device.
    pub fn with_config(config: BTreeConfig) -> Self {
        Self::with_device(MemDevice::new(), config)
    }
}

impl Default for BTree<MemDevice> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: BlockDevice> BTree<D> {
    /// A tree over a caller-supplied device (e.g. a
    /// [`MemoryHierarchy`](rum_storage::MemoryHierarchy) for the Figure 2
    /// experiment).
    pub fn with_device(device: D, config: BTreeConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.fill_factor) && config.fill_factor > 0.0,
            "fill_factor must be in (0, 1]"
        );
        assert!(
            leaf_capacity(config.node_size) >= 2 && internal_capacity(config.node_size) >= 2,
            "node_size {} too small for a B-tree node",
            config.node_size
        );
        let mut store = NodeStore::new(device, CostTracker::new(), config.node_size);
        // Construction runs against a fresh, fault-free device: the fault
        // and checksum layers only start rejecting I/O after the tree is
        // built, so these first two page operations cannot fail unless the
        // device itself is broken at handoff.
        let root = store
            .allocate()
            .expect("a fresh device allocates the root leaf");
        store
            .write(root, DataClass::Base, &Node::empty_leaf())
            .expect("a fresh device stores the empty root leaf");
        // Construction is not workload traffic.
        store.pager().tracker().reset();
        BTree {
            store,
            config,
            root,
            height: 1,
            len: 0,
            path: Vec::new(),
        }
    }

    pub fn config(&self) -> &BTreeConfig {
        &self.config
    }

    /// Rebind this tree's cost charges to `tracker` (used by composite
    /// structures — e.g. the partitioned B-tree — that aggregate several
    /// trees under one account).
    pub fn adopt_tracker(mut self, tracker: Arc<CostTracker>) -> Self {
        self.store.pager_mut().set_tracker(tracker);
        self
    }

    /// The underlying block device (e.g. to inspect the buffer and storage
    /// stats of a [`MemoryHierarchy`](rum_storage::MemoryHierarchy)).
    pub fn device(&self) -> &D {
        self.store.pager().device()
    }

    /// Mutable access to the underlying block device.
    pub fn device_mut(&mut self) -> &mut D {
        self.store.pager_mut().device_mut()
    }

    /// How transient device faults are retried on every node the tree
    /// touches (see [`RetryPolicy`]; the default retries 3 times with
    /// exponential backoff).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.store.pager_mut().set_retry_policy(retry);
    }

    /// Tree height in levels (a lone leaf is height 1).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of nodes (leaves + internals).
    pub fn node_count(&self) -> usize {
        self.store.node_count()
    }

    fn leaf_cap(&self) -> usize {
        leaf_capacity(self.config.node_size)
    }

    fn internal_cap(&self) -> usize {
        internal_capacity(self.config.node_size)
    }

    /// Walk the `height - 1` internal levels above the leaf covering
    /// `key`, each node searched where the device holds it, and return
    /// that leaf's id without reading it. `visit` sees every internal node
    /// on the way down together with the child slot taken.
    ///
    /// Every leaf of a B+-tree is at depth `height - 1`, so the walk is
    /// bounded by the height: a leaf met earlier, or (see
    /// [`with_leaf`](Self::with_leaf)) an internal node where the leaf
    /// must be, is a damaged page — reported as [`RumError::Corrupt`]
    /// instead of followed, since a garbled child pointer can point back
    /// up the tree.
    fn leaf_for(
        &mut self,
        key: Key,
        mut visit: impl FnMut(NodeId, &InternalRef<'_>, usize),
    ) -> Result<NodeId> {
        let mut cur = self.root;
        for depth in 1..self.height {
            // Everything above the leaves is auxiliary data.
            cur = self
                .store
                .with_node(cur, DataClass::Aux, |node| match node {
                    NodeRef::Internal(node) => {
                        let slot = node.slot_for(key);
                        visit(cur, &node, slot);
                        Ok(node.child(slot).expect("one more child than keys"))
                    }
                    NodeRef::Leaf { .. } => Err(RumError::Corrupt(format!(
                        "{cur:?} is a leaf at depth {depth} of a tree of height {}",
                        self.height
                    ))),
                })??;
        }
        Ok(cur)
    }

    /// Lend the records and right-sibling pointer of leaf `id` to `f`.
    /// Leaves are base data in this clustered organization.
    fn with_leaf<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(RecordSlice<'_>, NodeId) -> R,
    ) -> Result<R> {
        self.store
            .with_node(id, DataClass::Base, |node| match node {
                NodeRef::Leaf { records, next } => Ok(f(records, next)),
                NodeRef::Internal(_) => Err(RumError::Corrupt(format!(
                    "{id:?} is an internal node at the leaf level"
                ))),
            })?
    }

    /// Edit leaf `id` where it lies (one read, and one write if `f`
    /// reports a change; see [`NodeStore::edit_node`]). A node that is not
    /// a leaf is refused before `f` runs, as [`with_leaf`](Self::with_leaf)
    /// refuses it.
    fn edit_leaf<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut LeafMut<'_>) -> (R, bool),
    ) -> Result<R> {
        self.store
            .edit_node(id, DataClass::Base, |bytes| match LeafMut::new(bytes) {
                Ok(Some(mut leaf)) => {
                    let (answer, changed) = f(&mut leaf);
                    (Ok(answer), changed)
                }
                Ok(None) => (
                    Err(RumError::Corrupt(format!(
                        "{id:?} is an internal node at the leaf level"
                    ))),
                    false,
                ),
                Err(e) => (Err(e), false),
            })?
    }

    /// For update and delete: find the leaf holding `key` and, on a hit,
    /// apply `edit` to it where it lies, given the index of `key`. A miss
    /// writes nothing. Returns whether `key` was found.
    fn edit_leaf_holding(
        &mut self,
        key: Key,
        edit: impl FnOnce(&mut LeafMut<'_>, usize),
    ) -> Result<bool> {
        let leaf = self.leaf_for(key, |_, _, _| {})?;
        self.edit_leaf(leaf, |leaf| match leaf.records().search(key) {
            Ok(i) => {
                edit(leaf, i);
                (true, true)
            }
            Err(_) => (false, false),
        })
    }

    /// Split an overfull leaf's `records` (the new one at `at`): write the
    /// right half to a fresh leaf and return the left half, the new leaf
    /// and the separator between them.
    fn split_leaf(
        &mut self,
        mut records: Vec<Record>,
        next: NodeId,
        at: usize,
    ) -> Result<(Vec<Record>, NodeId, Key)> {
        let mid = match self.config.split_policy {
            SplitPolicy::RightHeavy if at == records.len() - 1 => records.len() - 1,
            _ => records.len() / 2,
        };
        let right = records.split_off(mid);
        let sep = right[0].key;
        let right_id = self.store.allocate()?;
        self.store.write(
            right_id,
            DataClass::Base,
            &Node::Leaf {
                records: right,
                next,
            },
        )?;
        Ok((records, right_id, sep))
    }

    fn insert_inner(&mut self, key: Key, value: Value) -> Result<()> {
        let mut path = std::mem::take(&mut self.path);
        let inserted = self.insert_along(&mut path, key, value);
        self.path = path;
        inserted
    }

    /// The insert proper, keeping in `path` the internal nodes a split
    /// below them may rewrite.
    fn insert_along(&mut self, path: &mut Vec<PathNode>, key: Key, value: Value) -> Result<()> {
        // Only the part of the path a split can reach is kept: a node with
        // room absorbs the separator pushed up from below, so nothing
        // above it is rewritten. The entries are reused from insert to
        // insert, so keeping them allocates nothing once warm.
        let cap = self.internal_cap();
        let mut kept = 0;
        let leaf_id = self.leaf_for(key, |id, node, slot| {
            if node.len() < cap {
                kept = 0;
            }
            if kept == path.len() {
                path.push(PathNode::default());
            }
            path[kept].keep(id, node, slot);
            kept += 1;
        })?;
        // The common case ends here: the key is overwritten or inserted
        // where the leaf lies. Only a full leaf is copied out, to split.
        let (records, next, at) =
            match self.edit_leaf(leaf_id, |leaf| match leaf.records().search(key) {
                Ok(i) => {
                    leaf.set_value(i, value);
                    (LeafInsert::Overwrote, true)
                }
                Err(i) if !leaf.is_full() => {
                    leaf.insert(i, Record::new(key, value));
                    (LeafInsert::Inserted, true)
                }
                Err(i) => {
                    let mut records = Vec::with_capacity(leaf.records().len() + 1);
                    records.extend(leaf.records().iter());
                    records.insert(i, Record::new(key, value));
                    (LeafInsert::Full(records, leaf.next(), i), false)
                }
            })? {
                LeafInsert::Overwrote => return Ok(()),
                LeafInsert::Inserted => {
                    self.len += 1;
                    return Ok(());
                }
                LeafInsert::Full(records, next, at) => (records, next, at),
            };
        self.len += 1;
        // Leaf split.
        let (left, right_id, mut sep) = self.split_leaf(records, next, at)?;
        self.store.write(
            leaf_id,
            DataClass::Base,
            &Node::Leaf {
                records: left,
                next: right_id,
            },
        )?;
        // Propagate the separator upward, through owned copies of the kept
        // nodes (a split is rare; their buffers are simply reallocated).
        let mut new_child = right_id;
        while kept > 0 {
            kept -= 1;
            let node = &mut path[kept];
            let (node_id, slot) = (node.id, node.slot);
            let mut keys = std::mem::take(&mut node.keys);
            let mut children = std::mem::take(&mut node.children);
            keys.insert(slot, sep);
            children.insert(slot + 1, new_child);
            if keys.len() <= self.internal_cap() {
                return self.store.write(
                    node_id,
                    DataClass::Aux,
                    &Node::Internal { keys, children },
                );
            }
            // Internal split.
            let mid = keys.len() / 2;
            let promoted = keys[mid];
            let right_keys: Vec<Key> = keys[mid + 1..].to_vec();
            let right_children: Vec<NodeId> = children[mid + 1..].to_vec();
            keys.truncate(mid);
            children.truncate(mid + 1);
            let right_internal = self.store.allocate()?;
            self.store.write(
                right_internal,
                DataClass::Aux,
                &Node::Internal {
                    keys: right_keys,
                    children: right_children,
                },
            )?;
            self.store
                .write(node_id, DataClass::Aux, &Node::Internal { keys, children })?;
            sep = promoted;
            new_child = right_internal;
        }
        // Root split: grow the tree.
        let new_root = self.store.allocate()?;
        self.store.write(
            new_root,
            DataClass::Aux,
            &Node::Internal {
                keys: vec![sep],
                children: vec![self.root, new_child],
            },
        )?;
        self.root = new_root;
        self.height += 1;
        Ok(())
    }
}

/// What an insert found in its leaf.
enum LeafInsert {
    /// The key was there; its value was overwritten in place.
    Overwrote,
    /// The key was new and fit; it was inserted in place.
    Inserted,
    /// The leaf was full: its records with the new one at the index given,
    /// and its right sibling, to split. Nothing was written.
    Full(Vec<Record>, NodeId, usize),
}

/// An internal node on an insert's way down, kept in case a split below
/// it must be absorbed: its separator keys, its children and the slot the
/// insert took.
#[derive(Default)]
struct PathNode {
    id: NodeId,
    keys: Vec<Key>,
    children: Vec<NodeId>,
    slot: usize,
}

impl PathNode {
    /// Keep `node` here, reusing this entry's buffers.
    fn keep(&mut self, id: NodeId, node: &InternalRef<'_>, slot: usize) {
        self.id = id;
        self.slot = slot;
        self.keys.clear();
        self.keys.extend(node.keys());
        self.children.clear();
        self.children.extend(node.children());
    }
}

/// Walk every live node page behind the checksum seal (see
/// [`rum_storage::Pager::scrub`]): proactive detection of silent
/// corruption, charged as auxiliary reads.
impl<D: BlockDevice> BTree<CheckedDevice<D>> {
    pub fn scrub(&mut self) -> Result<ScrubReport> {
        self.store.pager_mut().scrub()
    }
}

impl<D: BlockDevice> AccessMethod for BTree<D> {
    fn name(&self) -> String {
        "b+tree".into()
    }

    /// Forward the sink to the pager so fault/retry/corruption events on
    /// node I/O are reported; installing a sink never changes a counted
    /// byte.
    fn set_trace_sink(&mut self, sink: Arc<dyn rum_core::trace::TraceSink>) {
        self.store.pager_mut().set_trace_sink(sink);
    }

    fn len(&self) -> usize {
        self.len
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        self.store.pager().tracker()
    }

    fn space_profile(&self) -> SpaceProfile {
        SpaceProfile::from_physical(self.len, self.store.physical_bytes())
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        let leaf = self.leaf_for(key, |_, _, _| {})?;
        self.with_leaf(leaf, |records, _| records.find(key))
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        let mut leaf = self.leaf_for(lo, |_, _, _| {})?;
        // Largest key met so far along the leaf chain, and how many leaves
        // were walked: a damaged `next` pointer that leads backwards (or,
        // through emptied leaves, in a circle) is reported, not followed.
        let mut last_key: Option<Key> = None;
        for _ in 0..self.store.node_count() {
            let (done, next) = self.with_leaf(leaf, |records, next| {
                if let (Some(prev), Some(first)) = (last_key, records.get(0)) {
                    if first.key <= prev {
                        return Err(RumError::Corrupt(format!(
                            "leaf chain goes backwards: {leaf:?} starts at key {} after key {prev}",
                            first.key
                        )));
                    }
                }
                last_key = records.last().map(|r| r.key).or(last_key);
                // The leaf's share of the answer is one span, sized once:
                // from the first key `>= lo` to past the last `<= hi`. A
                // key above `hi` in this leaf ends the scan.
                let start = records.lower_bound(lo);
                let end = match records.search(hi) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                let span = records.tail(start).iter().take(end.saturating_sub(start));
                // Grow to powers of two, as a push loop does. Grown from
                // the first leaf's span instead, a million-record answer
                // ended with ~1.3x the capacity, and the large allocations
                // the process made after it ran measurably slower.
                let want = out.len() + span.len();
                if want > out.capacity() {
                    out.reserve_exact(want.next_power_of_two() - out.len());
                }
                out.extend(span);
                Ok((end < records.len(), next))
            })??;
            if done || !next.is_valid() {
                return Ok(out);
            }
            leaf = next;
        }
        Err(RumError::Corrupt(
            "leaf chain is longer than the tree has nodes".into(),
        ))
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        self.insert_inner(key, value)
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        self.edit_leaf_holding(key, |leaf, i| leaf.set_value(i, value))
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        // Lazy deletion: the record is removed in place; nodes are never
        // merged or freed (their slack shows up honestly in MO). Real
        // systems defer leaf consolidation the same way.
        let found = self.edit_leaf_holding(key, |leaf, i| leaf.remove(i))?;
        if found {
            self.len -= 1;
        }
        Ok(found)
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.store.clear()?;
        self.len = records.len();

        if records.is_empty() {
            self.root = self.store.allocate()?;
            self.store
                .write(self.root, DataClass::Base, &Node::empty_leaf())?;
            self.height = 1;
            return Ok(());
        }

        // Pack leaves at the fill factor, left to right.
        let per_leaf =
            ((self.leaf_cap() as f64 * self.config.fill_factor) as usize).clamp(1, self.leaf_cap());
        let chunks: Vec<&[Record]> = records.chunks(per_leaf).collect();
        let leaf_ids: Vec<NodeId> = (0..chunks.len())
            .map(|_| self.store.allocate())
            .collect::<Result<_>>()?;
        let mut level: Vec<(Key, NodeId)> = Vec::with_capacity(chunks.len());
        for (i, chunk) in chunks.iter().enumerate() {
            let next = if i + 1 < leaf_ids.len() {
                leaf_ids[i + 1]
            } else {
                NodeId::INVALID
            };
            self.store.write(
                leaf_ids[i],
                DataClass::Base,
                &Node::Leaf {
                    records: chunk.to_vec(),
                    next,
                },
            )?;
            level.push((chunk[0].key, leaf_ids[i]));
        }

        // Build internal levels bottom-up.
        self.height = 1;
        let per_internal = ((self.internal_cap() as f64 * self.config.fill_factor) as usize)
            .clamp(2, self.internal_cap())
            + 1; // children per node
        while level.len() > 1 {
            let mut next_level = Vec::with_capacity(level.len() / 2 + 1);
            for group in level.chunks(per_internal) {
                let id = self.store.allocate()?;
                let keys: Vec<Key> = group[1..].iter().map(|&(k, _)| k).collect();
                let children: Vec<NodeId> = group.iter().map(|&(_, c)| c).collect();
                self.store
                    .write(id, DataClass::Aux, &Node::Internal { keys, children })?;
                next_level.push((group[0].0, id));
            }
            level = next_level;
            self.height += 1;
        }
        self.root = level[0].1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::oracle::{check, hostile_ops};
    use rum_core::RECORDS_PER_PAGE;
    use rum_storage::PageBuf;

    fn loaded(n: u64) -> BTree {
        let recs: Vec<Record> = (0..n).map(|k| Record::new(k * 2, k)).collect();
        let mut t = BTree::new();
        t.bulk_load(&recs).unwrap();
        t
    }

    #[test]
    fn crud_roundtrip() {
        let mut t = BTree::new();
        for k in [5u64, 1, 9, 3, 7] {
            t.insert(k, k * 10).unwrap();
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.get(7).unwrap(), Some(70));
        assert_eq!(t.get(6).unwrap(), None);
        assert!(t.update(9, 99).unwrap());
        assert!(!t.update(999, 0).unwrap());
        assert_eq!(t.get(9).unwrap(), Some(99));
        assert!(t.delete(5).unwrap());
        assert!(!t.delete(5).unwrap());
        assert_eq!(t.get(5).unwrap(), None);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn insert_is_upsert() {
        let mut t = BTree::new();
        t.insert(1, 1).unwrap();
        t.insert(1, 2).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(1).unwrap(), Some(2));
    }

    #[test]
    fn grows_and_splits_correctly() {
        let mut t = BTree::new();
        let n = 3 * RECORDS_PER_PAGE as u64; // forces leaf splits + a root split
        for k in 0..n {
            t.insert(k, k).unwrap();
        }
        assert!(t.height() >= 2);
        for k in 0..n {
            assert_eq!(t.get(k).unwrap(), Some(k), "key {k}");
        }
    }

    #[test]
    fn reverse_and_random_insert_orders() {
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        let n = 2000u64;
        for mode in 0..3 {
            let mut keys: Vec<u64> = (0..n).collect();
            match mode {
                0 => {}
                1 => keys.reverse(),
                _ => keys.shuffle(&mut StdRng::seed_from_u64(3)),
            }
            let mut t = BTree::new();
            for &k in &keys {
                t.insert(k, k + 1).unwrap();
            }
            assert_eq!(t.len(), n as usize);
            for k in 0..n {
                assert_eq!(t.get(k).unwrap(), Some(k + 1), "mode {mode} key {k}");
            }
        }
    }

    #[test]
    fn range_scan_follows_leaf_chain() {
        let mut t = loaded(2000); // keys 0,2,...,3998
        let rs = t.range(100, 140).unwrap();
        let keys: Vec<u64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(keys, (100..=140).step_by(2).collect::<Vec<_>>());
        // Full scan.
        assert_eq!(t.range(0, u64::MAX).unwrap().len(), 2000);
        // Empty range.
        assert!(t.range(1, 1).unwrap().is_empty());
        // Inverted range errors.
        assert!(t.range(10, 5).is_err());
    }

    #[test]
    fn ranges_at_leaf_edges_match_a_map() {
        // Inserted one by one, so leaves split and are not full.
        let mut t = BTree::new();
        let mut map = std::collections::BTreeMap::new();
        for k in 0..4 * RECORDS_PER_PAGE as u64 {
            t.insert(3 * k + 1, k).unwrap();
            map.insert(3 * k + 1, k);
        }
        // The first and last keys of the first four leaves on the chain.
        let mut leaf = t.leaf_for(0, |_, _, _| {}).unwrap();
        let mut edges = Vec::new();
        for _ in 0..4 {
            let (first_last, next) = t
                .with_leaf(leaf, |records, next| {
                    let first = records.get(0).unwrap().key;
                    ((first, records.last().unwrap().key), next)
                })
                .unwrap();
            edges.push(first_last);
            leaf = next;
        }
        let last = *map.keys().next_back().unwrap();
        let cases = [
            (2, edges[0].1),              // ends on a leaf's last key
            (edges[1].0, edges[1].1 + 1), // starts on a leaf's first key
            (edges[1].0, edges[1].1),     // exactly one leaf
            (edges[0].1, edges[2].0),     // three leaves, one key of each end
            (edges[0].0 - 1, edges[3].1), // four whole leaves
            (edges[3].0, Key::MAX),       // to the end of the tree
            (last, Key::MAX),             // the tree's last key alone
            (last, last),                 // ... ending on the last leaf's end
        ];
        for (lo, hi) in cases {
            let want: Vec<Record> = map
                .range(lo..=hi)
                .map(|(&k, &v)| Record::new(k, v))
                .collect();
            assert!(!want.is_empty(), "{lo}..={hi}");
            assert_eq!(t.range(lo, hi).unwrap(), want, "{lo}..={hi}");
        }
    }

    #[test]
    fn point_query_cost_is_height() {
        let mut t = loaded(64 * RECORDS_PER_PAGE as u64);
        let h = t.height() as u64;
        let before = t.tracker().snapshot();
        t.get(1234).unwrap();
        let reads = t.tracker().since(&before).page_reads;
        assert_eq!(reads, h, "one page per level");
    }

    #[test]
    fn point_query_cost_grows_logarithmically() {
        let probes = |n: u64| {
            let mut t = loaded(n);
            let before = t.tracker().snapshot();
            for k in [0u64, n / 2, n - 1] {
                t.get(k * 2).unwrap();
            }
            t.tracker().since(&before).page_reads as f64 / 3.0
        };
        let small = probes(1 << 10);
        let large = probes(1 << 17);
        // 128× more data costs only ~1 extra level.
        assert!(large - small <= 2.0, "small {small}, large {large}");
        assert!(large > small);
    }

    #[test]
    fn insert_cost_is_one_leaf_write_typically() {
        let mut t = loaded(32 * RECORDS_PER_PAGE as u64);
        // Odd keys don't exist yet; leaves are 100% full so the very first
        // insert splits, but a repeat insert into the fresh leaf does not.
        t.insert(101, 0).unwrap();
        let before = t.tracker().snapshot();
        t.insert(103, 0).unwrap();
        let d = t.tracker().since(&before);
        assert_eq!(d.page_writes, 1, "non-splitting insert writes one leaf");
    }

    #[test]
    fn bulk_load_with_fill_factor_leaves_slack() {
        let recs: Vec<Record> = (0..4096u64).map(|k| Record::new(k, k)).collect();
        let mut full = BTree::with_config(BTreeConfig {
            fill_factor: 1.0,
            ..Default::default()
        });
        full.bulk_load(&recs).unwrap();
        let mut half = BTree::with_config(BTreeConfig {
            fill_factor: 0.5,
            ..Default::default()
        });
        half.bulk_load(&recs).unwrap();
        assert!(half.node_count() > full.node_count());
        assert!(
            half.space_profile().space_amplification() > full.space_profile().space_amplification()
        );
        // Both still answer queries.
        assert_eq!(half.get(1000).unwrap(), Some(1000));
        assert_eq!(full.get(1000).unwrap(), Some(1000));
    }

    #[test]
    fn smaller_nodes_make_taller_trees() {
        let recs: Vec<Record> = (0..20_000u64).map(|k| Record::new(k, k)).collect();
        let mut small = BTree::with_config(BTreeConfig {
            node_size: 512,
            ..Default::default()
        });
        small.bulk_load(&recs).unwrap();
        let mut big = BTree::with_config(BTreeConfig {
            node_size: 16384,
            ..Default::default()
        });
        big.bulk_load(&recs).unwrap();
        assert!(small.height() > big.height());
        assert_eq!(small.get(777).unwrap(), Some(777));
        assert_eq!(big.get(777).unwrap(), Some(777));
    }

    #[test]
    fn right_heavy_split_packs_sequential_ingest() {
        let seq_mo = |policy: SplitPolicy| {
            let mut t = BTree::with_config(BTreeConfig {
                split_policy: policy,
                ..Default::default()
            });
            for k in 0..10_000u64 {
                t.insert(k, k).unwrap();
            }
            t.space_profile().space_amplification()
        };
        let half = seq_mo(SplitPolicy::Half);
        let right = seq_mo(SplitPolicy::RightHeavy);
        assert!(
            right < half * 0.75,
            "right-heavy ({right}) should pack much denser than half ({half})"
        );
    }

    #[test]
    fn model_check_random_ops() {
        let mut t = BTree::with_config(BTreeConfig {
            node_size: 256, // tiny nodes stress splits
            ..Default::default()
        });
        check(&mut t, &hostile_ops(23, 6000, 2000)).unwrap();
    }

    /// A reload reuses the old pages lowest first, as a fresh load takes
    /// new ones: two trees with one history report the same costs, and
    /// once reloaded a tree's ops cost what a fresh tree's do.
    #[test]
    fn a_reload_is_charged_as_the_history_and_not_the_free_order_says() {
        use rum_core::runner::{run_stream, RumReport};
        use rum_core::workload::{OpMix, OpStream, WorkloadSpec};
        let spec = WorkloadSpec {
            initial_records: 4000,
            operations: 3000,
            mix: OpMix::BALANCED,
            ..Default::default()
        };
        let reloaded = || {
            let mut t = loaded(3000);
            for k in 0..600 {
                t.insert(k * 2 + 1, k).unwrap(); // splits: more pages to free
            }
            run_stream(&mut t, OpStream::new(&spec)).unwrap()
        };
        let costs = |r: &RumReport| (r.load_costs, r.read_costs, r.write_costs);
        let (a, b) = (reloaded(), reloaded());
        assert_eq!(costs(&a), costs(&b));
        let fresh = run_stream(&mut BTree::new(), OpStream::new(&spec)).unwrap();
        assert_eq!(
            (a.read_costs, a.write_costs),
            (fresh.read_costs, fresh.write_costs)
        );
    }

    /// Writes edit leaves where the device holds them: after a hostile
    /// stream every page is still exactly what encoding its node writes,
    /// and every seal matches.
    #[test]
    fn in_place_edits_keep_every_page_canonical_and_sealed() {
        use rum_storage::BlockDevice;
        let node_size = 512; // tiny nodes: many splits between the edits
        let mut t = BTree::with_device(
            CheckedDevice::new(MemDevice::new()),
            BTreeConfig {
                node_size,
                ..Default::default()
            },
        );
        check(&mut t, &hostile_ops(31, 5000, 1500)).unwrap();
        assert!(t.scrub().unwrap().is_clean());
        let mut pages = 0;
        for id in 0..t.device().sealed_pages().len() as u64 * 2 {
            let Ok(page) = t
                .device_mut()
                .inner_mut()
                .read_page(rum_storage::PageId(id))
            else {
                continue;
            };
            let node = Node::decode(&page[..node_size]).unwrap();
            assert_eq!(page[..node_size], node.encode(node_size).unwrap()[..]);
            assert!(page[node_size..].iter().all(|&b| b == 0));
            pages += 1;
        }
        assert_eq!(pages, t.node_count());
    }

    #[test]
    fn empty_tree_behaves() {
        let mut t = BTree::new();
        assert_eq!(t.get(1).unwrap(), None);
        assert!(t.range(0, 10).unwrap().is_empty());
        assert!(!t.delete(1).unwrap());
        assert_eq!(t.len(), 0);
        t.bulk_load(&[]).unwrap();
        assert_eq!(t.get(1).unwrap(), None);
    }

    #[test]
    fn bulk_load_replaces_contents() {
        let mut t = loaded(100);
        let recs: Vec<Record> = (500..600u64).map(|k| Record::new(k, 1)).collect();
        t.bulk_load(&recs).unwrap();
        assert_eq!(t.len(), 100);
        assert_eq!(t.get(0).unwrap(), None);
        assert_eq!(t.get(550).unwrap(), Some(1));
    }

    /// Damage single-page node `id` through `device_mut()`, behind the
    /// tree's back.
    fn overwrite(t: &mut BTree, id: NodeId, node: &Node) {
        let page = t.store.pages_of(id)[0];
        let bytes = node.encode(t.config.node_size).unwrap();
        t.device_mut()
            .write_page(page, &PageBuf::from_bytes(&bytes))
            .unwrap();
    }

    fn assert_corrupt<T: std::fmt::Debug>(r: Result<T>) {
        assert!(matches!(r, Err(RumError::Corrupt(_))), "got {r:?}");
    }

    #[test]
    fn child_pointer_back_up_the_tree_is_corrupt_not_a_hang() {
        let mut t = loaded(300 * RECORDS_PER_PAGE as u64);
        assert_eq!(t.height(), 3);
        let root = t.root;
        // The leftmost second-level node now sends every key back to the
        // root: root -> mid -> root -> mid -> ... without the height bound.
        let (mid, fanout) = t
            .store
            .with_node(root, DataClass::Aux, |n| match n {
                NodeRef::Internal(n) => (n.child(0).unwrap(), n.children().len()),
                NodeRef::Leaf { .. } => unreachable!("height 3"),
            })
            .unwrap();
        assert!(fanout >= 2);
        let Node::Internal { keys, children } = t
            .store
            .with_node(mid, DataClass::Aux, |n| n.to_node())
            .unwrap()
        else {
            unreachable!("height 3")
        };
        let looped = Node::Internal {
            keys,
            children: vec![root; children.len()],
        };
        overwrite(&mut t, mid, &looped);
        assert_corrupt(t.get(10));
        assert_corrupt(t.range(10, 500));
        assert_corrupt(t.insert(11, 1));
        assert_corrupt(t.update(10, 1));
        assert_corrupt(t.delete(10));
        // Keys routed through undamaged subtrees are still served.
        let far = 2 * (300 * RECORDS_PER_PAGE as u64 - 1);
        assert_eq!(t.get(far).unwrap(), Some(far / 2));
    }

    #[test]
    fn leaf_chain_pointing_backwards_is_corrupt_not_a_hang() {
        let mut t = loaded(8 * RECORDS_PER_PAGE as u64);
        assert_eq!(t.height(), 2);
        let leaves: Vec<NodeId> = t
            .store
            .with_node(t.root, DataClass::Aux, |n| match n {
                NodeRef::Internal(n) => n.children().collect(),
                NodeRef::Leaf { .. } => unreachable!("height 2"),
            })
            .unwrap();
        let Node::Leaf { records, .. } = t
            .store
            .with_node(leaves[2], DataClass::Base, |n| n.to_node())
            .unwrap()
        else {
            unreachable!("children of the last internal level are leaves")
        };
        let first_key = records[0].key;
        let backwards = Node::Leaf {
            records,
            next: leaves[0],
        };
        overwrite(&mut t, leaves[2], &backwards);
        assert_corrupt(t.range(0, u64::MAX));
        // A scan that ends before the damaged pointer is followed is fine.
        assert_eq!(t.range(0, first_key).unwrap().len(), 2 * 255 + 1);

        // An emptied leaf whose `next` names itself has no key to compare:
        // the walk is also bounded by the number of nodes.
        let mut t = loaded(8 * RECORDS_PER_PAGE as u64);
        let empty_loop = Node::Leaf {
            records: Vec::new(),
            next: leaves[2],
        };
        overwrite(&mut t, leaves[2], &empty_loop);
        assert_corrupt(t.range(0, u64::MAX));
    }

    #[test]
    fn works_over_a_memory_hierarchy() {
        use rum_storage::{DeviceProfile, MemoryHierarchy};
        let h = MemoryHierarchy::new(8, DeviceProfile::SSD);
        let mut t = BTree::with_device(h, BTreeConfig::default());
        for k in 0..5000u64 {
            t.insert(k, k).unwrap();
        }
        for k in (0..5000u64).step_by(97) {
            assert_eq!(t.get(k).unwrap(), Some(k));
        }
    }
}
