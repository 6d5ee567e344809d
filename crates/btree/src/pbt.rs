//! The Partitioned B-tree (Graefe, CIDR 2003) — one of the paper's
//! write-optimized differential structures: "the Partitioned B-tree (PBT)
//! ... consolidate updates and apply them in bulk to the base data".
//!
//! Instead of one B-tree maintained in place, inserts fill a small
//! *active* partition (fast, shallow, hot in cache); sealed partitions
//! accumulate until a merge consolidates them into one. The partition
//! count is the knob ("the number of partitions in PBT" is one of the
//! paper's examples of a tunable RUM parameter): more partitions = cheaper
//! writes, more expensive reads.

use std::sync::Arc;

use rum_core::{
    merge_streams, AccessMethod, CostTracker, Key, KeySet, Record, Result, SpaceProfile, Value,
};
use rum_storage::MemDevice;

use crate::tree::{BTree, BTreeConfig};

/// PBT tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct PbtConfig {
    /// Records in the active partition before it seals.
    pub partition_records: usize,
    /// Sealed + active partitions allowed before a full consolidation.
    pub max_partitions: usize,
    /// Node configuration shared by all partitions.
    pub node: BTreeConfig,
}

impl Default for PbtConfig {
    fn default() -> Self {
        PbtConfig {
            partition_records: 4096,
            max_partitions: 8,
            node: BTreeConfig::default(),
        }
    }
}

/// A partitioned B-tree: newest partition last.
pub struct PartitionedBTree {
    /// Consolidated + sealed partitions, oldest first; the last one is
    /// active (accepts inserts).
    partitions: Vec<BTree<MemDevice>>,
    config: PbtConfig,
    tracker: Arc<CostTracker>,
    /// Liveness oracle (uncharged; see the LSM's note): blind inserts
    /// shadow older copies, so `len` is not derivable from partition sizes.
    live: KeySet,
    merges: u64,
}

impl PartitionedBTree {
    pub fn new() -> Self {
        Self::with_config(PbtConfig::default())
    }

    pub fn with_config(config: PbtConfig) -> Self {
        assert!(config.partition_records >= 16);
        assert!(config.max_partitions >= 2);
        let tracker = CostTracker::new();
        PartitionedBTree {
            partitions: vec![Self::fresh_tree(&config, &tracker)],
            config,
            tracker,
            live: KeySet::default(),
            merges: 0,
        }
    }

    fn fresh_tree(config: &PbtConfig, tracker: &Arc<CostTracker>) -> BTree<MemDevice> {
        let tree = BTree::with_config(config.node);
        // Route the partition's charges into the shared tracker by
        // replacing its private one.
        tree.adopt_tracker(Arc::clone(tracker))
    }

    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Seal the active partition and open a new one; consolidate when the
    /// partition budget is exhausted.
    fn maybe_roll(&mut self) -> Result<()> {
        let active_len = self
            .partitions
            .last()
            .expect("a PBT keeps at least one active partition at all times")
            .len();
        if active_len < self.config.partition_records {
            return Ok(());
        }
        if self.partitions.len() + 1 > self.config.max_partitions {
            self.consolidate()?;
        }
        self.partitions
            .push(Self::fresh_tree(&self.config, &self.tracker));
        Ok(())
    }

    /// Merge every partition into one (newest copy of each key wins).
    fn consolidate(&mut self) -> Result<()> {
        let mut answers = Vec::with_capacity(self.partitions.len());
        for mut part in std::mem::take(&mut self.partitions) {
            answers.push(part.range(0, Key::MAX)?);
        }
        let records = self.merge_live(&mut answers);
        let mut consolidated = Self::fresh_tree(&self.config, &self.tracker);
        consolidated.bulk_load_impl(&records)?;
        self.partitions = vec![consolidated];
        self.merges += 1;
        Ok(())
    }

    /// The partitions' answers, oldest first, merged newest-wins; keys no
    /// longer live are dropped.
    fn merge_live(&self, answers: &mut [Vec<Record>]) -> Vec<Record> {
        merge_streams(answers, |r| r.key, |r| self.live.contains(r.key))
    }
}

impl Default for PartitionedBTree {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessMethod for PartitionedBTree {
    fn name(&self) -> String {
        "partitioned-btree".into()
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        &self.tracker
    }

    fn space_profile(&self) -> SpaceProfile {
        let physical: u64 = self
            .partitions
            .iter()
            .map(|p| p.space_profile().total_bytes())
            .sum();
        SpaceProfile::from_physical(self.live.len(), physical)
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        if !self.live.contains(key) {
            // Probing partitions for a dead key would still cost reads in a
            // real PBT; we charge the newest partition's probe to stay
            // honest about misses.
            if let Some(p) = self.partitions.last_mut() {
                p.get_impl(key)?;
            }
            return Ok(None);
        }
        // Newest partition first: the freshest copy wins.
        for p in self.partitions.iter_mut().rev() {
            if let Some(v) = p.get_impl(key)? {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        let mut answers = Vec::with_capacity(self.partitions.len());
        for p in self.partitions.iter_mut() {
            answers.push(p.range_impl(lo, hi)?);
        }
        Ok(self.merge_live(&mut answers))
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        // Blind insert into the (small, shallow) active partition — the
        // whole point of the PBT. Older copies are shadowed until a merge.
        self.partitions
            .last_mut()
            .expect("a PBT keeps at least one active partition at all times")
            .insert_impl(key, value)?;
        self.live.insert(key);
        self.maybe_roll()
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        if !self.live.contains(key) {
            return Ok(false);
        }
        self.insert_impl(key, value)?;
        Ok(true)
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        if !self.live.remove(key) {
            return Ok(false);
        }
        // Remove the key from every partition that holds a copy (a PBT
        // deletes by anti-matter or eager removal; we do eager removal).
        for p in self.partitions.iter_mut() {
            p.delete_impl(key)?;
        }
        Ok(true)
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        let mut consolidated = Self::fresh_tree(&self.config, &self.tracker);
        consolidated.bulk_load_impl(records)?;
        self.partitions = vec![consolidated];
        self.live.assign(records.iter().map(|r| r.key));
        // A freshly loaded PBT still needs an empty active partition so
        // new inserts stay cheap.
        self.partitions
            .push(Self::fresh_tree(&self.config, &self.tracker));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::oracle::{check, hostile_ops};

    fn small() -> PbtConfig {
        PbtConfig {
            partition_records: 64,
            max_partitions: 4,
            node: BTreeConfig::default(),
        }
    }

    #[test]
    fn crud_roundtrip() {
        let mut t = PartitionedBTree::with_config(small());
        for k in 0..500u64 {
            t.insert(k, k * 2).unwrap();
        }
        assert_eq!(t.len(), 500);
        assert_eq!(t.get(123).unwrap(), Some(246));
        assert_eq!(t.get(999).unwrap(), None);
        assert!(t.update(123, 1).unwrap());
        assert!(!t.update(9999, 0).unwrap());
        assert_eq!(t.get(123).unwrap(), Some(1));
        assert!(t.delete(123).unwrap());
        assert!(!t.delete(123).unwrap());
        assert_eq!(t.get(123).unwrap(), None);
        assert_eq!(t.len(), 499);
    }

    #[test]
    fn partitions_roll_and_consolidate() {
        let mut t = PartitionedBTree::with_config(small());
        for k in 0..1000u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.merges() >= 1, "1000 inserts at 64/partition must merge");
        assert!(t.partition_count() <= 4);
        for k in (0..1000u64).step_by(97) {
            assert_eq!(t.get(k).unwrap(), Some(k));
        }
    }

    #[test]
    fn newest_copy_wins_across_partitions() {
        let mut t = PartitionedBTree::with_config(small());
        t.insert(7, 1).unwrap();
        // Roll the active partition by filling it.
        for k in 100..200u64 {
            t.insert(k, 0).unwrap();
        }
        t.insert(7, 2).unwrap(); // newer copy in a newer partition
        assert_eq!(t.get(7).unwrap(), Some(2));
        assert_eq!(t.range(7, 7).unwrap(), vec![Record::new(7, 2)]);
        // After consolidation the newest copy survives.
        for k in 200..600u64 {
            t.insert(k, 0).unwrap();
        }
        assert_eq!(t.get(7).unwrap(), Some(2));
    }

    #[test]
    fn inserts_are_cheaper_than_a_monolithic_btree() {
        let n = 20_000u64;
        let recs: Vec<Record> = (0..n).map(|k| Record::new(k * 2, k)).collect();

        let mut mono = BTree::new();
        mono.bulk_load(&recs).unwrap();
        mono.tracker().reset();
        let mut pbt = PartitionedBTree::with_config(PbtConfig::default());
        pbt.bulk_load(&recs).unwrap();
        pbt.tracker().reset();

        // Random-position odd-key inserts.
        for i in 0..2000u64 {
            let k = (i.wrapping_mul(7919) % n) * 2 + 1;
            mono.insert(k, 0).unwrap();
            pbt.insert(k, 0).unwrap();
        }
        let mono_writes = mono.tracker().snapshot().total_write_bytes();
        let pbt_writes = pbt.tracker().snapshot().total_write_bytes();
        assert!(
            pbt_writes < mono_writes,
            "PBT writes {pbt_writes} should undercut monolithic {mono_writes}"
        );
    }

    #[test]
    fn more_partitions_cost_more_reads() {
        let build = |max_partitions: usize| {
            let mut t = PartitionedBTree::with_config(PbtConfig {
                partition_records: 256,
                max_partitions,
                node: BTreeConfig::default(),
            });
            // Scattered inserts so partitions overlap.
            for i in 0..4000u64 {
                let k = i.wrapping_mul(7919) % 8000;
                t.insert(k, i).unwrap();
            }
            t.tracker().reset();
            for i in 0..500u64 {
                t.get(i.wrapping_mul(13) % 8000).unwrap();
            }
            t.tracker().snapshot().page_reads
        };
        let few = build(2);
        let many = build(16);
        assert!(
            many > few,
            "16 partitions ({many} reads) must out-read 2 ({few})"
        );
    }

    #[test]
    fn range_merges_partitions_correctly() {
        let mut t = PartitionedBTree::with_config(small());
        for k in (0..300u64).rev() {
            t.insert(k, k + 1).unwrap();
        }
        t.update(150, 99).unwrap();
        t.delete(151).unwrap();
        let rs = t.range(148, 153).unwrap();
        assert_eq!(
            rs,
            vec![
                Record::new(148, 149),
                Record::new(149, 150),
                Record::new(150, 99),
                Record::new(152, 153),
                Record::new(153, 154),
            ]
        );
    }

    #[test]
    fn model_check_random_ops() {
        let mut t = PartitionedBTree::with_config(small());
        check(&mut t, &hostile_ops(91, 4000, 1200)).unwrap();
    }
}
