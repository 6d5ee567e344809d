//! The memory-hierarchy simulator behind Figure 2 of the paper.
//!
//! "The RUM tradeoffs can also be viewed vertically rather than
//! horizontally. For example, the RO_n read and the UO_n update overheads
//! at memory level n can be reduced by storing more data, updates, or
//! meta-data, at the previous level n−1, which results, at least, in a
//! higher MO_{n−1}."
//!
//! A [`MemoryHierarchy`] stacks inclusive LRU cache levels (identity +
//! dirty bit only) over a backing store that holds the actual bytes. Every
//! level keeps its own [`IoStats`], so experiments can observe exactly the
//! vertical tradeoff: grow level n−1's capacity (its MO) and watch level
//! n's reads and writes fall (its RO/UO).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use rum_core::{Result, RumError};

use crate::cost::{AccessClassifier, DeviceProfile};
use crate::device::{BlockDevice, IoStats};
use crate::lru::LruSet;
use crate::page::{PageBuf, PageId};

/// One cache level of the hierarchy.
#[derive(Clone, Debug)]
pub struct LevelSpec {
    /// Capacity in pages. The MO this level spends.
    pub capacity_pages: usize,
    pub profile: DeviceProfile,
}

/// Full hierarchy description: cache levels top (fastest) to bottom, plus
/// the profile of the backing store.
#[derive(Clone, Debug)]
pub struct HierarchySpec {
    pub caches: Vec<LevelSpec>,
    pub storage_profile: DeviceProfile,
}

impl HierarchySpec {
    /// A single cache in front of storage (the minimal Figure 2 setup).
    pub fn buffer_and_storage(buffer_pages: usize, storage: DeviceProfile) -> Self {
        HierarchySpec {
            caches: vec![LevelSpec {
                capacity_pages: buffer_pages,
                profile: DeviceProfile::DRAM,
            }],
            storage_profile: storage,
        }
    }
}

struct CacheLevel {
    spec: LevelSpec,
    lru: LruSet<PageId>,
    stats: Arc<IoStats>,
    classifier: AccessClassifier,
}

impl CacheLevel {
    fn charge_read(&mut self, id: PageId) {
        self.stats.page_reads.fetch_add(1, Ordering::Relaxed);
        let ns = self.classifier.read(&self.spec.profile, id);
        self.stats.sim_time_ns.fetch_add(ns, Ordering::Relaxed);
    }
    fn charge_write(&mut self, id: PageId) {
        self.stats.page_writes.fetch_add(1, Ordering::Relaxed);
        let ns = self.classifier.write(&self.spec.profile, id);
        self.stats.sim_time_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// An inclusive multi-level cache hierarchy implementing [`BlockDevice`].
pub struct MemoryHierarchy {
    caches: Vec<CacheLevel>,
    storage_profile: DeviceProfile,
    storage_stats: Arc<IoStats>,
    storage_classifier: AccessClassifier,
    pages: Vec<Option<PageBuf>>,
    free_list: Vec<PageId>,
}

impl MemoryHierarchy {
    pub fn new(spec: HierarchySpec) -> Self {
        MemoryHierarchy {
            caches: spec
                .caches
                .into_iter()
                .map(|s| CacheLevel {
                    lru: LruSet::new(s.capacity_pages),
                    stats: Arc::new(IoStats::default()),
                    classifier: AccessClassifier::new(),
                    spec: s,
                })
                .collect(),
            storage_profile: spec.storage_profile,
            storage_stats: Arc::new(IoStats::default()),
            storage_classifier: AccessClassifier::new(),
            pages: Vec::new(),
            free_list: Vec::new(),
        }
    }

    /// Number of levels including storage.
    pub fn levels(&self) -> usize {
        self.caches.len() + 1
    }

    /// I/O stats of level `i` (storage is the last level).
    pub fn level_stats(&self, i: usize) -> &Arc<IoStats> {
        if i < self.caches.len() {
            &self.caches[i].stats
        } else {
            &self.storage_stats
        }
    }

    /// Pages resident at cache level `i` — its current MO in pages.
    pub fn level_resident(&self, i: usize) -> usize {
        if i < self.caches.len() {
            self.caches[i].lru.len()
        } else {
            self.pages.len() - self.free_list.len()
        }
    }

    /// Total simulated time across all levels, nanoseconds.
    pub fn total_sim_ns(&self) -> u64 {
        self.caches.iter().map(|c| c.stats.sim_ns()).sum::<u64>() + self.storage_stats.sim_ns()
    }

    /// The live buffer behind `id`, or why there is none.
    fn slot(&mut self, id: PageId) -> Result<&mut PageBuf> {
        match self.pages.get_mut(id.index()) {
            Some(Some(page)) => Ok(page),
            Some(None) => Err(RumError::Storage(format!("{id} is freed"))),
            None => Err(RumError::Storage(format!("{id} out of bounds"))),
        }
    }

    fn charge_storage_read(&mut self, id: PageId) {
        self.storage_stats
            .page_reads
            .fetch_add(1, Ordering::Relaxed);
        let ns = self.storage_classifier.read(&self.storage_profile, id);
        self.storage_stats
            .sim_time_ns
            .fetch_add(ns, Ordering::Relaxed);
    }

    fn charge_storage_write(&mut self, id: PageId) {
        self.storage_stats
            .page_writes
            .fetch_add(1, Ordering::Relaxed);
        let ns = self.storage_classifier.write(&self.storage_profile, id);
        self.storage_stats
            .sim_time_ns
            .fetch_add(ns, Ordering::Relaxed);
    }

    /// Insert `id` into cache level `level` (dirty or clean), cascading any
    /// dirty evictions down the hierarchy.
    fn install(&mut self, level: usize, id: PageId, dirty: bool) {
        let mut pending = vec![(level, id, dirty)];
        while let Some((lvl, pid, d)) = pending.pop() {
            if lvl >= self.caches.len() {
                // Fell out of the bottom cache: a dirty page is written to
                // storage; a clean one just vanishes (storage always holds
                // the data in this simulator).
                if d {
                    self.charge_storage_write(pid);
                }
                continue;
            }
            if let Some((victim, victim_dirty)) = self.caches[lvl].lru.insert(pid, d) {
                if victim_dirty {
                    // Dirty eviction: written to the level below, which also
                    // installs it there.
                    if lvl + 1 < self.caches.len() {
                        self.caches[lvl + 1].charge_write(victim);
                        pending.push((lvl + 1, victim, true));
                    } else {
                        self.charge_storage_write(victim);
                    }
                }
            }
        }
    }
}

impl BlockDevice for MemoryHierarchy {
    fn allocate(&mut self) -> Result<PageId> {
        self.storage_stats
            .allocations
            .fetch_add(1, Ordering::Relaxed);
        if let Some(id) = self.free_list.pop() {
            self.pages[id.index()] = Some(PageBuf::zeroed());
            Ok(id)
        } else {
            let id = PageId(self.pages.len() as u64);
            self.pages.push(Some(PageBuf::zeroed()));
            Ok(id)
        }
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        self.slot(id)?;
        for c in &mut self.caches {
            c.lru.remove(&id);
        }
        self.pages[id.index()] = None;
        self.free_list.push(id);
        self.storage_stats.frees.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn read_page(&mut self, id: PageId) -> Result<PageBuf> {
        self.with_page(id, PageBuf::from_bytes)
    }

    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.slot(id)?;
        // Find the highest level holding the page.
        let mut hit_level = self.caches.len(); // storage by default
        for (i, c) in self.caches.iter_mut().enumerate() {
            if c.lru.touch(&id) {
                hit_level = i;
                break;
            }
        }
        if hit_level == self.caches.len() {
            self.charge_storage_read(id);
        } else {
            self.caches[hit_level].charge_read(id);
        }
        // Promote into every level above the hit (inclusive hierarchy).
        for lvl in (0..hit_level).rev() {
            self.install(lvl, id, false);
        }
        Ok(f(self.slot(id)?.as_slice()))
    }

    fn write_page(&mut self, id: PageId, page: &PageBuf) -> Result<()> {
        self.slot(id)?.as_mut_slice().copy_from_slice(page);
        if self.caches.is_empty() {
            self.charge_storage_write(id);
        } else {
            // Write-back: the top level absorbs the write.
            self.caches[0].charge_write(id);
            self.install(0, id, true);
        }
        Ok(())
    }

    fn live_pages(&self) -> usize {
        self.pages.len() - self.free_list.len()
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.storage_stats
    }

    fn sync(&mut self) -> Result<()> {
        // Flush dirty pages level by level, top down.
        for lvl in 0..self.caches.len() {
            let entries = self.caches[lvl].lru.drain();
            for (id, dirty) in entries {
                if dirty {
                    if lvl + 1 < self.caches.len() {
                        self.caches[lvl + 1].charge_write(id);
                        self.install(lvl + 1, id, true);
                    } else {
                        self.charge_storage_write(id);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_marker(h: &mut MemoryHierarchy, id: PageId, v: u64) {
        let mut p = PageBuf::zeroed();
        p.write_u64(0, v);
        h.write_page(id, &p).unwrap();
    }

    /// Two cache levels (CPU cache over DRAM) in front of SSD storage.
    fn two_caches(cache_pages: usize, mem_pages: usize) -> HierarchySpec {
        HierarchySpec {
            caches: vec![
                LevelSpec {
                    capacity_pages: cache_pages,
                    profile: DeviceProfile::CACHE,
                },
                LevelSpec {
                    capacity_pages: mem_pages,
                    profile: DeviceProfile::DRAM,
                },
            ],
            storage_profile: DeviceProfile::SSD,
        }
    }

    #[test]
    fn data_survives_the_hierarchy() {
        let mut h = MemoryHierarchy::new(two_caches(2, 4));
        let ids: Vec<_> = (0..10).map(|_| h.allocate().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            write_marker(&mut h, *id, i as u64);
        }
        h.sync().unwrap();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(h.read_page(*id).unwrap().read_u64(0), i as u64);
        }
    }

    #[test]
    fn top_level_absorbs_hot_reads() {
        let mut h = MemoryHierarchy::new(two_caches(4, 16));
        assert_eq!(h.levels(), 3, "storage is level 2");
        let id = h.allocate().unwrap();
        h.read_page(id).unwrap(); // storage read, promoted everywhere
        let storage_before = h.level_stats(2).reads();
        for _ in 0..100 {
            h.read_page(id).unwrap();
        }
        assert_eq!(
            h.level_stats(2).reads(),
            storage_before,
            "no more storage reads"
        );
        assert!(h.level_stats(0).reads() >= 100);
    }

    #[test]
    fn bigger_upper_level_reduces_lower_level_reads() {
        // The Figure 2 claim, end to end: MO at level n−1 buys down RO at
        // level n. (A randomized access pattern is used because LRU on a
        // strict cyclic scan misses at every capacity below the working
        // set — the classic scan pathology.)
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let storage_reads = |cache_pages: usize| {
            let mut h = MemoryHierarchy::new(HierarchySpec::buffer_and_storage(
                cache_pages,
                DeviceProfile::SSD,
            ));
            let ids: Vec<_> = (0..32).map(|_| h.allocate().unwrap()).collect();
            // Warm: touch everything once.
            for id in &ids {
                h.read_page(*id).unwrap();
            }
            let mut rng = StdRng::seed_from_u64(11);
            for _ in 0..1000 {
                let id = ids[rng.gen_range(0..ids.len())];
                h.read_page(id).unwrap();
            }
            h.level_stats(1).reads()
        };
        let small = storage_reads(4);
        let medium = storage_reads(16);
        let large = storage_reads(32);
        assert!(small > medium, "{small} <= {medium}");
        assert!(medium > large, "{medium} <= {large}");
        assert_eq!(large, 32, "fully cached after the warm-up round");
    }

    #[test]
    fn dirty_evictions_cascade_to_storage() {
        let mut h = MemoryHierarchy::new(HierarchySpec::buffer_and_storage(2, DeviceProfile::HDD));
        let ids: Vec<_> = (0..6).map(|_| h.allocate().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            write_marker(&mut h, *id, i as u64);
        }
        // Cache holds 2; at least 4 dirty pages must have reached storage.
        assert!(h.level_stats(1).writes() >= 4);
        h.sync().unwrap();
        assert_eq!(h.level_stats(1).writes(), 6);
    }

    #[test]
    fn write_coalescing_in_upper_level() {
        let mut h = MemoryHierarchy::new(HierarchySpec::buffer_and_storage(4, DeviceProfile::SSD));
        let id = h.allocate().unwrap();
        for v in 0..50 {
            write_marker(&mut h, id, v);
        }
        h.sync().unwrap();
        assert_eq!(h.level_stats(1).writes(), 1, "50 writes coalesced to one");
    }

    #[test]
    fn free_purges_all_levels() {
        let mut h = MemoryHierarchy::new(two_caches(4, 8));
        let id = h.allocate().unwrap();
        write_marker(&mut h, id, 3);
        h.free(id).unwrap();
        assert!(h.read_page(id).is_err());
        assert_eq!(h.level_resident(0), 0);
        assert_eq!(h.level_resident(1), 0);
    }
}
