//! The memory-hierarchy simulator behind Figure 2 of the paper.
//!
//! "The RUM tradeoffs can also be viewed vertically rather than
//! horizontally. For example, the RO_n read and the UO_n update overheads
//! at memory level n can be reduced by storing more data, updates, or
//! meta-data, at the previous level n−1, which results, at least, in a
//! higher MO_{n−1}."
//!
//! The claim is about one adjacent pair of levels, and a
//! [`MemoryHierarchy`] is exactly that pair: a write-back DRAM LRU buffer
//! (identity + dirty bit only) over a backing store, a [`MemDevice`] that
//! holds the actual bytes. Each level keeps its own [`IoStats`] (the
//! buffer's in [`buffer_stats`](MemoryHierarchy::buffer_stats), the
//! storage level's in [`BlockDevice::stats`]), so experiments can observe
//! the vertical tradeoff: grow the buffer's capacity (its MO) and watch
//! the storage level's reads and writes fall (its RO/UO).

use std::sync::Arc;

use rum_core::Result;

use crate::cost::{AccessClassifier, DeviceProfile};
use crate::device::{BlockDevice, IoStats, MemDevice};
use crate::lru::LruSet;
use crate::page::{PageBuf, PageId};

/// One level's counters and head position, charged at its profile.
struct Level {
    profile: DeviceProfile,
    stats: Arc<IoStats>,
    classifier: AccessClassifier,
}

impl Level {
    fn new(profile: DeviceProfile) -> Self {
        Level {
            profile,
            stats: Arc::new(IoStats::default()),
            classifier: AccessClassifier::new(),
        }
    }
    fn charge_read(&mut self, id: PageId) {
        self.stats.count_read();
        let ns = self.classifier.read(&self.profile, id);
        self.stats.count_sim_ns(ns);
    }
    fn charge_write(&mut self, id: PageId) {
        self.stats.count_write();
        let ns = self.classifier.write(&self.profile, id);
        self.stats.count_sim_ns(ns);
    }
}

/// A DRAM buffer of `buffer_pages` over a storage device, implementing
/// [`BlockDevice`].
pub struct MemoryHierarchy {
    lru: LruSet<PageId>,
    buffer: Level,
    storage: Level,
    store: MemDevice,
}

impl MemoryHierarchy {
    pub fn new(buffer_pages: usize, storage_profile: DeviceProfile) -> Self {
        MemoryHierarchy {
            lru: LruSet::new(buffer_pages),
            buffer: Level::new(DeviceProfile::DRAM),
            storage: Level::new(storage_profile),
            store: MemDevice::new(),
        }
    }

    /// I/O stats of the buffer (level n−1).
    pub fn buffer_stats(&self) -> &Arc<IoStats> {
        &self.buffer.stats
    }

    /// Total simulated time across both levels, nanoseconds.
    pub fn total_sim_ns(&self) -> u64 {
        self.buffer.stats.sim_ns() + self.storage.stats.sim_ns()
    }

    /// Make `id` the buffer's most recent page; a dirty page it evicts is
    /// written to storage, a clean one just vanishes (storage always holds
    /// the data in this simulator).
    fn install(&mut self, id: PageId, dirty: bool) {
        if let Some((victim, true)) = self.lru.insert(id, dirty) {
            self.storage.charge_write(victim);
        }
    }
}

impl BlockDevice for MemoryHierarchy {
    fn allocate(&mut self) -> Result<PageId> {
        self.storage.stats.count_alloc();
        self.store.allocate()
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        self.store.free(id)?;
        self.lru.remove(&id);
        self.storage.stats.count_free();
        Ok(())
    }

    fn read_page(&mut self, id: PageId) -> Result<PageBuf> {
        self.with_page(id, PageBuf::from_bytes)
    }

    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let out = self.store.with_page(id, f)?;
        if self.lru.touch(&id) {
            self.buffer.charge_read(id);
        } else {
            self.storage.charge_read(id);
            self.install(id, false);
        }
        Ok(out)
    }

    fn write_page(&mut self, id: PageId, page: &PageBuf) -> Result<()> {
        self.store.write_page(id, page)?;
        // Write-back: the buffer absorbs the write.
        self.buffer.charge_write(id);
        self.install(id, true);
        Ok(())
    }

    fn live_pages(&self) -> usize {
        self.store.live_pages()
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.storage.stats
    }

    fn sync(&mut self) -> Result<()> {
        for (id, dirty) in self.lru.drain() {
            if dirty {
                self.storage.charge_write(id);
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

    #[test]
    fn data_survives_the_hierarchy() {
        let mut h = MemoryHierarchy::new(2, DeviceProfile::SSD);
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
        let mut h = MemoryHierarchy::new(4, DeviceProfile::SSD);
        let id = h.allocate().unwrap();
        h.read_page(id).unwrap(); // storage read, installed in the buffer
        let storage_before = h.stats().reads();
        for _ in 0..100 {
            h.read_page(id).unwrap();
        }
        assert_eq!(h.stats().reads(), storage_before, "no more storage reads");
        assert_eq!(h.buffer_stats().reads(), 100);
    }

    #[test]
    fn bigger_upper_level_reduces_lower_level_reads() {
        // The Figure 2 claim, end to end: MO at level n−1 buys down RO at
        // level n. (A randomized access pattern is used because LRU on a
        // strict cyclic scan misses at every capacity below the working
        // set — the classic scan pathology.)
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let storage_reads = |cache_pages: usize| {
            let mut h = MemoryHierarchy::new(cache_pages, DeviceProfile::SSD);
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
            h.stats().reads()
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
        let mut h = MemoryHierarchy::new(2, DeviceProfile::HDD);
        let ids: Vec<_> = (0..6).map(|_| h.allocate().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            write_marker(&mut h, *id, i as u64);
        }
        // The buffer holds 2; the 4 dirty pages it evicted reached storage.
        assert_eq!(h.stats().writes(), 4);
        h.sync().unwrap();
        assert_eq!(h.stats().writes(), 6);
    }

    #[test]
    fn write_coalescing_in_upper_level() {
        let mut h = MemoryHierarchy::new(4, DeviceProfile::SSD);
        let id = h.allocate().unwrap();
        for v in 0..50 {
            write_marker(&mut h, id, v);
        }
        h.sync().unwrap();
        assert_eq!(h.stats().writes(), 1, "50 writes coalesced to one");
    }

    #[test]
    fn free_purges_all_levels() {
        let mut h = MemoryHierarchy::new(4, DeviceProfile::SSD);
        let id = h.allocate().unwrap();
        write_marker(&mut h, id, 3);
        h.free(id).unwrap();
        assert!(h.read_page(id).is_err());
        // The freed dirty page left the buffer: nothing is written back.
        h.sync().unwrap();
        assert_eq!(h.stats().writes(), 0);
        assert_eq!(h.live_pages(), 0);
    }
}
