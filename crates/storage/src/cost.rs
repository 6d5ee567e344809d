//! Device cost model: simulated time per page access.
//!
//! "The fundamental assumption that data has a minimum access granularity
//! holds for all storage mediums today ...; the only difference is that
//! both access time and access granularity vary" (§4). The profiles below
//! encode the classic asymmetries: HDDs punish random access, flash is
//! read/write asymmetric, DRAM is fast and symmetric.

use crate::page::PageId;

/// Per-page access latencies in nanoseconds, split sequential vs. random.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceProfile {
    pub name: &'static str,
    pub seq_read_ns: u64,
    pub rand_read_ns: u64,
    pub seq_write_ns: u64,
    pub rand_write_ns: u64,
}

impl DeviceProfile {
    /// Rotational disk: ~8 ms seek+rotate per random 4 KiB page, ~25 µs per
    /// sequential page at ~160 MB/s.
    pub const HDD: DeviceProfile = DeviceProfile {
        name: "hdd",
        seq_read_ns: 25_000,
        rand_read_ns: 8_000_000,
        seq_write_ns: 25_000,
        rand_write_ns: 8_000_000,
    };

    /// NAND flash SSD: ~80 µs random read, writes ~3× more expensive than
    /// reads (the asymmetry motivating flash-aware write-optimized trees,
    /// LA-tree / FD-tree in §4).
    pub const SSD: DeviceProfile = DeviceProfile {
        name: "ssd",
        seq_read_ns: 10_000,
        rand_read_ns: 80_000,
        seq_write_ns: 30_000,
        rand_write_ns: 240_000,
    };

    /// DRAM: ~0.4 µs per 4 KiB page streamed, ~1 µs random (TLB + row
    /// misses).
    pub const DRAM: DeviceProfile = DeviceProfile {
        name: "dram",
        seq_read_ns: 400,
        rand_read_ns: 1_000,
        seq_write_ns: 400,
        rand_write_ns: 1_000,
    };

    /// Cost of reading `page` when the previous access was `prev`.
    pub fn read_cost(&self, prev: Option<PageId>, page: PageId) -> u64 {
        if is_sequential(prev, page) {
            self.seq_read_ns
        } else {
            self.rand_read_ns
        }
    }

    /// Cost of writing `page` when the previous access was `prev`.
    pub fn write_cost(&self, prev: Option<PageId>, page: PageId) -> u64 {
        if is_sequential(prev, page) {
            self.seq_write_ns
        } else {
            self.rand_write_ns
        }
    }
}

fn is_sequential(prev: Option<PageId>, page: PageId) -> bool {
    match prev {
        Some(p) => page.0 == p.0 || page.0 == p.0 + 1,
        None => false,
    }
}

/// Tracks the device head position to classify accesses.
#[derive(Debug, Default)]
pub struct AccessClassifier {
    last: Option<PageId>,
}

impl AccessClassifier {
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge a read of `page`; returns its simulated cost.
    pub fn read(&mut self, profile: &DeviceProfile, page: PageId) -> u64 {
        let c = profile.read_cost(self.last, page);
        self.last = Some(page);
        c
    }

    /// Charge a write of `page`; returns its simulated cost.
    pub fn write(&mut self, profile: &DeviceProfile, page: PageId) -> u64 {
        let c = profile.write_cost(self.last, page);
        self.last = Some(page);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_detection() {
        assert!(is_sequential(Some(PageId(4)), PageId(5)));
        assert!(is_sequential(Some(PageId(4)), PageId(4)));
        assert!(!is_sequential(Some(PageId(4)), PageId(6)));
        assert!(!is_sequential(Some(PageId(4)), PageId(3)));
        assert!(!is_sequential(None, PageId(0)));
    }

    #[test]
    fn hdd_random_penalty_dominates() {
        let p = DeviceProfile::HDD;
        assert!(p.rand_read_ns > 100 * p.seq_read_ns);
    }

    #[test]
    fn ssd_write_asymmetry() {
        let p = DeviceProfile::SSD;
        assert!(p.rand_write_ns >= 2 * p.rand_read_ns);
    }

    #[test]
    fn classifier_tracks_head() {
        let mut c = AccessClassifier::new();
        let p = DeviceProfile::HDD;
        // Cold start is random.
        assert_eq!(c.read(&p, PageId(10)), p.rand_read_ns);
        // Next page is sequential.
        assert_eq!(c.read(&p, PageId(11)), p.seq_read_ns);
        // Jump is random again.
        assert_eq!(c.read(&p, PageId(100)), p.rand_read_ns);
        // Overwrite in place is sequential.
        assert_eq!(c.write(&p, PageId(100)), p.seq_write_ns);
    }

    #[test]
    fn scan_cost_is_mostly_sequential() {
        let mut c = AccessClassifier::new();
        let p = DeviceProfile::HDD;
        let total: u64 = (0..1000u64).map(|i| c.read(&p, PageId(i))).sum();
        // One random start + 999 sequential pages.
        assert_eq!(total, p.rand_read_ns + 999 * p.seq_read_ns);
    }
}
