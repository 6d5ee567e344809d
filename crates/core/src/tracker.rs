//! Instrumented cost accounting — the measurement core of the reproduction.
//!
//! Every access method charges a [`CostTracker`] as it touches data. The
//! tracker distinguishes:
//!
//! * **physical** traffic, split into *base* data (the records themselves)
//!   and *auxiliary* data (index nodes, filters, metadata, extra copies);
//! * **logical** traffic: the bytes a query actually retrieves, or the bytes
//!   a logical update changes.
//!
//! The paper's three overheads fall straight out of these counters:
//!
//! * `RO = physical bytes read / logical bytes read` (read amplification),
//! * `UO = physical bytes written / logical bytes written` (write
//!   amplification),
//! * `MO` comes from [`SpaceProfile`](crate::access::SpaceProfile), not from
//!   the tracker, because space is a state property rather than a traffic
//!   property.
//!
//! Counters are atomic so a tracker can be shared (`Arc<CostTracker>`)
//! between an access method and the storage substrate beneath it.
//!
//! **One charge vocabulary.** A method names what it touched and the
//! tracker decides what that costs in bytes:
//!
//! * records: [`read_records`](CostTracker::read_records) /
//!   [`write_records`](CostTracker::write_records), `n × RECORD_SIZE`
//!   bytes of base data;
//! * an in-memory binary search: [`search`](CostTracker::search), or
//!   [`search_records`](CostTracker::search_records) over sorted records;
//! * a device page: [`read_page`](CostTracker::read_page) /
//!   [`write_page`](CostTracker::write_page), charged by the pager only;
//! * memory-resident auxiliary bytes of an irregular shape (node headers,
//!   zone entries, filter probes, directory slots): the raw
//!   [`read`](CostTracker::read) / [`write`](CostTracker::write).
//!
//! The WAL's log pages are priced once too, in `rum-storage`. So whether
//! a method is byte- or page-granular is a property of which of these
//! calls it makes, and a change to how a unit is priced is a change here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::types::{base_bytes, PAGE_SIZE, RECORD_SIZE};

/// Whether a physical access touched base data or auxiliary data.
///
/// The distinction mirrors the paper's §2: the overheads "quantify the
/// additional data accesses to support any operation, relative to the base
/// data".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataClass {
    /// The records themselves (or a copy of them, e.g. an LSM run).
    Base,
    /// Index nodes, fence pointers, filters, directories, zone metadata...
    Aux,
}

/// Shared, atomic counter set. All units are bytes or page counts.
#[derive(Debug, Default)]
pub struct CostTracker {
    base_read_bytes: AtomicU64,
    aux_read_bytes: AtomicU64,
    base_write_bytes: AtomicU64,
    aux_write_bytes: AtomicU64,
    logical_read_bytes: AtomicU64,
    logical_write_bytes: AtomicU64,
    page_reads: AtomicU64,
    page_writes: AtomicU64,
    /// Simulated device time, charged by the storage cost model.
    sim_time_ns: AtomicU64,
}

impl CostTracker {
    /// Create a fresh tracker wrapped in an [`Arc`] for sharing.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Charge a physical read of `bytes` bytes of `class` data. Outside
    /// `rum-storage` this is memory-resident auxiliary data of an irregular
    /// shape; records, searches and pages have their own calls.
    #[inline]
    pub fn read(&self, class: DataClass, bytes: u64) {
        match class {
            DataClass::Base => self.base_read_bytes.fetch_add(bytes, Ordering::Relaxed),
            DataClass::Aux => self.aux_read_bytes.fetch_add(bytes, Ordering::Relaxed),
        };
    }

    /// Charge a physical write of `bytes` bytes of `class` data; as
    /// [`read`](Self::read).
    #[inline]
    pub fn write(&self, class: DataClass, bytes: u64) {
        match class {
            DataClass::Base => self.base_write_bytes.fetch_add(bytes, Ordering::Relaxed),
            DataClass::Aux => self.aux_write_bytes.fetch_add(bytes, Ordering::Relaxed),
        };
    }

    /// Charge reading `n` records of base data.
    #[inline]
    pub fn read_records(&self, n: usize) {
        self.read(DataClass::Base, base_bytes(n));
    }

    /// Charge writing `n` records of base data.
    #[inline]
    pub fn write_records(&self, n: usize) {
        self.write(DataClass::Base, base_bytes(n));
    }

    /// Charge one in-memory binary search over `entries` entries of `width`
    /// bytes of `class` data: `ceil(log2(max(entries, 2)))` probes, read.
    /// The one price of every fence, zone, anchor and sorted-array search.
    #[inline]
    pub fn search(&self, class: DataClass, entries: usize, width: u64) {
        let probes = (entries.max(2) as f64).log2().ceil() as u64;
        self.read(class, probes * width);
    }

    /// Charge one binary search over `n` sorted records of base data.
    #[inline]
    pub fn search_records(&self, n: usize) {
        self.search(DataClass::Base, n, RECORD_SIZE as u64);
    }

    /// Charge one whole-page read of `class` data: a page access,
    /// `PAGE_SIZE` bytes and `ns` of simulated device time. The pager's
    /// charge for every attempt that touches the device.
    #[inline]
    pub fn read_page(&self, class: DataClass, ns: u64) {
        self.page_reads.fetch_add(1, Ordering::Relaxed);
        self.read(class, PAGE_SIZE as u64);
        self.sim_time(ns);
    }

    /// Charge one whole-page write of `class` data; as
    /// [`read_page`](Self::read_page).
    #[inline]
    pub fn write_page(&self, class: DataClass, ns: u64) {
        self.page_write();
        self.write(class, PAGE_SIZE as u64);
        self.sim_time(ns);
    }

    /// Record that a query retrieved `bytes` bytes of useful data
    /// (the denominator of read amplification).
    #[inline]
    pub fn logical_read(&self, bytes: u64) {
        self.logical_read_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record that `bytes` bytes were logically updated
    /// (the denominator of write amplification).
    #[inline]
    pub fn logical_write(&self, bytes: u64) {
        self.logical_write_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count one page write and nothing else: for a page whose bytes are
    /// charged apart from it (the WAL's log pages, a sealed log page).
    #[inline]
    pub fn page_write(&self) {
        self.page_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Charge simulated device time.
    #[inline]
    pub fn sim_time(&self, ns: u64) {
        self.sim_time_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Capture the current counter values.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            base_read_bytes: self.base_read_bytes.load(Ordering::Relaxed),
            aux_read_bytes: self.aux_read_bytes.load(Ordering::Relaxed),
            base_write_bytes: self.base_write_bytes.load(Ordering::Relaxed),
            aux_write_bytes: self.aux_write_bytes.load(Ordering::Relaxed),
            logical_read_bytes: self.logical_read_bytes.load(Ordering::Relaxed),
            logical_write_bytes: self.logical_write_bytes.load(Ordering::Relaxed),
            page_reads: self.page_reads.load(Ordering::Relaxed),
            page_writes: self.page_writes.load(Ordering::Relaxed),
            sim_time_ns: self.sim_time_ns.load(Ordering::Relaxed),
        }
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        self.base_read_bytes.store(0, Ordering::Relaxed);
        self.aux_read_bytes.store(0, Ordering::Relaxed);
        self.base_write_bytes.store(0, Ordering::Relaxed);
        self.aux_write_bytes.store(0, Ordering::Relaxed);
        self.logical_read_bytes.store(0, Ordering::Relaxed);
        self.logical_write_bytes.store(0, Ordering::Relaxed);
        self.page_reads.store(0, Ordering::Relaxed);
        self.page_writes.store(0, Ordering::Relaxed);
        self.sim_time_ns.store(0, Ordering::Relaxed);
    }

    /// Counters accumulated since `earlier` was captured.
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        self.snapshot().delta(earlier)
    }

    /// Add a whole snapshot (usually a delta from another tracker) into
    /// this tracker's counters. This is how a sharded wrapper folds the
    /// traffic its inner shards accrued on their private trackers into the
    /// tracker the measurement harness watches: u64 sums commute, so the
    /// merged totals are identical no matter which order (or from which
    /// worker thread) the deltas arrive.
    pub fn absorb(&self, d: &CostSnapshot) {
        self.base_read_bytes
            .fetch_add(d.base_read_bytes, Ordering::Relaxed);
        self.aux_read_bytes
            .fetch_add(d.aux_read_bytes, Ordering::Relaxed);
        self.base_write_bytes
            .fetch_add(d.base_write_bytes, Ordering::Relaxed);
        self.aux_write_bytes
            .fetch_add(d.aux_write_bytes, Ordering::Relaxed);
        self.logical_read_bytes
            .fetch_add(d.logical_read_bytes, Ordering::Relaxed);
        self.logical_write_bytes
            .fetch_add(d.logical_write_bytes, Ordering::Relaxed);
        self.page_reads.fetch_add(d.page_reads, Ordering::Relaxed);
        self.page_writes.fetch_add(d.page_writes, Ordering::Relaxed);
        self.sim_time_ns.fetch_add(d.sim_time_ns, Ordering::Relaxed);
    }
}

/// A frozen view of a [`CostTracker`], or a delta between two views.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostSnapshot {
    pub base_read_bytes: u64,
    pub aux_read_bytes: u64,
    pub base_write_bytes: u64,
    pub aux_write_bytes: u64,
    pub logical_read_bytes: u64,
    pub logical_write_bytes: u64,
    pub page_reads: u64,
    pub page_writes: u64,
    pub sim_time_ns: u64,
}

impl CostSnapshot {
    /// Pointwise difference `self - earlier` (saturating, so a reset between
    /// snapshots degrades gracefully instead of panicking).
    pub fn delta(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            base_read_bytes: self.base_read_bytes.saturating_sub(earlier.base_read_bytes),
            aux_read_bytes: self.aux_read_bytes.saturating_sub(earlier.aux_read_bytes),
            base_write_bytes: self
                .base_write_bytes
                .saturating_sub(earlier.base_write_bytes),
            aux_write_bytes: self.aux_write_bytes.saturating_sub(earlier.aux_write_bytes),
            logical_read_bytes: self
                .logical_read_bytes
                .saturating_sub(earlier.logical_read_bytes),
            logical_write_bytes: self
                .logical_write_bytes
                .saturating_sub(earlier.logical_write_bytes),
            page_reads: self.page_reads.saturating_sub(earlier.page_reads),
            page_writes: self.page_writes.saturating_sub(earlier.page_writes),
            sim_time_ns: self.sim_time_ns.saturating_sub(earlier.sim_time_ns),
        }
    }

    /// Pointwise sum.
    pub fn add(&self, other: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            base_read_bytes: self.base_read_bytes + other.base_read_bytes,
            aux_read_bytes: self.aux_read_bytes + other.aux_read_bytes,
            base_write_bytes: self.base_write_bytes + other.base_write_bytes,
            aux_write_bytes: self.aux_write_bytes + other.aux_write_bytes,
            logical_read_bytes: self.logical_read_bytes + other.logical_read_bytes,
            logical_write_bytes: self.logical_write_bytes + other.logical_write_bytes,
            page_reads: self.page_reads + other.page_reads,
            page_writes: self.page_writes + other.page_writes,
            sim_time_ns: self.sim_time_ns + other.sim_time_ns,
        }
    }

    /// Total physical bytes read (base + auxiliary).
    #[inline]
    pub fn total_read_bytes(&self) -> u64 {
        self.base_read_bytes + self.aux_read_bytes
    }

    /// Total physical bytes written (base + auxiliary).
    #[inline]
    pub fn total_write_bytes(&self) -> u64 {
        self.base_write_bytes + self.aux_write_bytes
    }

    /// Total page accesses (reads + writes) — the unit of Table 1.
    #[inline]
    pub fn page_accesses(&self) -> u64 {
        self.page_reads + self.page_writes
    }

    /// Read amplification per the paper's definition of RO:
    /// "the ratio between the total amount of data read including auxiliary
    /// and base data, divided by the amount of retrieved data".
    ///
    /// Returns `f64::INFINITY` when data was read but nothing was retrieved
    /// (e.g. a workload of misses), and `1.0` when nothing happened at all.
    pub fn read_amplification(&self) -> f64 {
        ratio(self.total_read_bytes(), self.logical_read_bytes)
    }

    /// Write amplification per the paper's definition of UO:
    /// "the ratio between the size of the physical updates performed for one
    /// logical update, divided by the size of the logical update".
    pub fn write_amplification(&self) -> f64 {
        ratio(self.total_write_bytes(), self.logical_write_bytes)
    }
}

fn ratio(numer: u64, denom: u64) -> f64 {
    match (numer, denom) {
        (0, 0) => 1.0,
        (_, 0) => f64::INFINITY,
        (n, d) => n as f64 / d as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let t = CostTracker::new();
        t.read(DataClass::Base, 100);
        t.read(DataClass::Aux, 50);
        t.write(DataClass::Base, 30);
        t.write(DataClass::Aux, 20);
        t.logical_read(25);
        t.logical_write(10);
        t.read_page(DataClass::Aux, 0);
        t.read_page(DataClass::Aux, 0);
        t.page_write();
        let s = t.snapshot();
        let page = PAGE_SIZE as u64;
        assert_eq!(s.total_read_bytes(), 150 + 2 * page);
        assert_eq!(s.total_write_bytes(), 50);
        assert_eq!((s.page_reads, s.page_writes), (2, 1));
        assert_eq!(s.page_accesses(), 3);
        let ro = (150 + 2 * page) as f64 / 25.0;
        assert!((s.read_amplification() - ro).abs() < 1e-12);
        assert!((s.write_amplification() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn the_vocabulary_prices_each_unit() {
        let t = CostTracker::new();
        t.read_records(3);
        t.write_records(2);
        t.search(DataClass::Aux, 1000, 8);
        t.search_records(1);
        t.read_page(DataClass::Aux, 7);
        t.write_page(DataClass::Base, 5);
        let s = t.snapshot();
        let page = PAGE_SIZE as u64;
        assert_eq!(
            (s.base_read_bytes, s.base_write_bytes),
            (48 + 16, 32 + page)
        );
        assert_eq!((s.aux_read_bytes, s.aux_write_bytes), (10 * 8 + page, 0));
        assert_eq!((s.page_reads, s.page_writes, s.sim_time_ns), (1, 1, 12));
    }

    #[test]
    fn empty_snapshot_is_neutral() {
        let s = CostSnapshot::default();
        assert_eq!(s.read_amplification(), 1.0);
        assert_eq!(s.write_amplification(), 1.0);
    }

    #[test]
    fn miss_only_workload_is_infinite_amplification() {
        let t = CostTracker::new();
        t.read(DataClass::Aux, 4096);
        assert!(t.snapshot().read_amplification().is_infinite());
    }

    #[test]
    fn delta_isolates_an_operation() {
        let t = CostTracker::new();
        t.read(DataClass::Base, 100);
        let before = t.snapshot();
        t.read(DataClass::Base, 40);
        t.logical_read(10);
        let d = t.since(&before);
        assert_eq!(d.base_read_bytes, 40);
        assert_eq!(d.logical_read_bytes, 10);
        assert!((d.read_amplification() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes_everything() {
        let t = CostTracker::new();
        t.read(DataClass::Base, 1);
        t.write(DataClass::Aux, 2);
        t.read_page(DataClass::Aux, 99);
        t.reset();
        assert_eq!(t.snapshot(), CostSnapshot::default());
    }

    #[test]
    fn absorb_merges_another_trackers_delta() {
        let a = CostTracker::new();
        let b = CostTracker::new();
        a.read(DataClass::Base, 100);
        b.read(DataClass::Aux, 7);
        b.logical_write(3);
        b.page_write();
        b.sim_time(11);
        a.absorb(&b.snapshot());
        let s = a.snapshot();
        assert_eq!(s.base_read_bytes, 100);
        assert_eq!(s.aux_read_bytes, 7);
        assert_eq!(s.logical_write_bytes, 3);
        assert_eq!(s.page_writes, 1);
        assert_eq!(s.sim_time_ns, 11);
    }

    #[test]
    fn add_is_pointwise() {
        let a = CostSnapshot {
            base_read_bytes: 1,
            page_reads: 2,
            ..Default::default()
        };
        let b = CostSnapshot {
            base_read_bytes: 10,
            page_reads: 20,
            ..Default::default()
        };
        let c = a.add(&b);
        assert_eq!(c.base_read_bytes, 11);
        assert_eq!(c.page_reads, 22);
    }

    #[test]
    fn shared_across_threads() {
        let t = CostTracker::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.read(DataClass::Base, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.snapshot().base_read_bytes, 4000);
    }
}
