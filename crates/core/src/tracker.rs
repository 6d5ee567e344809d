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
//! A tracker is shared (`Arc<CostTracker>`) between an access method and
//! the storage substrate beneath it, and may be charged from any thread,
//! exactly. Each counter is a [`Counter`], a pair of halves, and the
//! tracker names at most one thread as its *owner*, at first the thread
//! that built it:
//!
//! * a charge on the owner thread adds to the `own` half with a relaxed
//!   load and store, no read-modify-write and so no fence. Only the owner
//!   writes `own`, so each load sees the owner's previous store and no add
//!   is lost;
//! * a charge from any other thread (a test's spawned thread, a worker
//!   charging a tracker someone else holds) adds to the `shared` half with
//!   `fetch_add`, exact under any interleaving;
//! * a [`snapshot`](CostTracker::snapshot) sums the halves: 18 relaxed
//!   loads. Once every charging thread is joined (or otherwise
//!   synchronised with the reader) the sums are the exact totals.
//!
//! The owner is a per-thread token drawn once from a global sequence that
//! starts at 1 and never repeats, so a tracker whose owner has exited is
//! foreign to every later thread and their charges all take the `shared`
//! half. Ownership can move, but only in two steps inside this crate:
//! the owner gives it up (`release`: a compare-and-swap from its own token
//! to 0, "unowned", with `Release`), and then one thread takes it (`hold`:
//! a compare-and-swap from 0 with `Acquire`). The swap reads the store
//! that gave the tracker up, so the new owner's first load of `own` sees
//! the old owner's last store, and `own` keeps one writer at a time. A
//! thread that finds the tracker owned by another leaves it alone and
//! charges `shared`. This is how a shard pool's worker charges the shard
//! it has locked at the owner's price: the shard wrapper releases each
//! shard's tracker once, and whoever holds a shard's lock holds its
//! tracker (`rum_core::shard`).
//! [`reset`](CostTracker::reset) stores zero to both halves, so it is
//! exact when no charge runs concurrently with it, which holds at every
//! call site: each resets between phases, on the thread that then charges
//! or before handing the method to it.
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

use std::cell::Cell;
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

/// One exact `u64` counter in two halves: `own`, written by one writer at
/// a time with a relaxed load and store, and `shared`, which any thread
/// adds to with `fetch_add`. Its value is their sum.
#[derive(Debug, Default)]
pub struct Counter {
    own: AtomicU64,
    shared: AtomicU64,
}

impl Counter {
    /// Add `n` as the counter's sole writer: a relaxed load and store, no
    /// read-modify-write. Exact while each call happens before the next
    /// (one thread, or a writer handed between threads by a move, a join
    /// or a tracker's release and hold); two threads calling it at once
    /// can lose an add.
    #[inline]
    pub fn add_own(&self, n: u64) {
        let v = self.own.load(Ordering::Relaxed);
        self.own.store(v.wrapping_add(n), Ordering::Relaxed);
    }

    /// Add `n` from any thread.
    #[inline]
    pub fn add_shared(&self, n: u64) {
        self.shared.fetch_add(n, Ordering::Relaxed);
    }

    /// The counter's value: both halves, two relaxed loads.
    #[inline]
    pub fn get(&self) -> u64 {
        self.own
            .load(Ordering::Relaxed)
            .wrapping_add(self.shared.load(Ordering::Relaxed))
    }

    /// Zero both halves; exact when no add runs concurrently.
    pub fn reset(&self) {
        self.own.store(0, Ordering::Relaxed);
        self.shared.store(0, Ordering::Relaxed);
    }
}

thread_local! {
    /// This thread's owner token; 0 until the thread first needs one.
    static TOKEN: Cell<u64> = const { Cell::new(0) };
}

/// The thread that owns a tracker's `own` halves, by token; 0 while no
/// thread does.
#[derive(Debug)]
struct Owner(AtomicU64);

impl Owner {
    /// The calling thread's token: one thread-local load once drawn.
    #[inline]
    fn current() -> u64 {
        match TOKEN.get() {
            0 => Self::draw(),
            t => t,
        }
    }

    /// Draw the calling thread's token. The sequence is checked rather
    /// than wrapped, so no two threads ever share a token.
    #[cold]
    fn draw() -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let t = NEXT
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_add(1))
            .expect("owner tokens never run out");
        TOKEN.set(t);
        t
    }

    /// One relaxed load: only the calling thread ever stores its own
    /// token, so the load cannot name it unless it is the owner.
    #[inline]
    fn is_current(&self) -> bool {
        self.0.load(Ordering::Relaxed) == Self::current()
    }
}

impl Default for Owner {
    fn default() -> Self {
        Owner(AtomicU64::new(Self::current()))
    }
}

/// Shared counter set, exact from any thread and free of read-modify-writes
/// on the thread that owns it. All units are bytes or page counts.
#[derive(Debug, Default)]
pub struct CostTracker {
    owner: Owner,
    base_read_bytes: Counter,
    aux_read_bytes: Counter,
    base_write_bytes: Counter,
    aux_write_bytes: Counter,
    logical_read_bytes: Counter,
    logical_write_bytes: Counter,
    page_reads: Counter,
    page_writes: Counter,
    /// Simulated device time, charged by the storage cost model.
    sim_time_ns: Counter,
}

impl CostTracker {
    /// Create a fresh tracker wrapped in an [`Arc`] for sharing. The
    /// calling thread becomes its owner.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Take ownership if no thread has it, and say whether this call took
    /// it: then the calling thread's charges take the `own` halves until
    /// it calls [`release`](Self::release). `false` when the caller owns
    /// it already or another thread does (the caller's charges then take
    /// `shared`).
    pub(crate) fn hold(&self) -> bool {
        self.owner
            .0
            .compare_exchange(0, Owner::current(), Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Give up ownership if the calling thread has it, so that a later
    /// [`hold`](Self::hold) on another thread can take it; a no-op
    /// anywhere else.
    pub(crate) fn release(&self) {
        let me = Owner::current();
        let _ = self
            .owner
            .0
            .compare_exchange(me, 0, Ordering::Release, Ordering::Relaxed);
    }

    /// Add each `(counter, n)`: to the `own` halves on the owner thread,
    /// to the `shared` halves anywhere else. Every charge goes through
    /// here, so the owner check is made once per charge.
    #[inline]
    fn add(&self, adds: &[(&Counter, u64)]) {
        if self.owner.is_current() {
            for &(c, n) in adds {
                c.add_own(n);
            }
        } else {
            for &(c, n) in adds {
                c.add_shared(n);
            }
        }
    }

    #[inline]
    fn read_counter(&self, class: DataClass) -> &Counter {
        match class {
            DataClass::Base => &self.base_read_bytes,
            DataClass::Aux => &self.aux_read_bytes,
        }
    }

    #[inline]
    fn write_counter(&self, class: DataClass) -> &Counter {
        match class {
            DataClass::Base => &self.base_write_bytes,
            DataClass::Aux => &self.aux_write_bytes,
        }
    }

    /// Charge a physical read of `bytes` bytes of `class` data. Outside
    /// `rum-storage` this is memory-resident auxiliary data of an irregular
    /// shape; records, searches and pages have their own calls.
    #[inline]
    pub fn read(&self, class: DataClass, bytes: u64) {
        self.add(&[(self.read_counter(class), bytes)]);
    }

    /// Charge a physical write of `bytes` bytes of `class` data; as
    /// [`read`](Self::read).
    #[inline]
    pub fn write(&self, class: DataClass, bytes: u64) {
        self.add(&[(self.write_counter(class), bytes)]);
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
        self.add(&[
            (&self.page_reads, 1),
            (self.read_counter(class), PAGE_SIZE as u64),
            (&self.sim_time_ns, ns),
        ]);
    }

    /// Charge one whole-page write of `class` data; as
    /// [`read_page`](Self::read_page).
    #[inline]
    pub fn write_page(&self, class: DataClass, ns: u64) {
        self.add(&[
            (&self.page_writes, 1),
            (self.write_counter(class), PAGE_SIZE as u64),
            (&self.sim_time_ns, ns),
        ]);
    }

    /// Record that a query retrieved `bytes` bytes of useful data
    /// (the denominator of read amplification).
    #[inline]
    pub fn logical_read(&self, bytes: u64) {
        self.add(&[(&self.logical_read_bytes, bytes)]);
    }

    /// Record that `bytes` bytes were logically updated
    /// (the denominator of write amplification).
    #[inline]
    pub fn logical_write(&self, bytes: u64) {
        self.add(&[(&self.logical_write_bytes, bytes)]);
    }

    /// Count one page write and nothing else: for a page whose bytes are
    /// charged apart from it (the WAL's log pages, a sealed log page).
    #[inline]
    pub fn page_write(&self) {
        self.add(&[(&self.page_writes, 1)]);
    }

    /// Charge simulated device time.
    #[inline]
    pub fn sim_time(&self, ns: u64) {
        self.add(&[(&self.sim_time_ns, ns)]);
    }

    /// Capture the current counter values.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            base_read_bytes: self.base_read_bytes.get(),
            aux_read_bytes: self.aux_read_bytes.get(),
            base_write_bytes: self.base_write_bytes.get(),
            aux_write_bytes: self.aux_write_bytes.get(),
            logical_read_bytes: self.logical_read_bytes.get(),
            logical_write_bytes: self.logical_write_bytes.get(),
            page_reads: self.page_reads.get(),
            page_writes: self.page_writes.get(),
            sim_time_ns: self.sim_time_ns.get(),
        }
    }

    /// Reset every counter to zero; exact when no charge runs
    /// concurrently (see the module doc).
    pub fn reset(&self) {
        for c in [
            &self.base_read_bytes,
            &self.aux_read_bytes,
            &self.base_write_bytes,
            &self.aux_write_bytes,
            &self.logical_read_bytes,
            &self.logical_write_bytes,
            &self.page_reads,
            &self.page_writes,
            &self.sim_time_ns,
        ] {
            c.reset();
        }
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
        self.add(&[
            (&self.base_read_bytes, d.base_read_bytes),
            (&self.aux_read_bytes, d.aux_read_bytes),
            (&self.base_write_bytes, d.base_write_bytes),
            (&self.aux_write_bytes, d.aux_write_bytes),
            (&self.logical_read_bytes, d.logical_read_bytes),
            (&self.logical_write_bytes, d.logical_write_bytes),
            (&self.page_reads, d.page_reads),
            (&self.page_writes, d.page_writes),
            (&self.sim_time_ns, d.sim_time_ns),
        ]);
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

    /// One charge of every kind; `charged_times(n)` is `n` of them.
    fn charge_all(t: &CostTracker) {
        t.read_records(1);
        t.read(DataClass::Aux, 3);
        t.write_records(1);
        t.write(DataClass::Aux, 5);
        t.logical_read(7);
        t.logical_write(11);
        t.read_page(DataClass::Aux, 13);
        t.write_page(DataClass::Base, 17);
        t.page_write();
    }

    fn charged_times(n: u64) -> CostSnapshot {
        let page = PAGE_SIZE as u64;
        let rec = RECORD_SIZE as u64;
        CostSnapshot {
            base_read_bytes: n * rec,
            aux_read_bytes: n * (3 + page),
            base_write_bytes: n * (rec + page),
            aux_write_bytes: n * 5,
            logical_read_bytes: n * 7,
            logical_write_bytes: n * 11,
            page_reads: n,
            page_writes: 2 * n,
            sim_time_ns: n * 30,
        }
    }

    #[test]
    fn owner_and_foreign_charges_meet_exactly() {
        let t = CostTracker::new();
        let one = charged_times(1);
        // All four threads start charging together.
        let start = Arc::new(std::sync::Barrier::new(4));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let t = Arc::clone(&t);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..2000 {
                        charge_all(&t);
                        t.absorb(&one);
                    }
                })
            })
            .collect();
        start.wait();
        for _ in 0..5000 {
            charge_all(&t);
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(t.snapshot(), charged_times(5000 + 3 * 2 * 2000));
        assert_eq!(t.page_reads.own.load(Ordering::Relaxed), 5000);
        assert_eq!(t.page_reads.shared.load(Ordering::Relaxed), 3 * 2 * 2000);
    }

    #[test]
    fn a_tracker_charged_only_off_its_owner_is_exact() {
        // The shard pool's shape: built on the caller, charged on a worker.
        let t = CostTracker::new();
        let worker = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for _ in 0..3000 {
                    charge_all(&t);
                }
            })
        };
        worker.join().unwrap();
        assert_eq!(t.snapshot(), charged_times(3000));
        assert_eq!(t.page_reads.own.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_tracker_outlives_its_owner_and_loses_no_add() {
        let t = std::thread::spawn(|| {
            let t = CostTracker::new();
            charge_all(&t);
            t
        })
        .join()
        .unwrap();
        // The owner has exited: every later thread is foreign, however the
        // runtime reuses its stack or its thread-local block.
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        charge_all(&t);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(t.snapshot(), charged_times(1 + 4000));
        assert_eq!(t.page_reads.own.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn holders_taking_turns_charge_own_and_a_bystander_charges_shared() {
        let t = CostTracker::new();
        t.release();
        let turn = Arc::new(std::sync::Mutex::new(()));
        let holders: Vec<_> = (0..2)
            .map(|_| {
                let (t, turn) = (Arc::clone(&t), Arc::clone(&turn));
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let _turn = turn.lock().unwrap();
                        assert!(t.hold(), "the last holder let go");
                        for _ in 0..4 {
                            charge_all(&t);
                        }
                        t.release();
                    }
                })
            })
            .collect();
        let bystander = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for _ in 0..3000 {
                    charge_all(&t);
                }
            })
        };
        for h in holders {
            h.join().unwrap();
        }
        bystander.join().unwrap();
        assert_eq!(t.snapshot(), charged_times(2 * 500 * 4 + 3000));
        // Every holder's add landed in `own`: the bystander never held, so
        // `shared` has exactly its adds.
        assert_eq!(t.page_reads.own.load(Ordering::Relaxed), 2 * 500 * 4);
        assert_eq!(t.page_reads.shared.load(Ordering::Relaxed), 3000);
        assert_eq!(t.owner.0.load(Ordering::Relaxed), 0, "the last hold let go");
    }

    #[test]
    fn holders_racing_for_the_tracker_alone_lose_no_add() {
        // No lock around the holds: the owner word's release and acquire
        // are all that orders one holder's `own` stores before the next's.
        let t = CostTracker::new();
        t.release();
        let holders: Vec<_> = (0..2)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let mut turns = 0;
                    while turns < 500 {
                        if !t.hold() {
                            std::thread::yield_now();
                            continue;
                        }
                        for _ in 0..4 {
                            charge_all(&t);
                        }
                        t.release();
                        turns += 1;
                    }
                })
            })
            .collect();
        for h in holders {
            h.join().unwrap();
        }
        assert_eq!(t.snapshot(), charged_times(2 * 500 * 4));
        assert_eq!(t.page_reads.shared.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_hold_is_a_no_op_for_the_owner_and_while_another_thread_owns() {
        let t = CostTracker::new();
        assert!(!t.hold(), "the builder owns it already");
        charge_all(&t);
        assert_eq!(t.page_reads.own.load(Ordering::Relaxed), 1, "still owned");
        let other = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                assert!(!t.hold());
                t.release();
                charge_all(&t);
            })
        };
        other.join().unwrap();
        assert_eq!(t.page_reads.shared.load(Ordering::Relaxed), 1);
        t.release();
        assert!(t.hold());
        assert!(!t.hold(), "a second hold takes nothing");
        charge_all(&t);
        assert_eq!(t.page_reads.own.load(Ordering::Relaxed), 2);
        assert_eq!(t.snapshot(), charged_times(3));
    }

    #[test]
    fn owner_tokens_are_never_reused() {
        let mut seen: Vec<u64> = (0..16)
            .map(|_| std::thread::spawn(Owner::current).join().unwrap())
            .collect();
        seen.push(Owner::current());
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 17);
    }
}
