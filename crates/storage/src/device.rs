//! Instrumented block devices.

use std::sync::Arc;

use rum_core::tracker::Counter;
use rum_core::{Result, RumError};

use crate::page::{PageBuf, PageId};

/// Raw device-level I/O counters (what actually reached the device, after
/// any caching above it).
///
/// Anyone may read them through [`BlockDevice::stats`]; only the device
/// that built them adds to them, from its `&mut self` methods. That device
/// is each counter's sole writer ([`Counter::add_own`]): an add is a plain
/// load and store, and a device moved to another thread takes its writes
/// with it, ordered by the move.
#[derive(Debug, Default)]
pub struct IoStats {
    page_reads: Counter,
    page_writes: Counter,
    allocations: Counter,
    frees: Counter,
    /// Simulated device time spent, nanoseconds.
    sim_time_ns: Counter,
}

impl IoStats {
    pub fn reads(&self) -> u64 {
        self.page_reads.get()
    }
    pub fn writes(&self) -> u64 {
        self.page_writes.get()
    }
    pub fn allocs(&self) -> u64 {
        self.allocations.get()
    }
    pub fn freed(&self) -> u64 {
        self.frees.get()
    }
    pub fn sim_ns(&self) -> u64 {
        self.sim_time_ns.get()
    }
    /// Zero every counter; exact when the device is not in use meanwhile.
    pub fn reset(&self) {
        self.page_reads.reset();
        self.page_writes.reset();
        self.allocations.reset();
        self.frees.reset();
        self.sim_time_ns.reset();
    }

    pub(crate) fn count_read(&self) {
        self.page_reads.add_own(1);
    }
    pub(crate) fn count_write(&self) {
        self.page_writes.add_own(1);
    }
    pub(crate) fn count_alloc(&self) {
        self.allocations.add_own(1);
    }
    pub(crate) fn count_free(&self) {
        self.frees.add_own(1);
    }
    pub(crate) fn count_sim_ns(&self, ns: u64) {
        self.sim_time_ns.add_own(ns);
    }
}

/// Why a [`BlockDevice::with_page_mut`] did not land.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditFault {
    /// The read failed or was refused: the edit never ran and nothing was
    /// written.
    Read(RumError),
    /// The edit ran, but writing it back failed as
    /// [`write_page`](BlockDevice::write_page) fails. The edited page is
    /// handed back, so the write alone can be retried.
    Write(RumError, PageBuf),
}

/// A page-granular block device.
///
/// Devices are `Send` so the access methods built on them can be measured
/// on worker threads by the parallel suite runner.
pub trait BlockDevice: Send {
    /// Allocate a fresh zeroed page.
    fn allocate(&mut self) -> Result<PageId>;

    /// Return a page to the free list.
    fn free(&mut self, id: PageId) -> Result<()>;

    /// Copy a page's contents out of the device.
    fn read_page(&mut self, id: PageId) -> Result<PageBuf>;

    /// Lend a page's contents to `f` instead of copying them out: one
    /// device read, exactly like [`read_page`](Self::read_page). `f` runs
    /// once when the read succeeds and never when it fails.
    ///
    /// The default goes through `read_page`, so a wrapper that overrides
    /// only `read_page` (a tracer, a test double) still sees — and may
    /// refuse — every access made this way. Devices that hold the bytes
    /// override it to lend them in place; wrappers that override it must
    /// do every check they do in `read_page` *before* `f` sees a byte.
    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R>
    where
        Self: Sized,
    {
        self.read_page(id).map(|page| f(page.as_slice()))
    }

    /// Replace a page's contents.
    fn write_page(&mut self, id: PageId, page: &PageBuf) -> Result<()>;

    /// Edit a page where it lies: one device read, then `f` edits the
    /// bytes and returns whether it changed them, then, only if it did,
    /// one device write; exactly [`read_page`](Self::read_page) followed
    /// by [`write_page`](Self::write_page). `f` runs once when the read
    /// succeeds and never when it fails, and must leave the bytes as it
    /// found them when it returns `false`.
    ///
    /// The default is that read and that write through an owned copy, so
    /// a wrapper that overrides only `read_page` and `write_page` sees
    /// (and may fail) both; a failed write hands the edited copy back in
    /// [`EditFault::Write`] for the caller to retry. Devices whose writes
    /// cannot fail override it to lend their own bytes; wrappers that
    /// override it must refuse, before `f` sees a byte, every page
    /// `with_page` refuses.
    fn with_page_mut(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut [u8]) -> bool,
    ) -> std::result::Result<(), EditFault>
    where
        Self: Sized,
    {
        let mut page = self.read_page(id).map_err(EditFault::Read)?;
        if f(page.as_mut_slice()) {
            if let Err(e) = self.write_page(id, &page) {
                return Err(EditFault::Write(e, page));
            }
        }
        Ok(())
    }

    /// Number of live (allocated, not freed) pages.
    fn live_pages(&self) -> usize;

    /// Device-level counters.
    fn stats(&self) -> &Arc<IoStats>;

    /// Push any cached dirty state down to durable storage (no-op for
    /// devices without caching).
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

/// A simple instrumented in-memory device with a free list.
pub struct MemDevice {
    pages: Vec<Option<PageBuf>>,
    free_list: Vec<PageId>,
    stats: Arc<IoStats>,
}

impl MemDevice {
    pub fn new() -> Self {
        MemDevice {
            pages: Vec::new(),
            free_list: Vec::new(),
            stats: Arc::new(IoStats::default()),
        }
    }

    /// The live buffer behind `id`, or why there is none.
    fn slot(&mut self, id: PageId) -> Result<&mut PageBuf> {
        match self.pages.get_mut(id.index()) {
            Some(Some(page)) => Ok(page),
            Some(None) => Err(RumError::Storage(format!("{id} is freed"))),
            None => Err(RumError::Storage(format!("{id} out of bounds"))),
        }
    }
}

impl Default for MemDevice {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockDevice for MemDevice {
    fn allocate(&mut self) -> Result<PageId> {
        self.stats.count_alloc();
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
        self.pages[id.index()] = None;
        self.free_list.push(id);
        self.stats.count_free();
        Ok(())
    }

    fn read_page(&mut self, id: PageId) -> Result<PageBuf> {
        self.with_page(id, PageBuf::from_bytes)
    }

    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let page = self.slot(id)?;
        let out = f(page.as_slice());
        self.stats.count_read();
        Ok(out)
    }

    fn write_page(&mut self, id: PageId, page: &PageBuf) -> Result<()> {
        self.slot(id)?.as_mut_slice().copy_from_slice(page);
        self.stats.count_write();
        Ok(())
    }

    /// A write to memory cannot fail, so the edit lands where the page
    /// lies: no copy out, no copy back.
    fn with_page_mut(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut [u8]) -> bool,
    ) -> std::result::Result<(), EditFault> {
        let page = self.slot(id).map_err(EditFault::Read)?;
        let changed = f(page.as_mut_slice());
        self.stats.count_read();
        if changed {
            self.stats.count_write();
        }
        Ok(())
    }

    fn live_pages(&self) -> usize {
        self.pages.len() - self.free_list.len()
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read_roundtrip() {
        let mut d = MemDevice::new();
        let id = d.allocate().unwrap();
        let mut p = PageBuf::zeroed();
        p.write_u64(0, 77);
        d.write_page(id, &p).unwrap();
        let back = d.read_page(id).unwrap();
        assert_eq!(back.read_u64(0), 77);
        assert_eq!(d.stats().reads(), 1);
        assert_eq!(d.stats().writes(), 1);
        // Lending is the same device read without the copy.
        let lent = d.with_page(id, |bytes| bytes == back.as_slice()).unwrap();
        assert!(lent);
        assert_eq!(d.stats().reads(), 2);
    }

    #[test]
    fn an_edit_lands_in_place_and_counts_a_write_only_if_it_changed_the_page() {
        let mut d = MemDevice::new();
        let id = d.allocate().unwrap();
        d.with_page_mut(id, |bytes| {
            bytes[3] = 7;
            true
        })
        .unwrap();
        d.with_page_mut(id, |bytes| bytes[3] != 7).unwrap();
        assert_eq!((d.stats().reads(), d.stats().writes()), (2, 1));
        assert_eq!(d.read_page(id).unwrap()[3], 7);
        d.free(id).unwrap();
        let refused = d.with_page_mut(id, |_| unreachable!("a freed page is not lent"));
        assert!(matches!(
            refused,
            Err(EditFault::Read(RumError::Storage(_)))
        ));
        assert_eq!(d.stats().reads(), 3, "a refused edit is not a read");
    }

    #[test]
    fn freed_pages_are_recycled_zeroed() {
        let mut d = MemDevice::new();
        let a = d.allocate().unwrap();
        let mut p = PageBuf::zeroed();
        p.write_u64(0, 1);
        d.write_page(a, &p).unwrap();
        d.free(a).unwrap();
        assert_eq!(d.live_pages(), 0);
        let b = d.allocate().unwrap();
        assert_eq!(a, b, "free list should recycle the slot");
        assert_eq!(
            d.read_page(b).unwrap().read_u64(0),
            0,
            "recycled page zeroed"
        );
    }

    #[test]
    fn access_to_freed_page_errors() {
        let mut d = MemDevice::new();
        let a = d.allocate().unwrap();
        d.free(a).unwrap();
        assert!(d.read_page(a).is_err());
        assert!(d.with_page(a, |_| ()).is_err());
        assert_eq!(d.stats().reads(), 0, "a refused read is not a read");
        assert!(d.write_page(a, &PageBuf::zeroed()).is_err());
        assert!(d.free(a).is_err(), "double free must error");
    }

    #[test]
    fn out_of_bounds_errors() {
        let mut d = MemDevice::new();
        assert!(d.read_page(PageId(5)).is_err());
    }

    #[test]
    fn a_device_moved_to_a_worker_and_back_keeps_exact_stats() {
        let mut d = MemDevice::new();
        let id = d.allocate().unwrap();
        d.write_page(id, &PageBuf::zeroed()).unwrap();
        let stats = Arc::clone(d.stats());
        let mut d = std::thread::spawn(move || {
            for _ in 0..500 {
                d.read_page(id).unwrap();
                d.with_page_mut(id, |bytes| {
                    bytes[0] ^= 1;
                    true
                })
                .unwrap();
            }
            let extra = d.allocate().unwrap();
            d.free(extra).unwrap();
            d
        })
        .join()
        .unwrap();
        d.with_page(id, |_| ()).unwrap();
        d.write_page(id, &PageBuf::zeroed()).unwrap();
        assert_eq!(
            (stats.reads(), stats.writes(), stats.allocs(), stats.freed()),
            (1001, 502, 2, 1)
        );
    }

    #[test]
    fn live_page_accounting() {
        let mut d = MemDevice::new();
        let ids: Vec<_> = (0..10).map(|_| d.allocate().unwrap()).collect();
        assert_eq!(d.live_pages(), 10);
        for id in &ids[..4] {
            d.free(*id).unwrap();
        }
        assert_eq!(d.live_pages(), 6);
        assert_eq!(d.stats().allocs(), 10);
        assert_eq!(d.stats().freed(), 4);
    }
}
