//! The [`Pager`] — the facade through which access methods touch pages.
//!
//! Every read and write is charged to a [`CostTracker`] with a
//! [`DataClass`] tag (base vs. auxiliary data). This is what turns page
//! traffic into the paper's RO and UO: accessing a 4 KiB page to fetch one
//! 16-byte record charges 4096 bytes of physical reads against 16 logical
//! bytes — read amplification 256, exactly the paper's "minimum access
//! granularity" argument.

use std::sync::Arc;

use rum_core::trace::{EventKind, TraceSink};
use rum_core::{CostTracker, DataClass, Result, RumError, PAGE_SIZE};

use crate::checked::{CheckedDevice, ScrubReport};
use crate::cost::{AccessClassifier, DeviceProfile};
use crate::device::{BlockDevice, EditFault};
use crate::fault::RetryPolicy;
use crate::page::{PageBuf, PageId};

/// Instrumented page manager over any block device.
pub struct Pager<D: BlockDevice> {
    device: D,
    tracker: Arc<CostTracker>,
    profile: DeviceProfile,
    classifier: AccessClassifier,
    /// Answer to transient device faults: every attempt — failed or not —
    /// is charged to the tracker, so retries surface as RO/UO. Never
    /// consulted on a clean device, so the default changes nothing there.
    retry: RetryPolicy,
    /// Structured-event channel for fault/retry/corruption observations;
    /// the disabled noop sink by default.
    sink: Arc<dyn TraceSink>,
}

impl<D: BlockDevice> Pager<D> {
    /// A pager with the DRAM cost profile (suitable for pure I/O-count
    /// experiments where simulated time is not the focus).
    pub fn new(device: D, tracker: Arc<CostTracker>) -> Self {
        Self::with_profile(device, tracker, DeviceProfile::DRAM)
    }

    /// A pager charging simulated time per `profile`.
    pub fn with_profile(device: D, tracker: Arc<CostTracker>, profile: DeviceProfile) -> Self {
        Pager {
            device,
            tracker,
            profile,
            classifier: AccessClassifier::new(),
            retry: RetryPolicy::default(),
            sink: rum_core::trace::noop_sink(),
        }
    }

    /// Change how transient device faults are retried.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Install a sink for fault, retry, and corruption events. The pager
    /// only reads its own state for them, so tracing never changes what is
    /// read, written, or charged.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = sink;
    }

    pub fn tracker(&self) -> &Arc<CostTracker> {
        &self.tracker
    }

    /// Redirect future charges to a different tracker (used when a
    /// composite structure shares one tracker across sub-structures).
    pub fn set_tracker(&mut self, tracker: Arc<CostTracker>) {
        self.tracker = tracker;
    }

    pub fn device(&self) -> &D {
        &self.device
    }

    pub fn device_mut(&mut self) -> &mut D {
        &mut self.device
    }

    /// Allocate a fresh zeroed page. Allocation itself is not charged; the
    /// write that populates the page is.
    pub fn allocate(&mut self) -> Result<PageId> {
        self.device.allocate()
    }

    /// Free a page.
    pub fn free(&mut self, id: PageId) -> Result<()> {
        self.device.free(id)
    }

    /// Lend a page to `f`, charging one page access and `PAGE_SIZE` bytes
    /// of `class` traffic **per attempt**: transient device faults are
    /// retried per the [`RetryPolicy`], and every failed attempt still
    /// touched the device, so resilience is priced as extra RO. Detected
    /// corruption ([`RumError::CorruptPage`]) is not retryable — the
    /// stored bytes are wrong, not busy — and is surfaced (and traced)
    /// immediately. `f` runs once, on the attempt that succeeds.
    ///
    /// The charge is per attempt, never per byte copied, so lending
    /// instead of copying changes no counted quantity; the same holds for
    /// editing in place ([`with_page_mut`](Self::with_page_mut)), whose
    /// read attempts go through the same failure handling as these.
    pub fn with_page<R>(
        &mut self,
        id: PageId,
        class: DataClass,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let mut f = Some(f);
        let out = self.attempts(id, class, Self::charge_read, |device| {
            device.with_page(id, |bytes| {
                let f = f
                    .take()
                    .expect("a device lends the page only on the one attempt that succeeds");
                f(bytes)
            })
        });
        // Handed back as the loop built it: unwrapping the answer and
        // wrapping it again added stack copies that cost `btree-point`
        // 2-6 % of its `ops_per_s` (2-vCPU x86_64).
        if out.is_ok() {
            self.charge_read(id, class);
        }
        out
    }

    /// Write a page whose bytes were charged before it was written (the
    /// append log's sealed tail, charged record by record as it filled):
    /// one page write is counted and nothing else. No bytes, so they are
    /// not counted twice; and, unlike [`write`](Self::write), no simulated
    /// device time and no retry of a transient fault. Pricing its device
    /// time would move every simulated-time figure of the append log, so it
    /// waits for a deliberate regeneration of the counted artifacts.
    pub fn write_precharged(&mut self, id: PageId, page: &PageBuf) -> Result<()> {
        self.device.write_page(id, page)?;
        self.tracker.page_write();
        Ok(())
    }

    /// Copy a page out — [`with_page`](Self::with_page) into an owned
    /// buffer. Editing a page does not need one
    /// ([`with_page_mut`](Self::with_page_mut)).
    pub fn read(&mut self, id: PageId, class: DataClass) -> Result<PageBuf> {
        self.with_page(id, class, PageBuf::from_bytes)
    }

    /// Write a page, charging one page access and `PAGE_SIZE` bytes of
    /// `class` traffic **per attempt**: transient faults are retried per
    /// the [`RetryPolicy`], and every failed attempt is priced as extra
    /// UO.
    pub fn write(&mut self, id: PageId, class: DataClass, page: &PageBuf) -> Result<()> {
        self.attempts(id, class, Self::charge_write, |device| {
            device.write_page(id, page)
        })?;
        self.charge_write(id, class);
        Ok(())
    }

    /// Edit a page where the device holds it: `f` gets its bytes and
    /// returns its answer and whether it changed them, and a changed page
    /// is written back. This is the one read-modify-write, charged exactly
    /// like [`with_page`](Self::with_page) followed, when the page
    /// changed, by [`write`](Self::write): every read attempt one page
    /// read and every write attempt one page write of `class` traffic,
    /// each half retried on its own under the [`RetryPolicy`], with the
    /// same trace events. `f` runs once, on the read attempt that
    /// succeeds; a failed write is retried with the edited bytes, never by
    /// editing again. `f` must leave the bytes as it found them when it
    /// reports no change.
    pub fn with_page_mut<R>(
        &mut self,
        id: PageId,
        class: DataClass,
        f: impl FnOnce(&mut [u8]) -> (R, bool),
    ) -> Result<R> {
        let mut f = Some(f);
        let mut out = None;
        // The read half: a failed read is retried; a read that succeeded
        // ends it, whether or not the write behind it landed.
        let failed_write = self.attempts(id, class, Self::charge_read, |device| {
            let r = device.with_page_mut(id, |bytes| {
                let f = f
                    .take()
                    .expect("a device lends the page only on the one attempt that succeeds");
                let (answer, changed) = f(bytes);
                out = Some((answer, changed));
                changed
            });
            match r {
                Ok(()) => Ok(None),
                Err(EditFault::Write(e, page)) => Ok(Some((e, page))),
                Err(EditFault::Read(e)) => Err(e),
            }
        })?;
        let (answer, changed) = out.expect("the read succeeded, so the edit ran");
        self.charge_read(id, class);
        match failed_write {
            None if changed => self.charge_write(id, class),
            None => {}
            // The write half: its first attempt already failed, and the
            // loop carries on from that failure with the edited copy.
            Some((e, page)) => {
                let mut first = Some(e);
                self.attempts(id, class, Self::charge_write, |device| match first.take() {
                    Some(e) => Err(e),
                    None => device.write_page(id, &page),
                })?;
                self.charge_write(id, class);
            }
        }
        Ok(answer)
    }

    /// The one attempt loop: `op` tries the device until an attempt
    /// succeeds or a failure is given up on. Each failed attempt goes
    /// through [`attempt_failed`](Self::attempt_failed), charged by
    /// `charge`. The attempt that succeeds is left for the caller to
    /// charge, so the success path stays a direct call.
    fn attempts<T>(
        &mut self,
        id: PageId,
        class: DataClass,
        charge: fn(&mut Self, PageId, DataClass),
        mut op: impl FnMut(&mut D) -> Result<T>,
    ) -> Result<T> {
        let mut attempt = 1u32;
        loop {
            match op(&mut self.device) {
                Ok(out) => return Ok(out),
                Err(e) => self.attempt_failed(charge, id, class, e, attempt)?,
            }
            attempt += 1;
        }
    }

    /// One page read of `class` traffic at its simulated device time.
    fn charge_read(&mut self, id: PageId, class: DataClass) {
        self.tracker
            .read_page(class, self.classifier.read(&self.profile, id));
    }

    /// One page write of `class` traffic at its simulated device time.
    fn charge_write(&mut self, id: PageId, class: DataClass) {
        self.tracker
            .write_page(class, self.classifier.write(&self.profile, id));
    }

    /// One failed attempt, numbered `attempt`: charged by `charge`
    /// ([`charge_read`] or [`charge_write`]) if it touched the device,
    /// traced, then either retried (`Ok`, after charging the backoff) or
    /// given up on (`Err`). A transient fault or a checksum mismatch cost
    /// the access before failing; other errors (bad page id, power loss —
    /// whose partial-write accounting lives with the fault injector) keep
    /// their long-standing uncharged behavior.
    ///
    /// [`charge_read`]: Self::charge_read
    /// [`charge_write`]: Self::charge_write
    fn attempt_failed(
        &mut self,
        charge: fn(&mut Self, PageId, DataClass),
        id: PageId,
        class: DataClass,
        e: RumError,
        attempt: u32,
    ) -> Result<()> {
        match &e {
            RumError::Transient(_) => {
                charge(self, id, class);
                if self.sink.enabled() {
                    self.sink.emit(
                        EventKind::FaultInjected,
                        &[("page", id.0), ("attempt", u64::from(attempt))],
                    );
                }
            }
            RumError::CorruptPage {
                stored, computed, ..
            } => {
                charge(self, id, class);
                if self.sink.enabled() {
                    self.sink.emit(
                        EventKind::CorruptionDetected,
                        &[
                            ("page", id.0),
                            ("stored", u64::from(*stored)),
                            ("computed", u64::from(*computed)),
                            // The checksum-failed attempt touched (and
                            // charged) one full page.
                            ("bytes", PAGE_SIZE as u64),
                        ],
                    );
                }
            }
            _ => {}
        }
        // The wasted attempt being retried cost one page of device
        // traffic.
        let Some(delay) = self.retry.retry_after(
            &e,
            attempt,
            &*self.sink,
            Some(("page", id.0)),
            PAGE_SIZE as u64,
        ) else {
            return Err(e);
        };
        self.tracker.sim_time(delay);
        Ok(())
    }

    /// Live pages on the device — the physical footprint in pages.
    pub fn live_pages(&self) -> usize {
        self.device.live_pages()
    }

    /// Physical footprint in bytes (live pages × page size).
    pub fn physical_bytes(&self) -> u64 {
        (self.live_pages() * PAGE_SIZE) as u64
    }

    /// Flush any cached state in the underlying device.
    pub fn sync(&mut self) -> Result<()> {
        self.device.sync()
    }
}

impl<D: BlockDevice> Pager<CheckedDevice<D>> {
    /// Verify every sealed page against its CRC, in ascending page order.
    /// Each verification read (including transient-fault retries) is
    /// charged as an **auxiliary** read — scrubbing is maintenance
    /// traffic, priced in the same RO currency as everything else. The
    /// pass does not stop at the first problem: all corrupt and
    /// unreadable pages are collected so repair can act on the full
    /// picture.
    pub fn scrub(&mut self) -> Result<ScrubReport> {
        let ids = self.device.sealed_pages();
        let mut report = ScrubReport {
            pages_scanned: ids.len(),
            ..ScrubReport::default()
        };
        for id in ids {
            match self.with_page(id, DataClass::Aux, |_| ()) {
                Ok(()) => {}
                Err(RumError::CorruptPage { .. }) => report.corrupt.push(id),
                Err(_) => report.unreadable.push(id),
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;
    use rum_core::RECORDS_PER_PAGE;

    #[test]
    fn accesses_charge_tracker() {
        let tracker = CostTracker::new();
        let mut pager = Pager::new(MemDevice::new(), Arc::clone(&tracker));
        let id = pager.allocate().unwrap();
        let mut p = PageBuf::zeroed();
        p.write_u64(0, 1);
        pager.write(id, DataClass::Base, &p).unwrap();
        pager.read(id, DataClass::Aux).unwrap();
        let s = tracker.snapshot();
        assert_eq!(s.page_reads, 1);
        assert_eq!(s.page_writes, 1);
        assert_eq!(s.base_write_bytes, PAGE_SIZE as u64);
        assert_eq!(s.aux_read_bytes, PAGE_SIZE as u64);
        assert!(s.sim_time_ns > 0);
    }

    #[test]
    fn one_record_from_one_page_is_b_amplification() {
        // The "minimum access granularity" argument: fetching one record
        // costs a full page, so RO = B = 256.
        let tracker = CostTracker::new();
        let mut pager = Pager::new(MemDevice::new(), Arc::clone(&tracker));
        let id = pager.allocate().unwrap();
        pager.read(id, DataClass::Base).unwrap();
        tracker.logical_read(16);
        let s = tracker.snapshot();
        assert_eq!(s.read_amplification(), RECORDS_PER_PAGE as f64);
    }

    #[test]
    fn physical_bytes_follow_live_pages() {
        let tracker = CostTracker::new();
        let mut pager = Pager::new(MemDevice::new(), tracker);
        let a = pager.allocate().unwrap();
        let _b = pager.allocate().unwrap();
        assert_eq!(pager.physical_bytes(), 2 * PAGE_SIZE as u64);
        pager.free(a).unwrap();
        assert_eq!(pager.physical_bytes(), PAGE_SIZE as u64);
    }

    #[test]
    fn transient_faults_are_retried_and_priced_as_extra_reads() {
        use crate::fault::{FaultDevice, FaultInjector, FaultPlan, FaultProfile, RetryPolicy};
        let run = || {
            let inj = FaultInjector::with_profile(
                FaultPlan::None,
                Some(FaultProfile::transient(17, 400_000, 2)),
            );
            let tracker = CostTracker::new();
            let mut pager = Pager::new(
                FaultDevice::new(MemDevice::new(), Arc::clone(&inj)),
                Arc::clone(&tracker),
            );
            pager.set_retry_policy(RetryPolicy::attempts(8));
            let id = pager.allocate().unwrap();
            pager
                .write(id, DataClass::Base, &PageBuf::zeroed())
                .unwrap();
            for _ in 0..100 {
                pager.read(id, DataClass::Base).unwrap();
            }
            (tracker.snapshot(), inj.transient_faults())
        };
        let (a, faults) = run();
        assert!(faults > 0, "40% fault rate over 100 reads must fire");
        assert!(
            a.page_reads > 100,
            "failed attempts are charged: {} reads for 100 logical",
            a.page_reads
        );
        assert_eq!(
            a.base_read_bytes,
            a.page_reads * PAGE_SIZE as u64,
            "every attempt charged a full page of class traffic"
        );
        let (b, _) = run();
        assert_eq!(a, b, "same seed, same policy, bit-identical costs");
    }

    #[test]
    fn lending_charges_and_retries_exactly_like_copying() {
        use crate::fault::{FaultDevice, FaultInjector, FaultPlan, FaultProfile, RetryPolicy};
        let run = |lend: bool| {
            let inj = FaultInjector::with_profile(
                FaultPlan::None,
                Some(FaultProfile::transient(23, 300_000, 3)),
            );
            let tracker = CostTracker::new();
            let mut pager = Pager::with_profile(
                FaultDevice::new(MemDevice::new(), Arc::clone(&inj)),
                Arc::clone(&tracker),
                DeviceProfile::SSD,
            );
            pager.set_retry_policy(RetryPolicy::attempts(8));
            let ids: Vec<_> = (0..4).map(|_| pager.allocate().unwrap()).collect();
            for (i, id) in ids.iter().enumerate() {
                let mut p = PageBuf::zeroed();
                p.write_u64(0, i as u64);
                pager.write(*id, DataClass::Base, &p).unwrap();
            }
            let mut seen = 0u64;
            for n in 0..200usize {
                let (id, class) = (ids[n * 7 % 4], [DataClass::Base, DataClass::Aux][n % 2]);
                seen += if lend {
                    pager
                        .with_page(id, class, |b| {
                            u64::from_le_bytes(b[..8].try_into().unwrap())
                        })
                        .unwrap()
                } else {
                    pager.read(id, class).unwrap().read_u64(0)
                };
            }
            (tracker.snapshot(), inj.transient_faults(), seen)
        };
        let (lent, copied) = (run(true), run(false));
        assert!(lent.1 > 0, "a 30% fault rate over 200 reads must fire");
        assert!(lent.0.page_reads > 200, "failed attempts are priced");
        assert_eq!(
            lent, copied,
            "same bytes, same sim time (backoff included), same faults drawn, same answers"
        );
    }

    /// The pages, tracker, faults drawn, trace events and answers of 300
    /// read-modify-writes (two in three change the page) over four pages
    /// of `pager`, made in place or through an owned copy.
    fn edit_run<D: BlockDevice>(
        mut pager: Pager<D>,
        inj: &crate::fault::FaultInjector,
        in_place: bool,
    ) -> (Vec<PageBuf>, rum_core::CostSnapshot, u64, usize, Vec<u64>) {
        let tracker = Arc::clone(pager.tracker());
        let sink = rum_core::trace::MemorySink::shared();
        pager.set_trace_sink(sink.clone());
        pager.set_retry_policy(crate::fault::RetryPolicy::attempts(8));
        let ids: Vec<_> = (0..4).map(|_| pager.allocate().unwrap()).collect();
        let mut seen = Vec::new();
        for n in 0..300usize {
            let (id, class) = (ids[n * 7 % 4], [DataClass::Base, DataClass::Aux][n % 2]);
            let (off, change) = (n % 8 * 8, n % 3 != 0);
            seen.push(if in_place {
                pager
                    .with_page_mut(id, class, |bytes| {
                        let old = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
                        if change {
                            bytes[off..off + 8].copy_from_slice(&(n as u64).to_le_bytes());
                        }
                        (old, change)
                    })
                    .unwrap()
            } else {
                let mut page = pager.read(id, class).unwrap();
                let old = page.read_u64(off);
                if change {
                    page.write_u64(off, n as u64);
                    pager.write(id, class, &page).unwrap();
                }
                old
            });
        }
        let pages = ids
            .iter()
            .map(|&id| pager.read(id, DataClass::Base).unwrap());
        (
            pages.collect(),
            tracker.snapshot(),
            inj.transient_faults(),
            sink.events().len(),
            seen,
        )
    }

    #[test]
    fn editing_in_place_charges_and_retries_exactly_like_read_then_write() {
        use crate::checked::CheckedDevice;
        use crate::fault::{FaultDevice, FaultInjector, FaultPlan, FaultProfile};
        let injector = || {
            FaultInjector::with_profile(
                FaultPlan::None,
                Some(FaultProfile::transient(29, 250_000, 3)),
            )
        };
        let faulty = |inj: &Arc<FaultInjector>| FaultDevice::new(MemDevice::new(), Arc::clone(inj));
        for in_place in [false, true] {
            // Under transient faults (the default copy path, each half
            // retried on its own) ...
            let inj = injector();
            let pager = Pager::with_profile(faulty(&inj), CostTracker::new(), DeviceProfile::SSD);
            let run = edit_run(pager, &inj, in_place);
            let inj = injector();
            let pager = Pager::with_profile(faulty(&inj), CostTracker::new(), DeviceProfile::SSD);
            assert_eq!(run, edit_run(pager, &inj, !in_place));
            assert!(
                run.2 > 0 && run.3 > 0,
                "a 25% fault rate must fire and be traced"
            );
            assert!(run.1.page_reads > 300 && run.1.page_writes > 200);
            // ... behind a seal, which verifies before the edit and seals
            // once after ...
            let inj = injector();
            let sealed = CheckedDevice::new(faulty(&inj));
            let pager = Pager::with_profile(sealed, CostTracker::new(), DeviceProfile::SSD);
            assert_eq!(run, edit_run(pager, &inj, in_place));
            // ... and where the edit lands in the device's own bytes.
            let clean = FaultInjector::inert();
            let mem = edit_run(
                Pager::new(MemDevice::new(), CostTracker::new()),
                &clean,
                in_place,
            );
            let sealed = edit_run(
                Pager::new(CheckedDevice::new(MemDevice::new()), CostTracker::new()),
                &clean,
                !in_place,
            );
            assert_eq!(mem, sealed);
            assert_eq!((mem.1.page_reads, mem.1.page_writes), (304, 200));
        }
    }

    #[test]
    fn an_edit_is_refused_on_a_damaged_page_and_sealed_once_it_lands() {
        use crate::checked::CheckedDevice;
        use crate::fault::{FaultDevice, FaultInjector, FaultPlan};
        let tracker = CostTracker::new();
        let mut pager = Pager::new(CheckedDevice::new(MemDevice::new()), Arc::clone(&tracker));
        let id = pager.allocate().unwrap();
        pager
            .write(id, DataClass::Base, &PageBuf::zeroed())
            .unwrap();
        pager
            .with_page_mut(id, DataClass::Base, |b| {
                b[5] = 9;
                ((), true)
            })
            .unwrap();
        assert!(pager.scrub().unwrap().is_clean(), "the edit was sealed");
        let mut damaged = pager.read(id, DataClass::Base).unwrap();
        damaged[77] ^= 4;
        pager
            .device_mut()
            .inner_mut()
            .write_page(id, &damaged)
            .unwrap();
        let (before, writes) = (tracker.snapshot(), pager.device().stats().writes());
        let mut called = false;
        let err = pager
            .with_page_mut(id, DataClass::Base, |_| {
                called = true;
                ((), true)
            })
            .unwrap_err();
        assert!(matches!(err, RumError::CorruptPage { .. }), "got {err:?}");
        assert!(!called, "the closure must not see a byte of a damaged page");
        assert_eq!(pager.device().stats().writes(), writes, "nothing written");
        let d = tracker.since(&before);
        assert_eq!((d.page_reads, d.page_writes), (1, 0));

        // A write that tears under power loss leaves the old seal, so the
        // half-written page is refused on the next read.
        let inj = FaultInjector::new(FaultPlan::torn_at(PAGE_SIZE as u64 + 100));
        let mut pager = Pager::new(
            CheckedDevice::new(FaultDevice::new(MemDevice::new(), inj)),
            CostTracker::new(),
        );
        let id = pager.allocate().unwrap();
        pager
            .write(id, DataClass::Base, &PageBuf::zeroed())
            .unwrap();
        let err = pager
            .with_page_mut(id, DataClass::Base, |b| {
                b.fill(0x33);
                ((), true)
            })
            .unwrap_err();
        assert!(matches!(err, RumError::Crash(_)), "got {err:?}");
        let err = pager.read(id, DataClass::Base).unwrap_err();
        assert!(matches!(err, RumError::CorruptPage { .. }), "got {err:?}");
    }

    #[test]
    fn a_page_damaged_behind_the_seal_is_never_lent() {
        use crate::checked::CheckedDevice;
        let tracker = CostTracker::new();
        let mut pager = Pager::new(CheckedDevice::new(MemDevice::new()), Arc::clone(&tracker));
        let id = pager.allocate().unwrap();
        let mut p = PageBuf::zeroed();
        p.as_mut_slice().fill(0x5A);
        pager.write(id, DataClass::Base, &p).unwrap();
        p.as_mut_slice()[99] ^= 1;
        pager.device_mut().inner_mut().write_page(id, &p).unwrap();
        let before = tracker.snapshot();
        let mut called = false;
        let err = pager
            .with_page(id, DataClass::Base, |_| called = true)
            .unwrap_err();
        assert!(matches!(err, RumError::CorruptPage { .. }), "got {err:?}");
        assert!(!called, "the closure must not see a byte of a damaged page");
        assert_eq!(err, pager.read(id, DataClass::Base).unwrap_err());
        // The refused attempt still touched the device, once per call.
        assert_eq!(tracker.since(&before).page_reads, 2);
    }

    #[test]
    fn a_hard_read_error_is_surfaced_at_once_uncharged_and_never_retried() {
        let tracker = CostTracker::new();
        let mut pager = Pager::new(MemDevice::new(), Arc::clone(&tracker));
        let sink = rum_core::trace::MemorySink::shared();
        pager.set_trace_sink(sink.clone());
        let id = pager.allocate().unwrap();
        pager.free(id).unwrap();
        let before = tracker.snapshot();
        let mut called = false;
        let err = pager
            .with_page(id, DataClass::Base, |_| called = true)
            .unwrap_err();
        assert!(matches!(err, RumError::Storage(_)), "got {err:?}");
        assert!(!called, "a freed page is not lent");
        assert_eq!(tracker.since(&before), rum_core::CostSnapshot::default());
        assert_eq!(
            pager.device().stats().reads(),
            0,
            "a refused read is not a read"
        );
        assert!(
            sink.events().is_empty(),
            "no fault, no retry: {:?}",
            sink.events()
        );
    }

    #[test]
    fn a_wrapper_that_only_implements_read_page_sees_every_lent_access() {
        use crate::device::IoStats;
        /// Shaped like an external tracer: forwards everything, overrides
        /// nothing it does not have to.
        struct ReadCounter {
            inner: MemDevice,
            reads: Vec<PageId>,
        }
        impl BlockDevice for ReadCounter {
            fn allocate(&mut self) -> Result<PageId> {
                self.inner.allocate()
            }
            fn free(&mut self, id: PageId) -> Result<()> {
                self.inner.free(id)
            }
            fn read_page(&mut self, id: PageId) -> Result<PageBuf> {
                self.reads.push(id);
                self.inner.read_page(id)
            }
            fn write_page(&mut self, id: PageId, page: &PageBuf) -> Result<()> {
                self.inner.write_page(id, page)
            }
            fn live_pages(&self) -> usize {
                self.inner.live_pages()
            }
            fn stats(&self) -> &Arc<IoStats> {
                self.inner.stats()
            }
        }
        let device = ReadCounter {
            inner: MemDevice::new(),
            reads: Vec::new(),
        };
        let mut pager = Pager::new(device, CostTracker::new());
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        let mut p = PageBuf::zeroed();
        p.write_u64(8, 42);
        pager.write(b, DataClass::Base, &p).unwrap();
        for id in [a, b, b, a] {
            let v = pager
                .with_page(id, DataClass::Base, |bytes| bytes[8])
                .unwrap();
            assert_eq!(v, if id == b { 42 } else { 0 });
        }
        pager.read(a, DataClass::Base).unwrap();
        assert_eq!(pager.device().reads, vec![a, b, b, a, a]);
        assert_eq!(pager.device().stats().reads(), 5);
        // An edit goes through both methods it does implement.
        let was = pager
            .with_page_mut(b, DataClass::Base, |bytes| {
                bytes[8] += 1;
                (bytes[8] - 1, true)
            })
            .unwrap();
        assert_eq!(was, 42);
        assert_eq!(pager.device().reads, vec![a, b, b, a, a, b]);
        assert_eq!(pager.device().stats().writes(), 2);
        assert_eq!(pager.read(b, DataClass::Base).unwrap()[8], 43);
    }

    #[test]
    fn no_retry_policy_surfaces_the_first_transient() {
        use crate::fault::{FaultDevice, FaultInjector, FaultPlan, FaultProfile, RetryPolicy};
        use rum_core::RumError;
        // ppm = 1e6: every read attempt faults, so attempt 1 must fail.
        let inj = FaultInjector::with_profile(
            FaultPlan::None,
            Some(FaultProfile {
                write_error_ppm: 0,
                ..FaultProfile::transient(1, 1_000_000, 1)
            }),
        );
        let tracker = CostTracker::new();
        let mut pager = Pager::new(FaultDevice::new(MemDevice::new(), inj), tracker);
        pager.set_retry_policy(RetryPolicy::none());
        let id = pager.allocate().unwrap();
        pager
            .write(id, DataClass::Base, &PageBuf::zeroed())
            .unwrap();
        let err = pager.read(id, DataClass::Base).unwrap_err();
        assert!(matches!(err, RumError::Transient(_)), "got {err:?}");
    }

    #[test]
    fn scrub_verifies_seals_and_charges_aux_reads() {
        use crate::checked::CheckedDevice;
        use rum_core::RumError;
        let tracker = CostTracker::new();
        let mut pager = Pager::new(CheckedDevice::new(MemDevice::new()), Arc::clone(&tracker));
        let ids: Vec<_> = (0..3).map(|_| pager.allocate().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            let mut p = PageBuf::zeroed();
            p.as_mut_slice().fill(i as u8 + 1);
            pager.write(*id, DataClass::Base, &p).unwrap();
        }
        // Clean scrub: everything verifies, priced as 3 aux page reads.
        let before = tracker.snapshot();
        let clean = pager.scrub().unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.pages_scanned, 3);
        let d = tracker.since(&before);
        assert_eq!(d.aux_read_bytes, 3 * PAGE_SIZE as u64);
        assert_eq!(d.page_reads, 3);
        // Damage one page behind the seal; scrub pinpoints it and keeps
        // going.
        let mut damaged = PageBuf::zeroed();
        damaged.as_mut_slice().fill(0xEE);
        pager
            .device_mut()
            .inner_mut()
            .write_page(ids[1], &damaged)
            .unwrap();
        let dirty = pager.scrub().unwrap();
        assert_eq!(dirty.corrupt, vec![ids[1]]);
        assert!(dirty.unreadable.is_empty());
        // Foreground reads refuse the damaged page too.
        let err = pager.read(ids[1], DataClass::Base).unwrap_err();
        assert!(matches!(err, RumError::CorruptPage { .. }));
        let _ = pager.read(ids[0], DataClass::Base).unwrap();
    }

    #[test]
    fn hdd_profile_charges_more_for_random() {
        let tracker = CostTracker::new();
        let mut pager =
            Pager::with_profile(MemDevice::new(), Arc::clone(&tracker), DeviceProfile::HDD);
        let ids: Vec<_> = (0..3).map(|_| pager.allocate().unwrap()).collect();
        // Sequential: 0,1,2.
        for id in &ids {
            pager.read(*id, DataClass::Base).unwrap();
        }
        let seq = tracker.snapshot().sim_time_ns;
        tracker.reset();
        // Random-ish: 2,0,2.
        pager.read(ids[2], DataClass::Base).unwrap();
        pager.read(ids[0], DataClass::Base).unwrap();
        pager.read(ids[2], DataClass::Base).unwrap();
        let rand = tracker.snapshot().sim_time_ns;
        assert!(rand > seq, "random {rand} should exceed sequential {seq}");
    }
}
