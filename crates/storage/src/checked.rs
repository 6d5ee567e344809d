//! Sealed pages: a [`CheckedDevice`] wraps any [`BlockDevice`] and seals
//! every write with a CRC-32 seal ([`crc`](crate::crc)) in a sidecar map,
//! verifying on every read (`read_page`, `with_page` and the read half of
//! `with_page_mut` alike). Silent bit-rot becomes
//! [`RumError::CorruptPage`] — detect-or-fail, never wrong data. An edit
//! made in place costs two checksums, as a read and a write do: one
//! verifies the page before the edit sees it, one seals what it left.
//!
//! Every one of those checksums runs over all 4 KiB: no verified bit, no
//! once-per-residency skip, no sampling. What keeps that affordable is the
//! kernel, not a shortcut: a page is far past the 256 bytes at which
//! [`crc32`] hands the input to its 512-bit carry-less-multiply kernel,
//! so on a machine that has one (AVX-512 with `vpclmulqdq`) a cache-
//! resident 4 KiB seal costs about 60 ns, and about 190 ns on the 128-bit
//! kernel (`pclmulqdq` only; both measured on a Sapphire Rapids core).
//! Elsewhere the portable kernel computes the same bits, and a seal
//! written under one kernel verifies under any other.
//!
//! The seal lives in a sidecar (a table indexed by page id) rather than
//! an in-page trailer so page capacity — and therefore every node layout
//! and every baseline RUM number — is untouched. The sidecar *is* priced: its 4
//! bytes per sealed page are reported by
//! [`checksum_bytes`](CheckedDevice::checksum_bytes) and belong in MO.
//!
//! Stack order matters for fault injection: wrap the checker **around**
//! the [`FaultDevice`](crate::fault::FaultDevice)
//! (`CheckedDevice<FaultDevice<MemDevice>>`) so injected bit-flips and
//! torn pages land *under* the seal and are caught on the next read.

use std::sync::Arc;

use rum_core::{Result, RumError};

use crate::crc::crc32;
use crate::device::{BlockDevice, EditFault, IoStats};
use crate::page::{PageBuf, PageId};

/// A [`BlockDevice`] wrapper verifying a CRC-32 seal on every read.
///
/// The seals sit in a table indexed by page id, which assumes what every
/// device in the workspace does: ids are handed out densely from 0. A
/// seal is set only after the inner device accepted the page, so the
/// table grows only as far as the inner device's own ids reach.
pub struct CheckedDevice<D: BlockDevice> {
    inner: D,
    /// Sidecar seal table: slot `i` holds the CRC-32 of page `i`'s sealed
    /// contents. Pages never written (freshly allocated) have no seal and
    /// are served unverified — there is nothing to verify against yet.
    sums: Vec<Option<u32>>,
    /// Pages holding a seal.
    sealed: usize,
}

impl<D: BlockDevice> CheckedDevice<D> {
    pub fn new(inner: D) -> Self {
        CheckedDevice {
            inner,
            sums: Vec::new(),
            sealed: 0,
        }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Mutable access to the wrapped device — the escape hatch tests use
    /// to damage stored bytes behind the seal's back.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Ids of all sealed pages, ascending (deterministic scrub order).
    pub fn sealed_pages(&self) -> Vec<PageId> {
        (0..self.sums.len() as u64)
            .zip(&self.sums)
            .filter(|(_, seal)| seal.is_some())
            .map(|(id, _)| PageId(id))
            .collect()
    }

    /// Bytes the sidecar itself occupies — the MO price of detection
    /// (4 CRC bytes per sealed page).
    pub fn checksum_bytes(&self) -> u64 {
        self.sealed as u64 * 4
    }

    /// The seal of page `id`, if it has one.
    fn seal(&self, id: PageId) -> Option<u32> {
        self.sums
            .get(usize::try_from(id.0).ok()?)
            .copied()
            .flatten()
    }

    /// Seal page `id`, which the inner device has just accepted.
    fn set_seal(&mut self, id: PageId, seal: u32) {
        let i = id.index();
        if i >= self.sums.len() {
            self.sums.resize(i + 1, None);
        }
        if self.sums[i].replace(seal).is_none() {
            self.sealed += 1;
        }
    }

    /// Verify one sealed page without going through the charged pager
    /// path. `Ok(None)` means the seal matches (or the page was never
    /// sealed); `Ok(Some((stored, computed)))` reports a mismatch. Device
    /// errors (transient faults, a page that cannot be read) propagate.
    pub fn check_page(&mut self, id: PageId) -> Result<Option<(u32, u32)>> {
        let Some(stored) = self.seal(id) else {
            return Ok(None);
        };
        let computed = self.inner.with_page(id, crc32)?;
        if computed == stored {
            Ok(None)
        } else {
            Ok(Some((stored, computed)))
        }
    }

    /// Re-seal `id` over whatever the device currently stores — used by
    /// repair after rebuilding a page's contents out-of-band.
    pub fn reseal(&mut self, id: PageId) -> Result<()> {
        let seal = self.inner.with_page(id, crc32)?;
        self.set_seal(id, seal);
        Ok(())
    }
}

impl<D: BlockDevice> BlockDevice for CheckedDevice<D> {
    fn allocate(&mut self) -> Result<PageId> {
        self.inner.allocate()
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        if self.seal(id).is_some() {
            self.sums[id.index()] = None;
            self.sealed -= 1;
        }
        self.inner.free(id)
    }

    fn read_page(&mut self, id: PageId) -> Result<PageBuf> {
        self.with_page(id, PageBuf::from_bytes)
    }

    /// The seal is verified on the lent bytes *before* `f` sees any of
    /// them: a damaged page is refused, never searched.
    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let seal = self.seal(id);
        self.inner.with_page(id, |bytes| {
            if let Some(stored) = seal {
                let computed = crc32(bytes);
                if computed != stored {
                    return Err(RumError::CorruptPage {
                        id: id.0,
                        stored,
                        computed,
                    });
                }
            }
            Ok(f(bytes))
        })?
    }

    fn write_page(&mut self, id: PageId, page: &PageBuf) -> Result<()> {
        let seal = crc32(page.as_slice());
        // Seal only after the write lands: a failed write (transient or
        // torn) leaves the old seal in place, so a half-persisted page is
        // detected on the next read instead of trusted.
        self.inner.write_page(id, page)?;
        self.set_seal(id, seal);
        Ok(())
    }

    /// Verified before `f` sees a byte, as [`with_page`](Self::with_page)
    /// verifies, and sealed once after: one checksum over the edited bytes,
    /// kept only if the inner write lands. A damaged page is refused and
    /// not written; a page `f` left unchanged keeps its seal.
    fn with_page_mut(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut [u8]) -> bool,
    ) -> std::result::Result<(), EditFault> {
        let seal = self.seal(id);
        let mut refused = None;
        let mut new_seal = None;
        self.inner.with_page_mut(id, |bytes| {
            if let Some(stored) = seal {
                let computed = crc32(bytes);
                if computed != stored {
                    refused = Some(RumError::CorruptPage {
                        id: id.0,
                        stored,
                        computed,
                    });
                    return false;
                }
            }
            let changed = f(bytes);
            if changed {
                new_seal = Some(crc32(bytes));
            }
            changed
        })?;
        if let Some(e) = refused {
            return Err(EditFault::Read(e));
        }
        if let Some(seal) = new_seal {
            self.set_seal(id, seal);
        }
        Ok(())
    }

    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }

    fn stats(&self) -> &Arc<IoStats> {
        self.inner.stats()
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }
}

/// Result of a [`scrub`](crate::pager::Pager::scrub) pass over every
/// sealed page.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Sealed pages visited.
    pub pages_scanned: usize,
    /// Pages whose contents no longer match their seal.
    pub corrupt: Vec<PageId>,
    /// Pages that could not be read at all (a hard device error, or
    /// retries exhausted).
    pub unreadable: Vec<PageId>,
}

impl ScrubReport {
    /// Whether every sealed page verified clean.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty() && self.unreadable.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::reference;
    use crate::device::MemDevice;
    use crate::fault::{splitmix64, FaultDevice, FaultInjector, FaultPlan, FaultProfile};
    use proptest::prelude::*;
    use rum_core::PAGE_SIZE;

    /// A page of seeded noise.
    fn noise(seed: u64) -> PageBuf {
        let mut state = seed;
        let mut page = PageBuf::zeroed();
        for b in page.as_mut_slice() {
            state = splitmix64(state);
            *b = state as u8;
        }
        page
    }

    #[test]
    fn seal_roundtrip_serves_exact_bytes() {
        let mut dev = CheckedDevice::new(MemDevice::new());
        let id = dev.allocate().unwrap();
        let mut p = PageBuf::zeroed();
        p.as_mut_slice()[..4].copy_from_slice(&[1, 2, 3, 4]);
        dev.write_page(id, &p).unwrap();
        assert_eq!(dev.read_page(id).unwrap(), p);
        assert_eq!(dev.checksum_bytes(), 4);
        assert_eq!(dev.sealed_pages(), vec![id]);
    }

    #[test]
    fn unsealed_pages_are_served_unverified() {
        let mut dev = CheckedDevice::new(MemDevice::new());
        let id = dev.allocate().unwrap();
        // Never written: nothing to verify against.
        assert!(dev.read_page(id).is_ok());
        assert_eq!(dev.checksum_bytes(), 0);
    }

    #[test]
    fn damage_behind_the_seal_is_detected_not_served() {
        let mut dev = CheckedDevice::new(MemDevice::new());
        let id = dev.allocate().unwrap();
        let mut p = PageBuf::zeroed();
        p.as_mut_slice().fill(0x3C);
        dev.write_page(id, &p).unwrap();
        // Corrupt the stored copy directly, bypassing the seal.
        let mut damaged = p.clone();
        damaged.as_mut_slice()[1000] ^= 0x40;
        dev.inner_mut().write_page(id, &damaged).unwrap();
        let err = dev.read_page(id).unwrap_err();
        match err {
            RumError::CorruptPage {
                id: pid,
                stored,
                computed,
            } => {
                assert_eq!(pid, id.0);
                assert_ne!(stored, computed);
            }
            other => panic!("expected CorruptPage, got {other:?}"),
        }
        // check_page reports the same mismatch without consuming it.
        assert!(dev.check_page(id).unwrap().is_some());
        // Re-sealing over the damaged bytes (repair's job, once contents
        // are rebuilt) makes reads serve again.
        dev.reseal(id).unwrap();
        assert_eq!(dev.read_page(id).unwrap(), damaged);
    }

    #[test]
    fn rewrite_updates_the_seal_and_free_drops_it() {
        let mut dev = CheckedDevice::new(MemDevice::new());
        let id = dev.allocate().unwrap();
        let mut p = PageBuf::zeroed();
        dev.write_page(id, &p).unwrap();
        p.as_mut_slice().fill(0xAB);
        dev.write_page(id, &p).unwrap();
        assert_eq!(dev.read_page(id).unwrap(), p);
        assert_eq!(dev.checksum_bytes(), 4, "re-seal, not a second entry");

        // A write the inner device refuses seals nothing and does not
        // grow the table; a free past the table is the inner device's
        // error.
        let past = PageId(1000);
        let refused = dev.write_page(past, &p).unwrap_err();
        assert_eq!(refused, RumError::Storage(format!("{past} out of bounds")));
        assert_eq!((dev.sums.len(), dev.sealed_pages()), (1, vec![id]));
        for far in [past, PageId::INVALID] {
            let err = dev.free(far).unwrap_err();
            assert_eq!(err, RumError::Storage(format!("{far} out of bounds")));
        }
        assert_eq!(dev.sums.len(), 1);

        dev.free(id).unwrap();
        assert_eq!(dev.checksum_bytes(), 0);
        assert!(dev.sealed_pages().is_empty());
    }

    #[test]
    fn injected_bitflip_is_caught_by_the_seal() {
        // The intended stack: checker around the fault device, so the
        // injected flip lands under the seal.
        let inj = FaultInjector::with_profile(
            FaultPlan::None,
            Some(FaultProfile::bitflips(9, 1_000_000)),
        );
        let mut dev = CheckedDevice::new(FaultDevice::new(MemDevice::new(), inj));
        let id = dev.allocate().unwrap();
        let mut p = PageBuf::zeroed();
        p.as_mut_slice().fill(0x77);
        dev.write_page(id, &p).unwrap(); // flip injected silently
        let err = dev.read_page(id).unwrap_err();
        assert!(
            matches!(err, RumError::CorruptPage { .. }),
            "flip must surface as CorruptPage, got {err:?}"
        );
    }

    #[test]
    fn torn_crash_write_is_caught_by_the_stale_seal() {
        let inj = FaultInjector::new(FaultPlan::torn_at(PAGE_SIZE as u64 + 100));
        let mut dev = CheckedDevice::new(FaultDevice::new(MemDevice::new(), inj));
        let id = dev.allocate().unwrap();
        let mut old = PageBuf::zeroed();
        old.as_mut_slice().fill(0x11);
        dev.write_page(id, &old).unwrap();
        let mut new = PageBuf::zeroed();
        new.as_mut_slice().fill(0x22);
        let err = dev.write_page(id, &new).unwrap_err();
        assert!(matches!(err, RumError::Crash(_)));
        // The torn splice neither matches the old seal nor the new bytes:
        // reading detects it instead of serving the Frankenstein page.
        let err = dev.read_page(id).unwrap_err();
        assert!(matches!(err, RumError::CorruptPage { .. }), "got {err:?}");
    }

    /// A seal does not remember which kernel computed it: what the byte
    /// loop sealed before the hardware kernel existed still verifies, and
    /// what `write_page` seals now is what the byte loop would have.
    #[test]
    fn a_seal_is_kernel_independent() {
        let mut dev = CheckedDevice::new(MemDevice::new());
        for seed in 0..8 {
            let page = noise(seed);
            let old = dev.allocate().unwrap();
            dev.inner_mut().write_page(old, &page).unwrap();
            dev.set_seal(old, reference(page.as_slice()));
            assert_eq!(dev.with_page(old, <[u8]>::to_vec).unwrap(), page.as_slice());
            assert_eq!(dev.check_page(old).unwrap(), None);

            let new = dev.allocate().unwrap();
            dev.write_page(new, &page).unwrap();
            assert_eq!(dev.seal(new), Some(reference(page.as_slice())));
        }
    }

    proptest! {
        /// CRC-32 detects every error burst no longer than its 32 bits:
        /// wherever in a sealed page one lands, the page is refused, with
        /// the two checksums the byte loop would have reported.
        #[test]
        fn any_short_burst_behind_the_seal_is_refused_never_served(
            seed in any::<u64>(),
            at in 0usize..=PAGE_SIZE * 8 - 32,
            burst in 1u32..=u32::MAX,
        ) {
            let mut dev = CheckedDevice::new(MemDevice::new());
            let id = dev.allocate().unwrap();
            let page = noise(seed);
            dev.write_page(id, &page).unwrap();
            let mut damaged = page.clone();
            for bit in (0..32).filter(|bit| burst >> bit & 1 != 0) {
                damaged.as_mut_slice()[(at + bit) / 8] ^= 1 << ((at + bit) % 8);
            }
            dev.inner_mut().write_page(id, &damaged).unwrap();
            let want = RumError::CorruptPage {
                id: id.0,
                stored: reference(page.as_slice()),
                computed: reference(damaged.as_slice()),
            };
            let mut served = false;
            prop_assert_eq!(dev.with_page(id, |_| served = true), Err(want.clone()));
            prop_assert!(!served, "the closure saw a damaged page");
            prop_assert_eq!(dev.read_page(id), Err(want));
        }
    }
}
