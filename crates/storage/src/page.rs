//! Page identity and page buffers.

use rum_core::PAGE_SIZE;

/// Identifier of a page on a block device. Dense, starting at 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel for "no page" (e.g. the next-pointer of the last B-tree
    /// leaf).
    pub const INVALID: PageId = PageId(u64::MAX);

    #[inline]
    pub fn is_valid(&self) -> bool {
        *self != PageId::INVALID
    }

    #[inline]
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_valid() {
            write!(f, "pg#{}", self.0)
        } else {
            write!(f, "pg#∅")
        }
    }
}

/// An owned, fixed-size page buffer: what a writer of a whole page fills
/// and hands to `write_page`, what a page memo (`PackedFile`'s) copies a
/// lent page into, and what tests compare. Readers do not need one — the
/// device lends its own bytes ([`BlockDevice::with_page`],
/// [`Pager::with_page`]) and every paged method reads there — and neither
/// does an edit of part of a page, which the device lends mutably
/// ([`Pager::with_page_mut`]). `read_page` / [`Pager::read`] still copy
/// into a fresh one: for a device wrapper that implements nothing else
/// (and the default edit, which goes through it), and for the wall-clock
/// benchmark, which times that copy as `pager.read_ns`.
///
/// [`BlockDevice::with_page`]: crate::device::BlockDevice::with_page
/// [`Pager::with_page`]: crate::pager::Pager::with_page
/// [`Pager::with_page_mut`]: crate::pager::Pager::with_page_mut
/// [`Pager::read`]: crate::pager::Pager::read
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageBuf {
    data: Box<[u8]>,
}

impl PageBuf {
    /// A zeroed page.
    pub fn zeroed() -> Self {
        PageBuf {
            data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
        }
    }

    /// Wrap raw bytes (must be exactly one page).
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), PAGE_SIZE, "page must be {PAGE_SIZE} bytes");
        PageBuf {
            data: bytes.to_vec().into_boxed_slice(),
        }
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    // ---- little-endian field accessors used by node layouts -------------

    #[inline]
    pub fn write_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn read_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(
            self.data[off..off + 8]
                .try_into()
                .expect("slice is exactly 8 bytes"),
        )
    }

    #[inline]
    pub fn write_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

impl Default for PageBuf {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl std::ops::Deref for PageBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for PageBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_page_sized() {
        let p = PageBuf::zeroed();
        assert_eq!(p.as_slice().len(), PAGE_SIZE);
        assert!(p.as_slice().iter().all(|&b| b == 0));
    }

    #[test]
    fn field_accessors_roundtrip() {
        let mut p = PageBuf::zeroed();
        p.write_u16(0, 0xBEEF);
        p.write_u64(8, u64::MAX - 3);
        assert_eq!(p.as_slice()[..2], 0xBEEF_u16.to_le_bytes());
        assert_eq!(p.read_u64(8), u64::MAX - 3);
    }

    #[test]
    fn from_bytes_roundtrip() {
        let mut raw = vec![0u8; PAGE_SIZE];
        raw[17] = 42;
        let p = PageBuf::from_bytes(&raw);
        assert_eq!(p.as_slice()[17], 42);
    }

    #[test]
    #[should_panic(expected = "page must be")]
    fn from_bytes_rejects_wrong_size() {
        let _ = PageBuf::from_bytes(&[0u8; 100]);
    }

    #[test]
    fn invalid_page_id() {
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId(0).is_valid());
        assert_eq!(PageId(7).to_string(), "pg#7");
    }
}
