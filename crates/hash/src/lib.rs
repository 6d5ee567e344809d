//! # rum-hash
//!
//! Hash-based access methods — the *constant-access-cost* family of the
//! paper's read-optimized corner (Figure 1), and Table 1's "Perfect Hash
//! Index" row: O(1) point query and O(1) insert/update/delete, but O(N/B)
//! range queries (hashing destroys order, so a range is a full scan) and a
//! space overhead set by the load factor.
//!
//! Two variants:
//!
//! * [`StaticHash`] — open addressing with linear probing over packed
//!   pages, sized for a target load factor at build time and grown by
//!   rehashing (the paper's "perfect hash" idealization: expected one page
//!   per probe).
//! * [`ExtendibleHash`] — classic dynamic hashing: an in-memory directory
//!   of bucket pages that doubles as buckets split, avoiding full rehashes
//!   at the price of directory space.
//!
//! Key restriction: `u64::MAX` and `u64::MAX - 1` are reserved as the
//! empty/tombstone slot markers in [`StaticHash`].

#![forbid(unsafe_code)]

pub mod extendible;
pub mod statichash;

pub use extendible::ExtendibleHash;
pub use statichash::StaticHash;

/// Fibonacci (multiplicative) hashing: fast, well-distributed for integer
/// keys.
#[inline]
pub fn hash64(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash64_spreads_consecutive_keys() {
        // Consecutive keys should land far apart in the high bits.
        let a = hash64(1) >> 52;
        let b = hash64(2) >> 52;
        let c = hash64(3) >> 52;
        assert!(a != b && b != c && a != c);
    }

    #[test]
    fn hash64_is_deterministic() {
        assert_eq!(hash64(12345), hash64(12345));
    }
}
