//! # rum-sketch
//!
//! Probabilistic, space-optimized structures — the right corner of the
//! paper's Figure 1 ("lossy index structures such as Bloom filters") and
//! the §5 roadmap's "updatable probabilistic data structures (like
//! quotient filters)". Figure 1 also names count-min sketches; this
//! reproduction does not build one, because no experiment places one.
//!
//! These are building blocks rather than full access methods: the LSM-tree
//! hangs a [`BloomFilter`] off every run ("iterative logs enhanced by
//! probabilistic data structures that allows for more efficient reads ...
//! at the expense of additional space"), and the approximate-index example
//! absorbs updates through a [`QuotientFilter`].
//!
//! Every structure reports its exact memory footprint so experiments can
//! charge it as auxiliary space.

#![forbid(unsafe_code)]

pub mod bloom;
pub mod quotient;

pub use bloom::BloomFilter;
pub use quotient::QuotientFilter;

/// First hash for double hashing.
#[inline]
pub(crate) fn hash1(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Second hash for double hashing (must be odd to cycle all slots).
#[inline]
pub(crate) fn hash2(key: u64) -> u64 {
    key.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) | 1
}
