//! # rum-columns
//!
//! Base-data organizations and the three extreme designs of §2 of the RUM
//! Conjecture paper.
//!
//! Table 1 of the paper observes that "the base data typically exist either
//! as a sorted column or as an unsorted column", and §2 derives the three
//! propositions from purpose-built extreme structures. This crate provides
//! all five:
//!
//! * [`UnsortedColumn`] — a heap of packed pages: O(1) appends, O(N/B)
//!   scans (Table 1's "Unsorted column" row).
//! * [`SortedColumn`] — packed sorted pages: O(log₂ N) search, O(N/B/2)
//!   inserts that shift half the column (Table 1's "Sorted column" row).
//! * [`DirectAddressArray`] — Proposition 1: `min(RO) = 1.0` at the price
//!   of `UO = 2.0` (for relocations) and unbounded MO.
//! * [`AppendLog`] — Proposition 2: `min(UO) = 1.0` while RO and MO grow
//!   without bound as versions accumulate.
//! * [`DenseArray`] — Proposition 3: `min(MO) = 1.0` with `RO = N` (full
//!   scans) and `UO = 1.0` (in-place updates).

#![forbid(unsafe_code)]

pub mod dense;
pub mod direct;
pub mod log;
pub mod packed;
pub mod sorted;
pub mod unsorted;

pub use dense::DenseArray;
pub use direct::DirectAddressArray;
pub use log::AppendLog;
pub use sorted::SortedColumn;
pub use unsorted::UnsortedColumn;
