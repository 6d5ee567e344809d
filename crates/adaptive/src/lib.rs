//! # rum-adaptive
//!
//! Adaptive access methods — the middle region of the paper's Figure 1:
//! "flexible data structures designed to gradually balance the RUM
//! tradeoffs by using the workload access pattern as a guide ... The
//! incoming queries dictate which part of the index should be fully
//! populated and tuned. The index creation overhead is amortized over a
//! period of time, and it gradually reduces the read overhead, while
//! increasing the update overhead, and slowly increasing the memory
//! overhead."
//!
//! * [`CrackedColumn`] — database cracking (Idreos et al., CIDR 2007):
//!   every range query physically partitions the column around its bounds
//!   and records the pivots in a cracker index. Optionally *stochastic*
//!   (Halim et al., PVLDB 2012): extra random pivots defend against
//!   pathological (e.g. sequential) query patterns.
//! * [`AdaptiveMerger`] — adaptive merging (Graefe & Kuno, EDBT 2010):
//!   data starts as sorted runs; each query merges exactly the key ranges
//!   it touches into a consolidated store, so hot ranges become fully
//!   indexed while cold data is never reorganized.

#![forbid(unsafe_code)]

pub mod crack;
pub mod merge;
pub mod morph;

pub use crack::{CrackConfig, CrackedColumn};
pub use merge::{AdaptiveMerger, IntervalSet};
pub use morph::{MorphConfig, MorphingIndex, Shape};
