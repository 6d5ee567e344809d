//! # rum-sparse
//!
//! Sparse, space-optimized secondary indexes — the right corner of the
//! paper's Figure 1: "Sparse indexes, which are light-weight secondary
//! indexes, like ZoneMaps, Small Materialized Aggregates and Column
//! Imprints".
//!
//! * [`ZoneMappedColumn`] — a packed column with per-partition min/max
//!   (+ count/sum, the SMA generalization): Table 1's "ZoneMaps" row.
//!   Tiny index (`O(N/P/B)` pages), but reads must fetch whole partitions
//!   and effectiveness depends on clustering.
//! * [`ColumnImprint`] — per-cacheline bit signatures over value-range
//!   bins (Sidirourgos & Kersten): a scan accelerator that skips
//!   cachelines whose signature cannot match the predicate.
//! * [`BfTree`] — approximate tree indexing (§4's "approximate tree
//!   indexing" / §5's updatable-filter roadmap item): per-zone quotient
//!   filters route point probes, trading a sliver of MO and occasional
//!   false-positive page reads for a near-zero dense-index footprint.

#![forbid(unsafe_code)]

pub mod bftree;
pub mod imprint;
pub mod zonemap;

pub use bftree::{BfTree, BfTreeConfig};
pub use imprint::ColumnImprint;
pub use zonemap::{ZoneMapConfig, ZoneMappedColumn};
