//! # rum-btree
//!
//! A paged, clustered B+-tree — the canonical *read-optimized* access
//! method (top corner of the paper's Figure 1, first row of its Table 1):
//!
//! * point query `O(log_B N)`,
//! * range query `O(log_B N + m/B)` via the leaf chain,
//! * insert/update/delete `O(log_B N)`,
//! * index size `O(N/B)` pages plus internal nodes.
//!
//! §5 of the paper asks for "B+-Trees that have dynamically tuned
//! parameters, including tree height, node size, and split condition, in
//! order to adjust the tree size, the read cost, and the update cost at
//! runtime"; [`BTreeConfig`] exposes exactly those knobs (node size in
//! bytes — possibly spanning several pages or a fraction of one —
//! bulk-load fill factor, and split policy), which is what traces the
//! B-tree's curve in the Figure 3 experiment.
//!
//! Leaves hold the records themselves (clustered primary organization) and
//! are charged as *base* data; internal nodes are *auxiliary* — matching
//! the paper's RO/MO definitions.

#![forbid(unsafe_code)]

pub mod node;
pub mod pbt;
pub mod store;
pub mod tree;

pub use node::{InternalRef, Node, NodeId, NodeRef};
pub use pbt::{PartitionedBTree, PbtConfig};
pub use tree::{BTree, BTreeConfig, SplitPolicy};
