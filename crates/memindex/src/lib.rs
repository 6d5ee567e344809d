//! # rum-memindex
//!
//! In-memory ordered indexes from the read-optimized corner of the paper's
//! Figure 1: the skip list (Pugh, CACM 1990) and the trie (Fredkin, CACM
//! 1960).
//!
//! Both trade memory for read performance — extra pointers (skip list
//! towers, trie fan-out nodes) buy logarithmic or constant-depth search.
//! Accounting is byte-granular: pointer traffic is auxiliary, record
//! payloads are base data, so their position in the RUM space emerges from
//! the same counters as the paged structures.

#![forbid(unsafe_code)]

pub mod csb;
pub mod skiplist;
pub mod trie;

pub use csb::CsbTree;
pub use skiplist::SkipList;
pub use trie::RadixTrie;
