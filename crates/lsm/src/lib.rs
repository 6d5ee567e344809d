//! # rum-lsm
//!
//! A log-structured merge tree (O'Neil et al.) — the canonical
//! *write-optimized differential structure* of the paper's Figure 1 left
//! corner and the "Levelled LSM" row of Table 1:
//!
//! * insert `O(T/B · log_T(N/B))` amortized (merges are batched),
//! * point query `O(log_T(N/B))` run probes, cut down by per-run Bloom
//!   filters ("iterative logs enhanced by probabilistic data structures"),
//! * range query `O(log_T(N/B) + m/B · T/(T−1))`,
//! * space `O(N · T/(T−1))` (levelled) — redundant versions across levels
//!   are the MO it pays.
//!
//! Both **levelling** (one run per level, lower RO/MO, higher UO) and
//! **tiering** (up to `T` runs per level, lower UO, higher RO/MO) are
//! implemented, plus the §5 roadmap's *dynamic* knob: "by changing the
//! number of merge trees dynamically, the depth of the merge hierarchy and
//! the frequency of merging, we can build access methods that dynamically
//! adapt to workload and hardware changes" — see [`tuning`].
//!
//! Range reads can additionally be accelerated by a REMIX-style cross-run
//! sorted [`view`]: one binary search plus a forward walk replaces the
//! probe-every-run merge, trading MO (the view's anchors) and maintenance
//! (after the run set changes, the next range lays the new runs over the
//! anchors in place) for RO.

#![forbid(unsafe_code)]

pub mod memtable;
pub mod run;
pub mod tree;
pub mod tuning;
pub mod view;

pub use memtable::Memtable;
pub use run::{FilterKind, SortedRun};
pub use tree::{CompactionPolicy, LsmConfig, LsmStats, LsmTree};
pub use tuning::{advise, retune};
pub use view::SortedView;

/// Value sentinel marking a tombstone (the one `rum_columns::AppendLog`
/// writes too). User values must avoid it.
pub use rum_core::TOMBSTONE;
