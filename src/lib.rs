//! # rum — the RUM Conjecture, reproduced in Rust
//!
//! A full reproduction of *Designing Access Methods: The RUM Conjecture*
//! (Athanassoulis, Kester, Maas, Stoica, Idreos, Ailamaki, Callaghan —
//! EDBT 2016): every access-method family the paper discusses, built over
//! an instrumented storage substrate that measures exactly the three
//! overheads the paper defines:
//!
//! * **RO** — read amplification: physical bytes read / bytes retrieved,
//! * **UO** — write amplification: physical bytes written / bytes
//!   logically updated,
//! * **MO** — space amplification: (base + auxiliary) bytes / base bytes.
//!
//! ## Quick start
//!
//! ```
//! use rum::prelude::*;
//!
//! // Pick an access method (anything implementing AccessMethod).
//! let mut index = rum::btree::BTree::new();
//!
//! // Describe a reproducible workload and run it: streamed here, or
//! // `&Workload::generate(&spec)` to replay one materialized copy.
//! let spec = WorkloadSpec {
//!     initial_records: 10_000,
//!     operations: 5_000,
//!     mix: OpMix::BALANCED,
//!     ..Default::default()
//! };
//! let report = run_stream(&mut index, OpStream::new(&spec)).unwrap();
//!
//! // The three RUM overheads, measured.
//! assert!(report.ro >= 1.0);
//! assert!(report.uo >= 1.0);
//! assert!(report.mo >= 1.0);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] | `AccessMethod` trait, cost tracking, workloads, RUM triangle, the §5 advisor (`ProfileStore::recommend` over the Table 1 model) |
//! | [`storage`] | pages, instrumented devices, memory hierarchy |
//! | [`columns`] | sorted/unsorted columns + the §2 extreme designs (Props 1–3) |
//! | [`btree`] | tunable paged B+-tree (read-optimized corner) |
//! | [`hash`] | static + extendible hashing |
//! | [`memindex`] | skip list, radix trie |
//! | [`sketch`] | Bloom filter, quotient filter |
//! | [`sparse`] | zone maps / SMAs, column imprints |
//! | [`bitmap`] | WAH bitmaps, update-friendly bitmaps, bitmap index |
//! | [`lsm`] | levelled & tiered LSM-tree with Bloom filters and dynamic tuning |
//! | [`adaptive`] | database cracking (plain & stochastic), adaptive merging |

#![forbid(unsafe_code)]

pub mod selftune;

pub use rum_adaptive as adaptive;
pub use rum_bitmap as bitmap;
pub use rum_btree as btree;
pub use rum_columns as columns;
pub use rum_core as core;
pub use rum_hash as hash;
pub use rum_lsm as lsm;
pub use rum_memindex as memindex;
pub use rum_sketch as sketch;
pub use rum_sparse as sparse;
pub use rum_storage as storage;

/// The most common imports in one place.
pub mod prelude {
    pub use rum_core::advisor::{
        MeasuredRanking, MeasuredRecommendation, MethodProfile, ProfilePoint, ProfileStore,
    };
    pub use rum_core::autotune::{
        AutoTuneConfig, AutoTuneSummary, AutoTuner, MigrationReceipt, Morphable, OpCounts,
        RetuneEstimate, TuneKind, TunePlan,
    };
    pub use rum_core::metrics::{
        ClassAttribution, DebtLedger, DebtSnapshot, MetricsPlane, OpClass,
    };
    pub use rum_core::runner::{
        default_threads, parallel_map, run_stream, run_stream_autotuned, run_stream_metered,
        run_stream_sharded, run_stream_sharded_traced, run_stream_traced, run_suite_stream,
        RumReport, DEFAULT_STREAM_BATCH,
    };
    pub use rum_core::trace::{
        noop_sink, Event, EventKind, LatencyHistogram, MemorySink, NoopSink, TraceCollector,
        TraceSink, TrajectoryWindow, DEFAULT_TRACE_WINDOW,
    };
    pub use rum_core::triangle::{render_ascii, rum_point, to_csv, RumPoint};
    pub use rum_core::wizard::{Constraints, Environment, Family};
    pub use rum_core::workload::{KeyDist, KeySpace, Op, OpMix, OpStream, Workload, WorkloadSpec};
    pub use rum_core::{
        AccessMethod, CostSnapshot, CostTracker, DataClass, Key, Record, Result, RumError,
        ShardedMethod, SpaceProfile, Value, PAGE_SIZE, RECORDS_PER_PAGE, RECORD_SIZE,
    };
}

use rum_core::AccessMethod;

/// The standard suite of access methods used by the Figure 1 experiment
/// and the integration tests: one representative per family in the
/// paper's RUM-space figure.
///
/// Every returned method supports the full [`AccessMethod`] contract
/// (point/range/insert/update/delete/bulk-load).
pub fn standard_suite() -> Vec<Box<dyn AccessMethod>> {
    vec![
        Box::new(btree::BTree::new()),
        Box::new(hash::StaticHash::new()),
        Box::new(hash::ExtendibleHash::new()),
        Box::new(memindex::SkipList::new()),
        Box::new(memindex::RadixTrie::new()),
        Box::new(memindex::CsbTree::new()),
        // Memtables sized so suite-scale workloads actually flush and
        // compact (the default 4096 would swallow a small write stream
        // whole and both variants would measure identically).
        Box::new(lsm::LsmTree::with_config(lsm::LsmConfig {
            memtable_records: 256,
            ..Default::default()
        })),
        Box::new(lsm::LsmTree::with_config(lsm::LsmConfig {
            memtable_records: 256,
            policy: lsm::CompactionPolicy::Tiering,
            ..Default::default()
        })),
        // The levelled LSM with the REMIX-style cross-run sorted view:
        // range queries binary-search one global anchor array instead of
        // probing every run — RO bought with the view's MO and the aux
        // writes of refreshing it after each flush.
        Box::new(lsm::LsmTree::with_config(lsm::LsmConfig {
            memtable_records: 256,
            sorted_view: true,
            ..Default::default()
        })),
        // The levelled LSM again, behind the write-ahead log: same
        // structure, UO now honestly includes the durability protocol —
        // the RUM price of crash consistency, visible in Figure 1.
        Box::new(storage::Durable::new(|| {
            lsm::LsmTree::with_config(lsm::LsmConfig {
                memtable_records: 256,
                ..Default::default()
            })
        })),
        Box::new(columns::AppendLog::new()),
        Box::new(columns::SortedColumn::new()),
        Box::new(columns::UnsortedColumn::new()),
        Box::new(sparse::ZoneMappedColumn::new()),
        Box::new(sparse::BfTree::new()),
        Box::new(bitmap::BitmapIndex::new()),
        Box::new(adaptive::CrackedColumn::new()),
        Box::new(adaptive::AdaptiveMerger::default()),
        Box::new(adaptive::MorphingIndex::new()),
        Box::new(btree::PartitionedBTree::with_config(btree::PbtConfig {
            partition_records: 512,
            ..Default::default()
        })),
        // Sharded composition: K=4 hash-partitioned B+-trees behind one
        // facade — the RUM tradeoff at the system level (MO spent on K
        // auxiliary structures buys concurrent execution, not lower RO).
        Box::new(core::ShardedMethod::new(4, |_| {
            Box::new(btree::BTree::new())
        })),
    ]
}

/// A fresh instance of the [`standard_suite`] method whose `name()` is
/// `name`, if the suite has one.
pub fn suite_method(name: &str) -> Option<Box<dyn AccessMethod>> {
    standard_suite().into_iter().find(|m| m.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn suite_members_have_unique_names() {
        let suite = standard_suite();
        let names: Vec<String> = suite.iter().map(|m| m.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate names in {names:?}");
        assert!(suite.len() >= 12);
    }

    #[test]
    fn every_suite_member_runs_the_balanced_workload() {
        let spec = WorkloadSpec {
            initial_records: 2000,
            operations: 1000,
            mix: OpMix::BALANCED,
            seed: 5,
            ..Default::default()
        };
        let mut suite = standard_suite();
        let expected = suite.len();
        let reports = run_suite_stream(&mut suite, &spec, default_threads())
            .unwrap_or_else(|e| panic!("suite run failed: {e}"));
        assert_eq!(reports.len(), expected);
        for report in reports {
            assert!(report.mo >= 1.0, "{}: mo {}", report.method, report.mo);
            assert!(report.n_final > 0, "{}", report.method);
        }
    }
}
