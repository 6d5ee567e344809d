//! # rum-core
//!
//! Core abstractions for the RUM Conjecture reproduction
//! (Athanassoulis et al., *Designing Access Methods: The RUM Conjecture*,
//! EDBT 2016).
//!
//! The paper defines three fundamental overheads of any access method:
//!
//! * **RO** (read overhead / *read amplification*): total bytes read
//!   (auxiliary + base) divided by the bytes of data actually retrieved.
//! * **UO** (update overhead / *write amplification*): bytes physically
//!   written divided by the bytes of the logical update.
//! * **MO** (memory overhead / *space amplification*): bytes occupied by
//!   base plus auxiliary data divided by the bytes of base data.
//!
//! This crate provides the vocabulary every access method in the workspace
//! speaks:
//!
//! * [`types`] — the record model (`u64` key + `u64` value, 16-byte records,
//!   4 KiB pages, `B = 256` records per page), mirroring the paper's
//!   "array of N fixed-sized elements in blocks".
//! * [`tracker`] — [`CostTracker`], the instrumented
//!   counter set from which all three amplifications are computed.
//! * [`access`] — the [`AccessMethod`] trait.
//! * [`keyset`] — [`KeySet`], the compact exact key set behind every
//!   method's uncharged liveness oracle.
//! * [`workload`] — seeded workload generators (uniform / zipfian /
//!   sequential key distributions, configurable operation mixes).
//! * [`oracle`] — the one differential oracle: a `BTreeMap` model of the
//!   [`AccessMethod`] contract, the per-op invariants, and the seeded
//!   hostile stream every method's tests replay against it.
//! * [`runner`] — drives an access method through a workload and produces a
//!   [`RumReport`](runner::RumReport).
//! * [`triangle`] — barycentric projection of (RO, UO, MO) onto the RUM
//!   triangle of the paper's Figures 1 and 3, with an ASCII renderer.
//! * [`wizard`] — the "access method wizard" envisioned in §5 of the paper:
//!   a cost-model-driven advisor that ranks access methods for a workload.
//! * [`advisor`] — the wizard's empirical counterpart: per-method profiles
//!   built from measured [`RumReport`](runner::RumReport)s, measured
//!   recommendations, and analytic-vs-measured calibration reporting.
//! * [`autotune`] — the closed loop over those pieces: an online
//!   [`AutoTuner`] watching trace trajectories,
//!   detects workload drift, and morphs the live structure when the
//!   predicted win beats the migration bill.
//! * [`trace`] — time-resolved observability: windowed RUM trajectories,
//!   log-bucketed latency histograms, and structured component events
//!   ([`trace::TraceSink`]), strictly opt-in with a
//!   zero-observer-effect guarantee.
//! * [`metrics`] — the live metrics plane: the [`DebtLedger`], which
//!   counts the event stream and attributes every background byte to the
//!   op class that causally incurred it, with byte-exact conservation
//!   against the tracker, and what a metered run publishes beside it.

#![forbid(unsafe_code)]

pub mod access;
pub mod advisor;
pub mod autotune;
pub mod error;
pub mod keyset;
pub mod metrics;
pub mod oracle;
pub mod runner;
pub mod shard;
pub mod trace;
pub mod tracker;
pub mod triangle;
pub mod types;
pub mod wizard;
pub mod workload;

pub use access::{succeed, AccessMethod, SpaceProfile};
pub use autotune::{
    migrate, AutoTuneConfig, AutoTuneSummary, AutoTuner, MigrationReceipt, Morphable, OpCounts,
    RetuneEstimate, TuneKind, TunePlan,
};
pub use error::{panic_payload_message, Result, RumError};
pub use keyset::KeySet;
pub use metrics::{ClassAttribution, DebtLedger, DebtSnapshot, MetricsPlane, OpClass};
pub use shard::ShardedMethod;
pub use trace::{
    noop_sink, Event, EventKind, LatencyHistogram, MemorySink, NoopSink, TraceCollector, TraceSink,
    TrajectoryWindow, DEFAULT_TRACE_WINDOW,
};
pub use tracker::{CostSnapshot, CostTracker, DataClass};
pub use types::{
    base_bytes, encode_records, insert_record_at, merge_streams, remove_record_at, Key, Record,
    RecordSlice, Value, PAGE_SIZE, RECORDS_PER_PAGE, RECORD_SIZE, TOMBSTONE,
};
