//! Time-resolved RUM tracing: structured events, latency histograms, and
//! windowed amplification trajectories.
//!
//! The paper's Figure 3 argues that tunable access methods *move through*
//! the RUM space; an end-of-run aggregate [`RumReport`] cannot show that
//! motion. This module turns the harness from a scoreboard into an
//! instrument:
//!
//! * [`TraceSink`] — a structured event channel. Components (LSM
//!   flush/compaction, WAL sync/checkpoint/recovery, shard batch
//!   dispatch) emit [`Event`]s into whatever sink the caller
//!   installed. The compiled-in default everywhere is [`NoopSink`], whose
//!   [`enabled`](TraceSink::enabled) gate lets every emit site skip even
//!   the field assembly — a disabled run does **zero** extra work and is
//!   bit-identical to an untraced one (`tests/trace_equivalence.rs` pins
//!   this for the whole standard suite).
//! * [`LatencyHistogram`] — an in-tree log-bucketed (HDR-style, ~2
//!   significant digits) histogram with p50/p90/p99/p999/max, mergeable
//!   across shard workers exactly like
//!   [`CostSnapshot::add`](crate::tracker::CostSnapshot::add): pointwise
//!   `u64` sums, so merging is associative and commutative.
//! * [`TraceCollector`] — snapshots the [`CostTracker`] every `W` ops
//!   (default [`DEFAULT_TRACE_WINDOW`]) and records per-window
//!   RO/UO/MO plus cumulative curves. The per-window deltas sum **byte
//!   exactly** to the aggregate op-phase totals, because every byte the
//!   tracker accrues between `begin` and `finish` lands in exactly one
//!   window.
//!
//! Tracing never touches the [`CostTracker`]: events, histograms, and
//! window snapshots are pure observers, which is what makes the
//! zero-observer-effect guarantee structural rather than aspirational.
//!
//! [`RumReport`]: crate::runner::RumReport

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::access::AccessMethod;
use crate::runner::{RumReport, RunObserver};
use crate::tracker::{CostSnapshot, CostTracker};
use crate::workload::Op;

/// Default trajectory window width, in operations.
pub const DEFAULT_TRACE_WINDOW: usize = 4096;

// ---- structured events ---------------------------------------------------

/// What kind of component activity an [`Event`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// LSM memtable flush (level, records/bytes in and out).
    LsmFlush,
    /// LSM compaction merging `level` into `level + 1`.
    LsmCompaction,
    /// WAL sync moving buffered bytes to durable storage.
    WalSync,
    /// Checkpoint persisting live contents and truncating the WAL.
    WalCheckpoint,
    /// Recovery replaying the committed WAL prefix.
    WalRecovery,
    /// A sharded facade dispatching one batch across its workers.
    ShardDispatch,
    /// LSM cross-run sorted view brought up to date with the current
    /// runs: a cold build (`dropped_runs` 0, every run in `added_runs`)
    /// or a refresh that scanned only the added runs.
    LsmViewBuild,
    /// LSM sorted view went stale because the run set changed.
    LsmViewInvalidate,
    /// A range query served through a valid LSM sorted view.
    LsmViewHit,
    /// A [`TraceCollector`] trajectory window closing.
    Window,
    /// A seeded transient fault failed an attempt on the I/O path (a page
    /// access or a WAL sync).
    FaultInjected,
    /// A retry of a page access or a WAL sync after a transient fault.
    RetryAttempt,
    /// A sealed page failed checksum verification (scrub or foreground
    /// read): silent corruption became a detected error.
    CorruptionDetected,
    /// A quarantined structure or shard finished rebuilding and resumed
    /// service.
    RepairComplete,
    /// The autotuner's drifting-mix estimate crossed its hysteresis
    /// threshold (one event per drift episode, not per window).
    DriftDetected,
    /// The autotuner priced a reconfiguration and decided to migrate:
    /// predicted win exceeded the migration bill.
    TuneDecision,
    /// A priced migration (in-place retune or family swap) starting.
    MigrationStart,
    /// A priced migration finished; detail carries the I/O charged to UO
    /// and the transient double-residency charged to MO.
    MigrationComplete,
}

impl EventKind {
    /// Every kind in declaration order (so `kind as usize` indexes it),
    /// with its stable snake_case name (JSONL output, the `kind` label)
    /// and the component a folded-stack view groups it under.
    pub const ALL: [(EventKind, &'static str, &'static str); 18] = [
        (EventKind::LsmFlush, "lsm_flush", "lsm"),
        (EventKind::LsmCompaction, "lsm_compaction", "lsm"),
        (EventKind::WalSync, "wal_sync", "wal"),
        (EventKind::WalCheckpoint, "wal_checkpoint", "wal"),
        (EventKind::WalRecovery, "wal_recovery", "wal"),
        (EventKind::ShardDispatch, "shard_dispatch", "shard"),
        (EventKind::LsmViewBuild, "lsm_view_build", "lsm"),
        (EventKind::LsmViewInvalidate, "lsm_view_invalidate", "lsm"),
        (EventKind::LsmViewHit, "lsm_view_hit", "lsm"),
        (EventKind::Window, "window", "trace"),
        (EventKind::FaultInjected, "fault_injected", "fault"),
        (EventKind::RetryAttempt, "retry_attempt", "fault"),
        (
            EventKind::CorruptionDetected,
            "corruption_detected",
            "repair",
        ),
        (EventKind::RepairComplete, "repair_complete", "repair"),
        (EventKind::DriftDetected, "drift_detected", "autotune"),
        (EventKind::TuneDecision, "tune_decision", "autotune"),
        (EventKind::MigrationStart, "migration_start", "autotune"),
        (
            EventKind::MigrationComplete,
            "migration_complete",
            "autotune",
        ),
    ];

    /// Stable snake_case name used in JSONL output.
    pub fn as_str(self) -> &'static str {
        Self::ALL[self as usize].1
    }

    /// The component a folded-stack view groups this kind under.
    pub fn component(self) -> &'static str {
        Self::ALL[self as usize].2
    }
}

/// One structured trace record: a monotone sequence number, a kind, and a
/// flat list of named numeric fields (span-like detail).
///
/// By convention a field named `bytes` carries the physical bytes the
/// event moved — [`fold_events`] sums it per component to build the
/// flamegraph-compatible view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonically increasing per-sink sequence number (emit order).
    pub seq: u64,
    pub kind: EventKind,
    /// Named numeric detail, in emit order.
    pub detail: Vec<(&'static str, u64)>,
}

/// The value of the named field in a flat detail list, if present.
pub fn detail_field(detail: &[(&'static str, u64)], name: &str) -> Option<u64> {
    detail.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
}

/// Physical bytes a detail list says its event moved: the `bytes` field
/// when present, otherwise `bytes_read + bytes_written` (migration
/// receipts split direction instead of reporting one total), else 0.
pub fn detail_byte_weight(detail: &[(&'static str, u64)]) -> u64 {
    detail_field(detail, "bytes").unwrap_or_else(|| {
        detail_field(detail, "bytes_read").unwrap_or(0)
            + detail_field(detail, "bytes_written").unwrap_or(0)
    })
}

impl Event {
    /// The value of the named detail field, if present.
    pub fn field(&self, name: &str) -> Option<u64> {
        detail_field(&self.detail, name)
    }

    /// Physical bytes this event moved under either detail convention
    /// ([`detail_byte_weight`]): `bytes`, or `bytes_read + bytes_written`.
    pub fn byte_weight(&self) -> u64 {
        detail_byte_weight(&self.detail)
    }
}

/// Render events as JSONL, one object per line:
/// `{"seq":3,"kind":"lsm_flush","level":0,"bytes":4096}`.
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!(
            "{{\"seq\":{},\"kind\":\"{}\"",
            e.seq,
            e.kind.as_str()
        ));
        for (k, v) in &e.detail {
            out.push_str(&format!(",\"{k}\":{v}"));
        }
        out.push_str("}\n");
    }
    out
}

/// Flamegraph-compatible folded stacks of physical bytes by component:
/// one `rum;<component>;<kind>[;L<level>] <bytes>` line per distinct
/// stack, sorted for determinism. Feed to `flamegraph.pl` or `inferno`.
pub fn fold_events(events: &[Event]) -> String {
    let mut stacks: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for e in events {
        let w = e.byte_weight();
        if w == 0 {
            continue;
        }
        let mut stack = format!("rum;{};{}", e.kind.component(), e.kind.as_str());
        if let Some(level) = e.field("level") {
            stack.push_str(&format!(";L{level}"));
        }
        *stacks.entry(stack).or_insert(0) += w;
    }
    let mut out = String::new();
    for (stack, w) in stacks {
        out.push_str(&format!("{stack} {w}\n"));
    }
    out
}

/// A structured event channel. Implementations must be cheap when
/// disabled: emit sites check [`enabled`](Self::enabled) before assembling
/// detail fields, so a [`NoopSink`] run does no tracing work at all.
pub trait TraceSink: Send + Sync {
    /// Whether emit sites should bother assembling and sending events.
    fn enabled(&self) -> bool;

    /// Record one event. `detail` is a flat list of named numbers.
    fn emit(&self, kind: EventKind, detail: &[(&'static str, u64)]);
}

/// The compiled-in default: tracing off. [`enabled`](TraceSink::enabled)
/// is `false`, so instrumented components skip their emit sites entirely
/// and a run with this sink is bit-identical to an untraced one.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&self, _kind: EventKind, _detail: &[(&'static str, u64)]) {}
}

/// Shared handle to the default disabled sink.
pub fn noop_sink() -> Arc<dyn TraceSink> {
    Arc::new(NoopSink)
}

/// Default [`MemorySink`] capacity: ~1M events (tens of MB at typical
/// detail widths) — far above any smoke run, low enough that a
/// long-running traced process cannot grow without bound.
pub const DEFAULT_MEMORY_SINK_CAP: usize = 1 << 20;

/// An in-memory sink collecting every event with a process-order sequence
/// number. Shareable across shard worker threads (emission is serialized
/// on a mutex; `seq` reflects arrival order).
///
/// Storage is **bounded**: once `cap` events are held, further emits are
/// counted in [`dropped`](Self::dropped) instead of stored, so a
/// long-running traced process keeps its earliest `cap` events and an
/// honest tally of what it shed rather than growing without limit.
#[derive(Debug)]
pub struct MemorySink {
    seq: AtomicU64,
    dropped: AtomicU64,
    cap: usize,
    events: Mutex<Vec<Event>>,
}

impl Default for MemorySink {
    fn default() -> Self {
        Self::bounded(DEFAULT_MEMORY_SINK_CAP)
    }
}

impl MemorySink {
    /// A fresh sink behind an [`Arc`] ready to hand to components, with
    /// the [`DEFAULT_MEMORY_SINK_CAP`] bound.
    pub fn shared() -> Arc<MemorySink> {
        Arc::new(MemorySink::default())
    }

    /// A sink storing at most `cap` events (min 1); later emits only
    /// bump the drop counter.
    pub fn bounded(cap: usize) -> MemorySink {
        MemorySink {
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            cap: cap.max(1),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Snapshot of all events recorded so far, in emit order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("sink poisoned").clone()
    }

    /// Events shed after the sink filled to its capacity. They still
    /// consumed sequence numbers, so `seq` gaps never appear — the
    /// stored stream simply ends early.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl TraceSink for MemorySink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, kind: EventKind, detail: &[(&'static str, u64)]) {
        let mut events = self.events.lock().expect("sink poisoned");
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if events.len() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(Event {
            seq,
            kind,
            detail: detail.to_vec(),
        });
    }
}

// ---- latency histograms --------------------------------------------------

/// Sub-bucket resolution: 2^5 = 32 sub-buckets per octave, ~3% worst-case
/// relative error — about two significant digits, HDR-style.
const SUB_BITS: usize = 5;
const SUBBUCKETS: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` nanosecond range.
const BUCKETS: usize = (64 - SUB_BITS) * SUBBUCKETS;

/// A log-bucketed latency histogram (nanoseconds), in-tree and
/// dependency-free. Values keep ~2 significant digits; quantiles return a
/// bucket-midpoint estimate clamped to the observed min/max.
///
/// [`merge`](Self::merge) adds counts pointwise — the same commuting `u64`
/// sums [`CostSnapshot::add`](crate::tracker::CostSnapshot::add) relies
/// on — so histograms recorded on different shard workers can be folded
/// together in any order and any grouping with an identical result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    min: u64,
    max: u64,
    sum: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    fn index_of(v: u64) -> usize {
        if v < SUBBUCKETS as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros() as usize;
        let shift = msb - SUB_BITS;
        let sub = (v >> shift) as usize - SUBBUCKETS;
        ((shift + 1) * SUBBUCKETS + sub).min(BUCKETS - 1)
    }

    /// Inclusive lower bound of bucket `i`.
    fn bucket_low(i: usize) -> u64 {
        let octave = i / SUBBUCKETS;
        let sub = i % SUBBUCKETS;
        if octave == 0 {
            sub as u64
        } else {
            ((SUBBUCKETS + sub) as u64) << (octave - 1)
        }
    }

    /// Midpoint representative of bucket `i`.
    fn bucket_mid(i: usize) -> u64 {
        let octave = i / SUBBUCKETS;
        if octave == 0 {
            // Width-1 buckets: the value is exact.
            Self::bucket_low(i)
        } else {
            let width = 1u64 << (octave - 1);
            Self::bucket_low(i) + width / 2
        }
    }

    /// Record one latency observation (nanoseconds).
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index_of(ns)] += 1;
        self.count += 1;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
        self.sum = self.sum.saturating_add(ns);
    }

    /// Fold another histogram into this one (pointwise count sums).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum observed value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum observed value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket-midpoint estimate
    /// clamped to the observed `[min, max]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Sum of all recorded values (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The non-empty buckets as `(inclusive_upper_bound, count)` pairs in
    /// ascending bound order — exactly what a Prometheus-style cumulative
    /// `_bucket{le=…}` exposition needs. The last representable bucket's
    /// bound is `u64::MAX`.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let upper = if i + 1 < BUCKETS {
                    Self::bucket_low(i + 1) - 1
                } else {
                    u64::MAX
                };
                (upper, c)
            })
            .collect()
    }

    /// One-line summary: `n=… p50=… p90=… p99=… p999=… max=…` (ns).
    pub fn summary(&self) -> String {
        format!(
            "n={} p50={} p90={} p99={} p999={} max={}",
            self.count,
            self.p50(),
            self.p90(),
            self.p99(),
            self.p999(),
            self.max()
        )
    }
}

/// Op latencies split by class: read-class ops (get / range) and
/// write-class ops (insert / update / delete). On its own it is the
/// observer a timed shard job runs under; a [`TraceCollector`] keeps one
/// for the whole run.
#[derive(Clone, Debug, Default)]
pub struct ClassLatency {
    pub read: LatencyHistogram,
    pub write: LatencyHistogram,
}

impl ClassLatency {
    /// Record one op's latency under its class.
    pub fn record(&mut self, is_read: bool, ns: u64) {
        if is_read {
            self.read.record(ns);
        } else {
            self.write.record(ns);
        }
    }

    /// Fold another pair in, class by class.
    pub fn merge(&mut self, other: &ClassLatency) {
        self.read.merge(&other.read);
        self.write.merge(&other.write);
    }

    /// Both classes in one histogram.
    pub fn overall(&self) -> LatencyHistogram {
        let mut merged = self.read.clone();
        merged.merge(&self.write);
        merged
    }
}

impl<M: AccessMethod + ?Sized> RunObserver<M> for ClassLatency {
    fn on_op(&mut self, op: Op, latency_ns: u64, _method: &M) -> bool {
        self.record(op.is_read(), latency_ns);
        false
    }
}

// ---- windowed trajectories -----------------------------------------------

/// One closed trajectory window: the cost delta accrued over `ops`
/// operations, the cumulative totals since the op phase began, and the
/// space amplification observed at the window boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct TrajectoryWindow {
    /// Zero-based window index.
    pub index: usize,
    /// Operations executed in this window (the last window may be short).
    pub ops: u64,
    /// Tracker delta over this window alone.
    pub delta: CostSnapshot,
    /// Tracker delta since the op phase began (cumulative curve).
    pub cumulative: CostSnapshot,
    /// MO at the window close.
    pub mo: f64,
}

impl TrajectoryWindow {
    /// Read amplification within this window (all traffic, whichever op
    /// class incurred it — the time-resolved view deliberately does not
    /// split classes, since a window is a slice of wall time, not of one
    /// class).
    pub fn ro(&self) -> f64 {
        self.delta.read_amplification()
    }

    /// Write amplification within this window.
    pub fn uo(&self) -> f64 {
        self.delta.write_amplification()
    }

    /// Cumulative read amplification up to this window's close.
    pub fn cumulative_ro(&self) -> f64 {
        self.cumulative.read_amplification()
    }

    /// Cumulative write amplification up to this window's close.
    pub fn cumulative_uo(&self) -> f64 {
        self.cumulative.write_amplification()
    }
}

/// Snapshots a [`CostTracker`] every `window` operations and records
/// per-window RO/UO/MO, cumulative curves, and per-op-class latency
/// histograms. Drive it through
/// [`run_stream_traced`](crate::runner::run_stream_traced): the collector
/// is a [`RunObserver`], and the window source the metered and autotuned
/// observers build on.
///
/// The collector is a pure observer: it reads the tracker and the
/// method's space profile but never charges either, so a traced run's
/// counted measurements are bit-identical to an untraced run's.
pub struct TraceCollector {
    window_ops: u64,
    sink: Arc<dyn TraceSink>,
    windows: Vec<TrajectoryWindow>,
    /// Tracker state at the open window's start.
    mark: CostSnapshot,
    /// Tracker state when the op phase began.
    origin: CostSnapshot,
    ops_in_window: u64,
    started: bool,
    /// Op latencies by class.
    pub latency: ClassLatency,
}

impl TraceCollector {
    /// A collector closing a window every `window` ops (min 1), emitting
    /// [`EventKind::Window`] events into `sink`.
    pub fn new(window: usize, sink: Arc<dyn TraceSink>) -> Self {
        TraceCollector {
            window_ops: window.max(1) as u64,
            sink,
            windows: Vec::new(),
            mark: CostSnapshot::default(),
            origin: CostSnapshot::default(),
            ops_in_window: 0,
            started: false,
            latency: ClassLatency::default(),
        }
    }

    /// Windows closed so far.
    pub fn windows(&self) -> &[TrajectoryWindow] {
        &self.windows
    }

    /// Consume the collector, returning its windows.
    pub fn into_windows(self) -> Vec<TrajectoryWindow> {
        self.windows
    }

    /// All-op latency distribution (read and write histograms merged).
    pub fn overall_latency(&self) -> LatencyHistogram {
        self.latency.overall()
    }

    /// Mark the start of the op phase. Must be called after the bulk load
    /// so the trajectory (like the aggregate report) excludes load traffic.
    /// Everything a previous run left behind is dropped, windows and
    /// latencies alike, so a reused collector describes one run only.
    pub fn begin(&mut self, tracker: &CostTracker) {
        let snap = tracker.snapshot();
        self.mark = snap;
        self.origin = snap;
        self.ops_in_window = 0;
        self.windows.clear();
        self.latency = ClassLatency::default();
        self.started = true;
    }

    fn close_window(&mut self, method: &dyn AccessMethod) {
        let snap = method.tracker().snapshot();
        let window = TrajectoryWindow {
            index: self.windows.len(),
            ops: self.ops_in_window,
            delta: snap.delta(&self.mark),
            cumulative: snap.delta(&self.origin),
            mo: method.space_profile().space_amplification(),
        };
        if self.sink.enabled() {
            self.sink.emit(
                EventKind::Window,
                &[
                    ("window", window.index as u64),
                    ("ops", window.ops),
                    ("read_bytes", window.delta.total_read_bytes()),
                    ("write_bytes", window.delta.total_write_bytes()),
                    ("logical_read_bytes", window.delta.logical_read_bytes),
                    ("logical_write_bytes", window.delta.logical_write_bytes),
                    ("page_reads", window.delta.page_reads),
                    ("page_writes", window.delta.page_writes),
                ],
            );
        }
        self.windows.push(window);
        self.mark = snap;
        self.ops_in_window = 0;
    }

    /// Sum of every window's delta — byte-exact equal to the op-phase
    /// aggregate when the collector observed the whole phase.
    pub fn windowed_sum(&self) -> CostSnapshot {
        self.windows
            .iter()
            .fold(CostSnapshot::default(), |acc, w| acc.add(&w.delta))
    }
}

/// The collector observing a run on its own: every op is clocked into the
/// latency histograms, windows close every `window` operations (the width
/// given to [`new`](TraceCollector::new)), and the report's
/// `p50_ns` / `p99_ns` are filled at the end.
impl<'m> RunObserver<dyn AccessMethod + 'm> for TraceCollector {
    fn on_begin(&mut self, _load: &CostSnapshot, tracker: &CostTracker) {
        self.begin(tracker);
    }

    fn on_op(&mut self, op: Op, latency_ns: u64, method: &(dyn AccessMethod + 'm)) -> bool {
        debug_assert!(self.started, "on_op before begin");
        self.latency.record(op.is_read(), latency_ns);
        self.ops_in_window += 1;
        let full = self.ops_in_window >= self.window_ops;
        if full {
            self.close_window(method);
        }
        full
    }

    /// Windows then close on batch boundaries, so a window may hold up to
    /// `batch - 1` ops more than `window_ops`: the windowed deltas still
    /// partition the op-phase traffic byte-exactly, only the widths
    /// quantize. The histograms are merged as-is: a range op contributes
    /// one observation per shard it fanned out to, so the read-class count
    /// may exceed the batch's read ops.
    fn on_batch(&mut self, ops: u64, latency: &ClassLatency, method: &(dyn AccessMethod + 'm)) {
        debug_assert!(self.started, "on_batch before begin");
        self.latency.merge(latency);
        self.ops_in_window += ops;
        if self.ops_in_window >= self.window_ops {
            self.close_window(method);
        }
    }

    /// Closes the trailing partial window (if any): every byte the tracker
    /// accrued since [`begin`](TraceCollector::begin) is then covered by
    /// exactly one window, so the window deltas sum byte-exactly to the
    /// op-phase totals.
    fn on_finish(&mut self, method: &(dyn AccessMethod + 'm), report: &mut RumReport) {
        if self.ops_in_window > 0 {
            self.close_window(method);
        }
        let overall = self.overall_latency();
        report.p50_ns = overall.p50();
        report.p99_ns = overall.p99();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_resets_latencies_with_the_windows() {
        let tracker = CostTracker::new();
        let mut trace = TraceCollector::new(4, noop_sink());
        trace.begin(&tracker);
        trace.latency.read.record(1_000_000);
        trace.latency.write.record(2_000_000);
        trace.begin(&tracker);
        assert_eq!(trace.overall_latency().count(), 0);
        trace.latency.read.record(10);
        assert_eq!(trace.overall_latency().max(), 10, "second run only");
    }

    #[test]
    fn bucket_indexing_is_monotone_and_continuous() {
        let mut last = 0usize;
        for v in 0..100_000u64 {
            let i = LatencyHistogram::index_of(v);
            assert!(i >= last, "index must be monotone at {v}");
            assert!(i - last <= 1, "index must not skip buckets at {v}");
            last = i;
            // The bucket must actually contain the value.
            assert!(LatencyHistogram::bucket_low(i) <= v);
        }
        // Extremes stay in range.
        assert!(LatencyHistogram::index_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_have_two_significant_digits() {
        let mut h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(12_345);
        }
        for p in [h.p50(), h.p90(), h.p99(), h.p999()] {
            let rel = (p as f64 - 12_345.0).abs() / 12_345.0;
            assert!(rel < 0.04, "quantile {p} too far from 12345");
        }
        assert_eq!(h.max(), 12_345, "max is exact");
        assert_eq!(h.min(), 12_345, "min is exact");
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn quantile_order_and_empty_behavior() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.sum(), 0);
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
        assert!(h.p99() <= h.p999());
        assert!(h.p999() <= h.max());
        let rel = (h.p50() as f64 - 5000.0).abs() / 5000.0;
        assert!(rel < 0.04, "p50 of uniform 1..10000 was {}", h.p50());
    }

    #[test]
    fn merge_matches_recording_everything_in_one_histogram() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in 0..500u64 {
            let v = v * v + 3;
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, whole);
        // Commutes.
        let mut other = b.clone();
        other.merge(&a);
        assert_eq!(other, whole);
    }

    #[test]
    fn events_render_as_jsonl_and_fold_by_component() {
        let sink = MemorySink::shared();
        sink.emit(EventKind::LsmFlush, &[("level", 0), ("bytes", 4096)]);
        sink.emit(EventKind::LsmCompaction, &[("level", 1), ("bytes", 100)]);
        sink.emit(EventKind::LsmCompaction, &[("level", 1), ("bytes", 28)]);
        sink.emit(EventKind::WalSync, &[("bytes", 25)]);
        sink.emit(EventKind::ShardDispatch, &[("ops", 7)]); // no bytes
        let events = sink.events();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[4].seq, 4);
        let jsonl = events_to_jsonl(&events);
        assert_eq!(jsonl.lines().count(), 5);
        assert_eq!(
            jsonl.lines().next(),
            Some("{\"seq\":0,\"kind\":\"lsm_flush\",\"level\":0,\"bytes\":4096}")
        );
        let folded = fold_events(&events);
        assert_eq!(
            folded,
            "rum;lsm;lsm_compaction;L1 128\nrum;lsm;lsm_flush;L0 4096\nrum;wal;wal_sync 25\n"
        );
    }

    #[test]
    fn every_kind_sits_at_its_own_index() {
        for (i, (kind, ..)) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
    }

    #[test]
    fn noop_sink_is_disabled() {
        assert!(!NoopSink.enabled());
        let sink = noop_sink();
        assert!(!sink.enabled());
        sink.emit(EventKind::Window, &[("window", 1)]); // must be inert
    }

    #[test]
    fn memory_sink_bounds_storage_and_counts_drops() {
        let sink = MemorySink::bounded(3);
        for i in 0..5 {
            sink.emit(EventKind::WalSync, &[("bytes", i)]);
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(sink.dropped(), 2);
        assert_eq!(events[2].seq, 2, "stored prefix keeps its seq numbers");
        assert_eq!(MemorySink::default().cap, DEFAULT_MEMORY_SINK_CAP);
        // A zero capacity is clamped up so the sink stays usable.
        assert_eq!(MemorySink::bounded(0).cap, 1);
    }

    #[test]
    fn byte_weight_covers_split_direction_events_and_counts_fold_everything() {
        let sink = MemorySink::shared();
        sink.emit(EventKind::RetryAttempt, &[("page", 1), ("bytes", 4096)]);
        sink.emit(
            EventKind::MigrationComplete,
            &[("bytes_read", 100), ("bytes_written", 50)],
        );
        sink.emit(EventKind::DriftDetected, &[("window", 2)]); // byte-free
        sink.emit(EventKind::TuneDecision, &[("window", 2)]);
        let events = sink.events();
        assert_eq!(events[0].byte_weight(), 4096);
        assert_eq!(events[1].byte_weight(), 150, "bytes_read + bytes_written");
        assert_eq!(events[2].byte_weight(), 0);
        let folded = fold_events(&events);
        assert_eq!(
            folded,
            "rum;autotune;migration_complete 150\nrum;fault;retry_attempt 4096\n"
        );
    }
}
