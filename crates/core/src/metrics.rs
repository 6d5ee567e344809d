//! The live metrics plane: a zero-dependency registry of counters,
//! gauges, and log-bucketed histograms, plus **causal debt attribution**
//! of background bytes to the foreground op class that incurred them.
//!
//! The trace layer ([`crate::trace`]) answers "what happened, in order";
//! an end-of-run [`RumReport`] answers "what
//! did the whole run cost". Neither answers the production question
//! *"which op class is paying for this compaction burst right now?"*
//! This module does, with three pieces:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and
//!   [`LatencyHistogram`]s behind one mutex; readers copy out a whole
//!   [`MetricsSnapshot`].
//! * [`DebtLedger`] — the RUM conjecture prices access methods in
//!   *amortized* overheads, but the tracker charges background work
//!   (compaction, flush, WAL sync, view rebuild, recovery, migration)
//!   to whichever op class happened to be running when it fired. The
//!   ledger re-attributes those bytes to the class that *causally*
//!   incurred them, and tracks deferred-write debt: logical write bytes
//!   accrue debt at insert/update time, and flush + compaction traffic
//!   settles it. Attribution is **conservative by construction**: every
//!   re-attribution moves bytes between classes in a zero-sum way, so
//!   the per-class attributed bytes always sum bit-equal to the tracker
//!   totals ([`DebtSnapshot::conserves`]).
//! * [`MetricsSink`] — a [`TraceSink`] that mirrors every emitted event
//!   into the registry (`rum_events_total{kind}`,
//!   `rum_event_bytes_total{component,kind}`) and feeds the ledger.
//!
//! Everything is opt-in: the compiled-in default sink everywhere remains
//! [`NoopSink`](crate::trace::NoopSink), and
//! [`run_stream_metered`](crate::runner::run_stream_metered) is a pure
//! observer of the tracker, so metrics-enabled runs are bit-identical in
//! RO/UO/MO to metrics-disabled runs (`tests/metrics_conservation.rs`
//! pins this for the whole standard suite).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::access::AccessMethod;
use crate::runner::{RumReport, RunObserver};
use crate::trace::{
    detail_byte_weight, detail_field, ClassLatency, EventKind, LatencyHistogram, TraceCollector,
    TraceSink,
};
use crate::tracker::{CostSnapshot, CostTracker};
use crate::workload::Op;

// ---- op classes ----------------------------------------------------------

/// The foreground operation class a cost is attributed to. `Load` is the
/// bulk-load phase; `Read` covers get/range; `Write` covers
/// insert/update/delete — the same split
/// [`RumReport`] uses for its per-class
/// [`CostSnapshot`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    Load,
    Read,
    Write,
}

impl OpClass {
    /// All classes, in ledger index order.
    pub const ALL: [OpClass; 3] = [OpClass::Load, OpClass::Read, OpClass::Write];

    /// Stable lowercase name used as the `class` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            OpClass::Load => "load",
            OpClass::Read => "read",
            OpClass::Write => "write",
        }
    }

    /// The op class of a stream operation given its read/write split.
    pub fn of_read(is_read: bool) -> OpClass {
        if is_read {
            OpClass::Read
        } else {
            OpClass::Write
        }
    }

    fn index(self) -> usize {
        match self {
            OpClass::Load => 0,
            OpClass::Read => 1,
            OpClass::Write => 2,
        }
    }
}

// ---- the registry --------------------------------------------------------

/// A fully-qualified metric identity: name plus sorted label pairs.
/// Sorting at construction makes label order irrelevant to identity,
/// mirroring Prometheus semantics.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    pub name: String,
    /// Label pairs sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// A key with the given name and labels (labels are sorted).
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// A point-in-time copy of a registry's contents.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<MetricKey, u64>,
    pub gauges: BTreeMap<MetricKey, f64>,
    pub histograms: BTreeMap<MetricKey, LatencyHistogram>,
}

impl MetricsSnapshot {
    /// The counter's value (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(&MetricKey::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// The gauge's value, if set.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&MetricKey::new(name, labels)).copied()
    }

    /// The histogram, if set.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&LatencyHistogram> {
        self.histograms.get(&MetricKey::new(name, labels))
    }
}

/// A thread-safe registry of named counters, gauges, and histograms.
/// All mutation goes through one mutex; readers take a full
/// [`MetricsSnapshot`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<MetricsSnapshot>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// A fresh registry behind an [`Arc`].
    pub fn shared() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::new())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsSnapshot> {
        self.inner.lock().expect("metrics registry poisoned")
    }

    /// Add `v` to the named counter (created at 0 on first touch).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        *self
            .lock()
            .counters
            .entry(MetricKey::new(name, labels))
            .or_insert(0) += v;
    }

    /// Set the named gauge to `v` (last write wins).
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.lock().gauges.insert(MetricKey::new(name, labels), v);
    }

    /// Set the named histogram to a copy of `h` (last write wins).
    pub fn histogram_set(&self, name: &str, labels: &[(&str, &str)], h: &LatencyHistogram) {
        self.lock()
            .histograms
            .insert(MetricKey::new(name, labels), h.clone());
    }

    /// Copy out the full registry contents.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.lock().clone()
    }

    /// The counter's current value (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.lock().counter(name, labels)
    }

    /// The gauge's current value, if set.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.lock().gauge(name, labels)
    }
}

// ---- the debt ledger ------------------------------------------------------

/// Attribution state for one op class: the raw tracker deltas charged to
/// it plus the signed byte moves from causal re-attribution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClassAttribution {
    /// Tracker deltas settled while this class was running — exactly the
    /// per-class split [`RumReport`] reports.
    pub charged: CostSnapshot,
    /// Net physical read bytes moved into (positive) or out of
    /// (negative) this class by causal re-attribution. Signed so a move
    /// can never silently clamp: conservation stays exact even if a
    /// class is debited more than it was charged.
    pub moved_read_bytes: i128,
    /// Net physical write bytes moved by causal re-attribution.
    pub moved_write_bytes: i128,
}

impl ClassAttribution {
    /// Physical read bytes causally attributed to this class.
    pub fn attributed_read_bytes(&self) -> i128 {
        self.charged.total_read_bytes() as i128 + self.moved_read_bytes
    }

    /// Physical write bytes causally attributed to this class.
    pub fn attributed_write_bytes(&self) -> i128 {
        self.charged.total_write_bytes() as i128 + self.moved_write_bytes
    }

    /// Amortized per-class read overhead: attributed physical read bytes
    /// over the class's logical read bytes (paper Table 1 RO, but
    /// causally attributed). Degenerate cases follow
    /// [`CostSnapshot::read_amplification`]: 0/0 is 1, x/0 is +inf.
    pub fn ro(&self) -> f64 {
        amortized(
            self.attributed_read_bytes(),
            self.charged.logical_read_bytes,
        )
    }

    /// Amortized per-class update overhead: attributed physical write
    /// bytes over the class's logical write bytes.
    pub fn uo(&self) -> f64 {
        amortized(
            self.attributed_write_bytes(),
            self.charged.logical_write_bytes,
        )
    }
}

fn amortized(attributed: i128, logical: u64) -> f64 {
    match (attributed, logical) {
        (0, 0) => 1.0,
        (_, 0) => f64::INFINITY,
        (n, d) => n as f64 / d as f64,
    }
}

/// A point-in-time copy of the [`DebtLedger`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DebtSnapshot {
    /// Attribution per class, indexed like [`OpClass::ALL`].
    pub classes: [ClassAttribution; 3],
    /// Logical write bytes that have accrued deferred-write debt
    /// (charged at insert/update/delete time).
    pub debt_accrued_bytes: u64,
    /// Background write bytes that settled deferred-write debt (flush and
    /// compaction traffic).
    pub debt_settled_bytes: u64,
    /// Physical read bytes moved between classes by re-attribution.
    pub reattributed_read_bytes: u64,
    /// Physical write bytes moved between classes by re-attribution.
    pub reattributed_write_bytes: u64,
}

impl DebtSnapshot {
    /// Attribution state for one class.
    pub fn class(&self, class: OpClass) -> &ClassAttribution {
        &self.classes[class.index()]
    }

    /// Deferred-write debt not yet settled by flush/compaction: logical
    /// bytes buffered somewhere (memtable, WAL tail) whose amortized
    /// write cost has not been paid yet.
    pub fn debt_outstanding_bytes(&self) -> u64 {
        self.debt_accrued_bytes
            .saturating_sub(self.debt_settled_bytes)
    }

    /// Sum of per-class attributed read bytes. Re-attribution is
    /// zero-sum, so this equals the sum of charged tracker deltas.
    pub fn attributed_read_total(&self) -> i128 {
        self.classes.iter().map(|c| c.attributed_read_bytes()).sum()
    }

    /// Sum of per-class attributed write bytes.
    pub fn attributed_write_total(&self) -> i128 {
        self.classes
            .iter()
            .map(|c| c.attributed_write_bytes())
            .sum()
    }

    /// The conservation invariant: per-class attributed physical and
    /// logical bytes sum **bit-equal** to the tracker totals. Holds
    /// whenever every tracker delta was charged to exactly one class,
    /// because re-attribution only ever moves bytes zero-sum.
    pub fn conserves(&self, totals: &CostSnapshot) -> bool {
        let charged_logical_read: u64 = self
            .classes
            .iter()
            .map(|c| c.charged.logical_read_bytes)
            .sum();
        let charged_logical_write: u64 = self
            .classes
            .iter()
            .map(|c| c.charged.logical_write_bytes)
            .sum();
        self.attributed_read_total() == totals.total_read_bytes() as i128
            && self.attributed_write_total() == totals.total_write_bytes() as i128
            && charged_logical_read == totals.logical_read_bytes
            && charged_logical_write == totals.logical_write_bytes
    }
}

/// Charges every background byte back to the foreground op class that
/// causally incurred it.
///
/// The runner tells the ledger which class is executing
/// ([`begin_class`](Self::begin_class)) and hands it every settled
/// tracker delta ([`charge`](Self::charge)); the [`MetricsSink`] feeds
/// it every trace event ([`on_event`](Self::on_event)). Background
/// events whose detail carries physical bytes are re-attributed from the
/// class that was running when they fired to the class that owes them:
///
/// | event | debtor | bytes moved |
/// |---|---|---|
/// | `lsm_flush`, `lsm_compaction` | Write | `bytes` written, `read_bytes` read (settles deferred-write debt) |
/// | `wal_sync`, `wal_checkpoint` | Write | `bytes` written |
/// | `lsm_view_build` | Write | `bytes + read_bytes` (the refresh the writes made necessary) |
/// | `buffer_eviction` | Write | `bytes` written back |
/// | `wal_recovery` | Write | `bytes` written, `read_bytes` read (replaying writes) |
/// | `migration_complete` | Write | `bytes_written`, `bytes_read` |
///
/// During the load phase the debtor is `Load` — background work a bulk
/// load triggers is the load's own bill. Retry and fault events stay
/// with the running class (a fault on a read path really is read cost),
/// and `repair_complete` carries no bytes (the recovery I/O inside it is
/// already billed by its `wal_recovery` event).
///
/// All moves are zero-sum between classes, so conservation
/// ([`DebtSnapshot::conserves`]) is exact by construction.
#[derive(Debug, Default)]
pub struct DebtLedger {
    /// The running class's [`OpClass::ALL`] index, and the attribution.
    inner: Mutex<(usize, DebtSnapshot)>,
}

impl DebtLedger {
    pub fn new() -> DebtLedger {
        DebtLedger::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (usize, DebtSnapshot)> {
        self.inner.lock().expect("debt ledger poisoned")
    }

    /// Declare the op class now executing; events that fire until the
    /// next `begin_class` are re-attributed relative to it.
    pub fn begin_class(&self, class: OpClass) {
        self.lock().0 = class.index();
    }

    /// Fold a settled tracker delta into `class`. Write-class logical
    /// bytes accrue deferred-write debt.
    pub fn charge(&self, class: OpClass, delta: &CostSnapshot) {
        let s = &mut self.lock().1;
        let slot = &mut s.classes[class.index()];
        slot.charged = slot.charged.add(delta);
        if class == OpClass::Write {
            s.debt_accrued_bytes += delta.logical_write_bytes;
        }
    }

    /// Observe one trace event; background byte-moving kinds are
    /// re-attributed to their debtor class.
    pub fn on_event(&self, kind: EventKind, detail: &[(&'static str, u64)]) {
        let (write_bytes, read_bytes, settles_debt) = match kind {
            EventKind::LsmFlush | EventKind::LsmCompaction => (
                detail_field(detail, "bytes").unwrap_or(0),
                detail_field(detail, "read_bytes").unwrap_or(0),
                true,
            ),
            EventKind::WalSync | EventKind::WalCheckpoint => {
                (detail_field(detail, "bytes").unwrap_or(0), 0, false)
            }
            EventKind::LsmViewBuild => (
                // The tracker charges what the refresh consumed (run scan
                // and old anchors) and the anchors it wrote together as
                // auxiliary writes; move the same amount.
                detail_field(detail, "bytes").unwrap_or(0)
                    + detail_field(detail, "read_bytes").unwrap_or(0),
                0,
                false,
            ),
            EventKind::WalRecovery => (
                detail_field(detail, "bytes").unwrap_or(0),
                detail_field(detail, "read_bytes").unwrap_or(0),
                false,
            ),
            EventKind::MigrationComplete => (
                detail_field(detail, "bytes_written").unwrap_or(0),
                detail_field(detail, "bytes_read").unwrap_or(0),
                false,
            ),
            _ => return,
        };
        let (from, s) = &mut *self.lock();
        let from = *from;
        if settles_debt {
            s.debt_settled_bytes += write_bytes;
        }
        let to = if from == OpClass::Load.index() {
            OpClass::Load.index()
        } else {
            OpClass::Write.index()
        };
        if from == to || (write_bytes == 0 && read_bytes == 0) {
            return;
        }
        s.classes[from].moved_write_bytes -= write_bytes as i128;
        s.classes[to].moved_write_bytes += write_bytes as i128;
        s.classes[from].moved_read_bytes -= read_bytes as i128;
        s.classes[to].moved_read_bytes += read_bytes as i128;
        s.reattributed_write_bytes += write_bytes;
        s.reattributed_read_bytes += read_bytes;
    }

    /// Copy out the ledger.
    pub fn snapshot(&self) -> DebtSnapshot {
        self.lock().1.clone()
    }

    /// Reset all attribution state (the current class reverts to Load).
    pub fn reset(&self) {
        *self.lock() = Default::default();
    }
}

// ---- the sink -------------------------------------------------------------

/// A [`TraceSink`] mirroring every event into a [`MetricsRegistry`] and a
/// [`DebtLedger`]. Install it via [`MetricsPlane::sink`].
pub struct MetricsSink {
    registry: Arc<MetricsRegistry>,
    ledger: Arc<DebtLedger>,
}

impl TraceSink for MetricsSink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, kind: EventKind, detail: &[(&'static str, u64)]) {
        self.registry
            .counter_add("rum_events_total", &[("kind", kind.as_str())], 1);
        let weight = detail_byte_weight(detail);
        if weight > 0 {
            self.registry.counter_add(
                "rum_event_bytes_total",
                &[("component", kind.component()), ("kind", kind.as_str())],
                weight,
            );
        }
        self.ledger.on_event(kind, detail);
    }
}

// ---- the plane ------------------------------------------------------------

/// One registry + one ledger, bundled with the gauge-publication logic:
/// the object a metered run and an exporter share.
///
/// Gauge families published by [`refresh_live`](Self::refresh_live) /
/// [`publish_final`](Self::publish_final):
///
/// * `rum_class_read_amplification{class}` / `rum_class_write_amplification{class}`
///   — live per-op-class amortized RO/UO (causally attributed; non-finite
///   values are clamped to 0 so the text exposition stays parseable).
/// * `rum_class_attributed_read_bytes{class}` / `..._write_bytes{class}`
///   and `rum_class_logical_read_bytes{class}` / `..._write_bytes{class}`.
/// * `rum_debt_accrued_bytes` / `rum_debt_settled_bytes` /
///   `rum_debt_outstanding_bytes` — the deferred-write debt balance.
/// * `rum_reattributed_read_bytes` / `rum_reattributed_write_bytes`.
/// * `rum_space_amplification` (MO) and `rum_live_records`.
/// * `rum_op_latency_ns{class}` — the run's op latency histogram, and
///   `rum_op_latency_p50_ns{class}` / `rum_op_latency_p99_ns{class}` from
///   it; a class with no ops yet publishes none of the three.
/// * `publish_final` additionally sets `rum_tracker_*_bytes` totals and
///   `rum_conservation_ok` (1 when [`DebtSnapshot::conserves`] holds).
pub struct MetricsPlane {
    registry: Arc<MetricsRegistry>,
    ledger: Arc<DebtLedger>,
}

impl Default for MetricsPlane {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsPlane {
    pub fn new() -> MetricsPlane {
        MetricsPlane {
            registry: MetricsRegistry::shared(),
            ledger: Arc::new(DebtLedger::new()),
        }
    }

    /// A fresh plane behind an [`Arc`], ready to share with an exporter.
    pub fn shared() -> Arc<MetricsPlane> {
        Arc::new(MetricsPlane::new())
    }

    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    pub fn ledger(&self) -> &Arc<DebtLedger> {
        &self.ledger
    }

    /// A sink mirroring events into this plane.
    pub fn sink(&self) -> Arc<MetricsSink> {
        Arc::new(MetricsSink {
            registry: Arc::clone(&self.registry),
            ledger: Arc::clone(&self.ledger),
        })
    }

    /// Publish the live gauge set from the current ledger state and the
    /// run's op latencies so far. Called by the metered runner at every
    /// trajectory-window close.
    pub fn refresh_live(&self, latency: &ClassLatency, mo: f64, live_records: u64) {
        let debt = self.ledger.snapshot();
        for class in OpClass::ALL {
            let a = debt.class(class);
            let labels = [("class", class.as_str())];
            self.registry.gauge_set(
                "rum_class_read_amplification",
                &labels,
                finite_or_zero(a.ro()),
            );
            self.registry.gauge_set(
                "rum_class_write_amplification",
                &labels,
                finite_or_zero(a.uo()),
            );
            self.registry.gauge_set(
                "rum_class_attributed_read_bytes",
                &labels,
                a.attributed_read_bytes() as f64,
            );
            self.registry.gauge_set(
                "rum_class_attributed_write_bytes",
                &labels,
                a.attributed_write_bytes() as f64,
            );
            self.registry.gauge_set(
                "rum_class_logical_read_bytes",
                &labels,
                a.charged.logical_read_bytes as f64,
            );
            self.registry.gauge_set(
                "rum_class_logical_write_bytes",
                &labels,
                a.charged.logical_write_bytes as f64,
            );
        }
        self.registry.gauge_set(
            "rum_debt_accrued_bytes",
            &[],
            debt.debt_accrued_bytes as f64,
        );
        self.registry.gauge_set(
            "rum_debt_settled_bytes",
            &[],
            debt.debt_settled_bytes as f64,
        );
        self.registry.gauge_set(
            "rum_debt_outstanding_bytes",
            &[],
            debt.debt_outstanding_bytes() as f64,
        );
        self.registry.gauge_set(
            "rum_reattributed_read_bytes",
            &[],
            debt.reattributed_read_bytes as f64,
        );
        self.registry.gauge_set(
            "rum_reattributed_write_bytes",
            &[],
            debt.reattributed_write_bytes as f64,
        );
        self.registry
            .gauge_set("rum_space_amplification", &[], finite_or_zero(mo));
        self.registry
            .gauge_set("rum_live_records", &[], live_records as f64);
        for (class, h) in [("read", &latency.read), ("write", &latency.write)] {
            if h.count() == 0 {
                continue;
            }
            let labels = [("class", class)];
            self.registry.histogram_set("rum_op_latency_ns", &labels, h);
            self.registry
                .gauge_set("rum_op_latency_p50_ns", &labels, h.p50() as f64);
            self.registry
                .gauge_set("rum_op_latency_p99_ns", &labels, h.p99() as f64);
        }
    }

    /// [`refresh_live`](Self::refresh_live) plus the end-of-run truth:
    /// tracker byte totals and the conservation verdict against them.
    pub fn publish_final(
        &self,
        totals: &CostSnapshot,
        latency: &ClassLatency,
        mo: f64,
        live_records: u64,
    ) {
        self.refresh_live(latency, mo, live_records);
        self.registry.gauge_set(
            "rum_tracker_read_bytes",
            &[],
            totals.total_read_bytes() as f64,
        );
        self.registry.gauge_set(
            "rum_tracker_write_bytes",
            &[],
            totals.total_write_bytes() as f64,
        );
        self.registry.gauge_set(
            "rum_tracker_logical_read_bytes",
            &[],
            totals.logical_read_bytes as f64,
        );
        self.registry.gauge_set(
            "rum_tracker_logical_write_bytes",
            &[],
            totals.logical_write_bytes as f64,
        );
        let ok = self.ledger.snapshot().conserves(totals);
        self.registry
            .gauge_set("rum_conservation_ok", &[], if ok { 1.0 } else { 0.0 });
    }
}

/// A collector and a plane observing one run together
/// ([`run_stream_metered`](crate::runner::run_stream_metered)): the ledger
/// is charged every delta at the settle points the report is assembled
/// from, and the collector's latencies and the live gauges are
/// republished whenever the collector closes a window.
pub(crate) struct Metered<'a> {
    pub(crate) trace: &'a mut TraceCollector,
    pub(crate) plane: &'a MetricsPlane,
}

impl<'m> RunObserver<dyn AccessMethod + 'm> for Metered<'_> {
    fn on_begin(&mut self, load: &CostSnapshot, tracker: &CostTracker) {
        self.plane.ledger().charge(OpClass::Load, load);
        self.trace.begin(tracker);
    }

    fn on_settle(&mut self, settled: Option<bool>, delta: &CostSnapshot, next: Option<bool>) {
        let ledger = self.plane.ledger();
        if let Some(is_read) = settled {
            ledger.charge(OpClass::of_read(is_read), delta);
        }
        if let Some(is_read) = next {
            ledger.begin_class(OpClass::of_read(is_read));
        }
    }

    fn on_op(&mut self, op: Op, latency_ns: u64, method: &(dyn AccessMethod + 'm)) -> bool {
        self.trace.on_op(op, latency_ns, method)
    }

    fn on_window(&mut self, method: &mut (dyn AccessMethod + 'm)) -> bool {
        self.plane.refresh_live(
            &self.trace.latency,
            method.space_profile().space_amplification(),
            method.len() as u64,
        );
        false
    }

    fn on_finish(&mut self, method: &(dyn AccessMethod + 'm), report: &mut RumReport) {
        self.trace.on_finish(method, report);
        self.plane.publish_final(
            &method.tracker().snapshot(),
            &self.trace.latency,
            method.space_profile().space_amplification(),
            method.len() as u64,
        );
    }
}

fn finite_or_zero(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counters_gauges_histograms_roundtrip() {
        let r = MetricsRegistry::new();
        r.counter_add("c", &[("k", "a")], 2);
        r.counter_add("c", &[("k", "a")], 3);
        r.counter_add("c", &[("k", "b")], 7);
        r.gauge_set("g", &[], 1.5);
        r.gauge_set("g", &[], 2.5); // last write wins
        let mut h = LatencyHistogram::new();
        h.record(100);
        h.record(300);
        r.histogram_set("h", &[], &h);
        assert_eq!(r.counter("c", &[("k", "a")]), 5);
        assert_eq!(r.counter("c", &[("k", "b")]), 7);
        assert_eq!(r.counter("c", &[("k", "missing")]), 0);
        assert_eq!(r.gauge("g", &[]), Some(2.5));
        let snap = r.snapshot();
        assert_eq!(snap.histogram("h", &[]).unwrap().count(), 2);
    }

    #[test]
    fn label_order_does_not_change_identity() {
        let r = MetricsRegistry::new();
        r.counter_add("c", &[("a", "1"), ("b", "2")], 1);
        r.counter_add("c", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.counter("c", &[("a", "1"), ("b", "2")]), 2);
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn ledger_moves_are_zero_sum_and_conserve() {
        let ledger = DebtLedger::new();
        let read_delta = CostSnapshot {
            base_read_bytes: 10_000,
            logical_read_bytes: 1_000,
            ..Default::default()
        };
        ledger.begin_class(OpClass::Read);
        ledger.charge(OpClass::Read, &read_delta);
        // A view rebuild fires during the read span: its bytes move to
        // the write class, which made the rebuild necessary.
        ledger.on_event(
            EventKind::LsmViewBuild,
            &[("entries", 10), ("bytes", 4_000), ("read_bytes", 2_000)],
        );
        let write_delta = CostSnapshot {
            base_write_bytes: 8_000,
            logical_write_bytes: 500,
            ..Default::default()
        };
        ledger.charge(OpClass::Write, &write_delta);

        let snap = ledger.snapshot();
        let mut totals = read_delta.add(&write_delta);
        assert!(snap.conserves(&totals));
        assert_eq!(snap.reattributed_write_bytes, 6_000);
        assert_eq!(snap.class(OpClass::Read).attributed_write_bytes(), -6_000);
        assert_eq!(
            snap.class(OpClass::Write).attributed_write_bytes(),
            8_000 + 6_000
        );
        // Conservation is a real check: a byte the ledger never saw breaks it.
        totals.base_read_bytes += 1;
        assert!(!snap.conserves(&totals));
    }

    #[test]
    fn deferred_write_debt_accrues_and_settles() {
        let ledger = DebtLedger::new();
        ledger.begin_class(OpClass::Write);
        let d = CostSnapshot {
            logical_write_bytes: 4_096,
            ..Default::default()
        };
        ledger.charge(OpClass::Write, &d);
        assert_eq!(ledger.snapshot().debt_outstanding_bytes(), 4_096);
        ledger.on_event(EventKind::LsmFlush, &[("level", 0), ("bytes", 3_000)]);
        let snap = ledger.snapshot();
        assert_eq!(snap.debt_settled_bytes, 3_000);
        assert_eq!(snap.debt_outstanding_bytes(), 1_096);
        // Flush during its own write span moves nothing between classes.
        assert_eq!(snap.reattributed_write_bytes, 0);
    }

    #[test]
    fn load_phase_background_work_stays_with_load() {
        let ledger = DebtLedger::new();
        ledger.begin_class(OpClass::Load);
        ledger.on_event(EventKind::LsmFlush, &[("bytes", 9_000)]);
        let snap = ledger.snapshot();
        assert_eq!(snap.reattributed_write_bytes, 0);
        assert_eq!(snap.class(OpClass::Load).moved_write_bytes, 0);
    }

    #[test]
    fn metrics_sink_mirrors_events_and_forwards() {
        let plane = MetricsPlane::new();
        let sink = plane.sink();
        sink.emit(EventKind::LsmFlush, &[("level", 0), ("bytes", 4_096)]);
        sink.emit(EventKind::RetryAttempt, &[("page", 3), ("attempt", 1)]);
        assert_eq!(
            plane
                .registry()
                .counter("rum_events_total", &[("kind", "lsm_flush")]),
            1
        );
        assert_eq!(
            plane
                .registry()
                .counter("rum_events_total", &[("kind", "retry_attempt")]),
            1
        );
        assert_eq!(
            plane.registry().counter(
                "rum_event_bytes_total",
                &[("component", "lsm"), ("kind", "lsm_flush")]
            ),
            4_096
        );
    }

    #[test]
    fn plane_publishes_gauges_and_conservation() {
        let plane = MetricsPlane::new();
        plane.ledger().begin_class(OpClass::Read);
        let d = CostSnapshot {
            base_read_bytes: 2_048,
            logical_read_bytes: 1_024,
            ..Default::default()
        };
        plane.ledger().charge(OpClass::Read, &d);
        let mut latency = ClassLatency::default();
        latency.record(true, 500);
        plane.publish_final(&d, &latency, 1.25, 42);
        let r = plane.registry();
        assert_eq!(
            r.gauge("rum_class_read_amplification", &[("class", "read")]),
            Some(2.0)
        );
        assert_eq!(r.gauge("rum_conservation_ok", &[]), Some(1.0));
        assert_eq!(r.gauge("rum_space_amplification", &[]), Some(1.25));
        assert_eq!(r.gauge("rum_live_records", &[]), Some(42.0));
        assert_eq!(
            r.gauge("rum_op_latency_p50_ns", &[("class", "read")]),
            Some(500.0)
        );
        // A class with no ops publishes no latency series.
        assert_eq!(
            r.gauge("rum_op_latency_p50_ns", &[("class", "write")]),
            None
        );
    }
}
