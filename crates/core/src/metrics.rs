//! The live metrics plane: **causal debt attribution** of background
//! bytes to the foreground op class that incurred them, plus what a
//! metered run publishes for an exporter to render.
//!
//! The trace layer ([`crate::trace`]) answers "what happened, in order";
//! an end-of-run [`RumReport`] answers "what
//! did the whole run cost". Neither answers the production question
//! *"which op class is paying for this compaction burst right now?"*
//! This module does, with two stores and no third:
//!
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
//!   totals ([`DebtSnapshot::conserves`]). The ledger is also the
//!   plane's [`TraceSink`]: it counts every event and its byte weight
//!   per [`EventKind`].
//! * [`MetricsPlane`] — the ledger plus [`Published`], the one record of
//!   what only the runner sees (the collector's latencies, MO, live
//!   records, the final tracker totals), swapped at every window close.
//!
//! An exporter (`rum-obs`) renders both at scrape time; nothing is copied
//! into a string-keyed registry.
//!
//! Everything is opt-in: the compiled-in default sink everywhere remains
//! [`NoopSink`](crate::trace::NoopSink), and
//! [`run_stream_metered`](crate::runner::run_stream_metered) is a pure
//! observer of the tracker, so metrics-enabled runs are bit-identical in
//! RO/UO/MO to metrics-disabled runs (`tests/metrics_conservation.rs`
//! pins this for the whole standard suite).

use std::sync::{Arc, Mutex, MutexGuard};

use crate::access::AccessMethod;
use crate::runner::{RumReport, RunObserver};
use crate::trace::{
    detail_byte_weight, detail_field, ClassLatency, EventKind, TraceCollector, TraceSink,
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
    /// Events observed, indexed by `kind as usize` ([`EventKind::ALL`]).
    pub events: [u64; EventKind::ALL.len()],
    /// The events' byte weight ([`detail_byte_weight`]), indexed alike.
    pub event_bytes: [u64; EventKind::ALL.len()],
}

impl DebtSnapshot {
    /// Attribution state for one class.
    pub fn class(&self, class: OpClass) -> &ClassAttribution {
        &self.classes[class as usize]
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
/// tracker delta ([`charge`](Self::charge)); as a [`TraceSink`] it sees
/// every trace event ([`on_event`](Self::on_event)) and counts it. Background
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

    fn lock(&self) -> MutexGuard<'_, (usize, DebtSnapshot)> {
        self.inner.lock().expect("debt ledger poisoned")
    }

    /// Declare the op class now executing; events that fire until the
    /// next `begin_class` are re-attributed relative to it.
    pub fn begin_class(&self, class: OpClass) {
        self.lock().0 = class as usize;
    }

    /// Fold a settled tracker delta into `class`. Write-class logical
    /// bytes accrue deferred-write debt.
    pub fn charge(&self, class: OpClass, delta: &CostSnapshot) {
        let s = &mut self.lock().1;
        let slot = &mut s.classes[class as usize];
        slot.charged = slot.charged.add(delta);
        if class == OpClass::Write {
            s.debt_accrued_bytes += delta.logical_write_bytes;
        }
    }

    /// Observe one trace event: count it and its byte weight, and
    /// re-attribute a background byte-moving kind to its debtor class.
    pub fn on_event(&self, kind: EventKind, detail: &[(&'static str, u64)]) {
        let (from, s) = &mut *self.lock();
        s.events[kind as usize] += 1;
        s.event_bytes[kind as usize] += detail_byte_weight(detail);
        let field = |name| detail_field(detail, name).unwrap_or(0);
        let (write_bytes, read_bytes, settles_debt) = match kind {
            EventKind::LsmFlush | EventKind::LsmCompaction => {
                (field("bytes"), field("read_bytes"), true)
            }
            EventKind::WalSync | EventKind::WalCheckpoint => (field("bytes"), 0, false),
            // The tracker charges what the refresh consumed (run scan and
            // old anchors) and the anchors it wrote together as auxiliary
            // writes; move the same amount.
            EventKind::LsmViewBuild => (field("bytes") + field("read_bytes"), 0, false),
            EventKind::WalRecovery => (field("bytes"), field("read_bytes"), false),
            EventKind::MigrationComplete => (field("bytes_written"), field("bytes_read"), false),
            _ => return,
        };
        let from = *from;
        if settles_debt {
            s.debt_settled_bytes += write_bytes;
        }
        let to = if from == OpClass::Load as usize {
            OpClass::Load as usize
        } else {
            OpClass::Write as usize
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
}

/// The ledger is the plane's sink ([`MetricsPlane::sink`]).
impl TraceSink for DebtLedger {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, kind: EventKind, detail: &[(&'static str, u64)]) {
        self.on_event(kind, detail);
    }
}

// ---- the plane ------------------------------------------------------------

/// What a metered run publishes beside the ledger: the facts only the
/// runner sees, as of the last trajectory-window close.
#[derive(Clone, Debug, Default)]
pub struct Published {
    /// The collector's per-class op latencies.
    pub latency: ClassLatency,
    /// Space amplification (MO) of the method.
    pub mo: f64,
    /// The method's live records.
    pub live_records: u64,
    /// The method's tracker totals, once the run has finished.
    pub totals: Option<CostSnapshot>,
}

/// One ledger + one [`Published`] record: the object a metered run and an
/// exporter share. The exporter renders both as they stand when it is
/// scraped (`rum_obs::render_prometheus`), so the ledger's series are
/// live and the published ones lag by at most one window.
#[derive(Default)]
pub struct MetricsPlane {
    ledger: Arc<DebtLedger>,
    published: Mutex<Option<Published>>,
}

impl MetricsPlane {
    pub fn new() -> MetricsPlane {
        MetricsPlane::default()
    }

    pub fn ledger(&self) -> &Arc<DebtLedger> {
        &self.ledger
    }

    /// The sink feeding this plane: its ledger.
    pub fn sink(&self) -> Arc<DebtLedger> {
        Arc::clone(&self.ledger)
    }

    fn slot(&self) -> MutexGuard<'_, Option<Published>> {
        self.published.lock().expect("metrics plane poisoned")
    }

    /// The record of the last window close (or of the finish), `None`
    /// before the first.
    pub fn published(&self) -> Option<Published> {
        self.slot().clone()
    }

    /// Swap in a new record; a metered run does at every window close and
    /// at the finish.
    pub fn publish(&self, record: Published) {
        *self.slot() = Some(record);
    }
}

impl Published {
    /// The record of `method` and the collector's `latency` now; with the
    /// tracker totals once `finished`.
    fn of(latency: &ClassLatency, method: &dyn AccessMethod, finished: bool) -> Published {
        Published {
            latency: latency.clone(),
            mo: method.space_profile().space_amplification(),
            live_records: method.len() as u64,
            totals: finished.then(|| method.tracker().snapshot()),
        }
    }
}

/// A collector and a plane observing one run together
/// ([`run_stream_metered`](crate::runner::run_stream_metered)): the ledger
/// is charged every delta at the settle points the report is assembled
/// from, and the plane's [`Published`] record is swapped whenever the
/// collector closes a window, and once more at the finish.
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
        let record = Published::of(&self.trace.latency, method, false);
        self.plane.publish(record);
        false
    }

    fn on_finish(&mut self, method: &(dyn AccessMethod + 'm), report: &mut RumReport) {
        self.trace.on_finish(method, report);
        let record = Published::of(&self.trace.latency, method, true);
        self.plane.publish(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The plane's sink is its ledger: every event is counted with its
    /// byte weight, and a byte-moving one is forwarded to attribution.
    #[test]
    fn metrics_sink_mirrors_events_and_forwards() {
        let plane = MetricsPlane::new();
        plane.ledger().begin_class(OpClass::Read);
        let sink = plane.sink();
        sink.emit(EventKind::LsmFlush, &[("level", 0), ("bytes", 4_096)]);
        sink.emit(EventKind::RetryAttempt, &[("page", 3), ("attempt", 1)]);
        let snap = plane.ledger().snapshot();
        assert_eq!(snap.events[EventKind::LsmFlush as usize], 1);
        assert_eq!(snap.events[EventKind::RetryAttempt as usize], 1);
        assert_eq!(snap.event_bytes[EventKind::LsmFlush as usize], 4_096);
        assert_eq!(snap.event_bytes[EventKind::RetryAttempt as usize], 0);
        assert_eq!(snap.events.iter().sum::<u64>(), 2);
        assert_eq!(snap.reattributed_write_bytes, 4_096, "read span → writers");
        assert!(plane.published().is_none(), "the sink publishes nothing");
    }

    /// A metered run swaps the plane's record at window closes and at the
    /// finish, which adds the tracker totals the ledger conserves against:
    /// the exporter renders its gauges from that record and the ledger.
    #[test]
    fn plane_publishes_gauges_and_conservation() {
        use crate::runner::{run_stream_metered, tests::Amp2};
        use crate::types::Record;
        use crate::workload::Workload;
        let plane = MetricsPlane::new();
        let mut m = Amp2::new();
        let mut trace = TraceCollector::new(4, plane.sink());
        let ops = [
            Op::Get(1),
            Op::Insert(9, 9),
            Op::Update(2, 7),
            Op::Range(0, 5),
        ];
        let w = Workload {
            initial: (0..8).map(|k| Record::new(k, k)).collect(),
            ops: [&ops[..], &ops[..]].concat(),
        };
        run_stream_metered(&mut m, &w, &mut trace, &plane).unwrap();
        let record = plane.published().expect("a finished run published");
        let totals = record.totals.expect("the finish carries the totals");
        assert_eq!(totals, m.tracker().snapshot());
        assert!(plane.ledger().snapshot().conserves(&totals));
        assert_eq!(record.live_records, 9);
        assert_eq!(record.mo, m.space_profile().space_amplification());
        let latency = &record.latency;
        assert_eq!((latency.read.count(), latency.write.count()), (4, 4));
    }
}
