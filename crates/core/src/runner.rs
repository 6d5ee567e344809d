//! Drives an [`AccessMethod`] through a workload and measures the RUM
//! overheads, separating read-path and write-path traffic so RO and UO are
//! attributed to the operations that incur them.
//!
//! There is one measurement loop (bulk load, execute / count per
//! operation class, assemble the [`RumReport`]) in two shapes: per-op
//! behind [`run_stream`] and its observed variants, which split the
//! method's tracker at every class switch of the stream, and batched behind
//! [`run_stream_sharded`], where every shard job runs that same op loop on
//! its own tracker and the runner adds the per-class sums up. Both take any
//! [`OpSource`] and one [`RunObserver`]. Neither keeps the method's tracker:
//! a structure rebuilt mid-run hands its history to a new one (see
//! [`AccessMethod::tracker`]), so every settle asks the method again.
//!
//! Suites of methods are measured with [`run_suite_stream`], one method at
//! a time per worker thread. Reports come back sorted by method name, so
//! the output is identical at every thread count apart from wall-clock
//! timings.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use crate::access::AccessMethod;
use crate::autotune::{AutoTuneSummary, AutoTuner, Morphable, Tuning};
use crate::error::{panic_payload_message, Result, RumError};
use crate::metrics::{Metered, MetricsPlane, OpClass};
use crate::shard::ShardedMethod;
use crate::trace::{ClassLatency, TraceCollector};
use crate::tracker::{CostSnapshot, CostTracker};
use crate::types::Record;
use crate::workload::{Op, OpSource, OpStream, WorkloadSpec};

/// The measured RUM profile of one method over one workload.
#[derive(Clone, Debug)]
pub struct RumReport {
    pub method: String,
    /// Live records at the end of the run.
    pub n_final: usize,
    pub read_ops: u64,
    pub write_ops: u64,
    /// Traffic accumulated during read operations (get / range).
    pub read_costs: CostSnapshot,
    /// Traffic accumulated during write operations (insert / update /
    /// delete), including any reads those operations perform internally.
    pub write_costs: CostSnapshot,
    /// Traffic of the initial bulk load (excluded from RO / UO).
    pub load_costs: CostSnapshot,
    /// Read amplification over the read operations.
    pub ro: f64,
    /// Write amplification over the write operations.
    pub uo: f64,
    /// Space amplification of the final structure.
    pub mo: f64,
    /// Mean page accesses (reads + writes) per read operation.
    pub pages_per_read_op: f64,
    /// Mean page accesses per write operation.
    pub pages_per_write_op: f64,
    /// Wall-clock time of the operation phase, nanoseconds.
    pub wall_ns: u128,
    /// Wall-clock time of the initial bulk load, nanoseconds.
    pub load_wall_ns: u128,
    /// Simulated device time of the operation phase, nanoseconds.
    pub sim_ns: u64,
    /// Measured operation throughput: `(read_ops + write_ops) / wall_ns`,
    /// in operations per second. Infinite when the op phase was too fast
    /// for the clock (`wall_ns == 0`); rendered finite-clamped like the
    /// amplification columns.
    pub ops_per_sec: f64,
    /// Median op latency in nanoseconds, from the traced latency
    /// histogram ([`run_stream_traced`] and the observers built on it).
    /// `0` when tracing is off — untraced runners never time single ops.
    pub p50_ns: u64,
    /// 99th-percentile op latency in nanoseconds; `0` when tracing is off.
    pub p99_ns: u64,
}

impl RumReport {
    /// One line suitable for a fixed-width table.
    pub fn table_row(&self) -> String {
        format!(
            "{:<28} {:>9} {:>9.3} {:>9.3} {:>9.3} {:>10.2} {:>10.2} {:>9} {:>9} {:>11.0}",
            self.method,
            self.n_final,
            finite(self.ro),
            finite(self.uo),
            finite(self.mo),
            self.pages_per_read_op,
            self.pages_per_write_op,
            self.p50_ns,
            self.p99_ns,
            finite(self.ops_per_sec),
        )
    }

    /// Header matching [`table_row`](Self::table_row), column for column
    /// (`tests::header_and_row_field_counts_agree` pins the agreement).
    pub fn table_header() -> String {
        format!(
            "{:<28} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9} {:>11}",
            "method", "N", "RO", "UO", "MO", "pg/read", "pg/write", "p50ns", "p99ns", "ops/s"
        )
    }

    /// The first counted measurement `other` disagrees on, or `None` when
    /// the counted clock reads the same on both: `n_final`, the op counts,
    /// the three cost snapshots and the RO/UO/MO bits. What every
    /// "bit-identical apart from wall-clock fields" claim means.
    pub fn counted_diff(&self, other: &RumReport) -> Option<&'static str> {
        [
            ("n_final", self.n_final == other.n_final),
            ("read_ops", self.read_ops == other.read_ops),
            ("write_ops", self.write_ops == other.write_ops),
            ("read_costs", self.read_costs == other.read_costs),
            ("write_costs", self.write_costs == other.write_costs),
            ("load_costs", self.load_costs == other.load_costs),
            ("ro", self.ro.to_bits() == other.ro.to_bits()),
            ("uo", self.uo.to_bits() == other.uo.to_bits()),
            ("mo", self.mo.to_bits() == other.mo.to_bits()),
        ]
        .into_iter()
        .find_map(|(field, same)| (!same).then_some(field))
    }

    /// Header matching [`csv_row`](Self::csv_row), field for field.
    pub fn csv_header() -> &'static str {
        "method,n_final,ro,uo,mo,pages_per_read_op,pages_per_write_op,sim_ns,p50_ns,p99_ns,\
         ops_per_sec"
    }

    /// CSV row (method, n, ro, uo, mo, pages/read, pages/write, sim_ns,
    /// p50_ns, p99_ns, ops_per_sec).
    ///
    /// Amplifications are clamped to finite values like
    /// [`table_row`](Self::table_row): a method that serves a workload with
    /// zero logical bytes in one class (e.g. a read-only run measured for
    /// UO) reports infinite amplification, and `inf`/`NaN` literals break
    /// most CSV consumers. The latency quantiles are `u64`, hence finite by
    /// construction (and `0` when tracing is off). `ops_per_sec` is
    /// wall-clock-derived, so it is the one column that varies between
    /// otherwise identical runs — it stays last so consumers can strip it.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{}",
            self.method,
            self.n_final,
            finite(self.ro),
            finite(self.uo),
            finite(self.mo),
            finite(self.pages_per_read_op),
            finite(self.pages_per_write_op),
            self.sim_ns,
            self.p50_ns,
            self.p99_ns,
            finite(self.ops_per_sec),
        )
    }
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        f64::MAX
    }
}

/// The op phase's per-class books: the one op loop, run by the per-op
/// driver over the whole stream and by every shard job over its
/// sub-batch.
///
/// Costs are attributed per operation *class*, not per operation. The
/// loop [`settle`](Self::settle)s: the tracker is snapshotted (18 relaxed
/// loads, two halves of each of its nine counters) only when the ops
/// switch between the read class (get/range) and the write class
/// (insert/update/delete), plus once at the end. Between
/// switches every byte the tracker accrues comes from operations of the
/// running class, so the per-class sums equal the per-op sums exactly
/// while the hot loop sheds the per-op snapshot. The batched driver never
/// reads the wrapper tracker: its shards make the split on their private
/// trackers, where the bytes are counted, and it [`fold`](Self::fold)s the
/// sums they return.
pub(crate) struct OpPhase {
    pub(crate) read_costs: CostSnapshot,
    pub(crate) write_costs: CostSnapshot,
    read_ops: u64,
    write_ops: u64,
    mark: CostSnapshot,
    batch_is_read: Option<bool>,
    started: Instant,
}

impl OpPhase {
    pub(crate) fn start(tracker: &CostTracker) -> Self {
        OpPhase {
            read_costs: CostSnapshot::default(),
            write_costs: CostSnapshot::default(),
            read_ops: 0,
            write_ops: 0,
            mark: tracker.snapshot(),
            batch_is_read: None,
            started: Instant::now(),
        }
    }

    /// Fold the traffic since the previous settle point into the running
    /// class, then switch the running class to `next` (`None` ends the
    /// phase). The observer is shown the class the delta was folded into
    /// and the delta itself, so it can mirror the exact same attribution.
    pub(crate) fn settle<M, O>(
        &mut self,
        tracker: &CostTracker,
        next: Option<bool>,
        observer: &mut O,
    ) where
        M: AccessMethod + ?Sized,
        O: RunObserver<M>,
    {
        let now = tracker.snapshot();
        let d = now.delta(&self.mark);
        self.mark = now;
        let prev = self.batch_is_read;
        match prev {
            Some(true) => self.read_costs = self.read_costs.add(&d),
            Some(false) => self.write_costs = self.write_costs.add(&d),
            None => {} // nothing ran since the phase started
        }
        self.batch_is_read = next;
        observer.on_settle(prev, &d, next);
    }

    /// Note `count` ops of the running class having executed. Only counts;
    /// traffic is folded at the next [`settle`](Self::settle).
    fn count(&mut self, is_read: bool, count: u64) {
        if is_read {
            self.read_ops += count;
        } else {
            self.write_ops += count;
        }
    }

    /// Run one op: switch the running class when `op` leaves it, clock the
    /// op when the observer is [`TIMED`](RunObserver::TIMED), apply it and
    /// count it. Returns what [`on_op`](RunObserver::on_op) said: whether a
    /// trajectory window closed. An op that fails is neither counted nor
    /// shown to the observer; its partial traffic stays in the running
    /// class until the next settle books it there.
    pub(crate) fn step<M, O>(&mut self, method: &mut M, op: Op, observer: &mut O) -> Result<bool>
    where
        M: AccessMethod + ?Sized,
        O: RunObserver<M>,
    {
        let is_read = op.is_read();
        if self.batch_is_read != Some(is_read) {
            self.settle(method.tracker(), Some(is_read), observer);
        }
        let op_started = O::TIMED.then(Instant::now);
        op.apply(method)?;
        let latency_ns = op_started.map_or(0, elapsed_ns);
        self.count(is_read, 1);
        Ok(observer.on_op(op, latency_ns, method))
    }

    /// Book `ops` operations of one class together with `delta`, the
    /// traffic the shards that ran them attributed to that class. A class
    /// with no ops in the batch is skipped, so the observer is only shown
    /// classes that ran; `next` is `None` because a batch has no running
    /// class to switch to.
    fn fold<M, O>(&mut self, is_read: bool, ops: u64, delta: &CostSnapshot, observer: &mut O)
    where
        M: AccessMethod + ?Sized,
        O: RunObserver<M>,
    {
        if ops == 0 {
            return;
        }
        self.count(is_read, ops);
        let costs = if is_read {
            &mut self.read_costs
        } else {
            &mut self.write_costs
        };
        *costs = costs.add(delta);
        observer.on_settle(Some(is_read), delta, None);
    }

    /// Stop the wall clock and assemble the report; call once every op's
    /// traffic is booked (after the closing `settle(.., None, ..)` or the
    /// last batch's [`fold`](Self::fold)s).
    fn finish<M: AccessMethod + ?Sized>(
        self,
        method: &M,
        load_costs: CostSnapshot,
        load_wall_ns: u128,
    ) -> RumReport {
        let wall_ns = self.started.elapsed().as_nanos();
        let (read_costs, write_costs) = (self.read_costs, self.write_costs);
        let (read_ops, write_ops) = (self.read_ops, self.write_ops);
        let total_ops = read_ops + write_ops;
        let ops_per_sec = if wall_ns == 0 {
            if total_ops == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            total_ops as f64 * 1e9 / wall_ns as f64
        };

        RumReport {
            method: method.name(),
            n_final: method.len(),
            read_ops,
            write_ops,
            ro: read_costs.read_amplification(),
            uo: write_costs.write_amplification(),
            mo: method.space_profile().space_amplification(),
            pages_per_read_op: per_op(read_costs.page_accesses(), read_ops),
            pages_per_write_op: per_op(write_costs.page_accesses(), write_ops),
            sim_ns: read_costs.sim_time_ns + write_costs.sim_time_ns,
            read_costs,
            write_costs,
            load_costs,
            wall_ns,
            load_wall_ns,
            ops_per_sec,
            // Filled by a collector-backed observer's `on_finish`;
            // unobserved runs never time single ops, so they stay 0.
            p50_ns: 0,
            p99_ns: 0,
        }
    }
}

/// What watches a run, hooked into the one measurement loop at fixed
/// points. Every hook defaults to nothing, and an observer only ever
/// *reads* the tracker, so an observed run's counted measurements are
/// bit-identical to an unobserved one's. `M` is the method type the run
/// drives: `dyn AccessMethod` for passive observers, `dyn Morphable` for
/// the autotuner, which reshapes the structure it watches. Hooks that are
/// handed the method read the account through
/// [`method.tracker()`](AccessMethod::tracker), never through a copy kept
/// from an earlier call.
pub trait RunObserver<M: AccessMethod + ?Sized> {
    /// Whether ops are clocked for [`on_op`](Self::on_op) /
    /// [`on_batch`](Self::on_batch). `()` says no: a plain run never reads
    /// the clock inside the loop.
    const TIMED: bool = true;

    /// The bulk load is done and cost `load`; the op phase starts now.
    fn on_begin(&mut self, _load: &CostSnapshot, _tracker: &CostTracker) {}

    /// The op phase folded `delta` into the `settled` class (`None` right
    /// after the start) and switches to `next` (`None` at the end, and
    /// from the batched driver, which reports each class of a batch after
    /// the batch ran).
    fn on_settle(&mut self, _settled: Option<bool>, _delta: &CostSnapshot, _next: Option<bool>) {}

    /// One op ran. Returns whether it closed a trajectory window, in which
    /// case [`on_window`](Self::on_window) is next.
    fn on_op(&mut self, _op: Op, _latency_ns: u64, _method: &M) -> bool {
        false
    }

    /// The batched driver's `on_op`: a batch of `ops` operations ran,
    /// their latencies merged from the shard workers per class.
    fn on_batch(&mut self, _ops: u64, _latency: &ClassLatency, _method: &M) {}

    /// A trajectory window just closed. Return `true` to reshape the
    /// method before the next op: the driver first settles the op phase
    /// into the write class, so the migration's I/O is charged to UO, then
    /// calls [`migrate`](Self::migrate).
    fn on_window(&mut self, _method: &mut M) -> bool {
        false
    }

    /// Carry out the reshaping [`on_window`](Self::on_window) asked for.
    fn migrate(&mut self, _method: &mut M) -> Result<()> {
        Ok(())
    }

    /// The last op is settled and `report` assembled; observers holding a
    /// collector close its trailing window and fill the latency columns.
    fn on_finish(&mut self, _method: &M, _report: &mut RumReport) {}
}

/// No observer: every hook is the empty default and nothing is clocked.
impl<M: AccessMethod + ?Sized> RunObserver<M> for () {
    const TIMED: bool = false;
}

/// Bulk-load `initial` with the tracker freshly reset, returning the load
/// costs and wall time.
fn load_phase<M: AccessMethod + ?Sized>(
    method: &mut M,
    initial: &[Record],
) -> Result<(CostSnapshot, u128)> {
    method.tracker().reset();
    let load_started = Instant::now();
    method.bulk_load(initial)?;
    let load_wall_ns = load_started.elapsed().as_nanos();
    let load_costs = method.tracker().snapshot();
    Ok((load_costs, load_wall_ns))
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// The one per-op measurement loop: bulk-load the source's initial
/// records, play its ops attributing costs per operation class, assemble
/// the report. Every entry point is its own instantiation, so with `()`
/// the hooks compile away and nothing reads the clock per op.
fn drive<M, S, O>(method: &mut M, source: S, observer: &mut O) -> Result<RumReport>
where
    M: AccessMethod + ?Sized,
    S: OpSource,
    O: RunObserver<M>,
{
    let (initial, ops) = source.into_parts();
    let (load_costs, load_wall_ns) = load_phase(method, &initial)?;
    drop(initial);
    observer.on_begin(&load_costs, method.tracker());

    let mut phase = OpPhase::start(method.tracker());
    for op in ops {
        if phase.step(method, op, observer)? && observer.on_window(method) {
            phase.settle(method.tracker(), Some(false), observer);
            observer.migrate(method)?;
        }
    }
    phase.settle(method.tracker(), None, observer);
    let mut report = phase.finish(method, load_costs, load_wall_ns);
    observer.on_finish(method, &mut report);
    Ok(report)
}

/// Run a workload against `method`: bulk-load the initial records, then
/// play the operations, attributing costs per operation class.
///
/// `source` is an [`OpStream`] by value, drawn one op at a time so peak
/// memory is O(live-set) however many operations the spec asks for, or a
/// borrowed [`Workload`](crate::workload::Workload) that several methods
/// replay. Both yield the same op sequence for the same spec, so the two
/// reports are bit-identical apart from the wall-clock fields.
pub fn run_stream(method: &mut dyn AccessMethod, source: impl OpSource) -> Result<RumReport> {
    drive(method, source, &mut ())
}

/// [`run_stream`] with a [`TraceCollector`] observing the op phase:
/// each op is individually timed into the collector's per-class latency
/// histograms and the collector closes a trajectory window every `window`
/// operations (the width given to [`TraceCollector::new`]).
///
/// The collector is a pure observer — it reads the tracker but never
/// charges it — so every counted measurement in the returned report
/// (`n_final`, op counts, all three [`CostSnapshot`]s, RO/UO/MO bits) is
/// identical to an untraced [`run_stream`] run. The only additions are
/// the latency columns: `p50_ns`/`p99_ns` are filled from the merged
/// read+write histogram instead of staying 0.
///
/// The collector begins after the bulk load and closes its trailing
/// window after the last op, so the windowed deltas partition exactly the
/// op-phase traffic: their sum equals `read_costs + write_costs`
/// byte-exactly ([`TraceCollector::windowed_sum`]).
pub fn run_stream_traced(
    method: &mut dyn AccessMethod,
    source: impl OpSource,
    trace: &mut TraceCollector,
) -> Result<RumReport> {
    drive(method, source, trace)
}

/// [`run_stream_traced`] with a live [`MetricsPlane`] attached: the
/// plane's [`DebtLedger`](crate::metrics::DebtLedger) receives exactly
/// the per-class tracker deltas the report is assembled from (the same
/// settle points, the same snapshots), and at every trajectory-window
/// close the plane's [`Published`](crate::metrics::Published) record
/// (the collector's per-class latency histograms, MO, live records) is
/// swapped — so an exporter scraping the plane sees per-op-class
/// amortized RO/UO/MO evolve while the run is still going. A scrape
/// reads the ledger as it stands and the record as of the last window
/// close.
///
/// To feed the ledger's causal re-attribution, install the same plane's
/// sink on the method first (`method.set_trace_sink(plane.sink())`).
/// Without a sink the ledger still conserves — it just has no background
/// events to move.
///
/// The plane, like the collector, is a pure observer of the tracker:
/// every counted measurement in the returned report (op counts, all
/// three [`CostSnapshot`]s, RO/UO/MO bits) is identical to an untraced
/// [`run_stream`] of the same stream. At the end of the run the record
/// carries the tracker totals, against which the exporter's
/// conservation verdict (`rum_conservation_ok`) holds byte-exactly,
/// because the ledger was charged every delta the tracker accrued.
pub fn run_stream_metered(
    method: &mut dyn AccessMethod,
    source: impl OpSource,
    trace: &mut TraceCollector,
    plane: &MetricsPlane,
) -> Result<RumReport> {
    // Background work the bulk load triggers is the load's own bill.
    plane.ledger().begin_class(OpClass::Load);
    drive(method, source, &mut Metered { trace, plane })
}

/// [`run_stream_traced`] with the [`AutoTuner`] closing the loop: every
/// time the collector closes a trajectory window, the tuner observes it
/// (plus the window's op-kind counts) and may order a migration, which is
/// executed in place via [`Morphable::morph_to`] before the next op runs.
///
/// Migration pricing in the paper's currency:
///
/// * **UO** — the op phase settles into the *write* class right before the
///   migration runs, so every byte the migration reads and writes lands in
///   `write_costs` and inflates UO exactly like compaction traffic.
/// * **MO** — the transient double-residency (source and destination
///   coexisting) is returned in each [`MigrationReceipt`]'s
///   `peak_extra_bytes` and surfaced through the [`AutoTuneSummary`].
///
/// Answers are unaffected: migrations preserve logical contents, so a
/// tuner-on run returns bit-identical results to a tuner-off run of the
/// same stream (the `drift_sweep` bench replays this differentially).
///
/// [`MigrationReceipt`]: crate::autotune::MigrationReceipt
pub fn run_stream_autotuned(
    method: &mut dyn Morphable,
    source: impl OpSource,
    tuner: &mut AutoTuner,
    trace: &mut TraceCollector,
) -> Result<(RumReport, AutoTuneSummary)> {
    let report = drive(method, source, &mut Tuning::new(trace, tuner))?;
    Ok((report, tuner.summary().clone()))
}

/// Ops pulled from the stream per [`ShardedMethod::submit_batch`] call in
/// [`run_stream_sharded`]: large enough to amortize the per-batch queue
/// handoff to the persistent shard workers, small enough that per-shard
/// sub-batches stay cache-resident.
pub const DEFAULT_STREAM_BATCH: usize = 8192;

/// Run a workload against a [`ShardedMethod`], executing batches of the
/// next `batch` ops, whatever their class, concurrently on the wrapper's
/// persistent worker pool, with **overlapped batch assembly**: while the
/// workers execute batch `i` (from per-shard copies made at submission),
/// the runner is already drawing batch `i + 1` from the source, so op
/// generation overlaps shard execution and at most one batch is in flight.
///
/// A batch ends where the buffer is full, never where the stream switches
/// class, so a dispatch carries `batch` ops on any mix. Read-path and
/// write-path traffic are told apart where the bytes are counted: each
/// shard job runs the per-op driver's own op loop over its sub-batch, on
/// its private tracker, and returns the per-class pair that loop booked;
/// the runner adds the per-shard pairs into `read_costs` / `write_costs`.
/// That split is exact, not estimated: a shard runs its sub-batch in
/// stream order on one FIFO lane, so between two of its switches every
/// byte on its tracker belongs to the running class, exactly as between
/// two class switches of [`run_stream`]; and the sums over shards are
/// `u64` additions, which commute. RO / UO / MO and every cost field are
/// therefore **bit-identical** to driving the same `ShardedMethod`
/// serially with [`run_stream`]; only the wall-clock fields differ.
pub fn run_stream_sharded(
    method: &mut ShardedMethod,
    source: impl OpSource,
    batch: usize,
) -> Result<RumReport> {
    drive_batched(method, source, batch, &mut ())
}

/// [`run_stream_sharded`] with a [`TraceCollector`] observing the op
/// phase: batches run timed, each shard worker records its ops'
/// latencies into a [`ClassLatency`], and the merged
/// per-batch histograms (associative + commutative pointwise sums, so the
/// merge order across workers cannot matter) land in the collector via
/// [`RunObserver::on_batch`]. `p50_ns` / `p99_ns` in the returned
/// report are filled from the merged distribution instead of staying 0.
///
/// Granularity caveats versus the per-op traced runners: trajectory
/// windows close on batch boundaries (so a window may run up to
/// `batch - 1` ops long), and a range op contributes one latency
/// observation per shard it fanned out to rather than one end-to-end
/// fan-out latency. Counted measurements are still bit-identical to the
/// untraced [`run_stream_sharded`] — timing is a pure observer.
pub fn run_stream_sharded_traced(
    method: &mut ShardedMethod,
    source: impl OpSource,
    batch: usize,
    trace: &mut TraceCollector,
) -> Result<RumReport> {
    drive_batched(method, source, batch, trace)
}

/// The batched variant of [`drive`]: the overlapped
/// submit/assemble/collect loop over a [`ShardedMethod`], with the same
/// observer (per-batch timing is on exactly when the observer is
/// [`TIMED`](RunObserver::TIMED)). It takes each batch's per-class
/// traffic from the shards ([`OpPhase::fold`]) instead of settling the
/// wrapper tracker, which by then holds both classes of the batch.
fn drive_batched<S, O>(
    method: &mut ShardedMethod,
    source: S,
    batch: usize,
    observer: &mut O,
) -> Result<RumReport>
where
    S: OpSource,
    O: RunObserver<dyn AccessMethod>,
{
    let batch = batch.max(1);
    let (initial, mut ops) = source.into_parts();
    let (load_costs, load_wall_ns) = load_phase(method, &initial)?;
    drop(initial);
    observer.on_begin(&load_costs, method.tracker());

    let mut phase = OpPhase::start(method.tracker());
    // One assembly buffer: `submit_batch` copies every op into its shard's
    // own partition before it returns, so the in-flight batch never reads
    // it and the source can refill it at once.
    let mut buf = Vec::with_capacity(batch);
    // The dispatched-but-uncollected batch: handle, read ops, write ops.
    let mut in_flight: Option<(crate::shard::PendingBatch, u64, u64)> = None;
    loop {
        // Assemble the next batch; these source pulls overlap the workers
        // executing the in-flight batch.
        buf.clear();
        buf.extend(ops.by_ref().take(batch));

        if let Some((handle, reads, writes)) = in_flight.take() {
            let done = method.finish_batch_by_class(handle);
            done.result?;
            phase.fold(true, reads, &done.read_delta, observer);
            phase.fold(false, writes, &done.write_delta, observer);
            // `Some` exactly when the batch was submitted timed.
            if let Some(latency) = done.latency {
                observer.on_batch(reads + writes, &latency, &*method);
            }
        }

        if buf.is_empty() {
            break;
        }
        let reads = buf.iter().filter(|op| op.is_read()).count() as u64;
        let handle = method.submit_batch(&buf, O::TIMED)?;
        in_flight = Some((handle, reads, buf.len() as u64 - reads));
    }
    let mut report = phase.finish(&*method, load_costs, load_wall_ns);
    observer.on_finish(&*method, &mut report);
    Ok(report)
}

/// Run one suite member's measurement, converting a panic or an error into
/// a labelled [`RumError::Corrupt`] so a single broken method cannot take
/// down a whole suite run (or, worse, the process).
fn run_guarded<F>(name: &str, f: F) -> Result<RumReport>
where
    F: FnOnce() -> Result<RumReport>,
{
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(RumError::Corrupt(format!("method '{name}' failed: {e}"))),
        Err(payload) => Err(RumError::Corrupt(format!(
            "method '{name}' panicked during measurement ({})",
            panic_payload_message(&payload)
        ))),
    }
}

/// Run every method in `methods` over the workload `spec` describes, on
/// `threads` workers (`threads <= 1` runs inline), and return the reports
/// **sorted by method name**.
///
/// Each worker owns one method at a time (methods are `Send` and carry
/// their own private [`CostTracker`], so no cost traffic crosses methods)
/// and regenerates its own [`OpStream`] from `spec` (generation is seeded
/// and cheap relative to execution), so no materialized `Vec<Op>` is
/// shared and peak memory stays O(live-set) per worker. The output is
/// deterministic and identical at every thread count apart from the
/// wall-clock fields.
///
/// A method that fails or panics mid-measurement is reported on stderr and
/// omitted from the returned reports; the rest of the suite still runs.
pub fn run_suite_stream(
    methods: &mut [Box<dyn AccessMethod>],
    spec: &WorkloadSpec,
    threads: usize,
) -> Result<Vec<RumReport>> {
    let results = parallel_map(methods.iter_mut().collect(), threads, |method| {
        let name = method.name();
        run_guarded(&name, || run_stream(method.as_mut(), OpStream::new(spec)))
    });
    let mut reports = Vec::with_capacity(results.len());
    for result in results {
        match result {
            Ok(report) => reports.push(report),
            Err(e) => eprintln!("[suite] skipping method: {e}"),
        }
    }
    // Stable name order; insertion order breaks ties, so duplicate names
    // keep a deterministic relative order too.
    reports.sort_by(|a, b| a.method.cmp(&b.method));
    Ok(reports)
}

/// The worker count to hand [`run_suite_stream`] by default: one per
/// available core, unless the `RUM_THREADS` environment variable
/// overrides it.
///
/// `RUM_THREADS` must parse as a positive integer; unset, empty, zero, or
/// unparsable values fall back to the core count. CI and single-core
/// containers use it to pin parallelism explicitly (e.g. `RUM_THREADS=1`
/// for perfectly serial runs, or `RUM_THREADS=4` to exercise the threaded
/// paths on a 1-core host).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("RUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Apply `f` to every item on a pool of `threads` scoped workers and return
/// the results **in input order**. Items are pulled from a shared queue, so
/// uneven per-item costs balance across workers; `threads <= 1` (or a
/// single item) runs inline without spawning. A panicking `f` propagates to
/// the caller when the scope joins.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    // Short-circuit: one worker (single-core hosts, RUM_THREADS=1) or at
    // most one item means threading can't help — run inline and skip the
    // queue, the slot mutexes, and the scoped spawns entirely.
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let workers = threads.min(n);

    let queue: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().rev().collect());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            // Named workers so panics and profiler output say which
            // worker fired instead of `<unnamed>`.
            std::thread::Builder::new()
                .name(format!("rum-worker-{w}"))
                .spawn_scoped(scope, || loop {
                    let next = queue.lock().unwrap().pop();
                    let Some((index, item)) = next else { break };
                    *slots[index].lock().unwrap() = Some(f(item));
                })
                .expect("spawn rum-worker thread");
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every queue slot is filled before the scope joins")
        })
        .collect()
}

fn per_op(total: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total as f64 / ops as f64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::access::SpaceProfile;
    use crate::tracker::CostTracker;
    use crate::types::{Key, Record, Value, RECORD_SIZE};
    use crate::workload::{OpMix, Workload, WorkloadSpec};
    use std::sync::Arc;

    /// Minimal sorted-vec method that charges 2 bytes of physical traffic
    /// per byte of logical traffic, so amplification is exactly 2. The
    /// shard and `access` tests drive it too.
    pub(crate) struct Amp2 {
        name: String,
        data: std::collections::BTreeMap<Key, Value>,
        tracker: Arc<CostTracker>,
    }

    impl Amp2 {
        pub(crate) fn new() -> Self {
            Amp2::named("amp2")
        }

        fn named(name: &str) -> Self {
            Amp2 {
                name: name.to_string(),
                data: Default::default(),
                tracker: CostTracker::new(),
            }
        }

        /// An `Amp2` that charges `tracker`, which others may share.
        pub(crate) fn with_tracker(tracker: Arc<CostTracker>) -> Self {
            Amp2 {
                tracker,
                ..Amp2::new()
            }
        }
    }

    impl AccessMethod for Amp2 {
        fn name(&self) -> String {
            self.name.clone()
        }
        fn len(&self) -> usize {
            self.data.len()
        }
        fn tracker(&self) -> &Arc<CostTracker> {
            &self.tracker
        }
        fn space_profile(&self) -> SpaceProfile {
            SpaceProfile::from_physical(self.data.len(), (self.data.len() * 3 * RECORD_SIZE) as u64)
        }
        fn get_impl(&mut self, key: Key) -> crate::Result<Option<Value>> {
            let r = self.data.get(&key).copied();
            if r.is_some() {
                self.tracker.read_records(2);
            }
            Ok(r)
        }
        fn range_impl(&mut self, lo: Key, hi: Key) -> crate::Result<Vec<Record>> {
            let out: Vec<Record> = self
                .data
                .range(lo..=hi)
                .map(|(&k, &v)| Record::new(k, v))
                .collect();
            self.tracker.read_records(2 * out.len());
            Ok(out)
        }
        fn insert_impl(&mut self, key: Key, value: Value) -> crate::Result<()> {
            self.tracker.write_records(2);
            self.data.insert(key, value);
            Ok(())
        }
        fn update_impl(&mut self, key: Key, value: Value) -> crate::Result<bool> {
            if self.data.contains_key(&key) {
                self.tracker.write_records(2);
                self.data.insert(key, value);
                Ok(true)
            } else {
                Ok(false)
            }
        }
        fn delete_impl(&mut self, key: Key) -> crate::Result<bool> {
            if self.data.remove(&key).is_some() {
                self.tracker.write_records(2);
                Ok(true)
            } else {
                Ok(false)
            }
        }
        fn bulk_load_impl(&mut self, records: &[Record]) -> crate::Result<()> {
            self.data = records.iter().map(|r| (r.key, r.value)).collect();
            self.tracker.write_records(records.len());
            Ok(())
        }
    }

    #[test]
    fn amplifications_attributed_per_class() {
        let w = Workload::generate(&spec(500, 2000, 9));
        let mut m = Amp2::new();
        let report = run_stream(&mut m, &w).unwrap();
        assert!((report.ro - 2.0).abs() < 1e-9, "ro = {}", report.ro);
        assert!((report.uo - 2.0).abs() < 1e-9, "uo = {}", report.uo);
        assert!((report.mo - 3.0).abs() < 1e-9, "mo = {}", report.mo);
        assert_eq!(report.read_ops + report.write_ops, w.ops.len() as u64);
    }

    #[test]
    fn load_costs_are_excluded_from_amplification() {
        let w = Workload::generate(&WorkloadSpec {
            initial_records: 1000,
            operations: 10,
            mix: OpMix::READ_ONLY,
            seed: 3,
            ..Default::default()
        });
        let mut m = Amp2::new();
        let report = run_stream(&mut m, &w).unwrap();
        // Bulk load wrote 1000 records; none of that traffic shows in UO.
        assert!(report.load_costs.total_write_bytes() > 0);
        assert_eq!(report.write_ops, 0);
        assert_eq!(report.write_costs.total_write_bytes(), 0);
        assert!((report.ro - 2.0).abs() < 1e-9);
    }

    #[test]
    fn report_rows_render() {
        let w = Workload::generate(&spec(100, 100, 1));
        let mut m = Amp2::new();
        let report = run_stream(&mut m, &w).unwrap();
        assert!(report.table_row().contains("amp2"));
        assert!(RumReport::table_header().contains("MO"));
        assert!(RumReport::table_header().contains("ops/s"));
        assert!(RumReport::table_header().contains("p50ns"));
        assert_eq!(report.csv_row().split(',').count(), 11);
    }

    #[test]
    fn header_and_row_field_counts_agree() {
        let w = Workload::generate(&spec(100, 100, 1));
        let mut m = Amp2::new();
        let report = run_stream(&mut m, &w).unwrap();
        // The test method's name has no spaces, so whitespace-splitting
        // counts table columns faithfully.
        assert_eq!(
            RumReport::table_header().split_whitespace().count(),
            report.table_row().split_whitespace().count(),
            "table header and row column counts diverged"
        );
        assert_eq!(
            RumReport::csv_header().split(',').count(),
            report.csv_row().split(',').count(),
            "csv header and row field counts diverged"
        );
    }

    #[test]
    fn csv_row_clamps_non_finite_values() {
        let report = RumReport {
            method: "degenerate".into(),
            n_final: 0,
            read_ops: 0,
            write_ops: 0,
            read_costs: CostSnapshot::default(),
            write_costs: CostSnapshot::default(),
            load_costs: CostSnapshot::default(),
            ro: f64::INFINITY,
            uo: f64::NAN,
            mo: f64::NEG_INFINITY,
            pages_per_read_op: f64::INFINITY,
            pages_per_write_op: 0.0,
            wall_ns: 0,
            load_wall_ns: 0,
            sim_ns: 0,
            ops_per_sec: f64::INFINITY,
            p50_ns: 0,
            p99_ns: 0,
        };
        let row = report.csv_row();
        assert_eq!(row.split(',').count(), 11);
        assert!(
            !row.contains("inf") && !row.contains("NaN"),
            "csv_row leaked a non-finite literal: {row}"
        );
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        assert_eq!(parallel_map(items.clone(), 1, |x| x * x), expected);
        assert_eq!(parallel_map(items, 8, |x| x * x), expected);
        assert_eq!(parallel_map(Vec::<usize>::new(), 4, |x: usize| x), vec![]);
    }

    #[test]
    fn parallel_suite_matches_serial_suite() {
        let spec = spec(400, 800, 11);
        let make_suite = || -> Vec<Box<dyn AccessMethod>> {
            vec![
                Box::new(Amp2::named("zeta")),
                Box::new(Amp2::named("alpha")),
                Box::new(Amp2::named("mid")),
            ]
        };
        let serial = run_suite_stream(&mut make_suite(), &spec, 1).unwrap();
        let parallel = run_suite_stream(&mut make_suite(), &spec, 3).unwrap();
        let names: Vec<&str> = serial.iter().map(|r| r.method.as_str()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"], "reports sorted by name");
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_same_measurements(s, p);
        }
    }

    /// A balanced uniform workload of the given size.
    fn spec(initial_records: usize, operations: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            initial_records,
            operations,
            seed,
            ..Default::default()
        }
    }

    fn assert_same_measurements(a: &RumReport, b: &RumReport) {
        assert_eq!(a.method, b.method);
        assert_eq!(a.counted_diff(b), None, "{}", a.method);
    }

    #[test]
    fn run_stream_matches_run_workload() {
        let spec = spec(300, 1500, 21);
        let w = Workload::generate(&spec);
        let mut replayed = Amp2::new();
        let mut streamed = Amp2::new();
        let a = run_stream(&mut replayed, &w).unwrap();
        let b = run_stream(&mut streamed, crate::workload::OpStream::new(&spec)).unwrap();
        assert_same_measurements(&a, &b);
    }

    #[test]
    fn traced_run_matches_untraced_and_windows_sum_exactly() {
        let spec = spec(300, 1200, 77);
        let w = Workload::generate(&spec);
        let mut plain = Amp2::new();
        let a = run_stream(&mut plain, &w).unwrap();

        let mut traced = Amp2::new();
        let mut trace = crate::trace::TraceCollector::new(256, crate::trace::noop_sink());
        let b = run_stream_traced(&mut traced, &w, &mut trace).unwrap();
        assert_same_measurements(&a, &b);
        assert!(b.p99_ns >= b.p50_ns);
        assert_eq!(
            trace.windowed_sum(),
            b.read_costs.add(&b.write_costs),
            "window deltas must sum byte-exactly to the op-phase totals"
        );
        assert_eq!(trace.windows().len(), 1200usize.div_ceil(256));
        let total_ops: u64 = trace.windows().iter().map(|w| w.ops).sum();
        assert_eq!(total_ops, 1200);

        let mut streamed = Amp2::new();
        let mut trace2 = crate::trace::TraceCollector::new(256, crate::trace::noop_sink());
        let c = run_stream_traced(
            &mut streamed,
            crate::workload::OpStream::new(&spec),
            &mut trace2,
        )
        .unwrap();
        assert_same_measurements(&a, &c);
        assert_eq!(trace2.windowed_sum(), c.read_costs.add(&c.write_costs));
    }

    #[test]
    fn run_stream_sharded_matches_serial_sharded() {
        let spec = spec(400, 2000, 33);
        let factory = |_: usize| -> Box<dyn AccessMethod> { Box::new(Amp2::new()) };
        let w = Workload::generate(&spec);
        let mut serial = crate::shard::ShardedMethod::new(4, factory);
        let a = run_stream(&mut serial, &w).unwrap();
        let mut concurrent = crate::shard::ShardedMethod::new(4, factory);
        let b = run_stream_sharded(
            &mut concurrent,
            crate::workload::OpStream::new(&spec),
            257, // deliberately odd batch size so batches straddle transitions
        )
        .unwrap();
        assert_same_measurements(&a, &b);
    }

    #[test]
    fn run_stream_sharded_pooled_matches_serial_sharded() {
        // Force the persistent pool (the container may have 1 core, which
        // would make `new()` run inline) and fewer workers than shards.
        let spec = spec(400, 2000, 43);
        let factory = |_: usize| -> Box<dyn AccessMethod> { Box::new(Amp2::new()) };
        let w = Workload::generate(&spec);
        let mut serial = crate::shard::ShardedMethod::with_threads(4, 1, factory);
        let a = run_stream(&mut serial, &w).unwrap();
        for threads in [2, 4] {
            let mut pooled = crate::shard::ShardedMethod::with_threads(4, threads, factory);
            let b = run_stream_sharded(&mut pooled, crate::workload::OpStream::new(&spec), 257)
                .unwrap();
            assert!(pooled.pool_running(), "threads={threads}");
            assert_same_measurements(&a, &b);
        }
    }

    #[test]
    fn traced_sharded_run_matches_untraced_and_fills_latency_quantiles() {
        let spec = spec(400, 2000, 51);
        let factory = |_: usize| -> Box<dyn AccessMethod> { Box::new(Amp2::new()) };
        let mut plain = crate::shard::ShardedMethod::with_threads(4, 2, factory);
        let a = run_stream_sharded(&mut plain, crate::workload::OpStream::new(&spec), 257).unwrap();
        assert_eq!((a.p50_ns, a.p99_ns), (0, 0), "untraced quantiles stay 0");

        for threads in [1, 2] {
            let mut traced = crate::shard::ShardedMethod::with_threads(4, threads, factory);
            let mut trace = crate::trace::TraceCollector::new(500, crate::trace::noop_sink());
            let b = run_stream_sharded_traced(
                &mut traced,
                crate::workload::OpStream::new(&spec),
                257,
                &mut trace,
            )
            .unwrap();
            assert_same_measurements(&a, &b);
            assert!(b.p50_ns > 0, "threads={threads}: p50 must be measured");
            assert!(b.p99_ns >= b.p50_ns, "threads={threads}");
            assert_eq!(
                trace.windowed_sum(),
                b.read_costs.add(&b.write_costs),
                "threads={threads}: window deltas must sum to the op-phase totals"
            );
            let total_ops: u64 = trace.windows().iter().map(|w| w.ops).sum();
            assert_eq!(total_ops, 2000, "threads={threads}");
        }
    }

    /// What the batched driver showed an observer, in order.
    #[derive(Default)]
    struct Shown {
        settles: Vec<(Option<bool>, CostSnapshot, Option<bool>)>,
        batch_ops: Vec<u64>,
    }

    impl RunObserver<dyn AccessMethod> for Shown {
        fn on_settle(&mut self, settled: Option<bool>, delta: &CostSnapshot, next: Option<bool>) {
            self.settles.push((settled, *delta, next));
        }
        fn on_batch(&mut self, ops: u64, _latency: &ClassLatency, _method: &dyn AccessMethod) {
            self.batch_ops.push(ops);
        }
    }

    #[test]
    fn batched_driver_shows_each_class_that_ran_once_per_batch() {
        let factory = |_: usize| -> Box<dyn AccessMethod> { Box::new(Amp2::new()) };
        let initial: Vec<Record> = (0..200u64).map(|k| Record::new(k, k)).collect();
        let gets: Vec<Op> = (0..100u64).map(Op::Get).collect();
        let inserts: Vec<Op> = (0..100u64).map(|k| Op::Insert(1000 + k, k)).collect();
        let alternating: Vec<Op> = gets
            .iter()
            .zip(&inserts)
            .flat_map(|(&g, &i)| [g, i])
            .collect();
        // (stream, classes every batch of 64 must show, batches)
        let cases: [(&[Op], &[bool], usize); 3] = [
            (&gets, &[true], 2),
            (&inserts, &[false], 2),
            (&alternating, &[true, false], 4),
        ];
        for (ops, per_batch, batches) in cases {
            let workload = Workload {
                initial: initial.clone(),
                ops: ops.to_vec(),
            };
            for threads in [1, 2] {
                let mut sharded = crate::shard::ShardedMethod::with_threads(2, threads, factory);
                let mut shown = Shown::default();
                let report = drive_batched(&mut sharded, &workload, 64, &mut shown).unwrap();
                let settled: Vec<Option<bool>> = shown.settles.iter().map(|s| s.0).collect();
                let expected: Vec<Option<bool>> = per_batch
                    .iter()
                    .map(|&c| Some(c))
                    .cycle()
                    .take(per_batch.len() * batches)
                    .collect();
                assert_eq!(
                    settled, expected,
                    "threads={threads}: an empty class was shown"
                );
                assert!(shown.settles.iter().all(|s| s.2.is_none()));
                assert_eq!(shown.batch_ops.len(), batches, "threads={threads}");
                assert_eq!(shown.batch_ops.iter().sum::<u64>(), ops.len() as u64);
                assert_eq!(sharded.dispatches(), batches as u64);
                assert_eq!(sharded.dispatched_ops(), ops.len() as u64);
                // What the observer was shown is what the report holds.
                let sum_of = |class: bool| {
                    shown
                        .settles
                        .iter()
                        .filter(|s| s.0 == Some(class))
                        .fold(CostSnapshot::default(), |acc, s| acc.add(&s.1))
                };
                assert_eq!(sum_of(true), report.read_costs, "threads={threads}");
                assert_eq!(sum_of(false), report.write_costs, "threads={threads}");
            }
        }
    }

    #[test]
    fn run_suite_stream_matches_run_suite() {
        let spec = spec(200, 600, 17);
        let w = Workload::generate(&spec);
        let make_suite = || -> Vec<Box<dyn AccessMethod>> {
            vec![Box::new(Amp2::named("b")), Box::new(Amp2::named("a"))]
        };
        // The suite against each member replaying the materialized form
        // on its own, in the suite's (name) order.
        let mut members = make_suite();
        members.sort_by_key(|m| m.name());
        let serial: Vec<RumReport> = members
            .iter_mut()
            .map(|m| run_stream(m.as_mut(), &w).unwrap())
            .collect();
        let streamed = run_suite_stream(&mut make_suite(), &spec, 2).unwrap();
        assert_eq!(serial.len(), streamed.len());
        for (s, p) in serial.iter().zip(&streamed) {
            assert_same_measurements(s, p);
        }
    }

    #[test]
    fn ops_per_sec_is_positive_for_real_runs() {
        let w = Workload::generate(&spec(100, 500, 5));
        let mut m = Amp2::new();
        let report = run_stream(&mut m, &w).unwrap();
        assert!(report.ops_per_sec > 0.0);
        // The rendered column is always finite, even if the clock was too
        // coarse to observe the run.
        let rendered: f64 = report
            .csv_row()
            .rsplit(',')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(rendered.is_finite());
    }

    /// A method that panics (or errors) after `fuse` write ops — a stand-in
    /// for a poisoned structure mid-suite.
    struct Fused {
        inner: Amp2,
        fuse: usize,
        writes: usize,
        panics: bool,
    }

    impl Fused {
        fn new(name: &str, fuse: usize, panics: bool) -> Self {
            Fused {
                inner: Amp2::named(name),
                fuse,
                writes: 0,
                panics,
            }
        }

        fn trip(&mut self) -> crate::Result<()> {
            self.writes += 1;
            if self.writes > self.fuse {
                if self.panics {
                    panic!("fuse blown");
                }
                return Err(crate::RumError::Corrupt("fuse blown".into()));
            }
            Ok(())
        }
    }

    impl AccessMethod for Fused {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn tracker(&self) -> &Arc<CostTracker> {
            self.inner.tracker()
        }
        fn space_profile(&self) -> SpaceProfile {
            self.inner.space_profile()
        }
        fn get_impl(&mut self, key: Key) -> crate::Result<Option<Value>> {
            self.inner.get_impl(key)
        }
        fn range_impl(&mut self, lo: Key, hi: Key) -> crate::Result<Vec<Record>> {
            self.inner.range_impl(lo, hi)
        }
        fn insert_impl(&mut self, key: Key, value: Value) -> crate::Result<()> {
            self.trip()?;
            self.inner.insert_impl(key, value)
        }
        fn update_impl(&mut self, key: Key, value: Value) -> crate::Result<bool> {
            self.trip()?;
            self.inner.update_impl(key, value)
        }
        fn delete_impl(&mut self, key: Key) -> crate::Result<bool> {
            self.trip()?;
            self.inner.delete_impl(key)
        }
        fn bulk_load_impl(&mut self, records: &[Record]) -> crate::Result<()> {
            self.inner.bulk_load_impl(records)
        }
    }

    #[test]
    fn suite_survives_a_panicking_member() {
        let spec = spec(100, 400, 13);
        let make_suite = || -> Vec<Box<dyn AccessMethod>> {
            vec![
                Box::new(Fused::new("panicker", 10, true)),
                Box::new(Amp2::named("survivor")),
                Box::new(Fused::new("errorer", 10, false)),
            ]
        };
        for threads in [1, 3] {
            let reports = run_suite_stream(&mut make_suite(), &spec, threads).unwrap();
            let names: Vec<&str> = reports.iter().map(|r| r.method.as_str()).collect();
            assert_eq!(names, ["survivor"], "threads={threads}");
        }
    }

    #[test]
    fn sharded_worker_panic_is_an_error_not_an_abort() {
        // Two shards, threaded execution: one shard panics mid-batch. The
        // facade must return Err(Corrupt), not take the process down.
        let factory = |i: usize| -> Box<dyn AccessMethod> {
            let fuse = if i == 1 { 4 } else { usize::MAX };
            Box::new(Fused::new(&format!("shard{i}"), fuse, true))
        };
        let mut sharded = crate::shard::ShardedMethod::with_threads(2, 2, factory);
        let ops: Vec<Op> = (0..64u64).map(|k| Op::Insert(k, k)).collect();
        let err = sharded
            .submit_batch(&ops, false)
            .and_then(|b| sharded.finish_batch(b))
            .unwrap_err();
        match err {
            crate::RumError::Corrupt(m) => {
                assert!(m.contains("panicked"), "unexpected message: {m}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn rum_threads_env_overrides_default_threads() {
        // Process-global env: keep every probe inside this one test.
        std::env::set_var("RUM_THREADS", "7");
        assert_eq!(default_threads(), 7);
        std::env::set_var("RUM_THREADS", " 3 ");
        assert_eq!(default_threads(), 3, "whitespace is trimmed");
        let fallback = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        for junk in ["0", "", "-2", "lots"] {
            std::env::set_var("RUM_THREADS", junk);
            assert_eq!(default_threads(), fallback, "junk value {junk:?}");
        }
        std::env::remove_var("RUM_THREADS");
        assert_eq!(default_threads(), fallback);
    }
}
