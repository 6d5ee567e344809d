//! The metrics plane's contract, pinned end-to-end on real access-method
//! stacks:
//!
//! 1. **Byte-exact conservation** — after a metered run, the debt
//!    ledger's per-class attributed read/write bytes sum bit-equal to the
//!    method's own tracker totals ([`DebtSnapshot::conserves`]), for the
//!    B-tree, every LSM variant (levelled, tiered, sorted-view), and the
//!    WAL-wrapped durable stack. Re-attribution moves bytes between op
//!    classes; it never mints or loses any.
//! 2. **Deferred-write debt closes the loop** — LSM stacks accrue debt
//!    at insert/update time and settle it at flush/compaction;
//!    `accrued - settled == outstanding` and settlement happens.
//! 3. **Zero observer effect** — a run under a full metrics plane (sink
//!    installed, ledger charging, gauges republished every window) is
//!    bit-identical in RO / UO / MO and all cost snapshots to a plain
//!    run of the same stream.
//! 4. **Latencies from the collector** — the published
//!    `rum_op_latency_ns{class}` histograms and their p50/p99 gauges are
//!    the run's collector histograms, and a class with no ops has none.

use rum::prelude::*;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        initial_records: 1_500,
        operations: 4_000,
        mix: OpMix::BALANCED,
        seed: 0x0DEB_7C05,
        ..Default::default()
    }
}

/// The stacks whose background machinery the ledger must attribute:
/// read-optimized (no background bytes), levelled/tiered LSM (flush +
/// compaction), sorted-view LSM (view rebuilds during read spans), and
/// the WAL-wrapped durable LSM (sync + checkpoint + recovery path).
const STACKS: [&str; 5] = [
    "b+tree",
    "lsm-tree",
    "lsm-tree-tiered",
    "lsm-tree+view",
    "lsm-tree+wal",
];

fn metered_run(name: &str) -> (RumReport, DebtSnapshot, CostSnapshot) {
    let mut method = rum::suite_method(name).expect("suite method");
    let plane = MetricsPlane::shared();
    let sink = plane.sink();
    method.set_trace_sink(sink.clone());
    let mut trace = TraceCollector::new(256, sink);
    let report = run_stream_metered(method.as_mut(), OpStream::new(&spec()), &mut trace, &plane)
        .unwrap_or_else(|e| panic!("{name}: metered run failed: {e}"));
    let totals = method.tracker().snapshot();
    (report, plane.ledger().snapshot(), totals)
}

#[test]
fn attribution_conserves_bytes_on_every_stack() {
    for name in STACKS {
        let (_, debt, totals) = metered_run(name);
        assert!(
            debt.conserves(&totals),
            "{name}: attributed bytes must sum bit-equal to tracker totals\n{debt:?}\n{totals:?}"
        );
        assert_eq!(
            debt.attributed_read_total(),
            totals.total_read_bytes() as i128,
            "{name}: read bytes"
        );
        assert_eq!(
            debt.attributed_write_total(),
            totals.total_write_bytes() as i128,
            "{name}: write bytes"
        );
    }
}

#[test]
fn deferred_write_debt_accrues_and_settles_on_lsm_stacks() {
    for name in ["lsm-tree", "lsm-tree-tiered", "lsm-tree+wal"] {
        let (_, debt, _) = metered_run(name);
        assert!(debt.debt_accrued_bytes > 0, "{name}: no debt accrued");
        assert!(debt.debt_settled_bytes > 0, "{name}: nothing settled");
        assert_eq!(
            debt.debt_outstanding_bytes(),
            debt.debt_accrued_bytes
                .saturating_sub(debt.debt_settled_bytes),
            "{name}: outstanding must be accrued - settled"
        );
    }
    // The read-optimized corner defers nothing to settle: the B-tree
    // accrues write debt but has no flush/compaction to pay it down.
    let (_, debt, _) = metered_run("b+tree");
    assert_eq!(debt.debt_settled_bytes, 0, "b+tree settles nothing");
}

#[test]
fn view_rebuilds_reattribute_bytes_from_readers_to_writers() {
    let (_, debt, totals) = metered_run("lsm-tree+view");
    assert!(
        debt.reattributed_write_bytes > 0,
        "sorted-view rebuilds must move bytes between classes"
    );
    assert!(debt.conserves(&totals), "moves stay zero-sum");
}

#[test]
fn metered_run_is_bit_identical_to_plain_run() {
    for name in STACKS {
        let mut plain = rum::suite_method(name).expect("suite method");
        let baseline = run_stream(plain.as_mut(), OpStream::new(&spec()))
            .unwrap_or_else(|e| panic!("{name}: plain run failed: {e}"));
        let (observed, _, _) = metered_run(name);
        assert_eq!(baseline.counted_diff(&observed), None, "{name}");
    }
}

/// The plane publishes the latencies the collector measured: each
/// class's `rum_op_latency_ns` histogram is the collector's, its p50/p99
/// gauges are that histogram's quantiles, and a class that ran no ops
/// (the write class of a read-only stream) publishes none of the three.
#[test]
fn latency_series_are_the_collectors_histograms() {
    for (mix, writes) in [(OpMix::BALANCED, true), (OpMix::READ_ONLY, false)] {
        let mut method = rum::suite_method("b+tree").expect("suite method");
        let plane = MetricsPlane::new();
        let mut trace = TraceCollector::new(256, plane.sink());
        let spec = WorkloadSpec { mix, ..spec() };
        run_stream_metered(method.as_mut(), OpStream::new(&spec), &mut trace, &plane).unwrap();
        assert_eq!(trace.latency.write.count() > 0, writes, "{mix:?}");
        let snap = plane.registry().snapshot();
        for (class, h) in [
            ("read", &trace.latency.read),
            ("write", &trace.latency.write),
        ] {
            let labels = [("class", class)];
            let published = (
                snap.histogram("rum_op_latency_ns", &labels),
                snap.gauge("rum_op_latency_p50_ns", &labels),
                snap.gauge("rum_op_latency_p99_ns", &labels),
            );
            let expected = if h.count() > 0 {
                (Some(h), Some(h.p50() as f64), Some(h.p99() as f64))
            } else {
                (None, None, None)
            };
            assert_eq!(published, expected, "{mix:?} class={class}");
        }
    }
}
