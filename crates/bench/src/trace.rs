//! Time-resolved RUM tracing: one suite method × one mix, run with a live
//! [`TraceCollector`] and a [`MemorySink`], exported three ways —
//!
//! * **trajectory CSV** — one row per window of `--window` ops
//!   (default 4096): windowed and cumulative RO/UO plus MO at the window
//!   close, the amplification curves the aggregate report averages away;
//! * **events JSONL** — every structured event the run emitted (LSM
//!   flushes and compactions, WAL syncs/checkpoints, buffer evictions,
//!   shard dispatches, window closes), one JSON object per line;
//! * **folded stacks** — `rum;component;kind bytes` lines, the input
//!   format of `flamegraph.pl` / `inferno-flamegraph`, weighting each
//!   event class by the physical bytes it moved.
//!
//! Every run self-checks the windowed-sum invariant: the per-window cost
//! deltas must sum **byte-exactly** to the aggregate report — every
//! op-phase byte lands in exactly one window.
//!
//! `rum-bench trace [METHOD] [--mix MIX] [--n OPS] [--window W]` traces
//! one [`rum::standard_suite`] method (default `lsm-tree+wal`) under one
//! [`mix_by_name`] mix (default `balanced`) for 10^5 ops; the window
//! defaults to [`DEFAULT_TRACE_WINDOW`] (4096). Results land in
//! `results/trace_<method>.jsonl`, `results/trajectory_<method>.csv` and
//! `results/trace_<method>.folded`. `--smoke` is the CI trace leg: it
//! traces `lsm-tree+wal` and `b+tree` at the baseline smoke scale and
//! checks the sum invariant and that each traced run reproduces the
//! untraced one bit-for-bit (that tracing *off* changes nothing is the
//! gate's `baseline_rum.csv`).

use rum::prelude::*;
use rum_core::runner::{run_stream, run_stream_traced};
use rum_core::trace::{
    events_to_jsonl, fold_events, ClassLatency, Event, MemorySink, TraceCollector, TrajectoryWindow,
};

use crate::table::finite;
use crate::{baseline, Outcome, Scale, Table, Target};

/// Everything one traced run produces.
pub struct TraceRun {
    pub report: RumReport,
    /// Closed trajectory windows, in execution order.
    pub windows: Vec<TrajectoryWindow>,
    /// Structured events in emission order.
    pub events: Vec<Event>,
    /// Events the sink shed once it was full: when nonzero, `events` (and
    /// the JSONL and folded stacks written from it) end early.
    pub dropped: u64,
    pub latency: ClassLatency,
    /// The byte-exact invariant: sum of windowed deltas == op-phase
    /// aggregate (`read_costs + write_costs`), compared field by field.
    pub windows_sum_exact: bool,
}

/// The `name()` of every standard-suite method, in suite order.
pub fn suite_names() -> Vec<String> {
    rum::standard_suite().iter().map(|m| m.name()).collect()
}

/// Parse a mix name (`balanced`, `read-heavy`, `write-heavy`,
/// `scan-heavy`, `read-only`, `insert-only`).
pub fn mix_by_name(name: &str) -> Option<OpMix> {
    match name {
        "balanced" => Some(OpMix::BALANCED),
        "read-heavy" => Some(OpMix::READ_HEAVY),
        "write-heavy" => Some(OpMix::WRITE_HEAVY),
        "scan-heavy" => Some(OpMix::SCAN_HEAVY),
        "read-only" => Some(OpMix::READ_ONLY),
        "insert-only" => Some(OpMix::INSERT_ONLY),
        _ => None,
    }
}

/// A method name as a filename fragment (`lsm-tree+wal` → `lsm-tree-wal`).
pub fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Run `spec` against `method` (streamed, never materialized) with a
/// memory sink attached and a trajectory window of `window` ops.
pub fn run_traced(
    method: &mut dyn AccessMethod,
    spec: &WorkloadSpec,
    window: usize,
) -> Result<TraceRun> {
    let sink = MemorySink::shared();
    method.set_trace_sink(sink.clone());
    let mut trace = TraceCollector::new(window, sink.clone());
    let report = run_stream_traced(method, OpStream::new(spec), &mut trace)?;
    let aggregate = report.read_costs.add(&report.write_costs);
    let windows_sum_exact = trace.windowed_sum() == aggregate;
    Ok(TraceRun {
        report,
        latency: trace.latency.clone(),
        windows: trace.into_windows(),
        events: sink.events(),
        dropped: sink.dropped(),
        windows_sum_exact,
    })
}

/// The trajectory: one row per window, windowed + cumulative curves.
/// Amplifications are finite-clamped (a window of an insert-only mix
/// retrieves zero logical bytes, making its RO ∞).
pub fn trajectory() -> Table<TrajectoryWindow> {
    Table::<TrajectoryWindow>::default()
        .col("window", "window:>6", |w| w.index)
        .col("ops", "ops:>7", |w| w.ops)
        .col("ro:.6", "RO:>9.3", |w| finite(w.ro()))
        .col("uo:.6", "UO:>9.3", |w| finite(w.uo()))
        .col("mo:.6", "MO:>7.3", |w| finite(w.mo))
        .col("cum_ro:.6", "cumRO:>9.3", |w| finite(w.cumulative_ro()))
        .col("cum_uo:.6", "cumUO:>9.3", |w| finite(w.cumulative_uo()))
        .col("read_bytes", "rd bytes:>11", |w| w.delta.total_read_bytes())
        .col("write_bytes", "wr bytes:>11", |w| {
            w.delta.total_write_bytes()
        })
        .col("logical_read_bytes", "", |w| w.delta.logical_read_bytes)
        .col("logical_write_bytes", "", |w| w.delta.logical_write_bytes)
        .col("page_reads", "", |w| w.delta.page_reads)
        .col("page_writes", "", |w| w.delta.page_writes)
}

/// Count events per kind, in a stable order, for the terminal summary.
pub fn event_counts(events: &[Event]) -> Vec<(String, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for e in events {
        *counts.entry(e.kind.as_str().to_string()).or_insert(0usize) += 1;
    }
    counts.into_iter().collect()
}

/// `rum-bench trace --smoke`: per method, the windowed sums are exact and
/// the traced report equals the untraced one in everything the cost model
/// determines (latency quantiles are wall-clock, excluded by
/// [`RumReport::counted_diff`]).
fn smoke() -> Outcome {
    let spec = baseline::smoke_spec();
    let window = 512; // several windows at smoke scale
    let checks = ["lsm-tree+wal", "b+tree"]
        .into_iter()
        .map(|name| {
            eprintln!("[trace] smoke: {name} ...");
            let mut traced = rum::suite_method(name).expect("suite name");
            let run = run_traced(traced.as_mut(), &spec, window)
                .unwrap_or_else(|e| panic!("{name}: traced run failed: {e}"));
            let mut untraced = rum::suite_method(name).expect("suite name");
            let plain = run_stream(untraced.as_mut(), OpStream::new(&spec))
                .unwrap_or_else(|e| panic!("{name}: untraced run failed: {e}"));
            let same =
                run.report.method == plain.method && run.report.counted_diff(&plain).is_none();
            (
                format!(
                    "{name}: {} windows sum byte-exactly; traced == untraced bit-for-bit; \
                     {} events dropped",
                    run.windows.len(),
                    run.dropped
                ),
                run.windows_sum_exact && same && run.dropped == 0,
            )
        })
        .collect();
    Outcome {
        checks,
        ..Default::default()
    }
}

/// `rum-bench trace`: see the module doc.
pub fn experiment(scale: Scale, target: &Target) -> Outcome {
    if scale == Scale::Smoke {
        return smoke();
    }
    let name = &target.method;
    let spec = target.spec(100_000, 0x7ACE_D000);
    let window = target.window.unwrap_or(DEFAULT_TRACE_WINDOW);
    eprintln!(
        "[trace] {name} × {}, {} ops, window {window} ...",
        target.mix, spec.operations
    );
    let mut method = rum::suite_method(name).expect("parse checked the method");
    let run = run_traced(method.as_mut(), &spec, window)
        .unwrap_or_else(|e| crate::fail(&format!("traced run failed: {e}")));

    let trajectory = trajectory();
    let mut rendered = format!(
        "=== RUM trajectory: {name} (window = {window} ops) ===\n{}\n\
         latency (ns): reads  {}\n              writes {}\n              all    {}\n\n\
         events:\n",
        trajectory.text(&run.windows),
        run.latency.read.summary(),
        run.latency.write.summary(),
        run.latency.overall().summary(),
    );
    for (kind, count) in event_counts(&run.events) {
        rendered.push_str(&format!("  {kind:<16} {count:>7}\n"));
    }
    rendered.push_str(&format!("  {:<16} {:>7}\n", "(dropped)", run.dropped));
    rendered.push_str(&format!(
        "\n{}\n{}\n",
        RumReport::table_header(),
        run.report.table_row()
    ));

    let tag = sanitize_name(name);
    Outcome {
        rendered,
        heading: "",
        checks: vec![(
            format!(
                "{} windowed deltas sum byte-exactly to the aggregate report",
                run.windows.len()
            ),
            run.windows_sum_exact,
        )],
        files: vec![
            (format!("trace_{tag}.jsonl"), events_to_jsonl(&run.events)),
            (
                format!("trajectory_{tag}.csv"),
                trajectory.csv(&run.windows),
            ),
            (format!("trace_{tag}.folded"), fold_events(&run.events)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::trace::EventKind;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            initial_records: 1_500,
            operations: 4_000,
            mix: OpMix::BALANCED,
            seed: 0x7ACE,
            ..Default::default()
        }
    }

    #[test]
    fn traced_lsm_run_produces_windows_events_and_exact_sums() {
        let mut method = rum::suite_method("lsm-tree+wal").expect("suite has lsm-tree+wal");
        let run = run_traced(method.as_mut(), &spec(), 512).unwrap();
        assert!(run.windows_sum_exact, "windowed deltas must sum exactly");
        assert_eq!(run.dropped, 0, "the default sink holds a test run's events");
        assert_eq!(run.windows.len(), 4_000usize.div_ceil(512));
        assert_eq!(
            run.windows.iter().map(|w| w.ops).sum::<u64>(),
            4_000,
            "every op lands in exactly one window"
        );
        // The durable LSM must have flushed, synced, and closed windows.
        let kinds: Vec<&str> = run.events.iter().map(|e| e.kind.as_str()).collect();
        assert!(kinds.contains(&"lsm_flush"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"wal_sync"));
        assert!(kinds.contains(&"window"));
        assert_eq!(
            run.events
                .iter()
                .filter(|e| e.kind == EventKind::Window)
                .count(),
            run.windows.len()
        );
        // Latencies were timed for both classes, and the report carries
        // the histogram quantiles.
        assert!(run.latency.read.count() > 0 && run.latency.write.count() > 0);
        assert!(run.report.p99_ns >= run.report.p50_ns);
        assert!(run.report.p50_ns > 0);
        // Exports are well-formed.
        let csv = trajectory().csv(&run.windows);
        assert_eq!(csv.lines().count(), run.windows.len() + 1);
        assert!(!csv.contains("inf") && !csv.contains("NaN"));
        let jsonl = events_to_jsonl(&run.events);
        assert_eq!(jsonl.lines().count(), run.events.len());
        let folded = fold_events(&run.events);
        assert!(folded
            .lines()
            .any(|l| l.starts_with("rum;lsm;lsm_flush;L0 ")));
        assert!(folded.lines().any(|l| l.starts_with("rum;wal;wal_sync ")));
    }

    #[test]
    fn method_and_mix_lookups_work() {
        assert!(rum::suite_method("b+tree").is_some());
        assert!(rum::suite_method("no-such-method").is_none());
        assert!(mix_by_name("balanced").is_some());
        assert!(mix_by_name("bogus").is_none());
        assert_eq!(sanitize_name("lsm-tree+wal"), "lsm-tree-wal");
        assert!(suite_names().len() >= 19);
    }
}
