//! The observability layer's contract, pinned on the full standard suite:
//!
//! 1. **Zero observer effect** — a run traced through the disabled
//!    [`NoopSink`] produces the same RO / UO / MO and cost snapshots as an
//!    untraced run of the same method, bit for bit. Tracing reads the
//!    tracker; it never charges it.
//! 2. **Windowed-sum invariant** — the per-window cost deltas partition
//!    the op phase: their sum equals the aggregate report's
//!    `read_costs + write_costs` byte-exactly (u64 field sums, no floats).
//! 3. **One loop, any observer, any source** — plain, traced, metered and
//!    (with a tuner that never migrates) autotuned runs, each fed an
//!    `OpStream` and a borrowed `Workload`, all report the counted
//!    measurements of a plain `run_stream`, bit for bit.
//! 4. **Histogram algebra** — [`LatencyHistogram::merge`] is associative
//!    and commutative, and merging shards matches recording everything in
//!    one histogram — the property the sharded runner's pointwise
//!    [`CostSnapshot::add`] already has, extended to latencies.

use proptest::prelude::*;
use rum::prelude::*;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        initial_records: 1_500,
        operations: 4_000,
        mix: OpMix::BALANCED,
        seed: 0x007E_ACE0,
        ..Default::default()
    }
}

fn assert_same_rum(ctx: &str, a: &RumReport, b: &RumReport) {
    assert_eq!(a.counted_diff(b), None, "{ctx}");
}

#[test]
fn noop_traced_runs_are_bit_identical_and_windows_partition_the_op_phase() {
    let spec = spec();
    let workload = Workload::generate(&spec);
    for (traced_method, untraced_method) in
        rum::standard_suite().into_iter().zip(rum::standard_suite())
    {
        let mut traced_method = traced_method;
        let mut untraced_method = untraced_method;
        let name = traced_method.name();

        let mut trace = TraceCollector::new(512, noop_sink());
        let traced = run_stream_traced(traced_method.as_mut(), &workload, &mut trace)
            .unwrap_or_else(|e| panic!("{name}: traced run failed: {e}"));
        let untraced = run_stream(untraced_method.as_mut(), &workload)
            .unwrap_or_else(|e| panic!("{name}: untraced run failed: {e}"));

        assert_same_rum(&name, &traced, &untraced);

        // Windowed deltas must sum byte-exactly to the aggregate, and
        // every op must land in exactly one window.
        let aggregate = traced.read_costs.add(&traced.write_costs);
        assert_eq!(trace.windowed_sum(), aggregate, "{name}: windowed sum");
        assert_eq!(
            trace.windows().iter().map(|w| w.ops).sum::<u64>(),
            spec.operations as u64,
            "{name}: window op partition"
        );
        assert_eq!(
            trace.windows().len(),
            spec.operations.div_ceil(512),
            "{name}: window count"
        );

        // Latency quantiles exist only on the traced report and are
        // ordered; the untraced report never times single ops.
        assert!(traced.p99_ns >= traced.p50_ns, "{name}: quantile order");
        assert_eq!(untraced.p50_ns, 0, "{name}");
        assert_eq!(untraced.p99_ns, 0, "{name}");
    }
}

/// A tuner whose warmup never ends, so it observes every window and never
/// orders a migration.
fn idle_tuner(spec: &WorkloadSpec) -> AutoTuner {
    let cfg = AutoTuneConfig {
        warmup_windows: usize::MAX,
        ..Default::default()
    };
    let (store, env, cons) = Default::default();
    AutoTuner::new(cfg, &spec.mix, store, env, cons)
}

#[test]
fn every_observer_and_every_source_reports_what_plain_run_stream_reports() {
    let spec = spec();
    let workload = Workload::generate(&spec);
    let stream = || OpStream::new(&spec);
    let collector = || TraceCollector::new(512, noop_sink());

    for index in 0..rum::standard_suite().len() {
        let fresh = || rum::standard_suite().swap_remove(index);
        let name = fresh().name();
        let plain = run_stream(fresh().as_mut(), stream()).unwrap();
        let plane = MetricsPlane::new();
        let (mut t1, mut t2, mut t3, mut t4) = (collector(), collector(), collector(), collector());
        let runs = [
            ("plain, &Workload", run_stream(fresh().as_mut(), &workload)),
            (
                "traced, OpStream",
                run_stream_traced(fresh().as_mut(), stream(), &mut t1),
            ),
            (
                "traced, &Workload",
                run_stream_traced(fresh().as_mut(), &workload, &mut t2),
            ),
            (
                "metered, OpStream",
                run_stream_metered(fresh().as_mut(), stream(), &mut t3, &plane),
            ),
            (
                "metered, &Workload",
                run_stream_metered(fresh().as_mut(), &workload, &mut t4, &plane),
            ),
        ];
        for (what, report) in runs {
            let ctx = format!("{name}: {what}");
            assert_same_rum(
                &ctx,
                &plain,
                &report.unwrap_or_else(|e| panic!("{ctx}: {e}")),
            );
        }
    }

    // The autotuned runner drives `Morphable` structures only.
    let morphables: [fn() -> Box<dyn Morphable>; 2] = [
        || {
            Box::new(
                rum::selftune::FamilyMorph::new(rum::core::wizard::Family::BTree)
                    .expect("B+-tree is range-capable"),
            )
        },
        || Box::new(rum::lsm::LsmTree::new()),
    ];
    for fresh in morphables {
        let name = fresh().name();
        let plain = run_stream(fresh().as_mut(), stream()).unwrap();
        let (mut t1, mut t2) = (collector(), collector());
        let runs = [
            (
                "OpStream",
                run_stream_autotuned(fresh().as_mut(), stream(), &mut idle_tuner(&spec), &mut t1),
            ),
            (
                "&Workload",
                run_stream_autotuned(fresh().as_mut(), &workload, &mut idle_tuner(&spec), &mut t2),
            ),
        ];
        for (what, run) in runs {
            let (report, summary) = run.unwrap();
            assert_same_rum(&format!("{name}: autotuned, {what}"), &plain, &report);
            // Only full windows reach the tuner; the trailing partial one
            // closes after the last op.
            assert_eq!(
                (summary.windows, summary.migrations),
                (spec.operations / 512, 0),
                "{name}"
            );
        }
    }
}

/// The LSM sorted-view events obey the same opt-in/noop contract as every
/// other event kind: with a real sink the build / hit / invalidate
/// lifecycle is visible (component `"lsm"`); with the noop sink the exact
/// same op sequence charges bit-identical costs.
#[test]
fn lsm_view_events_are_opt_in_and_observer_free() {
    use rum::lsm::{LsmConfig, LsmTree};

    let run = |sink: Option<std::sync::Arc<MemorySink>>| {
        let mut t = LsmTree::with_config(LsmConfig {
            memtable_records: 64,
            sorted_view: true,
            ..Default::default()
        });
        if let Some(s) = &sink {
            t.set_trace_sink(s.clone());
        }
        for k in 0..500u64 {
            t.insert(k, k).unwrap();
        }
        t.flush().unwrap();
        t.range(0, 100).unwrap(); // lazy build + hit
        t.range(50, 200).unwrap(); // warm hit
        for k in 500..600u64 {
            t.insert(k, k).unwrap();
        }
        t.flush().unwrap(); // invalidates
        t.range(0, 100).unwrap(); // rebuild + hit
        t.tracker().snapshot()
    };

    let sink = MemorySink::shared();
    let traced = run(Some(sink.clone()));
    let untraced = run(None);
    assert_eq!(traced, untraced, "view tracing must not charge a byte");

    let events = sink.events();
    let count = |kind: EventKind| events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count(EventKind::LsmViewBuild), 2, "lazy build + rebuild");
    assert_eq!(count(EventKind::LsmViewHit), 3, "one per range query");
    assert!(
        count(EventKind::LsmViewInvalidate) >= 1,
        "flush after queries must invalidate"
    );
    for e in &events {
        if matches!(
            e.kind,
            EventKind::LsmViewBuild | EventKind::LsmViewHit | EventKind::LsmViewInvalidate
        ) {
            assert_eq!(e.kind.component(), "lsm");
        }
    }
    // Build events carry the rebuild's cost; hits carry the query's.
    let build = events
        .iter()
        .find(|e| e.kind == EventKind::LsmViewBuild)
        .unwrap();
    assert!(build.detail.iter().any(|&(k, v)| k == "bytes" && v > 0));
}

fn histogram_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

fn merged(a: &LatencyHistogram, b: &LatencyHistogram) -> LatencyHistogram {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn histogram_merge_is_associative_and_commutative(
        xs in proptest::collection::vec(any::<u64>(), 0..80),
        ys in proptest::collection::vec(0u64..10_000_000, 0..80),
        zs in proptest::collection::vec(0u64..5_000, 0..80),
    ) {
        let (a, b, c) = (histogram_of(&xs), histogram_of(&ys), histogram_of(&zs));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        prop_assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c))
        );
        // Merging shard-local histograms is the same as one shard having
        // seen every sample — the CostSnapshot::add property for latencies.
        let mut all: Vec<u64> = Vec::new();
        all.extend(&xs);
        all.extend(&ys);
        all.extend(&zs);
        let whole = histogram_of(&all);
        let folded = merged(&merged(&a, &b), &c);
        prop_assert_eq!(&folded, &whole);
        prop_assert_eq!(folded.count(), (xs.len() + ys.len() + zs.len()) as u64);
        prop_assert_eq!(folded.p50(), whole.p50());
        prop_assert_eq!(folded.p999(), whole.p999());
    }
}
