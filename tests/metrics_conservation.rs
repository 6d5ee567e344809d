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
//! 5. **The scrape is pinned** — the final `/metrics` and
//!    `/snapshot.json` texts of the `rum-bench top --smoke` runs fold into
//!    FNV digests, wall-clock latency values masked, so a change to the
//!    exporter or to the stores it renders moves no series, label, order
//!    or counted value unnoticed.

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
    let plane = MetricsPlane::new();
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
/// class's scraped `rum_op_latency_ns` histogram is the collector's
/// (every cumulative bucket, the sum and the count), its p50/p99 gauges
/// are that histogram's quantiles, and a class that ran no ops (the write
/// class of a read-only stream) exports none of them.
#[test]
fn latency_series_are_the_collectors_histograms() {
    for (mix, writes) in [(OpMix::BALANCED, true), (OpMix::READ_ONLY, false)] {
        let mut method = rum::suite_method("b+tree").expect("suite method");
        let plane = MetricsPlane::new();
        let mut trace = TraceCollector::new(256, plane.sink());
        let spec = WorkloadSpec { mix, ..spec() };
        run_stream_metered(method.as_mut(), OpStream::new(&spec), &mut trace, &plane).unwrap();
        assert_eq!(trace.latency.write.count() > 0, writes, "{mix:?}");
        let samples = rum_obs::parse_prometheus(&scrape(&plane).0).expect("scrape parses");
        for (class, h) in [
            ("read", &trace.latency.read),
            ("write", &trace.latency.write),
        ] {
            let published = samples.iter().filter(|s| {
                s.name.starts_with("rum_op_latency") && s.label("class") == Some(class)
            });
            let published: Vec<(&str, Option<&str>, f64)> = published
                .map(|s| (s.name.as_str(), s.label("le"), s.value))
                .collect();
            let mut expected = Vec::new();
            if h.count() > 0 {
                let mut buckets = Vec::new();
                let mut cumulative = 0;
                for (upper, n) in h.nonzero_buckets() {
                    cumulative += n;
                    buckets.push((upper.to_string(), cumulative));
                }
                buckets.push(("+Inf".to_string(), h.count()));
                expected.push(("rum_op_latency_p50_ns", None, h.p50()));
                expected.push(("rum_op_latency_p99_ns", None, h.p99()));
                for (le, n) in &buckets {
                    expected.push(("rum_op_latency_ns_bucket", Some(le.as_str()), *n));
                }
                expected.push(("rum_op_latency_ns_sum", None, h.sum()));
                expected.push(("rum_op_latency_ns_count", None, h.count()));
                let expected: Vec<_> = expected
                    .iter()
                    .map(|&(n, le, v)| (n, le, v as f64))
                    .collect();
                assert_eq!(published, expected, "{mix:?} class={class}");
            } else {
                assert!(published.is_empty(), "{mix:?} class={class}: {published:?}");
            }
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(text: &str) -> u64 {
    text.bytes().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// `s` with every run of ASCII digits that does not continue a word
/// replaced by one `_`: values and bucket bounds go, `p50` stays.
fn mask_digits(s: &str) -> String {
    let (mut out, mut word, mut masked) = (String::with_capacity(s.len()), false, false);
    for c in s.chars() {
        if c.is_ascii_digit() && !word {
            if !masked {
                out.push('_');
            }
            masked = true;
            continue;
        }
        masked = false;
        word = c.is_ascii_alphanumeric() || c == '_';
        out.push(c);
    }
    out
}

/// The exposition with the wall-clock `rum_op_latency_*` values masked:
/// after the metric name, digit runs become `_` (so bucket bounds and
/// values go, names and label names stay), and the run of masked bucket
/// lines that results collapses to one line.
fn mask_prometheus(text: &str) -> String {
    let mut lines: Vec<String> = Vec::new();
    for line in text.lines() {
        let line = match line.find('{') {
            Some(i) if line.starts_with("rum_op_latency") => {
                format!("{}{}", &line[..i], mask_digits(&line[i..]))
            }
            _ => line.to_string(),
        };
        if lines.last() != Some(&line) {
            lines.push(line);
        }
    }
    lines.join("\n")
}

/// The JSON snapshot with the values of every `rum_op_latency_*` object
/// masked: digit runs after its `"labels":` up to the object's end.
fn mask_json(json: &str) -> String {
    const NAME: &str = "{\"name\":\"rum_op_latency";
    let mut out = String::new();
    let mut rest = json;
    while let Some(start) = rest.find(NAME) {
        let labels = start + rest[start..].find("\"labels\":").expect("labels");
        let close = rest[labels..].find('}').expect("label set closes");
        let end = labels + close + 1 + rest[labels + close + 1..].find('}').expect("object closes");
        out.push_str(&rest[..labels]);
        out.push_str(&mask_digits(&rest[labels..end]));
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// The final `/metrics` and `/snapshot.json` bodies of `plane`.
fn scrape(plane: &MetricsPlane) -> (String, String) {
    (
        rum_obs::render_prometheus(plane),
        rum_obs::render_json(plane),
    )
}

/// One line per `rum-bench top --smoke` method: the masked `/metrics`
/// digest, then the masked `/snapshot.json` digest.
const SCRAPE_PINNED: &str = "\
b+tree        5fb448296d54ad96 81bee46133c489f6
lsm-tree      b5590b29c0a347e0 759ea4d2a17e6c09
lsm-tree+view 9caf5e6186c16abd 0863d34aa11c2c66
lsm-tree+wal  5058324be5659508 75b47c9104a33e47
";

/// The methods and stream of `rum-bench top --smoke` (`SMOKE_METHODS` and
/// `smoke_spec` in `crates/bench/src/obs.rs`), run as it runs them: the
/// plane's sink on the method and on the collector.
#[test]
fn final_scrape_matches_the_pinned_digests() {
    let spec = WorkloadSpec {
        initial_records: 2_000,
        operations: 6_000,
        mix: OpMix::BALANCED,
        seed: 0x0B5E_7241,
        ..Default::default()
    };
    let mut table = String::new();
    for name in ["b+tree", "lsm-tree", "lsm-tree+view", "lsm-tree+wal"] {
        let mut method = rum::suite_method(name).expect("suite method");
        let plane = MetricsPlane::new();
        let sink = plane.sink();
        method.set_trace_sink(sink.clone());
        let mut trace = TraceCollector::new(512, sink);
        run_stream_metered(method.as_mut(), OpStream::new(&spec), &mut trace, &plane)
            .unwrap_or_else(|e| panic!("{name}: metered run failed: {e}"));
        let (text, json) = scrape(&plane);
        rum_obs::parse_prometheus(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (text, json) = (mask_prometheus(&text), mask_json(&json));
        table += &format!("{name:<13} {:016x} {:016x}\n", fnv(&text), fnv(&json));
    }
    assert!(
        table == SCRAPE_PINNED,
        "final scrape digests moved; now:\n{table}"
    );
}
