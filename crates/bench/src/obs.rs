//! The live-metrics observability experiment: suite methods run under
//! the full metrics plane ([`MetricsPlane`]: a [`DebtLedger`] that is
//! also the run's sink, plus the record the runner publishes at every
//! window close), producing the per-op-class **causally attributed** RUM
//! table — who really pays for each background byte —
//! plus the two invariants the CI `obs` leg enforces:
//!
//! * **conservation** — per-class attributed bytes sum bit-equal to the
//!   tracker totals ([`DebtSnapshot::conserves`]), for every method;
//! * **observer-freedom** — a metrics-enabled run is bit-identical in
//!   RO/UO/MO (and full cost snapshots) to a metrics-disabled run of the
//!   same stream, for every standard-suite method
//!   ([`metrics_equivalence`]).
//!
//! `rum-bench top [METHOD] [--mix MIX] [--n OPS] [--window W] [--addr
//! HOST:PORT] [--refresh MS]` is the live dashboard over the same plane:
//! it runs `METHOD` (default `lsm-tree+wal`, 4·10^5 balanced ops) on a
//! driver thread, serves the plane over HTTP, and *scrapes its own
//! exporter* — everything on screen travelled through the Prometheus text
//! format, so the dashboard doubles as an end-to-end test of the wire
//! path. Each frame shows per-op-class amortized RO/UO, the causal debt
//! table, sparklined gauge histories, event counters, and latency
//! quantiles. `--addr 127.0.0.1:9184` pins the port so an external
//! Prometheus can scrape the same run.
//!
//! `rum-bench top --smoke` is the CI obs leg, in three acts:
//!   1. conservation over each of its four methods;
//!   2. exporter round-trip — serve a finished plane on an ephemeral
//!      port, scrape `/metrics`, validate it with the strict parser, and
//!      check the key series exist (including `rum_conservation_ok 1`);
//!   3. observer-freedom over the whole standard suite.
//!
//! [`DebtLedger`]: rum_core::metrics::DebtLedger

use std::sync::{mpsc, Arc};
use std::time::Duration;

use rum::prelude::*;
use rum_core::metrics::{ClassAttribution, DebtSnapshot, MetricsPlane, OpClass};
use rum_core::runner::{run_stream, run_stream_metered};
use rum_core::trace::TraceCollector;
use rum_core::RECORD_SIZE;
use rum_obs::{http_get, parse_prometheus, serve, PromSample};

use crate::table::finite;
use crate::{baseline, fail, Outcome, Scale, Table, Target};

/// The standard-suite methods of the smoke run: few enough for the smoke
/// leg, and every LSM variant among them flushes, compacts, syncs its WAL
/// and rebuilds its sorted view over [`smoke_spec`].
const SMOKE_METHODS: [&str; 4] = ["b+tree", "lsm-tree", "lsm-tree+view", "lsm-tree+wal"];
/// Trajectory window of the smoke run (gauges republish at every window
/// close).
const SMOKE_WINDOW: usize = 512;

/// The deterministic stream every smoke method runs.
fn smoke_spec() -> WorkloadSpec {
    WorkloadSpec {
        initial_records: 2_000,
        operations: 6_000,
        mix: OpMix::BALANCED,
        seed: 0x0B5E_7241,
        ..Default::default()
    }
}

/// Everything one metered run produces: the aggregate report, the debt
/// ledger's causal attribution, the raw tracker totals it must conserve
/// against, and the live plane (still scrapeable by an exporter).
pub struct MethodObs {
    pub name: String,
    pub report: RumReport,
    pub debt: DebtSnapshot,
    pub totals: CostSnapshot,
    /// The conservation verdict: attributed bytes sum bit-equal to
    /// `totals`.
    pub conserved: bool,
    pub plane: Arc<MetricsPlane>,
}

/// Run `method` over `spec` under `plane`. The plane's sink (its ledger)
/// goes on the method and on the `window`-op collector, so Window events
/// are counted too.
fn metered(
    method: &mut dyn AccessMethod,
    spec: &WorkloadSpec,
    window: usize,
    plane: &MetricsPlane,
) -> Result<RumReport> {
    let sink = plane.sink();
    method.set_trace_sink(sink.clone());
    let mut trace = TraceCollector::new(window, sink);
    run_stream_metered(method, OpStream::new(spec), &mut trace, plane)
}

/// Run one standard-suite method over the smoke stream under the metrics
/// plane.
pub fn run_method(name: &str) -> Result<MethodObs> {
    let mut method = rum::suite_method(name)
        .ok_or_else(|| RumError::InvalidArgument(format!("unknown suite method {name:?}")))?;
    let plane = Arc::new(MetricsPlane::new());
    let report = metered(method.as_mut(), &smoke_spec(), SMOKE_WINDOW, &plane)?;
    let totals = method.tracker().snapshot();
    let debt = plane.ledger().snapshot();
    let conserved = debt.conserves(&totals);
    Ok(MethodObs {
        name: name.to_string(),
        report,
        debt,
        totals,
        conserved,
        plane,
    })
}

/// Run every smoke method, in order.
pub fn run() -> Vec<MethodObs> {
    SMOKE_METHODS
        .iter()
        .map(|name| run_method(name).unwrap_or_else(|e| panic!("obs run {name}: {e}")))
        .collect()
}

/// The causal-attribution table: one row per method × op class. The CSV
/// is fully deterministic (no wall-clock columns), so the artifact gate
/// byte-compares it against `results/smoke/obs_debt.csv`.
pub fn table<'a>() -> Table<ClassRow<'a>> {
    Table::<ClassRow>::default()
        .col("method", "method:<16", |(r, ..)| r.name.clone())
        .col("class", "class:>6", |(_, c, _)| c.as_str())
        .col("ops", "", |&(r, class, _)| match class {
            // The load phase's "ops" are the records bulk-loaded.
            OpClass::Load => r.report.load_costs.logical_write_bytes / RECORD_SIZE as u64,
            OpClass::Read => r.report.read_ops,
            OpClass::Write => r.report.write_ops,
        })
        .col("logical_read_bytes", "", |(.., a)| {
            a.charged.logical_read_bytes
        })
        .col("logical_write_bytes", "", |(.., a)| {
            a.charged.logical_write_bytes
        })
        .col("attributed_read_bytes", "attr rd bytes:>14", |(.., a)| {
            a.attributed_read_bytes()
        })
        .col("attributed_write_bytes", "attr wr bytes:>14", |(.., a)| {
            a.attributed_write_bytes()
        })
        .col("class_ro:.6", "RO:>9.3", |(.., a)| finite(a.ro()))
        .col("class_uo:.6", "UO:>9.3", |(.., a)| finite(a.uo()))
        .col("debt_accrued_bytes", "", |(r, ..)| {
            r.debt.debt_accrued_bytes
        })
        .col("debt_settled_bytes", "", |(r, ..)| {
            r.debt.debt_settled_bytes
        })
        .col("debt_outstanding_bytes", "debt out:>12", |(r, ..)| {
            r.debt.debt_outstanding_bytes()
        })
        .col("reattributed_read_bytes", "", |(r, ..)| {
            r.debt.reattributed_read_bytes
        })
        .col("reattributed_write_bytes", "", |(r, ..)| {
            r.debt.reattributed_write_bytes
        })
        .col("conserved", "", |(r, ..)| u64::from(r.conserved))
        .col(
            "",
            "conserved:>9",
            |(r, ..)| if r.conserved { "yes" } else { "NO" },
        )
}

/// One row of [`table`]: a method, an op class and what it was charged.
pub type ClassRow<'a> = (&'a MethodObs, OpClass, &'a ClassAttribution);

/// Every row of [`table`], method-major.
pub fn class_rows(rows: &[MethodObs]) -> Vec<ClassRow<'_>> {
    let classes = rows
        .iter()
        .map(|r| OpClass::ALL.map(|c| (r, c, r.debt.class(c))));
    classes.flatten().collect()
}

/// One method's metrics-on vs metrics-off verdict.
pub struct EquivalenceRow {
    pub method: String,
    /// RO/UO/MO bit-equal and all three cost snapshots identical.
    pub identical: bool,
}

/// Drive every standard-suite method twice over the same stream — once
/// plain ([`run_stream`]), once under a full metrics plane with its sink
/// installed ([`run_stream_metered`]) — and compare the measured
/// results. `identical` demands bit-equality of RO/UO/MO and equality
/// of the read/write/load cost snapshots: the metrics plane must be a
/// pure observer.
pub fn metrics_equivalence(spec: &WorkloadSpec) -> Vec<EquivalenceRow> {
    let names = rum::standard_suite()
        .iter()
        .map(|m| m.name())
        .collect::<Vec<_>>();
    let rows = names.into_iter().map(|name| {
        let method = || rum::suite_method(&name).expect("suite method");
        let baseline = run_stream(method().as_mut(), OpStream::new(spec))
            .unwrap_or_else(|e| panic!("{name} plain: {e}"));
        let observed = metered(method().as_mut(), spec, 512, &MetricsPlane::new())
            .unwrap_or_else(|e| panic!("{name} metered: {e}"));
        let identical = baseline.counted_diff(&observed).is_none();
        EquivalenceRow {
            method: name,
            identical,
        }
    });
    rows.collect()
}

/// Gauge lookup in one scrape: exact name + optional `class` label.
fn gauge(samples: &[PromSample], name: &str, class: Option<&str>) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && s.label("class") == class)
        .map(|s| s.value)
}

/// Render `history` as a fixed-width sparkline, scaled to its own range.
fn sparkline(history: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail: Vec<f64> = history
        .iter()
        .rev()
        .take(width)
        .rev()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    if tail.is_empty() {
        return String::new();
    }
    let lo = tail.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    tail.iter()
        .map(|v| BARS[(((v - lo) / span) * 7.0).round() as usize % 8])
        .collect()
}

fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} KB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

/// The gauges `top` keeps a history of, for the sparklines: label,
/// series name and `class` label.
const TRACKED: [(&str, &str, Option<&str>); 5] = [
    (
        "RO read (amortized)",
        "rum_class_read_amplification",
        Some("read"),
    ),
    (
        "UO write (amortized)",
        "rum_class_write_amplification",
        Some("write"),
    ),
    ("MO (space amp)", "rum_space_amplification", None),
    (
        "debt outstanding (bytes)",
        "rum_debt_outstanding_bytes",
        None,
    ),
    ("live records", "rum_live_records", None),
];

/// Each [`TRACKED`] gauge's values, one per scrape that carried it.
type Histories = [Vec<f64>; TRACKED.len()];

/// One dashboard frame, rendered entirely from a parsed scrape.
fn render_frame(title: &str, scrape_no: u64, samples: &[PromSample], hist: &Histories) -> String {
    const W: usize = 32;
    let mut out = String::new();
    out.push_str(&format!("rum_top — {title}  (scrape #{scrape_no})\n\n"));

    out.push_str(&format!("  {:<28} {:>12}  {}\n", "gauge", "now", "history"));
    for ((label, name, _), history) in TRACKED.iter().zip(hist) {
        let now = history.last().copied().unwrap_or(0.0);
        let shown = match *name {
            "rum_debt_outstanding_bytes" => fmt_bytes(now),
            "rum_live_records" => format!("{now:.0}"),
            _ => format!("{now:.3}"),
        };
        let line = sparkline(history, W);
        out.push_str(&format!("  {label:<28} {shown:>12}  {line}\n"));
    }

    out.push_str("\n  causal debt attribution\n");
    out.push_str(&format!(
        "  {:<7} {:>10} {:>10} {:>12} {:>12}\n",
        "class", "RO", "UO", "attr rd", "attr wr"
    ));
    for class in OpClass::ALL {
        let c = Some(class.as_str());
        out.push_str(&format!(
            "  {:<7} {:>10.3} {:>10.3} {:>12} {:>12}\n",
            class.as_str(),
            gauge(samples, "rum_class_read_amplification", c).unwrap_or(0.0),
            gauge(samples, "rum_class_write_amplification", c).unwrap_or(0.0),
            fmt_bytes(gauge(samples, "rum_class_attributed_read_bytes", c).unwrap_or(0.0)),
            fmt_bytes(gauge(samples, "rum_class_attributed_write_bytes", c).unwrap_or(0.0)),
        ));
    }
    out.push_str(&format!(
        "  debt: accrued {} / settled {} / outstanding {}   reattributed rd {} wr {}\n",
        fmt_bytes(gauge(samples, "rum_debt_accrued_bytes", None).unwrap_or(0.0)),
        fmt_bytes(gauge(samples, "rum_debt_settled_bytes", None).unwrap_or(0.0)),
        fmt_bytes(gauge(samples, "rum_debt_outstanding_bytes", None).unwrap_or(0.0)),
        fmt_bytes(gauge(samples, "rum_reattributed_read_bytes", None).unwrap_or(0.0)),
        fmt_bytes(gauge(samples, "rum_reattributed_write_bytes", None).unwrap_or(0.0)),
    ));

    out.push_str("\n  latency (ns)        p50        p99\n");
    for class in ["read", "write"] {
        out.push_str(&format!(
            "  {:<14} {:>10.0} {:>10.0}\n",
            class,
            gauge(samples, "rum_op_latency_p50_ns", Some(class)).unwrap_or(0.0),
            gauge(samples, "rum_op_latency_p99_ns", Some(class)).unwrap_or(0.0),
        ));
    }

    let mut kinds: Vec<(&str, f64)> = samples
        .iter()
        .filter(|s| s.name == "rum_events_total")
        .filter_map(|s| s.label("kind").map(|k| (k, s.value)))
        .collect();
    kinds.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let total: f64 = kinds.iter().map(|&(_, n)| n).sum();
    out.push_str(&format!("\n  events ({} total)\n", total as u64));
    for chunk in kinds.chunks(3) {
        out.push_str("  ");
        for (kind, n) in chunk {
            out.push_str(&format!("{kind:<18} {:>8}   ", *n as u64));
        }
        out.push('\n');
    }
    out
}

/// Act 2 of the smoke leg: serve `plane` on an ephemeral port and scrape
/// it back. `Ok` is the passing check's text, `Err` the failing one's.
fn exporter_roundtrip(plane: &Arc<MetricsPlane>) -> std::result::Result<String, String> {
    let mut server = serve(Arc::clone(plane), "127.0.0.1:0")
        .map_err(|e| format!("exporter bind failed: {e}"))?;
    let addr = server.local_addr();
    let (status, body) = http_get(addr, "/metrics").map_err(|e| format!("scrape failed: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics returned HTTP {status}"));
    }
    let samples = parse_prometheus(&body).map_err(|e| format!("exposition invalid: {e}"))?;
    for series in [
        "rum_events_total",
        "rum_debt_outstanding_bytes",
        "rum_op_latency_ns_bucket",
    ] {
        if !samples.iter().any(|s| s.name == series) {
            return Err(format!("scrape missing series {series}"));
        }
    }
    if gauge(&samples, "rum_class_read_amplification", Some("read")).is_none() {
        return Err("scrape missing rum_class_read_amplification{class=\"read\"}".into());
    }
    if gauge(&samples, "rum_conservation_ok", None) != Some(1.0) {
        return Err("rum_conservation_ok != 1 over the wire".into());
    }
    let (status, json) =
        http_get(addr, "/snapshot.json").map_err(|e| format!("/snapshot.json failed: {e}"))?;
    if status != 200 || !json.contains("\"counters\"") {
        return Err("/snapshot.json malformed".into());
    }
    server.shutdown();
    Ok(format!(
        "{} samples scraped from {addr}, parsed strictly, key series live",
        samples.len()
    ))
}

/// `rum-bench top --smoke`: the three acts of the module doc, one check each.
fn smoke() -> Outcome {
    eprintln!("[obs] smoke: causal attribution + conservation ...");
    let rows = run();

    eprintln!("[obs] smoke: exporter round-trip ...");
    let lsm = rows
        .iter()
        .find(|r| r.name == "lsm-tree")
        .expect("lsm-tree is a smoke method");
    let exporter = exporter_roundtrip(&lsm.plane);

    eprintln!("[obs] smoke: metrics-on ≡ metrics-off across the standard suite ...");
    let verdicts = metrics_equivalence(&baseline::smoke_spec());
    for v in verdicts.iter().filter(|v| !v.identical) {
        eprintln!("[obs] metrics plane perturbed {}", v.method);
    }

    let (table, class_rows) = (table(), class_rows(&rows));
    let mut rendered = format!(
        "=== causal debt attribution (per op class) ===\n{}",
        table.text(&class_rows)
    );
    rendered.pop(); // the caller's println! puts the final newline back
    Outcome {
        rendered,
        heading: "",
        checks: vec![
            (
                format!(
                    "conservation: {} methods, attributed bytes sum bit-equal to tracker totals",
                    rows.len()
                ),
                rows.iter().all(|r| r.conserved),
            ),
            (
                format!(
                    "exporter: {}",
                    exporter.as_deref().unwrap_or_else(|why| why)
                ),
                exporter.is_ok(),
            ),
            (
                format!(
                    "observer-freedom: {} suite methods bit-identical with the plane on vs off",
                    verdicts.len()
                ),
                verdicts.iter().all(|v| v.identical),
            ),
        ],
        files: vec![("obs_debt.csv".into(), table.csv(&class_rows))],
    }
}

/// `rum-bench top`: see the module doc. The live mode draws its frames as
/// it goes; what it returns is the closing summary.
pub fn experiment(scale: Scale, target: &Target) -> Outcome {
    if scale == Scale::Smoke {
        return smoke();
    }
    let (method_name, mix_name) = (&target.method, &target.mix);
    let spec = target.spec(400_000, 0x70_D0);
    let operations = spec.operations;
    let window = target.window.unwrap_or(2048);
    let addr = target.addr.as_deref().unwrap_or("127.0.0.1:0");
    let refresh_ms = target.refresh_ms.unwrap_or(250);
    let mut method = rum::suite_method(method_name).expect("parse checked the method");

    let plane = Arc::new(MetricsPlane::new());
    let server = serve(Arc::clone(&plane), addr)
        .unwrap_or_else(|e| fail(&format!("exporter bind on {addr} failed: {e}")));
    let bound = server.local_addr();
    eprintln!(
        "[obs] {method_name} × {mix_name}, {operations} ops; exporter on http://{bound}/metrics"
    );

    // The driver owns the method and runs the metered stream; the main
    // thread only ever sees the run through its own exporter scrapes.
    let (tx, rx) = mpsc::channel();
    let driver_plane = Arc::clone(&plane);
    let driver = std::thread::Builder::new()
        .name("rum-top-driver".into())
        .spawn(move || {
            let _ = tx.send(metered(method.as_mut(), &spec, window, &driver_plane));
        })
        .unwrap_or_else(|e| fail(&format!("driver thread: {e}")));

    let title = format!("{method_name} × {mix_name} @ {bound}");
    let mut hist = Histories::default();
    let mut scrape_no = 0u64;
    let mut finished: Option<Result<RumReport>> = None;
    loop {
        if finished.is_none() {
            finished = rx.try_recv().ok();
        }
        match http_get(bound, "/metrics") {
            Ok((200, body)) => match parse_prometheus(&body) {
                Ok(samples) => {
                    scrape_no += 1;
                    for ((_, name, class), history) in TRACKED.iter().zip(&mut hist) {
                        history.extend(gauge(&samples, name, *class));
                    }
                    // ANSI: clear screen, home cursor, redraw.
                    print!(
                        "\x1b[2J\x1b[H{}",
                        render_frame(&title, scrape_no, &samples, &hist)
                    );
                }
                Err(e) => eprintln!("[obs] scrape #{scrape_no} unparseable: {e}"),
            },
            Ok((status, _)) => eprintln!("[obs] scrape returned HTTP {status}"),
            Err(e) => eprintln!("[obs] scrape failed: {e}"),
        }
        if finished.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(refresh_ms));
    }
    driver
        .join()
        .unwrap_or_else(|_| fail("driver thread panicked"));

    let report = match finished.expect("driver result") {
        Ok(r) => r,
        Err(e) => fail(&format!("metered run failed: {e}")),
    };
    let debt = plane.ledger().snapshot();
    let totals = plane.published().and_then(|p| p.totals);
    let conserved = totals.is_some_and(|t| debt.conserves(&t));
    Outcome {
        rendered: format!(
            "\n{}\n{}\ndebt: accrued {} / settled {} / outstanding {}; conserved {}\n\
             exporter stayed live through {scrape_no} scrapes on {bound}",
            RumReport::table_header(),
            report.table_row(),
            debt.debt_accrued_bytes,
            debt.debt_settled_bytes,
            debt.debt_outstanding_bytes(),
            if conserved { "yes" } else { "NO" },
        ),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_conserves_and_attributes_background_bytes() {
        let rows = run();
        assert_eq!(rows.len(), SMOKE_METHODS.len());
        for r in &rows {
            assert!(r.conserved, "{}: attribution must conserve", r.name);
            // The finished run published the totals it conserves against.
            let published = r.plane.published().and_then(|p| p.totals);
            assert_eq!(published, Some(r.totals), "{}", r.name);
        }
        // LSM variants defer writes: debt accrued and flushes settled
        // some of it; the write class carries the flush/compaction bytes.
        let lsm = rows.iter().find(|r| r.name == "lsm-tree").unwrap();
        assert!(lsm.debt.debt_accrued_bytes > 0);
        assert!(lsm.debt.debt_settled_bytes > 0);
        assert!(lsm.debt.events[EventKind::LsmFlush as usize] > 0);
        // The sorted-view LSM rebuilds views during read spans, so bytes
        // were re-attributed from readers back to the writers that
        // invalidated the view.
        let view = rows.iter().find(|r| r.name == "lsm-tree+view").unwrap();
        assert!(
            view.debt.reattributed_write_bytes > 0,
            "view rebuilds must move bytes between classes"
        );
        assert!(view.conserved, "re-attribution stays conservative");
        // CSV shape: header + methods × 3 classes, wall-clock free.
        let csv = table().csv(&class_rows(&rows));
        assert_eq!(csv.lines().count(), 1 + rows.len() * 3);
        assert!(!csv.contains("inf") && !csv.contains("NaN"));
    }

    #[test]
    fn smoke_csv_is_deterministic() {
        let csv = || {
            let (rows, table) = (run(), table());
            table.csv(&class_rows(&rows))
        };
        assert_eq!(csv(), csv());
    }

    #[test]
    fn metrics_on_equals_metrics_off_for_a_slice_of_the_suite() {
        // The full-suite sweep is the smoke binary's job; the unit test
        // pins the property on the methods with the busiest background
        // machinery.
        for name in ["lsm-tree+wal", "lsm-tree+view", "b+tree"] {
            let mut plain = rum::suite_method(name).unwrap();
            let spec = WorkloadSpec {
                initial_records: 1_000,
                operations: 2_000,
                mix: OpMix::BALANCED,
                seed: 7,
                ..Default::default()
            };
            let baseline = run_stream(plain.as_mut(), OpStream::new(&spec)).unwrap();
            let mut method = rum::suite_method(name).unwrap();
            let observed = metered(method.as_mut(), &spec, 256, &MetricsPlane::new()).unwrap();
            assert_eq!(baseline.ro.to_bits(), observed.ro.to_bits(), "{name} RO");
            assert_eq!(baseline.uo.to_bits(), observed.uo.to_bits(), "{name} UO");
            assert_eq!(baseline.mo.to_bits(), observed.mo.to_bits(), "{name} MO");
        }
    }
}
