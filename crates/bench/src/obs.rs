//! The live-metrics observability experiment: suite methods run under
//! the full metrics plane ([`MetricsPlane`] + [`DebtLedger`] +
//! exporter-ready registry), producing the per-op-class **causally
//! attributed** RUM table — who really pays for each background byte —
//! plus the two invariants the CI `obs` leg enforces:
//!
//! * **conservation** — per-class attributed bytes sum bit-equal to the
//!   tracker totals ([`DebtSnapshot::conserves`]), for every method;
//! * **observer-freedom** — a metrics-enabled run is bit-identical in
//!   RO/UO/MO (and full cost snapshots) to a metrics-disabled run of the
//!   same stream, for every standard-suite method
//!   ([`metrics_equivalence`]).
//!
//! [`DebtLedger`]: rum_core::metrics::DebtLedger

use std::sync::Arc;

use rum::prelude::*;
use rum_core::metrics::{DebtSnapshot, MetricsPlane, OpClass};
use rum_core::runner::{run_stream, run_stream_metered};
use rum_core::trace::TraceCollector;

use crate::trace::find_method;

/// Configuration of one observability run.
pub struct ObsConfig {
    pub initial_records: usize,
    pub operations: usize,
    /// Trajectory window (gauges republish at every window close).
    pub window: usize,
    pub seed: u64,
    /// Standard-suite method names to run.
    pub methods: Vec<String>,
}

impl ObsConfig {
    /// The deterministic CI configuration: small enough for the smoke
    /// leg, large enough that every LSM variant flushes, compacts, syncs
    /// its WAL, and rebuilds its sorted view.
    pub fn smoke() -> ObsConfig {
        ObsConfig {
            initial_records: 2_000,
            operations: 6_000,
            window: 512,
            seed: 0x0B5E_7241,
            methods: ["b+tree", "lsm-tree", "lsm-tree+view", "lsm-tree+wal"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            initial_records: self.initial_records,
            operations: self.operations,
            mix: OpMix::BALANCED,
            seed: self.seed,
            ..Default::default()
        }
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

/// Run one standard-suite method under the metrics plane.
pub fn run_method(name: &str, cfg: &ObsConfig) -> Result<MethodObs> {
    let mut method = find_method(name)
        .ok_or_else(|| RumError::InvalidArgument(format!("unknown suite method {name:?}")))?;
    let plane = MetricsPlane::shared();
    // The plane's sink feeds the ledger and the registry mirror; it is
    // also the collector's sink, so Window events are mirrored too.
    let sink = plane.sink();
    method.set_trace_sink(sink.clone());
    let mut trace = TraceCollector::new(cfg.window, sink);
    let report = run_stream_metered(
        method.as_mut(),
        OpStream::new(&cfg.spec()),
        &mut trace,
        &plane,
    )?;
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

/// Run every configured method, in order.
pub fn run(cfg: &ObsConfig) -> Vec<MethodObs> {
    cfg.methods
        .iter()
        .map(|name| run_method(name, cfg).unwrap_or_else(|e| panic!("obs run {name}: {e}")))
        .collect()
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// The causal-attribution table as CSV: one row per method × op class.
/// Fully deterministic (no wall-clock columns), so the artifact gate
/// byte-compares it against `results/smoke/obs_debt.csv`.
pub fn to_csv(rows: &[MethodObs]) -> String {
    let mut out = String::from(
        "method,class,ops,logical_read_bytes,logical_write_bytes,attributed_read_bytes,\
         attributed_write_bytes,class_ro,class_uo,debt_accrued_bytes,debt_settled_bytes,\
         debt_outstanding_bytes,reattributed_read_bytes,reattributed_write_bytes,conserved\n",
    );
    for r in rows {
        for class in OpClass::ALL {
            let a = r.debt.class(class);
            let ops = match class {
                // The load phase's "ops" are the records bulk-loaded.
                OpClass::Load => {
                    r.report.load_costs.logical_write_bytes / rum_core::RECORD_SIZE as u64
                }
                OpClass::Read => r.report.read_ops,
                OpClass::Write => r.report.write_ops,
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{:.6},{:.6},{},{},{},{},{},{}\n",
                r.name,
                class.as_str(),
                ops,
                a.charged.logical_read_bytes,
                a.charged.logical_write_bytes,
                a.attributed_read_bytes(),
                a.attributed_write_bytes(),
                finite(a.ro()),
                finite(a.uo()),
                r.debt.debt_accrued_bytes,
                r.debt.debt_settled_bytes,
                r.debt.debt_outstanding_bytes(),
                r.debt.reattributed_read_bytes,
                r.debt.reattributed_write_bytes,
                u64::from(r.conserved),
            ));
        }
    }
    out
}

/// Fixed-width terminal rendering of the attribution table.
pub fn render(rows: &[MethodObs]) -> String {
    let mut out = String::from("=== causal debt attribution (per op class) ===\n");
    out.push_str(&format!(
        "{:<16} {:>6} {:>14} {:>14} {:>9} {:>9} {:>12} {:>9}\n",
        "method", "class", "attr rd bytes", "attr wr bytes", "RO", "UO", "debt out", "conserved"
    ));
    for r in rows {
        for class in OpClass::ALL {
            let a = r.debt.class(class);
            out.push_str(&format!(
                "{:<16} {:>6} {:>14} {:>14} {:>9.3} {:>9.3} {:>12} {:>9}\n",
                r.name,
                class.as_str(),
                a.attributed_read_bytes(),
                a.attributed_write_bytes(),
                finite(a.ro()),
                finite(a.uo()),
                r.debt.debt_outstanding_bytes(),
                if r.conserved { "yes" } else { "NO" },
            ));
        }
    }
    out
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
pub fn metrics_equivalence(
    initial_records: usize,
    operations: usize,
    seed: u64,
) -> Vec<EquivalenceRow> {
    let spec = WorkloadSpec {
        initial_records,
        operations,
        mix: OpMix::BALANCED,
        seed,
        ..Default::default()
    };
    let mut rows = Vec::new();
    let names: Vec<String> = rum::standard_suite().iter().map(|m| m.name()).collect();
    for name in names {
        let mut plain = find_method(&name).expect("suite method");
        let baseline = run_stream(plain.as_mut(), OpStream::new(&spec))
            .unwrap_or_else(|e| panic!("{name} plain: {e}"));

        let mut metered = find_method(&name).expect("suite method");
        let plane = MetricsPlane::shared();
        let sink = plane.sink();
        metered.set_trace_sink(sink.clone());
        let mut trace = TraceCollector::new(512, sink);
        let observed =
            run_stream_metered(metered.as_mut(), OpStream::new(&spec), &mut trace, &plane)
                .unwrap_or_else(|e| panic!("{name} metered: {e}"));

        let identical = baseline.counted_diff(&observed).is_none();
        rows.push(EquivalenceRow {
            method: name,
            identical,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_conserves_and_attributes_background_bytes() {
        let cfg = ObsConfig::smoke();
        let rows = run(&cfg);
        assert_eq!(rows.len(), cfg.methods.len());
        for r in &rows {
            assert!(r.conserved, "{}: attribution must conserve", r.name);
            // The registry mirrored the event stream and published the
            // final gauge set.
            assert_eq!(
                r.plane.registry().gauge("rum_conservation_ok", &[]),
                Some(1.0),
                "{}",
                r.name
            );
        }
        // LSM variants defer writes: debt accrued and flushes settled
        // some of it; the write class carries the flush/compaction bytes.
        let lsm = rows.iter().find(|r| r.name == "lsm-tree").unwrap();
        assert!(lsm.debt.debt_accrued_bytes > 0);
        assert!(lsm.debt.debt_settled_bytes > 0);
        assert!(
            lsm.plane
                .registry()
                .counter("rum_events_total", &[("kind", "lsm_flush")])
                > 0
        );
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
        let csv = to_csv(&rows);
        assert_eq!(csv.lines().count(), 1 + rows.len() * 3);
        assert!(!csv.contains("inf") && !csv.contains("NaN"));
    }

    #[test]
    fn smoke_csv_is_deterministic() {
        let cfg = ObsConfig::smoke();
        assert_eq!(to_csv(&run(&cfg)), to_csv(&run(&cfg)));
    }

    #[test]
    fn metrics_on_equals_metrics_off_for_a_slice_of_the_suite() {
        // The full-suite sweep is the smoke binary's job; the unit test
        // pins the property on the methods with the busiest background
        // machinery.
        for name in ["lsm-tree+wal", "lsm-tree+view", "b+tree"] {
            let mut plain = find_method(name).unwrap();
            let spec = WorkloadSpec {
                initial_records: 1_000,
                operations: 2_000,
                mix: OpMix::BALANCED,
                seed: 7,
                ..Default::default()
            };
            let baseline = run_stream(plain.as_mut(), OpStream::new(&spec)).unwrap();
            let mut metered = find_method(name).unwrap();
            let plane = MetricsPlane::shared();
            let sink = plane.sink();
            metered.set_trace_sink(sink.clone());
            let mut trace = TraceCollector::new(256, sink);
            let observed =
                run_stream_metered(metered.as_mut(), OpStream::new(&spec), &mut trace, &plane)
                    .unwrap();
            assert_eq!(baseline.ro.to_bits(), observed.ro.to_bits(), "{name} RO");
            assert_eq!(baseline.uo.to_bits(), observed.uo.to_bits(), "{name} UO");
            assert_eq!(baseline.mo.to_bits(), observed.mo.to_bits(), "{name} MO");
        }
    }
}
