//! The RUM baseline: smoke-scale RO/UO/MO of every standard-suite method.
//!
//! The amplifications are pure counted-byte ratios, fully deterministic
//! given the workload seed — independent of thread count, wall clock, and
//! host — so the baseline is gated *byte-exactly*: [`table`] writes each
//! value in Rust's shortest-roundtrip `Display` form, `rum-bench gate`
//! compares the text with `results/smoke/baseline_rum.csv`, and any
//! difference means an access method's physical traffic changed, which is
//! exactly what must never happen silently. A method added to or dropped
//! from the suite is a row added or missing, which the gate reports with
//! its line like any other drift.

use rum::prelude::*;

use crate::{Outcome, Scale, Table, Target};

/// The workload every baseline measurement runs: small enough for CI,
/// large enough that every suite method flushes/compacts/splits.
pub fn smoke_spec() -> WorkloadSpec {
    WorkloadSpec {
        initial_records: 2_000,
        operations: 6_000,
        mix: OpMix::BALANCED,
        seed: 0xBA5E_11FE,
        ..Default::default()
    }
}

/// One suite method's measured overheads.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineRow {
    pub method: String,
    pub ro: f64,
    pub uo: f64,
    pub mo: f64,
}

/// Measure the current tree's baseline, one row per suite method in name
/// order.
pub fn measure(threads: usize) -> Vec<BaselineRow> {
    run_suite_stream(&mut rum::standard_suite(), &smoke_spec(), threads)
        .unwrap_or_else(|e| panic!("baseline suite run failed: {e}"))
        .into_iter()
        .map(|r| BaselineRow {
            method: r.method,
            ro: r.ro,
            uo: r.uo,
            mo: r.mo,
        })
        .collect()
}

/// The gated artifact: `method,ro,uo,mo` with shortest-roundtrip floats.
pub fn table() -> Table<BaselineRow> {
    Table::<BaselineRow>::default()
        .col("method", "", |r| r.method.clone())
        .col("ro", "", |r| r.ro)
        .col("uo", "", |r| r.uo)
        .col("mo", "", |r| r.mo)
}

/// `rum-bench baseline --smoke`: prints exactly what the gate compares.
pub fn experiment(_: Scale, _: &Target) -> Outcome {
    let threads = rum::core::runner::default_threads();
    eprintln!("[baseline] measuring standard suite ({threads} threads) ...");
    let mut csv = table().csv(&measure(threads));
    let files = vec![("baseline_rum.csv".to_string(), csv.clone())];
    csv.pop(); // the caller's println! puts the final newline back
    Outcome {
        rendered: csv,
        files,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_deterministic_across_thread_counts() {
        let a = measure(1);
        let b = measure(2);
        assert_eq!(a, b, "RO/UO/MO must not depend on worker threads");
        // The gated artifact itself, so a codec slip in any suite method
        // fails `cargo test`, not only `rum-bench gate`.
        assert_eq!(
            table().csv(&a),
            include_str!("../../../results/smoke/baseline_rum.csv"),
            "counted traffic moved: see `rum-bench gate`"
        );
        assert!(a.len() >= 19, "suite has {} methods", a.len());
        for r in &a {
            assert!(
                r.ro.is_finite() && r.uo.is_finite() && r.mo >= 1.0,
                "{}",
                r.method
            );
        }
    }
}
