//! Scale sweep: streaming workload generation + sharded concurrent
//! execution, at op counts the materialized harness cannot reach.
//!
//! Usage:
//!   cargo run --release -p rum-bench --bin scale_sweep [--quick | --smoke]
//!
//! Default sweep: n ∈ {10^5, 10^6, 10^7} ops × K ∈ {1, 2, 4, 8} shards.
//! `--quick` caps n at 10^6; `--smoke` is the CI job (n = 10^5,
//! K ∈ {1, 2, 8}) and exits non-zero on any non-finite value, any
//! serial≠streamed mismatch, or any K>1 cell falling below the
//! throughput ratio floor (ops/s within 3× of K=1, widened to 6× on
//! single-core hosts where the pool is oversubscribed — the guard
//! against dispatch-overhead regressions). Results land in
//! `results/scale_sweep.csv` and `results/scale_sweep.txt`.

use rum_bench::scale;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = if smoke {
        scale::ScaleConfig::smoke()
    } else if quick {
        scale::ScaleConfig {
            ns: vec![100_000, 1_000_000],
            ..Default::default()
        }
    } else {
        scale::ScaleConfig::default()
    };

    let rows = scale::run(&config);
    let rendered = scale::render(&rows);
    println!("{rendered}");

    let csv = scale::to_csv(&rows);
    let files = [
        ("scale_sweep.csv", csv.as_str()),
        ("scale_sweep.txt", rendered.as_str()),
    ];
    rum_bench::conclude(
        "=== Checks ===",
        scale::checks(&rows),
        if smoke { &[] } else { &files },
    );
}
