//! Range-read acceleration sweep: the sorted view's RO-vs-MO trade.
//!
//! Usage:
//!   cargo run --release -p rum-bench --bin range_sweep [--smoke]
//!
//! Default grid: n = 10^5 records, 3·10^4 ops, three range-carrying mixes
//! × {bloom, quotient} × {view off, view on}; every view-on cell is
//! differentially replayed against its view-off twin (results must be
//! bit-identical) and scan-heavy must show the headline ≥2× RO win.
//! `--smoke` is the CI job: a reduced grid that still checks equality
//! and a strict RO win, exiting non-zero on any failure. The full run
//! writes `results/range_sweep.csv` and `results/range_sweep.txt`.

use rum_bench::range_sweep;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = if smoke {
        range_sweep::RangeSweepConfig::smoke()
    } else {
        range_sweep::RangeSweepConfig::default()
    };

    let rows = range_sweep::run(&config);
    let rendered = range_sweep::render(&rows);
    println!("{rendered}");

    let csv = range_sweep::to_csv(&rows);
    let files = [
        ("range_sweep.csv", csv.as_str()),
        ("range_sweep.txt", rendered.as_str()),
    ];
    rum_bench::conclude(
        "=== Checks ===",
        range_sweep::checks(&config, &rows),
        if smoke { &[] } else { &files },
    );
}
