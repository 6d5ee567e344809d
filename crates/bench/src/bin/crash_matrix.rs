//! Crash matrix: WAL durability cost (folded into UO) and recovery
//! exactness under deterministic fault injection.
//!
//! Usage:
//!   cargo run --release -p rum-bench --bin crash_matrix [--smoke]
//!
//! Default: 2 methods (LSM tree, append log — both WAL-wrapped) × 2 op
//! mixes × 12 seeded crash points (clean crash / torn write / failed
//! flush). Every cell recovers and is compared bit-for-bit against a
//! reference structure fed only the acknowledged operation prefix.
//! `--smoke` is the CI job (smaller workloads, 6 points) and writes no
//! files. Results land in `results/crash_matrix.{txt,csv}`. Exits
//! non-zero if any check fails.

use rum_bench::crash;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = if smoke {
        crash::CrashConfig::smoke()
    } else {
        crash::CrashConfig::default()
    };

    let matrix = crash::run(&config);
    let rendered = crash::render(&matrix);
    println!("{rendered}");

    let csv = crash::to_csv(&matrix);
    let files = [
        ("crash_matrix.csv", csv.as_str()),
        ("crash_matrix.txt", rendered.as_str()),
    ];
    rum_bench::conclude(
        "=== Checks ===",
        crash::checks(&matrix),
        if smoke { &[] } else { &files },
    );
}
