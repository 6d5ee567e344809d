//! Fault storm: corruption resilience under recurring injected faults.
//!
//! Usage:
//!   cargo run --release -p rum-bench --bin fault_storm [--smoke]
//!
//! B+-tree and LSM tree over checksum-sealed faulty devices, crossed with
//! seeded fault profiles (clean / transient / bursty / bit-flip) and
//! retry policies, plus a WAL-wrapped LSM tree that heals bit flips
//! transparently. Every cell is replayed op-for-op against a fault-free
//! twin: converge cells must end bit-identical with retry traffic priced
//! exactly, detect cells must surface corruption before any wrong answer,
//! heal cells must hide the flips entirely. `--smoke` is the CI job
//! (smaller workload) and writes no files. Results land in
//! `results/fault_storm.{txt,csv}`. Exits non-zero if any check fails.

use rum_bench::fault_storm;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = if smoke {
        fault_storm::FaultStormConfig::smoke()
    } else {
        fault_storm::FaultStormConfig::default()
    };

    let matrix = fault_storm::run(&config);
    let rendered = fault_storm::render(&matrix);
    println!("{rendered}");

    let csv = fault_storm::to_csv(&matrix);
    let files = [
        ("fault_storm.csv", csv.as_str()),
        ("fault_storm.txt", rendered.as_str()),
    ];
    rum_bench::conclude(
        "=== Checks ===",
        fault_storm::checks(&matrix),
        if smoke { &[] } else { &files },
    );
}
