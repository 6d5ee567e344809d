//! Drift suite: the online AutoTuner versus every static configuration.
//!
//! Usage:
//!   cargo run --release -p rum-bench --bin drift_sweep [--smoke]
//!
//! Default grid: three drifting scenarios (diurnal rotation, flash-crowd
//! spike, scan-storm interlude) × six arms (four static LSM shapes, the
//! AutoTuner, the cross-family swapper). Checks: the tuner triggers a
//! priced migration somewhere in the suite, beats the worst static arm
//! per scenario, stays within the configured corridor of the best,
//! strictly beats every static arm on the suite total, and replays
//! bit-identically to its untuned twin. `--smoke` is the CI job: a
//! reduced grid with a small corridor. The full run writes
//! `results/drift_sweep.csv` and `results/drift_sweep.txt`.

use rum_bench::drift_sweep;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = if smoke {
        drift_sweep::DriftSweepConfig::smoke()
    } else {
        drift_sweep::DriftSweepConfig::default()
    };

    let rows = drift_sweep::run(&config);
    let rendered = drift_sweep::render(&rows);
    println!("{rendered}");

    let csv = drift_sweep::to_csv(&rows);
    let files = [
        ("drift_sweep.csv", csv.as_str()),
        ("drift_sweep.txt", rendered.as_str()),
    ];
    rum_bench::conclude(
        "=== Checks ===",
        drift_sweep::checks(&config, &rows),
        if smoke { &[] } else { &files },
    );
}
