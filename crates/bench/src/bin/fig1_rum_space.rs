//! Regenerates Figure 1 of the paper: every access method in the standard
//! suite, measured on one mixed workload and placed in the RUM triangle.
//!
//! Usage:
//!   cargo run --release -p rum-bench --bin fig1_rum_space [--quick] [--serial]
//!
//! By default the suite runs serially once and in parallel (one worker
//! per core) once, prints the parallel run's figure, and reports the
//! harness speedup; `--serial` skips the parallel run.

use std::time::Instant;

use rum_bench::fig1;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let serial_only = std::env::args().any(|a| a == "--serial");
    let (n, ops) = if quick {
        (1 << 13, 1 << 11)
    } else {
        (1 << 15, 1 << 13)
    };
    let seed = 0x0F16_0001;

    let started = Instant::now();
    let serial = fig1::run_with_threads(n, ops, seed, 1);
    let serial_ms = started.elapsed().as_secs_f64() * 1e3;

    let threads = rum::core::runner::default_threads();
    let (placements, harness_line) = if serial_only || threads <= 1 {
        (
            serial,
            format!("harness: serial {serial_ms:.0} ms ({threads} core(s) available)"),
        )
    } else {
        let started = Instant::now();
        let parallel = fig1::run_with_threads(n, ops, seed, threads);
        let parallel_ms = started.elapsed().as_secs_f64() * 1e3;
        // Identical measurements are the parallel harness's contract;
        // enforce it on every regeneration, not just in the test suite.
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.report.method, p.report.method, "method order diverged");
            assert_eq!(
                s.report.counted_diff(&p.report),
                None,
                "{}: serial and parallel measurements diverged",
                s.report.method
            );
        }
        let speedup = serial_ms / parallel_ms.max(1e-9);
        (
            parallel,
            format!(
                "harness: serial {serial_ms:.0} ms, parallel {parallel_ms:.0} ms \
                 on {threads} workers — {speedup:.2}x speedup"
            ),
        )
    };

    println!("{}", fig1::render(&placements));
    println!("{harness_line}");
    rum_bench::conclude(
        "=== Shape checks (the paper's qualitative placement) ===",
        fig1::shape_checks(&placements),
        &[],
    );
}
