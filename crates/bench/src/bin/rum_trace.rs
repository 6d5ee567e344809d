//! Time-resolved RUM tracing: windowed amplification trajectories, latency
//! histograms, and structured event export for one suite method × one mix.
//!
//! Usage:
//!   cargo run --release -p rum-bench --bin rum_trace \
//!       \[METHOD\] \[--mix MIX\] \[--n OPS\] \[--window W\] \[--smoke\]
//!
//! `METHOD` is any `standard_suite` name (default `lsm-tree+wal`); `MIX`
//! is one of balanced / read-heavy / write-heavy / scan-heavy / read-only /
//! insert-only. The window defaults to `RUM_TRACE_WINDOW` (4096). Results
//! land in `results/trace_<method>.jsonl` (structured events),
//! `results/trajectory_<method>.csv` (windowed RO/UO/MO curves), and
//! `results/trace_<method>.folded` (flamegraph-compatible stacks).
//!
//! Every run self-checks the windowed-sum invariant: the per-window cost
//! deltas must sum **byte-exactly** to the aggregate report.
//!
//! `--smoke` is the CI trace leg: it traces `lsm-tree+wal` and `b+tree` at
//! the baseline smoke scale, asserts the sum invariant and that the traced
//! run reproduces the untraced one bit-for-bit, then re-runs the full
//! baseline gate with tracing disabled to prove the observability layer
//! changes nothing when off.

use rum_bench::{baseline, trace};

use rum::prelude::*;
use rum_core::runner::run_stream;
use rum_core::trace::env_trace_window;

const BASELINE_PATH: &str = "results/baseline_rum.json";

fn fail(msg: &str) -> ! {
    eprintln!("rum_trace: {msg}");
    std::process::exit(1)
}

/// Bit-for-bit equality of everything the cost model determines (the
/// traced report additionally carries latency quantiles, which wall-clock
/// timing makes non-deterministic — excluded by construction).
fn same_measurements(a: &RumReport, b: &RumReport) -> bool {
    a.method == b.method && a.counted_diff(b).is_none()
}

fn smoke() {
    let spec = baseline::smoke_spec();
    let window = 512; // several windows at smoke scale
    for name in ["lsm-tree+wal", "b+tree"] {
        eprintln!("[trace] smoke: {name} ...");
        let mut traced_method =
            trace::find_method(name).unwrap_or_else(|| fail(&format!("{name} not in suite")));
        let run = trace::run_traced(traced_method.as_mut(), &spec, window)
            .unwrap_or_else(|e| fail(&format!("{name}: traced run failed: {e}")));
        if !run.windows_sum_exact {
            fail(&format!("{name}: windowed deltas do not sum to aggregate"));
        }
        let mut untraced_method = trace::find_method(name).expect("suite name");
        let untraced = run_stream(untraced_method.as_mut(), OpStream::new(&spec))
            .unwrap_or_else(|e| fail(&format!("{name}: untraced run failed: {e}")));
        if !same_measurements(&run.report, &untraced) {
            fail(&format!("{name}: traced run diverged from untraced run"));
        }
        println!(
            "  [PASS] {name}: {} windows sum byte-exactly; traced == untraced bit-for-bit",
            run.windows.len()
        );
    }

    // Tracing disabled (the compiled-in NoopSink default) must leave the
    // committed baseline untouched.
    eprintln!("[trace] smoke: baseline gate with tracing disabled ...");
    let current = baseline::measure(rum::core::runner::default_threads());
    let text = std::fs::read_to_string(BASELINE_PATH)
        .unwrap_or_else(|e| fail(&format!("cannot read {BASELINE_PATH}: {e}")));
    let committed = baseline::Baseline::from_json(&text)
        .unwrap_or_else(|e| fail(&format!("corrupt {BASELINE_PATH}: {e}")));
    let drifts = baseline::compare(&committed, &current, baseline::DRIFT_TOLERANCE);
    if !drifts.is_empty() {
        println!("{}", baseline::render(&committed, &current, &drifts));
        fail("baseline drifted with tracing disabled");
    }
    println!(
        "  [PASS] baseline gate: all {} methods within {:.0e} with tracing off",
        current.methods.len(),
        baseline::DRIFT_TOLERANCE
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let mut method_name = "lsm-tree+wal".to_string();
    let mut mix_name = "balanced".to_string();
    let mut operations = 100_000usize;
    let mut window = env_trace_window();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mix" => {
                mix_name = it
                    .next()
                    .unwrap_or_else(|| fail("--mix needs a value"))
                    .clone()
            }
            "--n" => {
                operations = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--n needs a positive integer"))
            }
            "--window" => {
                window = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--window needs a positive integer"))
            }
            other if other.starts_with("--") => fail(&format!("unknown flag {other}")),
            other => method_name = other.to_string(),
        }
    }

    let mut method = trace::find_method(&method_name).unwrap_or_else(|| {
        fail(&format!(
            "unknown method {:?}; suite: {}",
            method_name,
            trace::suite_names().join(", ")
        ))
    });
    let mix =
        trace::mix_by_name(&mix_name).unwrap_or_else(|| fail(&format!("unknown mix {mix_name:?}")));
    let spec = WorkloadSpec {
        initial_records: (operations / 10).max(1),
        operations,
        mix,
        seed: 0x7ACE_D000 + operations as u64,
        ..Default::default()
    };

    eprintln!("[trace] {method_name} × {mix_name}, {operations} ops, window {window} ...");
    let run = trace::run_traced(method.as_mut(), &spec, window)
        .unwrap_or_else(|e| fail(&format!("traced run failed: {e}")));

    println!(
        "{}",
        trace::render_trajectory(&method_name, window, &run.windows)
    );
    println!("{}", trace::render_latency(&run));
    println!("events:");
    for (kind, count) in trace::event_counts(&run.events) {
        println!("  {kind:<16} {count:>7}");
    }
    println!("\n{}", RumReport::table_header());
    println!("{}", run.report.table_row());

    if !run.windows_sum_exact {
        fail("windowed deltas do not sum byte-exactly to the aggregate report");
    }
    println!(
        "\n[PASS] {} windowed deltas sum byte-exactly to the aggregate report",
        run.windows.len()
    );

    let tag = trace::sanitize_name(&method_name);
    std::fs::create_dir_all("results").expect("results dir");
    let jsonl_path = format!("results/trace_{tag}.jsonl");
    let csv_path = format!("results/trajectory_{tag}.csv");
    let folded_path = format!("results/trace_{tag}.folded");
    std::fs::write(&jsonl_path, trace::to_jsonl(&run.events)).expect("write jsonl");
    std::fs::write(&csv_path, trace::trajectory_csv(&run.windows)).expect("write csv");
    std::fs::write(&folded_path, trace::to_folded(&run.events)).expect("write folded");
    println!("wrote {jsonl_path}, {csv_path}, {folded_path}");
}
