//! Regenerates Table 1 of the paper: empirical page-access costs of the
//! six access methods, swept over dataset sizes, with the analytic
//! expectations printed beside the measurements and the paper's
//! qualitative claims checked at the end.
//!
//! Usage: `cargo run --release -p rum-bench --bin table1_complexity [--quick]`

use rum_bench::table1;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ns: &[usize] = if quick {
        &[1 << 12, 1 << 16]
    } else {
        &[1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20]
    };
    let params = table1::Table1Params::default();
    let rows = table1::run(ns, params);
    println!("{}", table1::render(&rows, &params));
    rum_bench::conclude(
        "=== Shape checks (the paper's qualitative claims) ===",
        table1::shape_checks(&rows),
        &[],
    );
}
