//! Regenerates Figure 3 of the paper: tunable access methods tracing
//! curves through the RUM space as their parameters sweep.
//!
//! Usage: `cargo run --release -p rum-bench --bin fig3_tunable [--quick]`

use rum_bench::fig3;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, ops) = if quick {
        (1 << 13, 1 << 11)
    } else {
        (1 << 16, 1 << 13)
    };
    let points = fig3::run(n, ops);
    println!("{}", fig3::render(&points));
    rum_bench::conclude(
        "=== Shape checks (each knob moves the method as the paper predicts) ===",
        fig3::shape_checks(&points),
        &[],
    );
}
