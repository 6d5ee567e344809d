//! Regenerates Figure 2 of the paper: the vertical RUM tradeoff across a
//! memory hierarchy — buffer capacity (MO at level n−1) against storage
//! traffic (RO/UO at level n).
//!
//! Usage: `cargo run --release -p rum-bench --bin fig2_hierarchy [--quick]`

use rum_bench::fig2;
use rum_storage::DeviceProfile;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, ops) = if quick {
        (1 << 14, 20_000)
    } else {
        (1 << 17, 100_000)
    };
    let sweep: &[usize] = &[16, 64, 256, 1024, 4096, 16384];
    let rows = fig2::run(n, ops, sweep, DeviceProfile::SSD);
    println!("{}", fig2::render(&rows, n, ops));
    rum_bench::conclude("=== Shape checks ===", fig2::shape_checks(&rows), &[]);
}
