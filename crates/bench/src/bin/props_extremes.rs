//! Regenerates §2 of the paper: Propositions 1–3.
//!
//! Usage: `cargo run --release -p rum-bench --bin props_extremes`

fn main() {
    println!("{}", rum_bench::props::report());
    rum_bench::conclude("=== Verdicts ===", rum_bench::props::verdicts(), &[]);
}
