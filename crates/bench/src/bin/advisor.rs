//! The calibrated access-method wizard (§5): measure empirical method
//! profiles over a mix × distribution × scale grid, rank families from the
//! measurements, and hold the ranking against the analytic Table 1 model.
//!
//! Usage:
//!   cargo run --release -p rum-bench --bin advisor [--smoke]
//!
//! Default: scales {2k, 8k, 32k} × {uniform, zipf 0.99} × the five
//! canonical mixes; writes `results/advisor_profiles.csv` (the persistent
//! profile store) and `results/advisor.txt` (the ranking tables).
//! `--smoke` is the CI job (two scales, uniform keys, no files) and exits
//! non-zero when any check fails — in particular when the measured and
//! analytic rankings disagree on the top feasible family beyond the
//! declared tolerance on any unconstrained canonical mix; the failure
//! message names the disagreeing Table 1 term.

use rum_bench::advisor;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = if smoke {
        advisor::AdvisorConfig::smoke()
    } else {
        advisor::AdvisorConfig::default()
    };
    eprintln!("[advisor] {}", advisor::grid_summary(&config));

    let run = advisor::run(&config);
    let rendered = advisor::render(&run);
    println!("{rendered}");

    let csv = advisor::to_csv(&run);
    let files = [
        ("advisor_profiles.csv", csv.as_str()),
        ("advisor.txt", rendered.as_str()),
    ];
    rum_bench::conclude(
        "=== Checks ===",
        advisor::checks(&run),
        if smoke { &[] } else { &files },
    );
}
