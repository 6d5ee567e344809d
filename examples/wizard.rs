//! The §5 "access method wizard": describe your workload and constraints,
//! get a ranked list of access-method families with predicted costs. With
//! no measurements to calibrate from, an empty `ProfileStore` ranks by the
//! analytic Table 1 model.
//!
//! ```sh
//! cargo run --release --example wizard
//! ```

use rum::prelude::*;

fn show(title: &str, mix: &OpMix, cons: &Constraints) {
    let env = Environment::default();
    println!("\n=== {title} ===");
    println!(
        "{:<18} {:>14} {:>9} violations",
        "family", "E[pages/op]", "feasible"
    );
    for rec in ProfileStore::new().recommend(mix, &env, cons).recs {
        println!(
            "{:<18} {:>14.2} {:>9} {}",
            rec.family.name(),
            rec.expected_cost,
            if rec.feasible { "yes" } else { "NO" },
            rec.violations.join("; ")
        );
    }
}

fn main() {
    show(
        "OLTP point lookups (read-only)",
        &OpMix::READ_ONLY,
        &Constraints::default(),
    );
    show(
        "ingest firehose (insert-only), flash-friendly writes",
        &OpMix::INSERT_ONLY,
        &Constraints {
            max_write_amp: Some(32.0),
            ..Default::default()
        },
    );
    show(
        "analytics (scan-heavy), tight memory budget",
        &OpMix::SCAN_HEAVY,
        &Constraints {
            needs_ranges: true,
            max_space_amp: Some(1.1),
            ..Default::default()
        },
    );
    show(
        "balanced mix, everything needed",
        &OpMix::BALANCED,
        &Constraints {
            needs_ranges: true,
            ..Default::default()
        },
    );
}
