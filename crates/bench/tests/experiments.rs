//! The paper's experiments at test scale: every qualitative claim
//! (proposition, table, figure) must hold on a small, fast configuration
//! so `cargo test` guards the reproduction end to end.

use rum_bench::{fig1, fig2, fig3, props, scale, table1};
use rum_storage::DeviceProfile;

fn assert_all(checks: Vec<(String, bool)>, what: &str) {
    let failures: Vec<String> = checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(d, _)| d.clone())
        .collect();
    assert!(
        failures.is_empty(),
        "{what}: {} claim(s) failed:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}

#[test]
fn propositions_hold() {
    let verdicts: Vec<(String, bool)> = props::verdicts();
    assert_all(verdicts, "§2 propositions");
}

#[test]
fn table1_shape_holds_at_test_scale() {
    let params = table1::Table1Params::default();
    let rows = table1::run(&[1 << 12, 1 << 14], params);
    assert_all(table1::shape_checks(&rows), "Table 1");
}

#[test]
fn fig1_placement_holds_at_test_scale() {
    let placements = fig1::run(1 << 12, 1 << 10, 99);
    assert_all(fig1::shape_checks(&placements), "Figure 1");
}

#[test]
fn fig2_vertical_tradeoff_holds() {
    let rows = fig2::run(1 << 13, 10_000, &[16, 128, 1024, 8192], DeviceProfile::SSD);
    assert_all(fig2::shape_checks(&rows), "Figure 2");
}

#[test]
fn fig3_knobs_move_methods_as_predicted() {
    let points = fig3::run(1 << 12, 1 << 10);
    let checks = fig3::shape_checks(&points);
    // The twelve claims, in order: a row dropped from the claim list fails
    // here instead of passing unchecked.
    let labels: Vec<&str> = checks.iter().map(|(label, _)| label.as_str()).collect();
    assert_eq!(
        labels,
        [
            "LSM T↑ (levelling): RO falls",
            "LSM T↑ (levelling): UO rises",
            "tiering (T=4) has lower UO than levelling",
            "tiering (T=4) has higher RO than levelling",
            "ZoneMap P↓: RO falls (finer pruning)",
            "ZoneMap P↓: MO rises (more zones)",
            "Bloom bits↑: RO falls on miss-heavy reads",
            "Bloom bits↑: MO rises",
            "B+-tree node↑: UO rises (fatter page writes)",
            "PBT partitions↑: UO falls (merges deferred)",
            "PBT partitions↑: RO rises (more partitions probed)",
            "B+-tree fill↓: MO rises (slack pages)",
        ]
    );
    assert_all(checks, "Figure 3");
}

#[test]
fn scale_sweep_holds_at_test_scale() {
    // A miniature of the CI smoke job: stream a few batches across 1, 2,
    // and 4 shards, cross-check every K against the serial per-op run,
    // and require finite, well-formed RUM values throughout.
    let config = scale::ScaleConfig {
        ns: vec![4096],
        ks: vec![1, 2, 4],
        batch: 512,
        verify: true,
    };
    let rows = scale::run(&config);
    assert_all(scale::checks(&rows), "scale sweep");
}

#[test]
fn table1_theory_tracks_measurement() {
    // Beyond qualitative shape: measured point-query costs should land
    // within a small factor of the wizard's closed forms (same units:
    // pages).
    let params = table1::Table1Params::default();
    let rows = table1::run(&[1 << 14], params);
    for r in &rows {
        let (theory, _, _) = table1::theory(r.family, r.n, params.m);
        let measured = r.point_pages.max(0.01);
        let ratio = measured / theory.max(0.01);
        assert!(
            (0.2..=5.0).contains(&ratio),
            "{}: point theory {theory:.2} vs measured {measured:.2}",
            r.method
        );
    }
}
