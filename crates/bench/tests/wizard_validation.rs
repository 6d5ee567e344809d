//! Cross-validation of the §5 "access method wizard": its analytic
//! rankings must agree with actual measurements of the implementations it
//! ranks — the wizard is only useful if Table 1's cost model predicts the
//! real (simulated) world.

use rum_bench::{dataset, inserts, pages_per_op, point_queries, range_queries, table1};
use rum_core::advisor::ProfileStore;
use rum_core::wizard::{Constraints, Environment, Family};
use rum_core::workload::OpMix;

fn measured_cost(family: Family, mix: &OpMix, n: usize) -> f64 {
    // The Table 1 implementation tagged with this family.
    let params = table1::Table1Params::default();
    let Some((_, _, factory)) = table1::methods(params)
        .into_iter()
        .find(|(_, tag, _)| *tag == Some(family))
    else {
        return f64::NAN; // not a Table 1 method (the cracked column)
    };
    let mut m = factory();
    m.bulk_load(&dataset(n)).unwrap();
    let total = mix.total();
    let write_frac = (mix.insert + mix.update + mix.delete) / total;
    let mut cost = 0.0;
    if mix.get > 0.0 {
        cost += (mix.get / total) * pages_per_op(m.as_mut(), &point_queries(n, 32));
    }
    if mix.range > 0.0 {
        cost += (mix.range / total) * pages_per_op(m.as_mut(), &range_queries(n, params.m, 8));
    }
    if write_frac > 0.0 {
        let samples = if family == Family::SortedColumn {
            4
        } else {
            64
        };
        cost += write_frac * pages_per_op(m.as_mut(), &inserts(n, samples));
    }
    cost
}

fn check_mix(mix: OpMix, n: usize) {
    let env = Environment {
        n,
        ..Default::default()
    };
    // The analytic wizard is the ranking of a store with no measurements.
    let ranking = ProfileStore::new().recommend(&mix, &env, &Constraints::default());
    // Take the wizard's best and worst Table 1 families.
    let ranked: Vec<Family> = ranking
        .recs
        .iter()
        .filter(|r| r.family != Family::CrackedColumn)
        .map(|r| r.family)
        .collect();
    let best = ranked.first().copied().expect("non-empty");
    let worst = ranked.last().copied().expect("non-empty");
    let best_measured = measured_cost(best, &mix, n);
    let worst_measured = measured_cost(worst, &mix, n);
    assert!(
        best_measured <= worst_measured * 1.10,
        "wizard ranked {best:?} over {worst:?}, but measured {best_measured:.2} vs {worst_measured:.2} pages/op"
    );
}

#[test]
fn wizard_top_pick_beats_its_bottom_pick_read_only() {
    check_mix(OpMix::READ_ONLY, 1 << 14);
}

#[test]
fn wizard_top_pick_beats_its_bottom_pick_insert_only() {
    check_mix(OpMix::INSERT_ONLY, 1 << 14);
}

#[test]
fn wizard_top_pick_beats_its_bottom_pick_scan_heavy() {
    check_mix(OpMix::SCAN_HEAVY, 1 << 14);
}

#[test]
fn wizard_point_cost_predictions_order_correctly() {
    // For pure point reads the wizard's per-family point costs must rank
    // hash < btree < sorted < unsorted, and the measurements must agree.
    let n = 1 << 14;
    let env = Environment {
        n,
        ..Default::default()
    };
    let analytic: Vec<(Family, f64)> = [
        Family::HashIndex,
        Family::BTree,
        Family::SortedColumn,
        Family::UnsortedColumn,
    ]
    .iter()
    .map(|&f| (f, rum_core::wizard::profile(f, &env).point_cost))
    .collect();
    for w in analytic.windows(2) {
        assert!(
            w[0].1 <= w[1].1,
            "analytic order broken: {:?} {} > {:?} {}",
            w[0].0,
            w[0].1,
            w[1].0,
            w[1].1
        );
        let m0 = measured_cost(w[0].0, &OpMix::READ_ONLY, n);
        let m1 = measured_cost(w[1].0, &OpMix::READ_ONLY, n);
        assert!(
            m0 <= m1 * 1.10,
            "measured order broken: {:?} {m0:.2} > {:?} {m1:.2}",
            w[0].0,
            w[1].0
        );
    }
}
