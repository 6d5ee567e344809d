//! The headline test: the RUM Conjecture itself, checked against every
//! access method in the suite.
//!
//! "An ideal solution is an access method that always provides the lowest
//! read cost, the lowest update cost, and requires no extra memory or
//! storage space over the base data. In practice, data structures are
//! designed to compromise between the three RUM overheads."
//!
//! Operationally: on a common mixed workload, **no method lands within a
//! small factor of the per-axis minimum on all three axes at once**. If
//! any method ever passes that test, either the conjecture is violated or
//! (far more likely) the accounting has a bug — both worth failing loudly
//! over.

use rum::prelude::*;

struct Measured {
    name: String,
    ro: f64,
    uo: f64,
    mo: f64,
}

fn measure_suite(spec: &WorkloadSpec) -> Vec<Measured> {
    run_suite_stream(&mut rum::standard_suite(), spec, default_threads())
        .unwrap_or_else(|e| panic!("suite run failed: {e}"))
        .into_iter()
        .map(|r| Measured {
            name: r.method,
            ro: r.ro,
            uo: r.uo,
            mo: r.mo,
        })
        .collect()
}

#[test]
fn no_method_wins_all_three_overheads() {
    let spec = WorkloadSpec {
        initial_records: 4096,
        operations: 4096,
        mix: OpMix::BALANCED,
        seed: 0x52554D, // "RUM"
        ..Default::default()
    };
    let results = measure_suite(&spec);

    // Per-axis minima across the suite. Overheads have a hard floor of
    // 1.0, so "close to the winner" uses the distance above 1.0.
    let min_ro = results.iter().map(|r| r.ro).fold(f64::MAX, f64::min);
    let min_uo = results.iter().map(|r| r.uo).fold(f64::MAX, f64::min);
    let min_mo = results.iter().map(|r| r.mo).fold(f64::MAX, f64::min);

    let near = |x: f64, min: f64| (x - 1.0) <= 2.0 * (min - 1.0).max(0.05);

    let all_three: Vec<&Measured> = results
        .iter()
        .filter(|r| near(r.ro, min_ro) && near(r.uo, min_uo) && near(r.mo, min_mo))
        .collect();
    assert!(
        all_three.is_empty(),
        "the RUM Conjecture just fell: {:?} won all three axes (mins: RO {min_ro:.2}, UO {min_uo:.2}, MO {min_mo:.2})",
        all_three.iter().map(|r| &r.name).collect::<Vec<_>>()
    );
}

#[test]
fn every_axis_has_a_different_kind_of_winner() {
    // Sanity on the design space: the RO winner, the UO winner, and the
    // MO winner must be different methods (otherwise the suite does not
    // span the triangle).
    let spec = WorkloadSpec {
        initial_records: 4096,
        operations: 4096,
        mix: OpMix::BALANCED,
        seed: 7,
        ..Default::default()
    };
    let results = measure_suite(&spec);
    let argmin = |f: fn(&Measured) -> f64| -> &str {
        &results
            .iter()
            .min_by(|a, b| f(a).total_cmp(&f(b)))
            .expect("non-empty")
            .name
    };
    let ro_winner = argmin(|r| r.ro);
    let uo_winner = argmin(|r| r.uo);
    let mo_winner = argmin(|r| r.mo);
    assert_ne!(ro_winner, uo_winner, "read and write winners coincide");
    assert_ne!(ro_winner, mo_winner, "read and space winners coincide");
}

#[test]
fn overheads_never_dip_below_their_theoretical_minimum() {
    // RO/UO/MO all have a floor of 1.0 by definition. Tolerate a small
    // epsilon below 1.0 for UO on structures whose physical write can be
    // smaller than the logical record (none should exist — this is the
    // accounting sanity net).
    for mix in [OpMix::BALANCED, OpMix::READ_HEAVY, OpMix::WRITE_HEAVY] {
        let spec = WorkloadSpec {
            initial_records: 2048,
            operations: 2048,
            mix,
            seed: 11,
            ..Default::default()
        };
        for r in measure_suite(&spec) {
            assert!(r.mo >= 1.0 - 1e-9, "{}: MO {} < 1", r.name, r.mo);
            assert!(
                r.uo >= 1.0 - 1e-9 || r.uo == 1.0,
                "{}: UO {} < 1",
                r.name,
                r.uo
            );
            // RO can only dip below 1.0 if a method fabricates results
            // without reading them — flag it.
            assert!(r.ro >= 0.99, "{}: RO {} < 1", r.name, r.ro);
        }
    }
}
