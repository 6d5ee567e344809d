//! Property-based tests for the advisor ([`rum_core::advisor`]):
//! determinism, measured-value constraint enforcement, and the empty store
//! as the analytic Table 1 wizard.

use proptest::prelude::*;
use rum_core::advisor::{ProfilePoint, ProfileStore};
use rum_core::wizard::{profile, Constraints, Environment, Family};
use rum_core::workload::OpMix;

/// Deterministically expand a seed into a synthetic profile store covering
/// `families` (a bitmask over [`Family::ALL`]) with a handful of plausible
/// points per method. Building stores from a seed keeps each proptest case
/// cheap while still exploring many store shapes.
fn synth_store(seed: u64, families: u8) -> ProfileStore {
    let mut store = ProfileStore::new();
    let mut state = seed | 1;
    // xorshift64* — plenty for synthetic fixtures.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn unit(state: &mut u64, lo: f64, hi: f64) -> f64 {
        lo + (next(state) % 10_000) as f64 / 10_000.0 * (hi - lo)
    }
    for (i, family) in Family::ALL.iter().enumerate() {
        if families & (1 << i) == 0 {
            continue;
        }
        for scale in [1_000usize, 10_000] {
            for mix in [OpMix::READ_HEAVY, OpMix::WRITE_HEAVY, OpMix::RANGE_HEAVY] {
                store.add_point(
                    family.suite_method(),
                    ProfilePoint {
                        scale,
                        operations: 2 * scale,
                        mix: mix.normalized(),
                        dist: "uniform".to_string(),
                        ro: unit(&mut state, 1.0, 50.0),
                        uo: unit(&mut state, 1.0, 50.0),
                        mo: unit(&mut state, 1.0, 8.0),
                        read_cost: unit(&mut state, 0.01, 20.0),
                        write_cost: unit(&mut state, 0.01, 20.0),
                        read_ops: 1 + next(&mut state) % 10_000,
                        write_ops: 1 + next(&mut state) % 10_000,
                    },
                );
            }
        }
    }
    store
}

fn any_mix(g: u64, i: u64, u: u64, d: u64, r: u64) -> OpMix {
    OpMix {
        get: g as f64,
        insert: i as f64,
        update: u as f64,
        delete: d as f64,
        range: r as f64,
    }
}

proptest! {
    /// Same report set, same query → bit-identical ranking. The Debug
    /// rendering covers every field (costs, violations, deviations), so
    /// string equality is the strictest practical comparison.
    #[test]
    fn recommend_measured_is_deterministic(
        seed in any::<u64>(),
        families in 0u8..128,
        g in 0u64..10, i in 0u64..10, u in 0u64..10, d in 0u64..10, r in 0u64..10,
    ) {
        let store_a = synth_store(seed, families);
        let store_b = synth_store(seed, families);
        prop_assert_eq!(&store_a, &store_b);
        let mix = any_mix(g, i, u, d, r);
        let env = Environment::default();
        let cons = Constraints::default();
        let ra = store_a.recommend(&mix, &env, &cons);
        let rb = store_b.recommend(&mix, &env, &cons);
        prop_assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
    }

    /// Every cap in `Constraints` binds on the *measured* amplification of
    /// calibrated entries: feasibility must equal "measured values within
    /// caps", whatever the analytic model claims.
    #[test]
    fn constraint_caps_bind_on_measured_values(
        seed in any::<u64>(),
        cap_ro in 1.0f64..60.0,
        cap_uo in 1.0f64..60.0,
        cap_mo in 1.0f64..10.0,
    ) {
        let store = synth_store(seed, 0x7F); // all seven families measured
        let cons = Constraints {
            max_read_amp: Some(cap_ro),
            max_write_amp: Some(cap_uo),
            max_space_amp: Some(cap_mo),
            needs_ranges: false,
        };
        let ranking = store.recommend(&OpMix::BALANCED, &Environment::default(), &cons);
        for rec in &ranking.recs {
            prop_assert!(rec.calibrated, "{:?} lacks measurements", rec.family);
            let m = rec.measured.expect("calibrated entries carry a profile");
            let within = m.ro <= cap_ro && m.uo <= cap_uo && m.mo <= cap_mo;
            prop_assert_eq!(
                rec.feasible, within,
                "{:?}: measured ({}, {}, {}) vs caps ({cap_ro}, {cap_uo}, {cap_mo}) \
                 but feasible={}",
                rec.family, m.ro, m.uo, m.mo, rec.feasible
            );
            for v in &rec.violations {
                prop_assert!(
                    v.contains("measured"),
                    "violation `{v}` not charged against measured values"
                );
            }
        }
    }

    /// An empty store is the analytic wizard: every family is flagged
    /// `calibrated: false` and priced bit for bit at its Table 1 cost,
    /// feasibility is the model's, and the order is feasible first, then
    /// cost.
    #[test]
    fn empty_store_falls_back_to_the_analytic_wizard(
        g in 0u64..10, i in 0u64..10, u in 0u64..10, d in 0u64..10, r in 0u64..10,
        needs_ranges in any::<bool>(),
    ) {
        let mix = any_mix(g, i, u, d, r);
        let env = Environment::default();
        let cons = Constraints { needs_ranges, ..Constraints::default() };
        let ranking = ProfileStore::new().recommend(&mix, &env, &cons);
        prop_assert!(!ranking.calibrated);
        prop_assert_eq!(ranking.recs.len(), Family::ALL.len());
        for m in &ranking.recs {
            prop_assert!(!m.calibrated);
            prop_assert!(m.measured.is_none());
            prop_assert!(m.deviation.is_none());
            let model = profile(m.family, &env);
            prop_assert_eq!(m.expected_cost.to_bits(), model.expected_cost(&mix).to_bits());
            prop_assert_eq!(m.analytic_cost.to_bits(), m.expected_cost.to_bits());
            prop_assert_eq!(m.feasible, model.supports_ranges || !needs_ranges);
        }
        let keys: Vec<(bool, f64)> =
            ranking.recs.iter().map(|r| (!r.feasible, r.expected_cost)).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "(infeasible, cost) order: {keys:?}");
    }

    /// The range-heavy canonical mix is first-class: a fully-measured
    /// store answers it calibrated, rankings are deterministic, and the
    /// `needs_ranges` constraint composes with the measured profiles
    /// (every recommended-feasible family must support ranges).
    #[test]
    fn range_heavy_mix_is_served_measured(
        seed in any::<u64>(),
        needs_ranges in any::<bool>(),
    ) {
        let store = synth_store(seed, 0x7F);
        let cons = Constraints { needs_ranges, ..Constraints::default() };
        let env = Environment::default();
        let ranking = store.recommend(&OpMix::RANGE_HEAVY, &env, &cons);
        prop_assert!(ranking.calibrated);
        prop_assert_eq!(ranking.recs.len(), Family::ALL.len());
        for rec in &ranking.recs {
            prop_assert!(rec.calibrated, "{:?} lacks measurements", rec.family);
            prop_assert!(rec.measured.is_some());
        }
        let again = store.recommend(&OpMix::RANGE_HEAVY, &env, &cons);
        prop_assert_eq!(format!("{ranking:?}"), format!("{again:?}"));
        if needs_ranges {
            for rec in ranking.recs.iter().filter(|r| r.feasible) {
                prop_assert!(
                    profile(rec.family, &env).supports_ranges,
                    "{:?} feasible despite needs_ranges",
                    rec.family
                );
            }
        }
    }

    /// A partial store never panics either: measured families are
    /// calibrated, the rest fall back analytic, and the ranking-level
    /// `calibrated` flag is true only when all seven are measured.
    #[test]
    fn partial_store_mixes_measured_and_analytic_entries(
        seed in any::<u64>(),
        families in 0u8..128,
    ) {
        let store = synth_store(seed, families);
        let ranking = store.recommend(
            &OpMix::BALANCED,
            &Environment::default(),
            &Constraints::default(),
        );
        prop_assert_eq!(ranking.recs.len(), Family::ALL.len());
        for rec in &ranking.recs {
            let bit = Family::ALL.iter().position(|&f| f == rec.family).unwrap();
            let measured = families & (1 << bit) != 0;
            prop_assert_eq!(rec.calibrated, measured, "family {:?}", rec.family);
            prop_assert_eq!(rec.measured.is_some(), measured);
        }
        prop_assert_eq!(ranking.calibrated, families == 0x7F);
    }
}
