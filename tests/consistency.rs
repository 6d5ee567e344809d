//! Cross-method differential testing: every access method in the
//! standard suite must agree with a model (`BTreeMap`) — and therefore
//! with each other — under a randomized operation stream.
//!
//! This is the strongest correctness net in the repository: any method
//! whose reorganization (splits, compactions, cracks, merges, zone
//! rebuilds...) loses or corrupts a record fails here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rum::prelude::*;

fn differential_run(method: &mut dyn AccessMethod, seed: u64, steps: u64) {
    let name = method.name();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = std::collections::BTreeMap::new();

    // Start from a bulk-loaded base half the time.
    if seed.is_multiple_of(2) {
        let recs: Vec<Record> = (0..500u64).map(|k| Record::new(k * 3, k)).collect();
        method.bulk_load(&recs).unwrap();
        model.extend(recs.iter().map(|r| (r.key, r.value)));
    }

    for step in 0..steps {
        let k = rng.gen_range(0..1500u64);
        match rng.gen_range(0..6) {
            0 | 1 => {
                method.insert(k, step).unwrap();
                model.insert(k, step);
            }
            2 => {
                assert_eq!(
                    method.update(k, step).unwrap(),
                    model.contains_key(&k),
                    "{name}: update {k} at step {step}"
                );
                model.entry(k).and_modify(|v| *v = step);
            }
            3 => {
                assert_eq!(
                    method.delete(k).unwrap(),
                    model.remove(&k).is_some(),
                    "{name}: delete {k} at step {step}"
                );
            }
            4 => {
                assert_eq!(
                    method.get(k).unwrap(),
                    model.get(&k).copied(),
                    "{name}: get {k} at step {step}"
                );
            }
            _ => {
                let hi = k + rng.gen_range(0..40u64);
                let got = method.range(k, hi).unwrap();
                let expect: Vec<Record> = model
                    .range(k..=hi)
                    .map(|(&k, &v)| Record::new(k, v))
                    .collect();
                assert_eq!(got, expect, "{name}: range {k}..={hi} at step {step}");
            }
        }
        assert_eq!(method.len(), model.len(), "{name}: len at step {step}");
    }

    // Final sweep: the full contents must match exactly.
    let all = method.range(0, u64::MAX).unwrap();
    let expect: Vec<Record> = model.iter().map(|(&k, &v)| Record::new(k, v)).collect();
    assert_eq!(all, expect, "{name}: final contents");
}

#[test]
fn every_suite_method_matches_the_model() {
    // Each differential run is independent, so fan them across cores.
    let methods: Vec<(usize, Box<dyn AccessMethod>)> =
        rum::standard_suite().into_iter().enumerate().collect();
    parallel_map(
        methods,
        rum::core::runner::default_threads(),
        |(i, mut method)| differential_run(method.as_mut(), i as u64, 2500),
    );
}

#[test]
fn suite_methods_agree_after_flush() {
    // Flush mid-stream and keep going: buffered state must survive.
    for mut method in rum::standard_suite() {
        let name = method.name();
        for k in 0..600u64 {
            method.insert(k, k).unwrap();
        }
        method.flush().unwrap();
        for k in 0..600u64 {
            assert_eq!(method.get(k).unwrap(), Some(k), "{name}: {k} after flush");
        }
        method.flush().unwrap(); // idempotent
        assert_eq!(method.len(), 600, "{name}");
    }
}

#[test]
fn bulk_load_replaces_prior_contents_everywhere() {
    for mut method in rum::standard_suite() {
        let name = method.name();
        for k in 0..100u64 {
            method.insert(k * 2 + 1, 1).unwrap();
        }
        let recs: Vec<Record> = (0..50u64).map(|k| Record::new(k * 10, k)).collect();
        method.bulk_load(&recs).unwrap();
        assert_eq!(method.len(), 50, "{name}");
        assert_eq!(method.get(1).unwrap(), None, "{name}: old key resurfaced");
        assert_eq!(method.get(100).unwrap(), Some(10), "{name}");
    }
}

#[test]
fn empty_methods_answer_correctly() {
    for mut method in rum::standard_suite() {
        let name = method.name();
        assert_eq!(method.len(), 0, "{name}");
        assert!(method.is_empty(), "{name}");
        assert_eq!(method.get(42).unwrap(), None, "{name}");
        assert!(!method.update(42, 1).unwrap(), "{name}");
        assert!(!method.delete(42).unwrap(), "{name}");
        assert!(method.range(0, 1000).unwrap().is_empty(), "{name}");
    }
}

#[test]
fn zipfian_streams_are_handled() {
    // Skewed workloads hammer hot keys: repeated upsert/delete/reinsert
    // of the same few keys stresses tombstone and versioning paths.
    let spec = WorkloadSpec {
        initial_records: 800,
        operations: 3000,
        mix: OpMix::BALANCED,
        dist: KeyDist::Zipf { theta: 0.99 },
        seed: 31,
        ..Default::default()
    };
    let reports = run_suite_stream(&mut rum::standard_suite(), &spec, default_threads())
        .unwrap_or_else(|e| panic!("suite run failed: {e}"));
    for report in reports {
        assert!(
            report.ro >= 1.0 || report.read_ops == 0,
            "{}",
            report.method
        );
    }
}
