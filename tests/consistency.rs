//! Cross-method differential testing: every access method in the
//! standard suite, bare and under every wrapper stack, must agree with the
//! one oracle (`rum::core::oracle`: a `BTreeMap` model plus the per-op
//! invariants) and therefore with each other.
//!
//! This is the strongest correctness net in the repository: any method
//! whose reorganization (splits, compactions, cracks, merges, zone
//! rebuilds...) loses or corrupts a record, and any wrapper that bends an
//! answer on its way through, fails here. CI also runs it with
//! `--release`, where `debug_assert!` guards are compiled out.

use rum::core::oracle::{check, hostile_ops, Oracle, Verdict};
use rum::core::workload::{Drift, OpSource};
use rum::lsm::{LsmConfig, LsmTree};
use rum::prelude::*;
use rum::selftune::FamilyMorph;
use rum::storage::{
    CheckedDevice, Durable, FaultDevice, FaultInjector, FaultPlan, FaultProfile, MemDevice,
    RetryPolicy,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Slot `i` of the standard suite, freshly built.
fn suite_method(i: usize) -> Box<dyn AccessMethod> {
    rum::standard_suite().swap_remove(i)
}

/// `Durable` wraps a sized method: a suite box behind a local newtype.
struct Boxed(Box<dyn AccessMethod>);

impl AccessMethod for Boxed {
    fn name(&self) -> String {
        self.0.name()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn tracker(&self) -> &Arc<CostTracker> {
        self.0.tracker()
    }
    fn space_profile(&self) -> SpaceProfile {
        self.0.space_profile()
    }
    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        self.0.get_impl(key)
    }
    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        self.0.range_impl(lo, hi)
    }
    fn check_records(&self, records: &[Record]) -> Result<()> {
        self.0.check_records(records)
    }
    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        self.0.insert_impl(key, value)
    }
    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        self.0.update_impl(key, value)
    }
    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        self.0.delete_impl(key)
    }
    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.0.bulk_load_impl(records)
    }
    fn flush(&mut self) -> Result<()> {
        self.0.flush()
    }
}

/// `check` on a [`FamilyMorph`] that is forced into the next family every
/// 300 ops. The facade builds its own inner structure (one per range-capable
/// [`Family`]), so slot `i` picks where the rotation starts.
fn check_morphing(i: usize, source: impl OpSource) -> Verdict {
    let families: Vec<Family> = Family::ALL
        .into_iter()
        .filter(|&f| f != Family::HashIndex)
        .collect();
    let family = |turn: usize| families[(i + turn) % families.len()];
    let mut m = FamilyMorph::new(family(0)).expect("a range-capable family");
    let (initial, ops) = source.into_parts();
    let mut oracle = Oracle::load(&mut m, &initial).expect("bulk load");
    for (n, op) in ops.enumerate() {
        if n % 300 == 299 {
            let receipt = m.morph_to(family(n / 300 + 1), &OpMix::BALANCED);
            receipt.expect("morph").expect("a different family");
        }
        oracle.step(&mut m, op)?;
    }
    oracle.finish(&mut m)
}

/// Every suite slot × {bare, sharded, durable, family-morph} against the
/// oracle on the stream `source(i)` builds; slots fan across cores.
fn check_suite_under_every_stack<S: OpSource>(source: impl Fn(usize) -> S + Sync) {
    let slots: Vec<usize> = (0..rum::standard_suite().len()).collect();
    parallel_map(slots, default_threads(), |i| {
        let name = suite_method(i).name();
        let held = |stack: &str, verdict: Verdict| {
            verdict.unwrap_or_else(|d| panic!("{name} [{stack}]: {d:?}"));
        };
        held("bare", check(suite_method(i).as_mut(), source(i)));
        // K=3 on two workers: bulk loads run on the pool, point ops inline.
        let mut sharded = ShardedMethod::with_threads(3, 2, |_| suite_method(i));
        held("sharded", check(&mut sharded, source(i)));
        let mut durable = Durable::new(move || Boxed(suite_method(i)));
        held("durable", check(&mut durable, source(i)));
        held("family-morph", check_morphing(i, source(i)));
    });
}

#[test]
fn every_suite_method_matches_the_model() {
    check_suite_under_every_stack(|i| {
        // Even slots start from a bulk-loaded base.
        let base = (0..500u64).filter(|_| i % 2 == 0);
        let base: Vec<Record> = base.map(|k| Record::new(k * 3, k)).collect();
        (base, hostile_ops(i as u64, 2500, 1500).ops.into_iter())
    });
}

/// Over 50 live records, every input the provided entry points refuse
/// (inverted ranges, a bulk load out of order or with a repeated key) is
/// `InvalidArgument` and leaves contents and account as they were. Then
/// writes that carry a value or key some method reserves (the tombstone
/// `u64::MAX`, the hash slot markers `u64::MAX - 1` and `u64::MAX`): a
/// method may refuse each key, must refuse each of the three
/// tombstone-valued writes, and a refusal is `InvalidArgument` that
/// changes nothing. Returns which of those writes were refused, so a
/// stack can be held to its bare method's verdicts.
fn refuses_bad_input(method: &mut dyn AccessMethod, name: &str) -> Vec<bool> {
    for k in 0..50u64 {
        method.insert(k * 2, k).unwrap();
    }
    let before = (method.len(), method.range(0, u64::MAX).unwrap());
    let account = method.tracker().snapshot();
    for (lo, hi) in [(9, 3), (1, 0), (u64::MAX, 0), (u64::MAX, u64::MAX - 1)] {
        let answer = method.range(lo, hi);
        assert!(
            matches!(answer, Err(RumError::InvalidArgument(_))),
            "{name}: range({lo}, {hi}) answered {answer:?}"
        );
    }
    for keys in [[5, 3], [4, 4]] {
        let answer = method.bulk_load(&keys.map(|k| Record::new(k, k)));
        assert!(
            matches!(answer, Err(RumError::InvalidArgument(_))),
            "{name}: bulk_load({keys:?}) answered {answer:?}"
        );
        assert_eq!(
            method.tracker().snapshot(),
            account,
            "{name}: {keys:?} charged"
        );
    }
    let after = (method.len(), method.range(0, u64::MAX).unwrap());
    assert!(
        after == before,
        "{name}: refused input changed the contents"
    );
    assert_eq!(method.range(3, 9).unwrap().len(), 3, "{name}");
    let reserved = u64::MAX;
    let loads = [
        (0..10u64)
            .map(|k| Record::new(k, if k == 4 { reserved } else { k }))
            .collect::<Vec<_>>(),
        vec![Record::new(1, 1), Record::new(reserved - 1, 1)],
        vec![Record::new(1, 1), Record::new(reserved, 1)],
    ];
    let ops = [
        Op::Insert(7, reserved),
        Op::Update(8, reserved),
        Op::Insert(reserved - 1, 1),
        Op::Insert(reserved, 1),
        Op::Update(reserved, 1),
    ];
    let writes = ops.iter().map(|op| format!("{op:?}"));
    let writes = writes.chain(loads.iter().map(|l| format!("bulk_load({l:?})")));
    let mut refused = Vec::new();
    for (i, what) in writes.enumerate() {
        let before = (method.len(), method.range(0, u64::MAX).unwrap());
        let account = method.tracker().snapshot();
        let answer = match ops.get(i) {
            Some(op) => op.apply(method).map(drop),
            None => method.bulk_load(&loads[i - ops.len()]),
        };
        refused.push(answer.is_err());
        if let Err(e) = answer {
            assert!(
                matches!(e, RumError::InvalidArgument(_)),
                "{name}: {what} answered {e:?}"
            );
            assert_eq!(
                method.tracker().snapshot(),
                account,
                "{name}: {what} charged"
            );
            let after = (method.len(), method.range(0, u64::MAX).unwrap());
            assert!(
                after == before,
                "{name}: refused {what} changed the contents"
            );
        }
    }
    for (i, what) in [(0, "insert"), (1, "update"), (ops.len(), "bulk_load")] {
        assert!(refused[i], "{name}: a tombstone-valued {what} was accepted");
    }
    refused
}

#[test]
fn inverted_ranges_are_invalid_arguments_everywhere() {
    for i in 0..rum::standard_suite().len() {
        let name = suite_method(i).name();
        let bare = refuses_bad_input(suite_method(i).as_mut(), &format!("{name} [bare]"));
        let mut sharded = ShardedMethod::with_threads(3, 2, |_| suite_method(i));
        let refused = refuses_bad_input(&mut sharded, &format!("{name} [sharded]"));
        assert_eq!(refused, bare, "{name} [sharded]: refusals differ from bare");
        let mut durable = Durable::new(move || Boxed(suite_method(i)));
        let refused = refuses_bad_input(&mut durable, &format!("{name} [durable]"));
        assert_eq!(refused, bare, "{name} [durable]: refusals differ from bare");
    }
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
    check_suite_under_every_stack(|_| OpStream::new(&spec));
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

/// A WAL-logged LSM tree whose first device decays heals mid-run: the
/// checksum catches a flipped bit, `Durable` rebuilds onto clean storage
/// and the rebuilt tree inherits the account. The runner must read the
/// account the tree has now, not the one it had at the start, so the
/// report holds every byte the tracker holds.
#[test]
fn healed_durable_reports_every_byte() {
    let first_life = AtomicBool::new(true);
    let mut stack = Durable::new(move || {
        let injector = if first_life.swap(false, Ordering::Relaxed) {
            FaultInjector::with_profile(FaultPlan::None, Some(FaultProfile::bitflips(7, 20_000)))
        } else {
            FaultInjector::inert()
        };
        let device = CheckedDevice::new(FaultDevice::new(MemDevice::new(), injector));
        let config = LsmConfig {
            memtable_records: 32,
            ..Default::default()
        };
        let mut tree = LsmTree::with_device(device, config);
        tree.set_retry_policy(RetryPolicy::default());
        tree
    });
    let sink = MemorySink::shared();
    stack.set_trace_sink(Arc::clone(&sink) as _);
    let spec = WorkloadSpec {
        initial_records: 2000,
        operations: 4000,
        mix: OpMix::BALANCED,
        seed: 3,
        ..Default::default()
    };
    let report = run_stream(&mut stack, OpStream::new(&spec)).expect("the stack heals and serves");

    let repairs = sink
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::RepairComplete)
        .count();
    assert!(repairs >= 1, "no heal happened, so nothing was tested");
    let reported = report
        .load_costs
        .add(&report.read_costs)
        .add(&report.write_costs);
    assert_eq!(reported, stack.tracker().snapshot());
}

#[test]
fn drifting_streams_are_handled() {
    // The generator the drift benchmarks use: an OLTP mix that flips to
    // scans for the last quarter of every period.
    let (_, drift) = Drift::suite(1000)[2];
    let spec = WorkloadSpec {
        initial_records: 800,
        operations: 2000,
        mix: OpMix::BALANCED,
        range_len: 32,
        seed: 47,
        drift,
        ..Default::default()
    };
    check_suite_under_every_stack(|_| OpStream::new(&spec));
}
