//! Crash/recovery tests for the WAL-wrapped append log (Proposition 2
//! paying its durability tax).

use rum_columns::AppendLog;
use rum_core::oracle::Oracle;
use rum_core::workload::Op;
use rum_core::{AccessMethod, Key, Record};
use rum_storage::{Durable, FaultInjector, FaultPlan};

fn scan<M: AccessMethod>(m: &mut M) -> Vec<Record> {
    m.range(0, Key::MAX).unwrap()
}

#[test]
fn durable_log_recovers_losslessly() {
    let mut d = Durable::new(AppendLog::new);
    for k in 0..300u64 {
        d.insert(k, k * 7).unwrap();
    }
    d.delete(5).unwrap();
    d.update(6, 1).unwrap();
    let before = scan(&mut d);
    let report = d.recover().unwrap();
    assert!(report.complete && !report.torn_tail);
    assert_eq!(report.committed_ops, 302);
    assert_eq!(scan(&mut d), before);
}

#[test]
fn seeded_crashes_recover_the_committed_prefix() {
    let mut reference = Durable::new(AppendLog::new);
    for k in 0..150u64 {
        reference.insert(k, k).unwrap();
    }
    let total = reference.wal().synced_total();
    for seed in 100..110u64 {
        let plan = FaultPlan::seeded_crash(seed, total, seed % 2 == 0);
        let mut d = Durable::with_injector(AppendLog::new, FaultInjector::new(plan));
        let mut oracle = Oracle::load(&mut d, &[]).unwrap();
        let inserts = (0..150u64).map(|k| Op::Insert(k, k));
        let committed = oracle.step_until_crash(&mut d, inserts).unwrap();
        let report = d.recover().unwrap();
        assert_eq!(report.committed_ops, committed, "seed {seed}");
        oracle
            .finish(&mut d)
            .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
    }
}
