//! Crash/recovery tests for the WAL-wrapped LSM tree: every crash point
//! must recover exactly the committed prefix, bit-identically.

use rum_core::oracle::Oracle;
use rum_core::workload::Op;
use rum_core::{AccessMethod, Key, Record};
use rum_lsm::{LsmConfig, LsmTree};
use rum_storage::{Durable, FaultInjector, FaultPlan};

fn small() -> LsmConfig {
    LsmConfig {
        memtable_records: 16,
        ..Default::default()
    }
}

fn small_tree() -> LsmTree {
    LsmTree::with_config(small())
}

fn scan<M: AccessMethod>(m: &mut M) -> Vec<Record> {
    m.range(0, Key::MAX).unwrap()
}

#[test]
fn durable_lsm_recovers_losslessly() {
    let mut d = Durable::new(small_tree);
    let initial: Vec<Record> = (0..100u64).map(|k| Record::new(k * 2, k)).collect();
    d.bulk_load(&initial).unwrap();
    for k in 0..40u64 {
        d.insert(k * 2 + 1, k).unwrap();
    }
    d.delete(10).unwrap();
    d.update(12, 999).unwrap();
    let before = scan(&mut d);
    let report = d.recover().unwrap();
    assert!(report.complete && !report.torn_tail);
    assert_eq!(scan(&mut d), before);
    // The memtable contents survived via the WAL, not via flush.
    assert_eq!(before.len(), 139);
}

#[test]
fn durable_lsm_charges_wal_traffic_as_aux_writes() {
    let mut bare = small_tree();
    let mut wal = Durable::new(small_tree);
    for k in 0..200u64 {
        bare.insert(k, k).unwrap();
        wal.insert(k, k).unwrap();
    }
    let extra = wal.tracker().snapshot().total_write_bytes() as i64
        - bare.tracker().snapshot().total_write_bytes() as i64;
    assert_eq!(
        extra,
        wal.logging_bytes() as i64,
        "UO delta must be exactly the logging traffic"
    );
    assert!(extra > 0);
}

#[test]
fn seeded_crashes_recover_the_committed_prefix() {
    // Reference run: learn the WAL footprint of the op stream.
    let mut reference = Durable::new(small_tree);
    let ops: Vec<(u64, u64)> = (0..120u64).map(|k| (k * 3 % 251, k)).collect();
    for &(k, v) in &ops {
        reference.insert(k, v).unwrap();
    }
    let total = reference.wal().synced_total();
    for seed in 0..12u64 {
        let torn = seed % 2 == 0;
        let plan = FaultPlan::seeded_crash(seed, total, torn);
        let mut d = Durable::with_injector(small_tree, FaultInjector::new(plan));
        let mut oracle = Oracle::load(&mut d, &[]).unwrap();
        let inserts = ops.iter().map(|&(k, v)| Op::Insert(k, v));
        let committed = oracle.step_until_crash(&mut d, inserts).unwrap();
        assert!(committed < ops.len(), "seed {seed} never crashed");
        let report = d.recover().unwrap();
        assert_eq!(report.committed_ops, committed, "seed {seed}");
        oracle
            .finish(&mut d)
            .unwrap_or_else(|e| panic!("seed {seed} torn {torn}: {e:?}"));
    }
}
