//! Property tests for the durability layer: recovery is idempotent and
//! always rebuilds exactly the committed prefix, including when recovery
//! itself is interrupted.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rum_core::oracle::Oracle;
use rum_core::workload::Op;
use rum_core::{AccessMethod, CostTracker, Key, Record, Result, SpaceProfile, Value, RECORD_SIZE};
use rum_storage::{Durable, FaultInjector, FaultPlan};

/// Minimal correct method: a BTreeMap with byte-exact base charges.
struct Toy {
    data: BTreeMap<Key, Value>,
    tracker: Arc<CostTracker>,
}

impl Toy {
    fn new() -> Self {
        Toy {
            data: BTreeMap::new(),
            tracker: CostTracker::new(),
        }
    }
}

impl AccessMethod for Toy {
    fn name(&self) -> String {
        "toy".into()
    }
    fn len(&self) -> usize {
        self.data.len()
    }
    fn tracker(&self) -> &Arc<CostTracker> {
        &self.tracker
    }
    fn space_profile(&self) -> SpaceProfile {
        SpaceProfile::from_physical(self.data.len(), (self.data.len() * RECORD_SIZE) as u64)
    }
    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        Ok(self.data.get(&key).copied())
    }
    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        Ok(self
            .data
            .range(lo..=hi)
            .map(|(&k, &v)| Record::new(k, v))
            .collect())
    }
    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        self.tracker.write_records(1);
        self.data.insert(key, value);
        Ok(())
    }
    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        match self.data.get_mut(&key) {
            Some(v) => {
                self.tracker.write_records(1);
                *v = value;
                Ok(true)
            }
            None => Ok(false),
        }
    }
    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        Ok(self.data.remove(&key).is_some())
    }
    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.tracker.write_records(records.len());
        self.data = records.iter().map(|r| (r.key, r.value)).collect();
        Ok(())
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Insert(k as Key, v as Value)),
        1 => (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Update(k as Key, v as Value)),
        1 => any::<u8>().prop_map(|k| Op::Delete(k as Key)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash at an arbitrary WAL byte, then: recovery equals the model fed
    /// only the acknowledged ops, a second recovery changes nothing, and a
    /// recovery interrupted after an arbitrary number of replayed records
    /// followed by a full recovery converges to the same state.
    #[test]
    fn recovery_is_exact_and_idempotent(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        cut_frac in 0.0f64..1.0,
        partial in any::<usize>(),
    ) {
        // Reference run to learn the WAL footprint of this op sequence.
        let mut reference = Durable::new(Toy::new);
        for &op in &ops {
            op.apply(&mut reference).unwrap();
        }
        let total = reference.wal().synced_total();
        let cut = (total as f64 * cut_frac) as u64;

        let inj = FaultInjector::new(FaultPlan::torn_at(cut));
        let mut d = Durable::with_injector(Toy::new, inj);
        // The oracle's model advances on acknowledged ops only.
        let mut oracle = Oracle::load(&mut d, &[]).unwrap();
        oracle.step_until_crash(&mut d, ops.iter().copied()).unwrap();

        let report = d.recover().unwrap();
        prop_assert!(report.complete);
        oracle.finish(&mut d).expect("recovery == acknowledged prefix");
        let profile = d.space_profile();

        // Idempotence: recovering again yields the same structure and the
        // same space profile.
        d.recover().unwrap();
        oracle.finish(&mut d).unwrap();
        prop_assert_eq!(d.space_profile(), profile);

        // Crash during recovery: replay an arbitrary prefix of the
        // committed records, then recover fully. Same outcome.
        let stop = partial % (report.committed_ops + 1);
        let partial_report = d.recover_prefix(stop).unwrap();
        prop_assert_eq!(partial_report.complete, stop == report.committed_ops);
        d.recover().unwrap();
        oracle.finish(&mut d).unwrap();
        prop_assert_eq!(d.space_profile(), profile);
    }

    /// Without faults, a flush (checkpoint) at an arbitrary point does not
    /// change what recovery rebuilds, and a second flush writes nothing.
    #[test]
    fn checkpoint_preserves_recovery_and_second_flush_is_free(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        flush_at in any::<usize>(),
    ) {
        let mut d = Durable::new(Toy::new);
        let mut oracle = Oracle::load(&mut d, &[]).unwrap();
        let flush_at = flush_at % (ops.len() + 1);
        for (i, &op) in ops.iter().enumerate() {
            if i == flush_at {
                d.flush().unwrap();
            }
            oracle.step(&mut d, op).unwrap();
        }
        d.recover().unwrap();
        oracle.finish(&mut d).unwrap();

        d.flush().unwrap();
        let before = d.tracker().snapshot();
        d.flush().unwrap();
        let delta = d.tracker().since(&before);
        prop_assert_eq!(delta.total_write_bytes(), 0);
        prop_assert_eq!(delta.page_writes, 0);
        d.recover().unwrap();
        oracle.finish(&mut d).unwrap();
    }
}
