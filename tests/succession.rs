//! Succession across every rebuild site (DESIGN.md §5 "Account
//! continuity"): a structure rebuilt in place takes over its predecessor's
//! account and trace sink before it does any work.
//!
//! One table over the sites: an LSM re-tuned by `lsm::tuning::retune` and
//! by `Morphable::morph_to`, a WAL-wrapped LSM after `Durable::recover` and
//! after `try_heal`, a `FamilyMorph` swap into an LSM, and a sharded
//! WAL-wrapped LSM whose poisoned shard heals itself. Each site gets a
//! `MemorySink`, writes past its memtable, is rebuilt, then writes past
//! the memtable again: the second writes must reach the sink as flush
//! events, and `tracker()` must never go backwards across the rebuild.

use std::sync::Arc;

use rum::core::trace::MemorySink;
use rum::lsm::tuning::retune;
use rum::lsm::{CompactionPolicy, LsmConfig, LsmTree};
use rum::prelude::*;
use rum::selftune::FamilyMorph;
use rum::storage::Durable;

/// Inserts per side of the rebuild: past every memtable below, the
/// suite-sized one of a `FamilyMorph` LSM (256 records) included.
const WRITES: u64 = 600;

/// The one key that panics a [`Tripwire`] shard.
const TRIP: Key = 0xBAD_F00D;

fn small_lsm() -> LsmTree {
    LsmTree::with_config(LsmConfig {
        memtable_records: 32,
        ..Default::default()
    })
}

fn counters(s: &CostSnapshot) -> [u64; 9] {
    [
        s.base_read_bytes,
        s.aux_read_bytes,
        s.base_write_bytes,
        s.aux_write_bytes,
        s.logical_read_bytes,
        s.logical_write_bytes,
        s.page_reads,
        s.page_writes,
        s.sim_time_ns,
    ]
}

fn behind(later: &CostSnapshot, earlier: &CostSnapshot) -> bool {
    counters(later)
        .iter()
        .zip(counters(earlier))
        .any(|(&l, e)| l < e)
}

/// Run one site: sink, writes, `rebuild`, writes. `None` when the site
/// hands over both account and sink, else what it lost.
fn site<M: AccessMethod>(mut m: M, rebuild: impl FnOnce(&mut M)) -> Option<String> {
    let sink = MemorySink::shared();
    m.set_trace_sink(Arc::clone(&sink) as _);
    for k in 0..WRITES {
        m.insert(k, k).expect("insert before the rebuild");
    }
    let before = m.tracker().snapshot();
    rebuild(&mut m);
    let rebuilt = m.tracker().snapshot();
    let mark = sink.events().len();
    for k in WRITES..2 * WRITES {
        m.insert(k, k).expect("insert after the rebuild");
    }
    let flushes = sink.events()[mark..]
        .iter()
        .filter(|e| e.kind == EventKind::LsmFlush)
        .count();
    let mut lost = Vec::new();
    if behind(&rebuilt, &before) || behind(&m.tracker().snapshot(), &rebuilt) {
        lost.push("the tracker went backwards".to_string());
    }
    if flushes == 0 {
        lost.push(format!(
            "0 flush events in {WRITES} inserts after the rebuild"
        ));
    }
    (!lost.is_empty()).then(|| lost.join("; "))
}

/// An LSM that panics on [`TRIP`], so one shard can be poisoned.
struct Tripwire(LsmTree);

impl AccessMethod for Tripwire {
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
    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        assert_ne!(key, TRIP, "tripwire key touched");
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
    fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.0.set_trace_sink(sink);
    }
}

/// A shard that can heal itself: a WAL-wrapped [`Tripwire`].
fn tripwire(_shard: usize) -> Box<dyn AccessMethod> {
    Box::new(Durable::new(|| Tripwire(small_lsm())))
}

#[test]
fn every_rebuild_site_hands_over_account_and_sink() {
    let tiered = LsmConfig {
        memtable_records: 32,
        policy: CompactionPolicy::Tiering,
        ..Default::default()
    };
    let wal_lsm = || Durable::new(small_lsm);
    let sites = [
        (
            "lsm::tuning::retune",
            site(small_lsm(), |t| drop(retune(t, tiered).expect("retune"))),
        ),
        (
            "morph_to on an LSM",
            site(small_lsm(), |t| {
                let receipt = t.morph_to(Family::LsmTree, &OpMix::WRITE_HEAVY);
                assert!(receipt.expect("morph").is_some(), "the LSM must re-tune");
            }),
        ),
        (
            "Durable::recover over an LSM",
            site(wal_lsm(), |d| {
                assert!(d.recover().expect("recover").complete)
            }),
        ),
        (
            "Durable::try_heal over an LSM",
            site(wal_lsm(), |d| assert!(d.try_heal().expect("heal"))),
        ),
        (
            "FamilyMorph swap into an LSM",
            site(FamilyMorph::new(Family::BTree).unwrap(), |m| {
                let receipt = m.morph_to(Family::LsmTree, &OpMix::WRITE_HEAVY);
                assert!(receipt.expect("swap").is_some(), "the family must swap");
            }),
        ),
        (
            "poisoned-shard self-heal",
            site(ShardedMethod::with_threads(2, 1, tripwire), |s| {
                let poison = s.submit_batch(&[Op::Insert(TRIP, 0)], false);
                assert!(poison.and_then(|b| s.finish_batch(b)).is_err());
                assert_eq!(s.poisoned_shards().len(), 1);
                assert_eq!(s.heal().expect("self-heal"), 1);
            }),
        ),
    ];
    let lost: Vec<String> = sites
        .into_iter()
        .filter_map(|(name, lost)| lost.map(|l| format!("{name}: {l}")))
        .collect();
    assert!(lost.is_empty(), "rebuild sites lost:\n{}", lost.join("\n"));
}
