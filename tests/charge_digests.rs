//! Per-op charge pin: every op of two fixed streams, on each of the 21
//! `standard_suite()` methods, charges exactly the tracker delta it
//! charged when these digests were taken.
//!
//! `baseline_rum.csv` holds RO/UO/MO totals only, and two compensating
//! changes can cancel in a total. Here each op's `CostSnapshot` delta (all
//! nine fields) is folded into an FNV-1a digest over 64-bit words, the
//! shape of `rum_perf`'s traffic pin, so a wall-clock change that claims
//! "charged exactly as before" is held to it op by op. The bulk load's
//! delta comes first and the final `SpaceProfile` last, so the load and
//! the space account are pinned too.
//!
//! Three legs per method: the `rum_perf` `suite` workload at full scale
//! (4 096 records, 4 096 balanced uniform ops, seed "RUM"); the oracle's
//! hostile stream from an empty structure; and a reload, where the suite
//! leg is followed by a second bulk load (3 000 records) and 3 000
//! write-heavy Zipf 0.99 ops on the same instance. The reload leg is taken
//! on two fresh instances of each method in one process and must agree
//! before it meets its pin, so a charge that follows hash order
//! (`RandomState` differs per instance) fails without a pin.
//!
//! Lifecycle legs pin what a structure charges across a rebuild in place
//! (DESIGN.md §5 "Account continuity"): a heal leg per method (load, the
//! first half of the suite ops, `try_heal`, the second half), a morph leg
//! for the self-tuning LSM and for `FamilyMorph` (the same halves around
//! one `morph_to`, its receipt folded too) and one drifting
//! `run_stream_autotuned` run. Each is taken on two fresh instances that
//! must agree.
//!
//! Configuration legs pin the settings the experiments build and the suite
//! does not (Table 1's blind-append zone map and heap, Figure 3's zone maps
//! at P = 1, 4 and 64 pages, `analytics_scan`'s bitmap index), each over
//! the suite, reload and hostile legs in turn on one instance, and the zone
//! map's SMA aggregates with their answers; again two fresh instances must
//! agree.
//!
//! Extreme legs pin the two byte-granular methods outside the suite, the
//! dense array and the direct-address array of §2's propositions, over the
//! suite and hostile streams, and the direct array's `relocate` (the
//! paper's "change a value"), its answers folded too.

use rum::bitmap::{BitmapConfig, BitmapIndex};
use rum::columns::{DenseArray, DirectAddressArray, UnsortedColumn};
use rum::core::oracle::hostile_ops;
use rum::core::workload::{Drift, KeyDist, OpMix, Workload, WorkloadSpec};
use rum::lsm::tuning::advise;
use rum::lsm::{LsmConfig, LsmTree};
use rum::prelude::*;
use rum::selftune::FamilyMorph;
use rum::sparse::{ZoneMapConfig, ZoneMappedColumn};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn snapshot(&mut self, d: &CostSnapshot) {
        for w in [
            d.base_read_bytes,
            d.aux_read_bytes,
            d.base_write_bytes,
            d.aux_write_bytes,
            d.logical_read_bytes,
            d.logical_write_bytes,
            d.page_reads,
            d.page_writes,
            d.sim_time_ns,
        ] {
            self.word(w);
        }
    }

    /// Fold the tracker delta `step` charges on `m`. The tracker is asked
    /// for again afterwards: a rebuilt structure carries a new one.
    fn charged<M: AccessMethod + ?Sized, T>(
        &mut self,
        m: &mut M,
        step: impl FnOnce(&mut M) -> T,
    ) -> T {
        let before = m.tracker().snapshot();
        let out = step(m);
        self.snapshot(&m.tracker().since(&before));
        out
    }

    /// Fold each op's charge. Answers are not folded (the oracle checks
    /// those in `tests/consistency.rs`); a refused op still folds whatever
    /// it charged.
    fn ops<M: AccessMethod + ?Sized>(&mut self, m: &mut M, ops: &[Op]) {
        for &op in ops {
            self.charged(m, |m| drop(op.apply(m)));
        }
    }

    fn load<M: AccessMethod + ?Sized>(&mut self, m: &mut M, records: &[Record]) {
        self.charged(m, |m| m.bulk_load(records).expect("bulk load"));
    }

    fn receipt(&mut self, r: &Option<MigrationReceipt>) {
        self.word(u64::from(r.is_some()));
        if let Some(r) = r {
            for b in r.from.bytes().chain(r.to.bytes()) {
                self.word(u64::from(b));
            }
            self.word(r.bytes_read);
            self.word(r.bytes_written);
            self.word(r.peak_extra_bytes);
        }
    }

    /// The final `SpaceProfile` closes every digest.
    fn finish<M: AccessMethod + ?Sized>(mut self, m: &M) -> u64 {
        let space = m.space_profile();
        self.word(space.base_bytes);
        self.word(space.aux_bytes);
        self.0
    }
}

/// Digest of `legs` replayed in turn on `m`, each a bulk load and its ops
/// op by op.
fn digest(m: &mut dyn AccessMethod, legs: &[&Workload]) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    for w in legs {
        h.load(m, &w.initial);
        h.ops(m, &w.ops);
    }
    h.finish(m)
}

/// Digest of a lifecycle on `m`: `w`'s bulk load and first half of ops,
/// then `rebuild` (its charge and whatever it reports folded), then the
/// second half.
fn lifecycle<M: AccessMethod + ?Sized>(
    m: &mut M,
    w: &Workload,
    rebuild: impl FnOnce(&mut M, &mut Fnv),
) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    let (first, second) = w.ops.split_at(w.ops.len() / 2);
    h.load(m, &w.initial);
    h.ops(m, first);
    rebuild(m, &mut h);
    h.ops(m, second);
    h.finish(m)
}

/// `digest` taken on two fresh instances, which must agree.
fn twice(what: &str, digest: impl Fn() -> u64) -> u64 {
    let d = digest();
    assert_eq!(d, digest(), "{what}: two instances, two digests");
    d
}

/// One line per method in `standard_suite()` order: name, then its suite,
/// hostile, reload and heal digests.
const PINNED: &str = "\
b+tree            e731672fd865d1d3 e310f1c11f151268 242ab8af0304ffcd 241bfed820ff03d3
hash-index        e0ae45f42a8b29bd df41098985d6673f 98a57fb6a9a9912b 219d4aca07595cbd
extendible-hash   4b2addf954fec088 0be88a35514efcbe e344002a8e9070a2 8a20c8afc63d5b48
skiplist          4ca731166d3fcb69 e7adb61480ccd8ee 93a952f231b3999b aa6dd6cb81cd1f69
trie              13e770c532a982ef 021005dc9f8338bc 2b6f8e272b7ee447 abe85750356159af
csb+tree          b50c05d430e0ef51 e6dda49de9096299 58dec9146a2530fa 65cf38271fa65f11
lsm-tree          5a0db1ae0c4d135e 820b09a4e5f9e7e2 41f228b0f4778673 4a0dbcd2f71cb51e
lsm-tree-tiered   948dfcb3ecb3f9a3 4aa3fa670626b596 dce00538d393a1c9 80f5f045e17e4763
lsm-tree+view     c5c997bf1ef8dcb4 4cd92c628050d88b 8b350c1f64dfbf95 d316236678eecf34
lsm-tree+wal      c90a487e1a437c1f 7e68b55cf518707c f84aef0238279cd9 43bd1dcf969008d2
append-log        d501c80e081f4257 2dd3757f06d2d861 9754829413819cd7 e69bd4f1a1bb2a57
sorted-column     92d3d34661bc3385 fa6710c0772d5329 ae51c5e81e946a8d 2c84a0f7a4454d85
unsorted-column   abf956d36ce90c47 eeba1405b4aa17b7 4d5cb6fdaf3b4e9b 8e5ddf01a8a09207
zonemap           d7733c4dadfc3f30 a3e4304798fa0e4f 8cf6f34fc09397f8 4b6c5235bce56eb0
bf-tree           b30e849ac6140b66 e039da6675d5af96 8375c493300fc78b e0a4ebaa63fa13a6
bitmap-index      12e8557c9ac04cb7 ac6cff7827353bc8 162bbae5064a76d2 f33de7663fdb5577
cracked-column    095f62fcdf71694f cf1efeda33d67ac6 42acb65dedc214ef 2e80cd3c811d0d0f
adaptive-merging  088d80ae911ce194 0dec1ed5b3367de5 f209667d503637c0 e5c6bc89e033f094
morphing-index    cf38871d53b5aece dece2d3cf660ae70 9e4c9ae2e44748ff 5bb0471a380bcd4e
partitioned-btree 245ee3839240eca5 ada7402cdbea512d 49f3974703a42047 a02da6af823074e5
b+tree-x4         0f9e4a6bd3a2480f 1d0d29d949478cd6 c9d285f7bec2fa9d 51a84e37a9683152
";

/// The `rum_perf` `suite` workload at full scale.
fn suite_workload() -> Workload {
    Workload::generate(&WorkloadSpec {
        initial_records: 1 << 12,
        operations: 1 << 12,
        mix: OpMix::BALANCED,
        dist: KeyDist::Uniform,
        range_len: 64,
        miss_fraction: 0.0,
        seed: 0x52_55_4D,
        ..Default::default()
    })
}

/// The write-heavy Zipf leg replayed after the suite leg on one instance.
fn reload_workload() -> Workload {
    Workload::generate(&WorkloadSpec {
        initial_records: 3000,
        operations: 3000,
        mix: OpMix::WRITE_HEAVY,
        dist: KeyDist::Zipf { theta: 0.99 },
        range_len: 64,
        miss_fraction: 0.0,
        seed: 0x52_4C_44,
        ..Default::default()
    })
}

#[test]
fn per_op_charges_match_the_pinned_digests() {
    let suite = suite_workload();
    let hostile = hostile_ops(61, 3000, 2000);
    let reload = reload_workload();
    let methods = rum::standard_suite().len();
    assert_eq!(methods, PINNED.lines().count(), "one pin per suite method");
    let fresh = |i: usize| rum::standard_suite().swap_remove(i);
    let mut table = String::new();
    for i in 0..methods {
        let name = fresh(i).name();
        let r = twice(&name, || digest(fresh(i).as_mut(), &[&suite, &reload]));
        let s = digest(fresh(i).as_mut(), &[&suite]);
        let h = digest(fresh(i).as_mut(), &[&hostile]);
        let heal = twice(&name, || {
            lifecycle(fresh(i).as_mut(), &suite, |m, h| {
                let healed = h.charged(m, |m| m.try_heal().expect("heal a healthy method"));
                h.word(u64::from(healed));
            })
        });
        table += &format!("{name:<17} {s:016x} {h:016x} {r:016x} {heal:016x}\n");
    }
    assert!(
        table == PINNED,
        "per-op charge digests moved; now:\n{table}"
    );
}

/// A levelled LSM shaped as `standard_suite()`'s.
fn suite_lsm() -> LsmTree {
    LsmTree::with_config(LsmConfig {
        memtable_records: 256,
        ..Default::default()
    })
}

/// Morph `m` towards `family` for `mix` mid-lifecycle, folding the receipt.
fn morph<M: Morphable>(family: Family, mix: OpMix) -> impl FnOnce(&mut M, &mut Fnv) {
    move |m, h| {
        let receipt = h.charged(m, |m| m.morph_to(family, &mix).expect("morph"));
        assert!(receipt.is_some(), "the morph leg must migrate");
        h.receipt(&receipt);
    }
}

/// A diurnal stream under the reactive tuner `drift_sweep` uses, on an LSM
/// shaped for the read-heavy phase.
fn autotuned_digest() -> u64 {
    let spec = WorkloadSpec {
        initial_records: 4096,
        operations: 8192,
        mix: OpMix::BALANCED,
        range_len: 16,
        seed: 0x44_52_46,
        drift: Drift::Diurnal { period: 4096 },
        ..Default::default()
    };
    let mut m = LsmTree::with_config(LsmConfig {
        memtable_records: 256,
        ..advise(&OpMix::READ_HEAVY)
    });
    let mut tuner = AutoTuner::new(
        AutoTuneConfig {
            decay: 0.35,
            settle_epsilon: 0.12,
            settle_windows: 1,
            cooldown_windows: 3,
            warmup_windows: 2,
            ..Default::default()
        },
        &OpMix::READ_HEAVY,
        ProfileStore::default(),
        Environment { n: 4096, m: 16 },
        Constraints {
            needs_ranges: true,
            ..Default::default()
        },
    );
    let mut trace = TraceCollector::new(256, noop_sink());
    let (report, summary) =
        run_stream_autotuned(&mut m, OpStream::new(&spec), &mut tuner, &mut trace)
            .expect("tuned stream");
    assert!(summary.migrations >= 1, "the drifting run must migrate");
    let mut h = Fnv(FNV_OFFSET);
    for c in [&report.load_costs, &report.read_costs, &report.write_costs] {
        h.snapshot(c);
    }
    for w in trace.windows() {
        h.word(w.ops);
        h.snapshot(&w.delta);
    }
    for r in &summary.receipts {
        h.receipt(&Some(r.clone()));
    }
    h.snapshot(&m.tracker().snapshot());
    h.finish(&m)
}

/// The LSM re-tuned in place, a family swap out of an LSM, and a drifting
/// autotuned run.
const LIFECYCLE_PINNED: &str = "\
lsm-retune   de271128e37499ff
family-swap  fd06f58c0a06e82f
autotuned    374522991277d0e4
";

#[test]
fn lifecycle_charges_match_the_pinned_digests() {
    let suite = suite_workload();
    let retuned = twice("lsm retune", || {
        lifecycle(
            &mut suite_lsm(),
            &suite,
            morph(Family::LsmTree, OpMix::WRITE_HEAVY),
        )
    });
    let swapped = twice("family swap", || {
        lifecycle(
            &mut FamilyMorph::new(Family::LsmTree).expect("LSM is range-capable"),
            &suite,
            morph(Family::BTree, OpMix::READ_HEAVY),
        )
    });
    let tuned = twice("autotuned", autotuned_digest);
    let table = format!(
        "lsm-retune   {retuned:016x}\nfamily-swap  {swapped:016x}\nautotuned    {tuned:016x}\n"
    );
    assert!(
        table == LIFECYCLE_PINNED,
        "lifecycle charge digests moved; now:\n{table}"
    );
}

/// A zone map of `pages`-page partitions.
fn zonemap(pages: usize, blind_appends: bool) -> ZoneMappedColumn {
    ZoneMappedColumn::with_config(ZoneMapConfig {
        partition_records: pages * RECORDS_PER_PAGE,
        blind_appends,
    })
}

/// One line per configuration: a label, then its suite + reload + hostile
/// digest.
const CONFIG_PINNED: &str = "\
table1-zonemap    5dae82b4a1cb0581
table1-unsorted   7f46de13f2d02a32
fig3-zonemap-1p   1fce8ee2b2bb3c6c
fig3-zonemap-4p   ff84100d2aa5dff0
fig3-zonemap-64p  2abd8adca777e106
analytics-bitmap  6c2c6bba7134a635
zonemap-aggregate 8922793537595436
";

#[test]
fn configured_charges_match_the_pinned_digests() {
    let (suite, reload) = (suite_workload(), reload_workload());
    let hostile = hostile_ops(61, 3000, 2000);
    type Build = fn() -> Box<dyn AccessMethod>;
    let configs: [(&str, Build); 6] = [
        ("table1-zonemap", || Box::new(zonemap(16, true))),
        ("table1-unsorted", || {
            Box::new(UnsortedColumn::blind_appends())
        }),
        ("fig3-zonemap-1p", || Box::new(zonemap(1, false))),
        ("fig3-zonemap-4p", || Box::new(zonemap(4, false))),
        ("fig3-zonemap-64p", || Box::new(zonemap(64, false))),
        ("analytics-bitmap", || {
            Box::new(BitmapIndex::with_config(BitmapConfig {
                bins: 128,
                key_domain: 1 << 18,
                merge_threshold: 1024,
            }))
        }),
    ];
    let mut table = String::new();
    for (label, build) in configs {
        let d = twice(label, || {
            digest(build().as_mut(), &[&suite, &reload, &hostile])
        });
        table += &format!("{label:<17} {d:016x}\n");
    }
    let aggregates = twice("zonemap aggregate", || {
        let mut m = zonemap(16, false);
        let mut h = Fnv(FNV_OFFSET);
        h.load(&mut m, &suite.initial);
        h.ops(&mut m, &suite.ops);
        let top = suite.initial.last().expect("the suite loads records").key;
        for (lo, hi) in [
            (0, Key::MAX),
            (top / 7, top / 3),
            (top / 2, top / 2),
            (top, Key::MAX),
        ] {
            let (count, sum) = h.charged(&mut m, |m| m.aggregate(lo, hi).expect("aggregate"));
            h.word(count);
            h.word(sum);
        }
        h.finish(&m)
    });
    table += &format!("zonemap-aggregate {aggregates:016x}\n");
    assert!(
        table == CONFIG_PINNED,
        "configuration charge digests moved; now:\n{table}"
    );
}

/// `relocate` over the suite's dense load: each probed key moves to a
/// fresh slot past the top, onto itself, onto a live neighbour, and from
/// the slot it just left.
fn relocate_digest() -> u64 {
    let suite = suite_workload();
    let mut m = DirectAddressArray::new();
    let mut h = Fnv(FNV_OFFSET);
    h.load(&mut m, &suite.initial);
    let top = suite.initial.last().expect("the suite loads records").key;
    for k in (0..top).step_by(61) {
        for (from, to) in [(k, top + 1 + k), (k, k), (k + 1, k + 2), (k, k + 1)] {
            let answer = h.charged(&mut m, |m| m.relocate(from, to));
            h.word(answer.map_or(2, u64::from));
        }
    }
    h.finish(&m)
}

/// Suite and hostile digests of each extreme, and the relocate leg.
const EXTREMES_PINNED: &str = "\
dense-array          4a6f7e801636534d fc353f5ba9fb4100
direct-address-array 7dd41e2b2e2c87b5 548d774c71c01b96 46df559d47aa8259
";

#[test]
fn extreme_charges_match_the_pinned_digests() {
    let suite = suite_workload();
    let hostile = hostile_ops(61, 3000, 2000);
    let legs = |m: fn() -> Box<dyn AccessMethod>| {
        let s = digest(m().as_mut(), &[&suite]);
        let h = digest(m().as_mut(), &[&hostile]);
        format!("{s:016x} {h:016x}")
    };
    let dense = legs(|| Box::new(DenseArray::new()));
    let direct = legs(|| Box::new(DirectAddressArray::new()));
    let relocate = relocate_digest();
    let table =
        format!("dense-array          {dense}\ndirect-address-array {direct} {relocate:016x}\n");
    assert!(
        table == EXTREMES_PINNED,
        "extreme charge digests moved; now:\n{table}"
    );
}
