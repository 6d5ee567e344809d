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

use rum::core::oracle::hostile_ops;
use rum::core::workload::{KeyDist, OpMix, Workload, WorkloadSpec};
use rum::prelude::*;

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
}

/// Digest of `legs` replayed in turn on `m`, each a bulk load and its ops
/// op by op. Answers are not folded (the oracle checks those in
/// `tests/consistency.rs`); a refused op still folds whatever it charged.
fn digest(m: &mut dyn AccessMethod, legs: &[&Workload]) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    for w in legs {
        let before = m.tracker().snapshot();
        m.bulk_load(&w.initial).expect("bulk load");
        h.snapshot(&m.tracker().since(&before));
        for &op in &w.ops {
            // Asked again each op: a method may swap its tracker.
            let before = m.tracker().snapshot();
            let _ = op.apply(m);
            h.snapshot(&m.tracker().since(&before));
        }
    }
    let space = m.space_profile();
    h.word(space.base_bytes);
    h.word(space.aux_bytes);
    h.0
}

/// One line per method in `standard_suite()` order: name, then its suite,
/// hostile and reload digests.
const PINNED: &str = "\
b+tree            e731672fd865d1d3 e310f1c11f151268 242ab8af0304ffcd
hash-index        e0ae45f42a8b29bd df41098985d6673f 98a57fb6a9a9912b
extendible-hash   4b2addf954fec088 0be88a35514efcbe e344002a8e9070a2
skiplist          4ca731166d3fcb69 e7adb61480ccd8ee 93a952f231b3999b
trie              13e770c532a982ef 021005dc9f8338bc 2b6f8e272b7ee447
csb+tree          b50c05d430e0ef51 e6dda49de9096299 58dec9146a2530fa
lsm-tree          5a0db1ae0c4d135e 820b09a4e5f9e7e2 41f228b0f4778673
lsm-tree-tiered   948dfcb3ecb3f9a3 4aa3fa670626b596 dce00538d393a1c9
lsm-tree+view     c5c997bf1ef8dcb4 4cd92c628050d88b 8b350c1f64dfbf95
lsm-tree+wal      c90a487e1a437c1f 7e68b55cf518707c f84aef0238279cd9
append-log        d501c80e081f4257 2dd3757f06d2d861 9754829413819cd7
sorted-column     92d3d34661bc3385 fa6710c0772d5329 ae51c5e81e946a8d
unsorted-column   abf956d36ce90c47 eeba1405b4aa17b7 4d5cb6fdaf3b4e9b
zonemap           d7733c4dadfc3f30 a3e4304798fa0e4f 8cf6f34fc09397f8
bf-tree           b30e849ac6140b66 e039da6675d5af96 8375c493300fc78b
bitmap-index      12e8557c9ac04cb7 ac6cff7827353bc8 162bbae5064a76d2
cracked-column    095f62fcdf71694f cf1efeda33d67ac6 42acb65dedc214ef
adaptive-merging  088d80ae911ce194 0dec1ed5b3367de5 f209667d503637c0
morphing-index    cf38871d53b5aece dece2d3cf660ae70 9e4c9ae2e44748ff
partitioned-btree 245ee3839240eca5 ada7402cdbea512d 49f3974703a42047
b+tree-x4         0f9e4a6bd3a2480f 1d0d29d949478cd6 c9d285f7bec2fa9d
";

#[test]
fn per_op_charges_match_the_pinned_digests() {
    let suite = Workload::generate(&WorkloadSpec {
        initial_records: 1 << 12,
        operations: 1 << 12,
        mix: OpMix::BALANCED,
        dist: KeyDist::Uniform,
        range_len: 64,
        miss_fraction: 0.0,
        seed: 0x52_55_4D,
        ..Default::default()
    });
    let hostile = hostile_ops(61, 3000, 2000);
    let reload = Workload::generate(&WorkloadSpec {
        initial_records: 3000,
        operations: 3000,
        mix: OpMix::WRITE_HEAVY,
        dist: KeyDist::Zipf { theta: 0.99 },
        range_len: 64,
        miss_fraction: 0.0,
        seed: 0x52_4C_44,
        ..Default::default()
    });
    let methods = rum::standard_suite().len();
    assert_eq!(methods, PINNED.lines().count(), "one pin per suite method");
    let fresh = |i: usize| rum::standard_suite().swap_remove(i);
    let mut table = String::new();
    for i in 0..methods {
        let name = fresh(i).name();
        let reload_digest = || digest(fresh(i).as_mut(), &[&suite, &reload]);
        let r = reload_digest();
        assert_eq!(
            r,
            reload_digest(),
            "{name}: two instances, two reload charges"
        );
        let s = digest(fresh(i).as_mut(), &[&suite]);
        let h = digest(fresh(i).as_mut(), &[&hostile]);
        table += &format!("{name:<17} {s:016x} {h:016x} {r:016x}\n");
    }
    assert!(
        table == PINNED,
        "per-op charge digests moved; now:\n{table}"
    );
}
