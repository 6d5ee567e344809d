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
//! Two streams per method: the `rum_perf` `suite` workload at full scale
//! (4 096 records, 4 096 balanced uniform ops, seed "RUM"), and the
//! oracle's hostile stream from an empty structure.

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

/// Digest of `w` replayed op by op on `m`. Answers are not folded (the
/// oracle checks those in `tests/consistency.rs`); a refused op still
/// folds whatever it charged.
fn digest(m: &mut dyn AccessMethod, w: &Workload) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    let before = m.tracker().snapshot();
    m.bulk_load(&w.initial).expect("bulk load");
    h.snapshot(&m.tracker().since(&before));
    for &op in &w.ops {
        // Asked again each op: a method may swap its tracker.
        let before = m.tracker().snapshot();
        let _ = op.apply(m);
        h.snapshot(&m.tracker().since(&before));
    }
    let space = m.space_profile();
    h.word(space.base_bytes);
    h.word(space.aux_bytes);
    h.0
}

/// `(method, suite digest, hostile digest)`, in `standard_suite()` order.
const PINNED: [(&str, u64, u64); 21] = [
    ("b+tree", 0xe731672fd865d1d3, 0xe310f1c11f151268),
    ("hash-index", 0xe0ae45f42a8b29bd, 0xdf41098985d6673f),
    ("extendible-hash", 0x4b2addf954fec088, 0x0be88a35514efcbe),
    ("skiplist", 0x4ca731166d3fcb69, 0xe7adb61480ccd8ee),
    ("trie", 0x13e770c532a982ef, 0x021005dc9f8338bc),
    ("csb+tree", 0xb50c05d430e0ef51, 0xe6dda49de9096299),
    ("lsm-tree", 0x5a0db1ae0c4d135e, 0x820b09a4e5f9e7e2),
    ("lsm-tree-tiered", 0x948dfcb3ecb3f9a3, 0x4aa3fa670626b596),
    ("lsm-tree+view", 0xc5c997bf1ef8dcb4, 0x4cd92c628050d88b),
    ("lsm-tree+wal", 0xc90a487e1a437c1f, 0x7e68b55cf518707c),
    ("append-log", 0xd501c80e081f4257, 0x2dd3757f06d2d861),
    ("sorted-column", 0x92d3d34661bc3385, 0xfa6710c0772d5329),
    ("unsorted-column", 0xabf956d36ce90c47, 0xeeba1405b4aa17b7),
    ("zonemap", 0xd7733c4dadfc3f30, 0xa3e4304798fa0e4f),
    ("bf-tree", 0xb30e849ac6140b66, 0xe039da6675d5af96),
    ("bitmap-index", 0x12e8557c9ac04cb7, 0xac6cff7827353bc8),
    ("cracked-column", 0x095f62fcdf71694f, 0xcf1efeda33d67ac6),
    ("adaptive-merging", 0x088d80ae911ce194, 0x0dec1ed5b3367de5),
    ("morphing-index", 0xcf38871d53b5aece, 0xdece2d3cf660ae70),
    ("partitioned-btree", 0x245ee3839240eca5, 0xada7402cdbea512d),
    ("b+tree-x4", 0x0f9e4a6bd3a2480f, 0x1d0d29d949478cd6),
];

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
    let methods = rum::standard_suite().len();
    assert_eq!(methods, PINNED.len(), "one pin per suite method");
    let mut got = Vec::new();
    for i in 0..methods {
        let mut m = rum::standard_suite().swap_remove(i);
        let name = m.name();
        let s = digest(m.as_mut(), &suite);
        let mut m = rum::standard_suite().swap_remove(i);
        let h = digest(m.as_mut(), &hostile);
        got.push((name, s, h));
    }
    let table: String = got
        .iter()
        .map(|(n, s, h)| format!("    ({n:?}, {s:#018x}, {h:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64, u64)> = PINNED
        .iter()
        .map(|&(n, s, h)| (n.to_string(), s, h))
        .collect();
    assert!(got == want, "per-op charge digests moved; now:\n{table}");
}
