//! The six workloads, the traffic they generate from a seed, and the
//! `BTreeMap` oracle every answer is checked against.

use std::collections::BTreeMap;
use std::time::Instant;

use rum::core::workload::{KeyDist, Op, OpMix, OpStream, WorkloadSpec};
use rum::core::{Key, Record, Value};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    BtreePoint,
    LsmIngest,
    LsmScan,
    StackBalanced,
    ShardedBalanced,
    Suite,
}

pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// Why the workload is in the benchmark (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub records: usize,
    /// Operations in one pass. Fixed, not time-boxed, so the counted clock
    /// repeats exactly; sized so a plain pass lasts about a second on the
    /// 2-core reference box. Frozen: later PRs compare against these.
    pub ops: usize,
    mix: OpMix,
    dist: KeyDist,
    miss_fraction: f64,
    /// FNV digest of the traffic at [`DEFAULT_SEED`] and 1/[`SMOKE_DIV`]
    /// scale. Every run regenerates and compares it, so a change to
    /// `core::workload` that alters the traffic fails the benchmark
    /// instead of silently moving every number.
    pub pinned_digest: u64,
}

pub const DEFAULT_SEED: u64 = 0x52_55_4D;
pub const SMOKE_DIV: usize = 50;
const ZIPF: KeyDist = KeyDist::Zipf { theta: 0.99 };

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        kind: Kind::BtreePoint,
        name: "btree-point",
        why: "Bare b+tree, Zipf point reads over 16 MB: only storage::device, storage::pager and btree node decode run, so the zero-copy page path must show here and nowhere else.",
        records: 1_000_000,
        ops: 250_000,
        mix: OpMix::READ_HEAVY,
        dist: ZIPF,
        miss_fraction: 0.05,
        pinned_digest: 0x8b5e_c9f0_4b3c_6132,
    },
    Workload {
        kind: Kind::LsmIngest,
        name: "lsm-ingest",
        why: "Bare lsm-tree under uniform write-heavy traffic: memtable, flushes, compaction and filter builds dominate, so a read-path gain paid for on the write path shows here.",
        records: 1_000_000,
        ops: 200_000,
        mix: OpMix::WRITE_HEAVY,
        dist: KeyDist::Uniform,
        miss_fraction: 0.0,
        pinned_digest: 0x69b8_7ef7_eec4_8fc8,
    },
    Workload {
        kind: Kind::LsmScan,
        name: "lsm-scan",
        why: "lsm-tree+view under range-heavy Zipf traffic with live writes: range merge and view rebuild, the cell where the counted and the wall clock already disagree.",
        records: 1_000_000,
        ops: 120_000,
        mix: OpMix::RANGE_HEAVY,
        dist: ZIPF,
        miss_fraction: 0.0,
        pinned_digest: 0xff74_3365_fa0e_3ba7,
    },
    Workload {
        kind: Kind::StackBalanced,
        name: "stack-balanced",
        why: "Durable<BTree<CheckedDevice<MemDevice>>> under a balanced Zipf mix, then recover(): storage::checked and storage::wal do most of the work and every other workload bypasses them.",
        records: 1_000_000,
        ops: 25_000,
        mix: OpMix::BALANCED,
        dist: ZIPF,
        miss_fraction: 0.0,
        pinned_digest: 0x71ec_3357_99a3_bf9d,
    },
    Workload {
        kind: Kind::ShardedBalanced,
        name: "sharded-balanced",
        why: "Two hash shards of bare b+tree on a two-worker pool, balanced uniform mix with fan-out ranges: core::shard partitioning, dispatch and pool, read against its K=1 twin.",
        records: 1_000_000,
        ops: 25_000,
        mix: OpMix::BALANCED,
        dist: KeyDist::Uniform,
        miss_fraction: 0.0,
        pinned_digest: 0xa61c_5c4f_cd3e_7097,
    },
    Workload {
        kind: Kind::Suite,
        name: "suite",
        why: "All 21 methods of standard_suite() on a cache-resident balanced mix: every family through core::tracker, core::runner and core::workload, so shared-code regressions show.",
        records: 1 << 12,
        ops: 1 << 12,
        mix: OpMix::BALANCED,
        dist: KeyDist::Uniform,
        miss_fraction: 0.0,
        pinned_digest: 0x46a3_2479_8f10_070a,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The spec at `1/div` of full size.
    pub fn spec(&self, seed: u64, div: usize) -> WorkloadSpec {
        WorkloadSpec {
            initial_records: (self.records / div).max(64),
            operations: (self.ops / div).max(64),
            mix: self.mix,
            dist: self.dist,
            range_len: 64,
            miss_fraction: self.miss_fraction,
            seed,
            ..Default::default()
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    #[inline]
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// One workload's materialised inputs. The plain passes regenerate the
/// stream themselves (generation is inside the runner's op-phase wall);
/// the benchmark's own loops and the oracle replay this copy.
pub struct Traffic {
    pub spec: WorkloadSpec,
    pub initial: Vec<Record>,
    pub ops: Vec<Op>,
    pub digest: u64,
    /// `OpStream::new` wall time.
    pub init_s: f64,
    /// Wall time to drain the stream, per op.
    pub gen_ns_per_op: f64,
}

impl Traffic {
    pub fn generate(spec: &WorkloadSpec) -> Traffic {
        let t = Instant::now();
        let mut stream = OpStream::new(spec);
        let init_s = t.elapsed().as_secs_f64();
        let initial = stream.take_initial();
        let mut ops = Vec::with_capacity(spec.operations);
        let t = Instant::now();
        ops.extend(&mut stream);
        let gen_ns_per_op = t.elapsed().as_nanos() as f64 / ops.len().max(1) as f64;

        let mut h = Fnv::default();
        for r in &initial {
            h.word(r.key);
            h.word(r.value);
        }
        for op in &ops {
            let (tag, a, b) = match *op {
                Op::Get(k) => (1, k, 0),
                Op::Insert(k, v) => (2, k, v),
                Op::Update(k, v) => (3, k, v),
                Op::Delete(k) => (4, k, 0),
                Op::Range(lo, hi) => (5, lo, hi),
            };
            h.word(tag);
            h.word(a);
            h.word(b);
        }
        Traffic {
            spec: *spec,
            initial,
            ops,
            digest: h.0,
            init_s,
            gen_ns_per_op,
        }
    }
}

/// Operation classes the latency and allocation metrics are split by.
pub const GET: usize = 0;
pub const WRITE: usize = 1;
pub const RANGE: usize = 2;

pub fn class_of(op: &Op) -> usize {
    match op {
        Op::Get(_) => GET,
        Op::Range(..) => RANGE,
        Op::Insert(..) | Op::Update(..) | Op::Delete(_) => WRITE,
    }
}

/// What one operation returned.
pub enum Answer {
    Got(Option<Value>),
    Ranged(Vec<Record>),
    Inserted,
    Applied(bool),
}

impl Answer {
    /// A 64-bit stand-in compared with the oracle's after the pass, so the
    /// timed loop touches no oracle memory between calls.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        match self {
            Answer::Got(v) => {
                h.word(1);
                h.word(u64::from(v.is_some()));
                h.word(v.unwrap_or(0));
            }
            Answer::Ranged(rs) => {
                h.word(2);
                h.word(rs.len() as u64);
                for r in rs {
                    h.word(r.key);
                    h.word(r.value);
                }
            }
            Answer::Inserted => h.word(3),
            Answer::Applied(b) => {
                h.word(4);
                h.word(u64::from(*b));
            }
        }
        h.0
    }
}

/// Stand-in for an operation that returned `Err`; never equals a digest
/// the oracle produces (those come out of FNV, this does not).
pub const FAILED_ANSWER: u64 = 0;

/// Expected answer digests and final contents, from replaying the traffic
/// on a `BTreeMap`.
pub struct Oracle {
    pub answers: Vec<u64>,
    pub state: BTreeMap<Key, Value>,
}

impl Oracle {
    pub fn replay(traffic: &Traffic) -> Oracle {
        let mut state: BTreeMap<Key, Value> =
            traffic.initial.iter().map(|r| (r.key, r.value)).collect();
        let mut answers = Vec::with_capacity(traffic.ops.len());
        for op in &traffic.ops {
            let answer = match *op {
                Op::Get(k) => Answer::Got(state.get(&k).copied()),
                Op::Range(lo, hi) => Answer::Ranged(
                    state
                        .range(lo..=hi)
                        .map(|(&k, &v)| Record::new(k, v))
                        .collect(),
                ),
                Op::Insert(k, v) => {
                    state.insert(k, v);
                    Answer::Inserted
                }
                Op::Update(k, v) => Answer::Applied(state.get_mut(&k).map(|s| *s = v).is_some()),
                Op::Delete(k) => Answer::Applied(state.remove(&k).is_some()),
            };
            answers.push(answer.digest());
        }
        Oracle { answers, state }
    }

    pub fn records(&self) -> impl Iterator<Item = Record> + '_ {
        self.state.iter().map(|(&k, &v)| Record::new(k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced run works on a quarter-length spec and relies on this.
    #[test]
    fn fewer_operations_yield_a_prefix_of_the_same_stream() {
        let w = workload("lsm-scan").unwrap();
        let full = Traffic::generate(&w.spec(7, 200));
        let quarter = Traffic::generate(&WorkloadSpec {
            operations: full.ops.len() / 4,
            ..full.spec
        });
        assert_eq!(quarter.ops, full.ops[..full.ops.len() / 4]);
        assert_eq!(quarter.initial, full.initial);
    }

    #[test]
    fn the_seed_decides_the_traffic() {
        let w = workload("btree-point").unwrap();
        let a = Traffic::generate(&w.spec(1, 500));
        let b = Traffic::generate(&w.spec(1, 500));
        let c = Traffic::generate(&w.spec(2, 500));
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn pinned_digests_match_the_generator() {
        for w in &WORKLOADS {
            let t = Traffic::generate(&w.spec(DEFAULT_SEED, SMOKE_DIV));
            assert_eq!(
                t.digest, w.pinned_digest,
                "{}: traffic at the default seed is {:#018x}",
                w.name, t.digest
            );
        }
    }

    #[test]
    fn failed_answer_is_not_an_oracle_digest() {
        for a in [
            Answer::Got(None),
            Answer::Got(Some(0)),
            Answer::Ranged(Vec::new()),
            Answer::Inserted,
            Answer::Applied(false),
            Answer::Applied(true),
        ] {
            assert_ne!(a.digest(), FAILED_ANSWER);
        }
    }
}
