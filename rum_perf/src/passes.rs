//! The passes a run is made of. A *plain* pass is the program's own
//! runner, untouched. The benchmark's own loops replay the same operations
//! one call at a time: *timed* (a clock, the allocation counters and the
//! oracle around every call), *bare* (nothing added: the reference the
//! runner's overhead and the spans' cost are measured against, and, over a
//! spanned stack, the traced pass) and the sharded batch loop.

use std::sync::Arc;
use std::time::Instant;

use rum::core::runner::{
    run_stream, run_stream_sharded, run_suite_stream, RumReport, DEFAULT_STREAM_BATCH,
};
use rum::core::workload::{Op, OpStream, WorkloadSpec};
use rum::core::{AccessMethod, CostSnapshot, CostTracker, Key, ShardedMethod};
use rum::lsm::{LsmConfig, LsmTree};

use crate::alloc;
use crate::hist::Hist;
use crate::span::Spans;
use crate::stacks::{self, SHARDS};
use crate::traffic::{class_of, Answer, Kind, Oracle, Traffic, FAILED_ANSWER, RANGE};

pub type Res<T> = std::result::Result<T, String>;

fn secs(ns: u128) -> f64 {
    ns as f64 / 1e9
}

/// Everything the counted clock says about one method over one pass. Two
/// passes over the same traffic must agree on all of it, bit for bit.
#[derive(Clone, Debug)]
pub struct Counted {
    pub method: String,
    pub n_final: usize,
    pub read_ops: u64,
    pub write_ops: u64,
    pub load: CostSnapshot,
    pub read: CostSnapshot,
    pub write: CostSnapshot,
    pub ro: f64,
    pub uo: f64,
    pub mo: f64,
    pub sim_ns: u64,
}

impl Counted {
    fn of(r: &RumReport) -> Counted {
        Counted {
            method: r.method.clone(),
            n_final: r.n_final,
            read_ops: r.read_ops,
            write_ops: r.write_ops,
            load: r.load_costs,
            read: r.read_costs,
            write: r.write_costs,
            ro: r.ro,
            uo: r.uo,
            mo: r.mo,
            sim_ns: r.sim_ns,
        }
    }

    pub fn same_bits(&self, o: &Counted) -> bool {
        self.method == o.method
            && self.n_final == o.n_final
            && (self.read_ops, self.write_ops) == (o.read_ops, o.write_ops)
            && (self.load, self.read, self.write) == (o.load, o.read, o.write)
            && self.ro.to_bits() == o.ro.to_bits()
            && self.uo.to_bits() == o.uo.to_bits()
            && self.mo.to_bits() == o.mo.to_bits()
            && self.sim_ns == o.sim_ns
    }

    pub fn ops(&self) -> u64 {
        self.read_ops + self.write_ops
    }
}

/// The runner's class-transition cost attribution (`OpPhase` in
/// `core::runner`, which is private), so the benchmark's own loops arrive
/// at the same `Counted` as a plain pass.
struct Phase {
    tracker: Arc<CostTracker>,
    load: CostSnapshot,
    mark: CostSnapshot,
    running: Option<bool>,
    read: CostSnapshot,
    write: CostSnapshot,
    read_ops: u64,
    write_ops: u64,
}

impl Phase {
    /// Bulk-load `traffic.initial` the way the runner does (tracker reset
    /// first) and open the op phase. Returns the load's wall seconds too.
    fn load(m: &mut dyn AccessMethod, traffic: &Traffic) -> Res<(Phase, f64)> {
        let tracker = Arc::clone(m.tracker());
        tracker.reset();
        let started = Instant::now();
        m.bulk_load(&traffic.initial)
            .map_err(|e| format!("{}: bulk load failed: {e}", m.name()))?;
        let load_s = started.elapsed().as_secs_f64();
        let load = tracker.snapshot();
        let phase = Phase {
            tracker,
            load,
            mark: load,
            running: None,
            read: CostSnapshot::default(),
            write: CostSnapshot::default(),
            read_ops: 0,
            write_ops: 0,
        };
        Ok((phase, load_s))
    }

    fn settle(&mut self) {
        let now = self.tracker.snapshot();
        let d = now.delta(&self.mark);
        self.mark = now;
        match self.running {
            Some(true) => self.read = self.read.add(&d),
            Some(false) => self.write = self.write.add(&d),
            None => {}
        }
    }

    #[inline]
    fn note(&mut self, is_read: bool, count: u64) {
        if self.running != Some(is_read) {
            self.settle();
            self.running = Some(is_read);
        }
        if is_read {
            self.read_ops += count;
        } else {
            self.write_ops += count;
        }
    }

    fn finish(mut self, m: &dyn AccessMethod) -> Counted {
        self.settle();
        Counted {
            method: m.name(),
            n_final: m.len(),
            read_ops: self.read_ops,
            write_ops: self.write_ops,
            load: self.load,
            read: self.read,
            write: self.write,
            ro: self.read.read_amplification(),
            uo: self.write.write_amplification(),
            mo: m.space_profile().space_amplification(),
            sim_ns: self.read.sim_time_ns + self.write.sim_time_ns,
        }
    }
}

#[inline]
fn execute(m: &mut dyn AccessMethod, op: Op) -> rum::core::Result<Answer> {
    Ok(match op {
        Op::Get(k) => Answer::Got(m.get(k)?),
        Op::Range(lo, hi) => Answer::Ranged(m.range(lo, hi)?),
        Op::Insert(k, v) => {
            m.insert(k, v)?;
            Answer::Inserted
        }
        Op::Update(k, v) => Answer::Applied(m.update(k, v)?),
        Op::Delete(k) => Answer::Applied(m.delete(k)?),
    })
}

/// One plain pass over one workload.
pub struct Plain {
    /// `OpStream::new` plus construction plus bulk load (on `suite`:
    /// everything `run_suite_stream` spends outside the op phases).
    pub setup_s: f64,
    pub load_s: f64,
    /// Op-phase wall, summed over methods.
    pub op_wall_s: f64,
    /// Op-phase ops ÷ op-phase wall; geometric mean over methods on `suite`.
    pub ops_per_s: f64,
    pub counted: Vec<Counted>,
    pub method_ops_per_s: Vec<(String, f64)>,
    pub shape: Shape,
    /// The structures as the pass left them, in `counted` order.
    pub methods: Vec<Box<dyn AccessMethod>>,
}

/// Counts read off the concrete structure a plain pass leaves behind.
#[derive(Clone, Copy, Default)]
pub struct Shape {
    pub lsm_compactions: u64,
    pub lsm_levels: usize,
    /// Bytes the WAL synced during the pass.
    pub wal_bytes: u64,
}

fn plain_one<M: AccessMethod + 'static>(
    spec: &WorkloadSpec,
    build: impl FnOnce() -> M,
    run: impl FnOnce(&mut M, OpStream) -> rum::core::Result<RumReport>,
    shape: impl FnOnce(&M) -> Shape,
) -> Res<Plain> {
    let started = Instant::now();
    let stream = OpStream::new(spec);
    let mut m = build();
    let before_run = started.elapsed().as_secs_f64();
    let report = run(&mut m, stream).map_err(|e| format!("plain pass failed: {e}"))?;
    Ok(Plain {
        setup_s: before_run + secs(report.load_wall_ns),
        load_s: secs(report.load_wall_ns),
        op_wall_s: secs(report.wall_ns),
        ops_per_s: report.ops_per_sec,
        counted: vec![Counted::of(&report)],
        method_ops_per_s: vec![(report.method.clone(), report.ops_per_sec)],
        shape: shape(&m),
        methods: vec![Box::new(m)],
    })
}

fn lsm_shape(tree: &LsmTree) -> Shape {
    let stats = tree.stats();
    Shape {
        lsm_compactions: stats.compactions,
        lsm_levels: stats.levels.len(),
        wal_bytes: 0,
    }
}

pub fn plain(kind: Kind, spec: &WorkloadSpec) -> Res<Plain> {
    match kind {
        Kind::BtreePoint => plain_one(
            spec,
            rum::btree::BTree::new,
            |m, s| run_stream(m, s),
            |_| Shape::default(),
        ),
        Kind::LsmIngest | Kind::LsmScan => plain_lsm(spec, stacks::lsm_config(kind)),
        Kind::StackBalanced => plain_one(
            spec,
            stacks::stack_balanced,
            |m, s| run_stream(m, s),
            |m| Shape {
                wal_bytes: m.wal().synced_total(),
                ..Shape::default()
            },
        ),
        Kind::ShardedBalanced => plain_sharded(spec, SHARDS, SHARDS),
        Kind::Suite => plain_suite(spec),
    }
}

pub fn plain_lsm(spec: &WorkloadSpec, config: LsmConfig) -> Res<Plain> {
    plain_one(
        spec,
        || LsmTree::with_config(config),
        |m, s| run_stream(m, s),
        lsm_shape,
    )
}

pub fn plain_sharded(spec: &WorkloadSpec, shards: usize, threads: usize) -> Res<Plain> {
    plain_one(
        spec,
        || stacks::sharded(shards, threads),
        |m, s| run_stream_sharded(m, s, DEFAULT_STREAM_BATCH),
        |_| Shape::default(),
    )
}

fn plain_suite(spec: &WorkloadSpec) -> Res<Plain> {
    let mut methods = rum::standard_suite();
    let started = Instant::now();
    let reports =
        run_suite_stream(&mut methods, spec, 1).map_err(|e| format!("suite pass failed: {e}"))?;
    let total_s = started.elapsed().as_secs_f64();
    if reports.len() != methods.len() {
        return Err(format!(
            "suite: {} of {} methods reported",
            reports.len(),
            methods.len()
        ));
    }
    // Reports come back sorted by name; put the structures in that order.
    methods.sort_by_key(|m| m.name());
    let op_wall_s: f64 = reports.iter().map(|r| secs(r.wall_ns)).sum();
    let log_mean = reports.iter().map(|r| r.ops_per_sec.ln()).sum::<f64>() / reports.len() as f64;
    Ok(Plain {
        setup_s: total_s - op_wall_s,
        load_s: reports.iter().map(|r| secs(r.load_wall_ns)).sum(),
        op_wall_s,
        ops_per_s: log_mean.exp(),
        counted: reports.iter().map(Counted::of).collect(),
        method_ops_per_s: reports
            .iter()
            .map(|r| (r.method.clone(), r.ops_per_sec))
            .collect(),
        shape: Shape::default(),
        methods,
    })
}

/// One method's share of a pass made by one of the benchmark's own loops.
pub struct Looped {
    pub load_s: f64,
    pub op_wall_s: f64,
    pub counted: Counted,
}

/// Replay `traffic` with nothing added around the calls.
pub fn bare(m: &mut dyn AccessMethod, traffic: &Traffic) -> Res<Looped> {
    let (mut phase, load_s) = Phase::load(m, traffic)?;
    let started = Instant::now();
    for &op in &traffic.ops {
        phase.note(op.is_read(), 1);
        execute(m, op).map_err(|e| format!("{}: {op:?} failed: {e}", m.name()))?;
    }
    let op_wall_s = started.elapsed().as_secs_f64();
    Ok(Looped {
        load_s,
        op_wall_s,
        counted: phase.finish(m),
    })
}

/// What the timed loop saw, per operation class (`GET`/`WRITE`/`RANGE`).
#[derive(Default)]
pub struct Timed {
    pub latency: [Hist; 3],
    pub allocs: [u64; 3],
    pub alloc_bytes: u64,
    /// Device page reads made by range operations (counted clock).
    pub range_page_reads: u64,
    /// Operations that returned `Err` or an answer the oracle disagrees with.
    pub failed: u64,
    /// Highest heap size seen at any of the loop's sampling points.
    pub peak_live_bytes: u64,
}

impl Timed {
    /// Fold another method's share of the same pass into this one.
    pub fn absorb(&mut self, o: Timed) {
        for (mine, theirs) in self.latency.iter_mut().zip(&o.latency) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.allocs.iter_mut().zip(o.allocs) {
            *mine += theirs;
        }
        self.alloc_bytes += o.alloc_bytes;
        self.range_page_reads += o.range_page_reads;
        self.failed += o.failed;
        self.peak_live_bytes = self.peak_live_bytes.max(o.peak_live_bytes);
    }
}

/// Replay `traffic` with a clock and the allocation counters read around
/// every call. Answers are reduced to digests between calls and compared
/// with the oracle's after the loop, outside every timed window.
pub fn timed(m: &mut dyn AccessMethod, traffic: &Traffic, oracle: &Oracle) -> Res<(Looped, Timed)> {
    let mut answers: Vec<u64> = Vec::with_capacity(traffic.ops.len());
    let mut latency: [Hist; 3] = Default::default();
    let mut allocs = [0u64; 3];
    let mut alloc_bytes = 0u64;
    let mut range_page_reads = 0u64;
    let mut peak_live_bytes = 0u64;

    let (mut phase, load_s) = Phase::load(m, traffic)?;
    let tracker = Arc::clone(m.tracker());
    let started = Instant::now();
    for (i, &op) in traffic.ops.iter().enumerate() {
        phase.note(op.is_read(), 1);
        let class = class_of(&op);
        let pages_before = (class == RANGE).then(|| tracker.snapshot().page_reads);
        let heap_before = alloc::thread_counts();
        let clock = Instant::now();
        let outcome = execute(m, op);
        let ns = clock.elapsed().as_nanos() as u64;
        let heap = alloc::thread_counts().since(&heap_before);
        latency[class].record(ns);
        allocs[class] += heap.allocs;
        alloc_bytes += heap.alloc_bytes;
        if let Some(before) = pages_before {
            range_page_reads += tracker.snapshot().page_reads - before;
        }
        answers.push(outcome.map_or(FAILED_ANSWER, |a| a.digest()));
        if i % 4096 == 0 {
            peak_live_bytes = peak_live_bytes.max(alloc::live_bytes());
        }
    }
    let op_wall_s = started.elapsed().as_secs_f64();
    peak_live_bytes = peak_live_bytes.max(alloc::live_bytes());
    let failed = answers
        .iter()
        .zip(&oracle.answers)
        .filter(|(got, want)| got != want)
        .count() as u64;
    let looped = Looped {
        load_s,
        op_wall_s,
        counted: phase.finish(m),
    };
    let timed = Timed {
        latency,
        allocs,
        alloc_bytes,
        range_page_reads,
        failed,
        peak_live_bytes,
    };
    Ok((looped, timed))
}

/// The sharded runner's schedule replayed from outside: class-contiguous
/// batches of at most `DEFAULT_STREAM_BATCH` operations, each submitted
/// and collected inside a `shard.batch` span on the caller's tracer. The
/// inner work is recorded by the shards' own tracers on the pool threads.
pub fn sharded_batches(
    m: &mut ShardedMethod,
    traffic: &Traffic,
    spans: &Spans,
) -> Res<(Looped, Hist)> {
    let batch_span = spans.intern("shard.batch");
    let mut rtt = Hist::default();
    let (mut phase, load_s) = Phase::load(m, traffic)?;
    let ops = &traffic.ops;
    let started = Instant::now();
    let mut i = 0;
    while i < ops.len() {
        let is_read = ops[i].is_read();
        let mut j = i + 1;
        while j < ops.len() && j - i < DEFAULT_STREAM_BATCH && ops[j].is_read() == is_read {
            j += 1;
        }
        phase.note(is_read, (j - i) as u64);
        let clock = Instant::now();
        spans
            .scope(batch_span, || {
                let pending = m.submit_batch(&ops[i..j], false)?;
                m.finish_batch(pending)
            })
            .map_err(|e| format!("sharded batch at op {i} failed: {e}"))?;
        rtt.record(clock.elapsed().as_nanos() as u64);
        i = j;
    }
    let op_wall_s = started.elapsed().as_secs_f64();
    let looped = Looped {
        load_s,
        op_wall_s,
        counted: phase.finish(m),
    };
    Ok((looped, rtt))
}

/// Records of `m` that differ from the oracle's final state: one full
/// `range(0, Key::MAX)` compared position by position, plus any length
/// difference. 0 means the structure holds exactly the oracle's contents.
pub fn final_state_errors(m: &mut dyn AccessMethod, oracle: &Oracle) -> u64 {
    let want = oracle.state.len();
    let Ok(got) = m.range(0, Key::MAX) else {
        return want.max(1) as u64;
    };
    let differing = got
        .iter()
        .zip(oracle.records())
        .filter(|(g, w)| *g != w)
        .count();
    let len_errors = got.len().abs_diff(want) + m.len().abs_diff(want);
    (differing + len_errors) as u64
}

/// Point-read every key the traffic wrote back and compare with the
/// oracle (`None` for a deleted key): acknowledged writes a recovery lost
/// or resurrected. Keys the traffic never wrote are covered by
/// [`final_state_errors`], one page read each instead of a descent.
pub fn lost_writes(m: &mut dyn AccessMethod, traffic: &Traffic, oracle: &Oracle) -> (u64, u64) {
    let mut keys: Vec<Key> = traffic
        .ops
        .iter()
        .filter_map(|op| match *op {
            Op::Insert(k, _) | Op::Update(k, _) | Op::Delete(k) => Some(k),
            Op::Get(_) | Op::Range(..) => None,
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let lost = keys
        .iter()
        .filter(|&&k| !matches!(m.get(k), Ok(got) if got == oracle.state.get(&k).copied()))
        .count();
    (keys.len() as u64, lost as u64)
}
