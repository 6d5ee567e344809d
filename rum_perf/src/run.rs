//! One run = one invocation on one workload: either the untraced run that
//! yields the end-to-end metrics, or the traced run that yields the
//! per-layer ones.

use std::time::Instant;

use rum::core::workload::OpStream;
use rum::core::AccessMethod;
use rum::lsm::LsmConfig;

use crate::alloc;
use crate::hist::Hist;
use crate::json::Json;
use crate::layers;
use crate::passes::{self, Counted, Looped, Plain, Res, Timed};
use crate::report::{fastest, method_metric, Better, Metrics, RunResult, PER_LAYER};
use crate::span::{self, Aggregate, RawSpan};
use crate::stacks::{self, SpanSet, SHARDS};
use crate::traffic::{Kind, Oracle, Traffic, Workload, DEFAULT_SEED, GET, RANGE, SMOKE_DIV, WRITE};

pub struct Options {
    pub seed: u64,
    /// Seconds an untraced run's plain passes last (it always makes
    /// [`MIN_PASSES`], and stops after the pass that reaches this).
    pub seconds: f64,
    /// Run at `1/div` of full size.
    pub div: usize,
}

/// Fewest plain passes of an untraced run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Percentile `q` of `h`, or 0 with fewer than ten samples beyond it.
fn percentile(h: &Hist, q: f64) -> f64 {
    if (h.count() as f64) * (1.0 - q) >= 10.0 {
        h.quantile(q)
    } else {
        0.0
    }
}

/// Failures and invariant checks accumulated over a run's passes.
struct Checks {
    workload: &'static Workload,
    ops: u64,
    reference: Vec<Counted>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    passes: Vec<(String, f64, Option<f64>)>,
}

impl Checks {
    /// Generate the run's traffic and oracle, and verify the traffic pin.
    fn start(w: &'static Workload, o: &Options) -> (Checks, Traffic, Oracle) {
        let mut checks = Checks {
            workload: w,
            ops: 0,
            reference: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            passes: Vec::new(),
        };
        let started = Instant::now();
        let traffic = Traffic::generate(&w.spec(o.seed, o.div));
        checks.ops = traffic.ops.len() as u64;
        checks.pass("generate", started);
        let started = Instant::now();
        let oracle = Oracle::replay(&traffic);
        checks.pass("oracle", started);

        let pin = if (o.seed, o.div) == (DEFAULT_SEED, SMOKE_DIV) {
            traffic.digest
        } else {
            Traffic::generate(&w.spec(DEFAULT_SEED, SMOKE_DIV)).digest
        };
        if pin != w.pinned_digest {
            checks.errors.push(format!(
                "traffic pin: digest at the default seed is {pin:#018x}, pinned {:#018x}: \
                 core::workload no longer generates the traffic this benchmark was defined on",
                w.pinned_digest
            ));
        }
        (checks, traffic, oracle)
    }

    fn pass(&mut self, name: &str, started: Instant) {
        self.passes
            .push((name.to_string(), started.elapsed().as_secs_f64(), None));
    }

    /// The first pass sets the reference; every later one must match it.
    fn counted(&mut self, pass: &str, got: &[Counted]) {
        if self.reference.is_empty() {
            self.reference = got.to_vec();
            return;
        }
        if got.len() != self.reference.len() {
            self.errors.push(format!(
                "{pass}: {} methods, reference has {}",
                got.len(),
                self.reference.len()
            ));
            return;
        }
        for (g, r) in got.iter().zip(&self.reference) {
            if !g.same_bits(r) {
                self.errors.push(format!(
                    "{pass}: counted clock differs from the run's first pass\n  got  {g:?}\n  want {r:?}"
                ));
            }
        }
    }

    /// Check every structure's final contents and count the pass's
    /// operations as attempted.
    fn final_state(&mut self, methods: &mut [Box<dyn AccessMethod>], oracle: &Oracle) {
        for m in methods {
            self.attempted += self.ops;
            self.failed += passes::final_state_errors(m.as_mut(), oracle);
        }
    }

    /// `stack-balanced`: throw the in-memory state away, rebuild from
    /// checkpoint + committed WAL, and read every acknowledged write back.
    /// Returns the recovery's wall seconds.
    fn durability(&mut self, m: &mut dyn AccessMethod, traffic: &Traffic, oracle: &Oracle) -> f64 {
        let started = Instant::now();
        let healed = m.try_heal();
        let recover_s = started.elapsed().as_secs_f64();
        if !matches!(healed, Ok(true)) {
            self.errors
                .push(format!("recover() did not rebuild the stack: {healed:?}"));
        }
        let (written, lost) = passes::lost_writes(m, traffic, oracle);
        self.attempted += written;
        self.failed += lost + passes::final_state_errors(m, oracle);
        recover_s
    }

    fn finish(self, o: &Options, traffic: &Traffic, traced: bool, metrics: Metrics) -> RunResult {
        RunResult {
            workload: self.workload.name,
            seed: o.seed,
            traced,
            records: traffic.initial.len(),
            ops: traffic.ops.len(),
            digest: traffic.digest,
            attempted: self.attempted.max(1),
            failed: self.failed,
            errors: self.errors,
            metrics,
            passes: self.passes,
        }
    }
}

/// One plain pass, checked.
fn plain_pass(checks: &mut Checks, traffic: &Traffic, oracle: &Oracle, name: &str) -> Res<Plain> {
    let started = Instant::now();
    let mut plain = passes::plain(checks.workload.kind, &traffic.spec)?;
    checks.counted(name, &plain.counted);
    checks.final_state(&mut plain.methods, oracle);
    checks.pass(name, started);
    if let Some(last) = checks.passes.last_mut() {
        last.2 = Some(plain.ops_per_s);
    }
    Ok(plain)
}

/// The structures of one of the benchmark's own passes, in the order the
/// plain pass reports them (by name).
fn subjects(kind: Kind, set: Option<&SpanSet>) -> Vec<Box<dyn AccessMethod>> {
    let mut methods = stacks::build(kind, set);
    methods.sort_by_key(|m| m.name());
    methods
}

struct LoopTotals {
    /// What a plain pass calls set-up, timed the same way: `OpStream::new`
    /// and the bulk load per structure, plus building the structures.
    setup_s: f64,
    op_wall_s: f64,
    counted: Vec<Counted>,
}

impl LoopTotals {
    fn new() -> Self {
        LoopTotals {
            setup_s: 0.0,
            op_wall_s: 0.0,
            counted: Vec::new(),
        }
    }

    fn add(&mut self, l: Looped) {
        self.setup_s += l.load_s;
        self.op_wall_s += l.op_wall_s;
        self.counted.push(l.counted);
    }
}

struct TimedPass {
    totals: LoopTotals,
    timed: Timed,
    /// The structures, still holding their final state.
    methods: Vec<Box<dyn AccessMethod>>,
}

/// One timed pass over every subject, checked.
fn timed_pass(
    checks: &mut Checks,
    traffic: &Traffic,
    oracle: &Oracle,
    name: &str,
) -> Res<TimedPass> {
    let started = Instant::now();
    let mut methods = subjects(checks.workload.kind, None);
    let mut totals = LoopTotals::new();
    totals.setup_s = started.elapsed().as_secs_f64();
    let mut all = Timed::default();
    for m in &mut methods {
        // The loop replays materialised traffic; generate the stream the
        // plain pass would, so this pass yields a second `setup_s` sample.
        let init = Instant::now();
        drop(OpStream::new(&traffic.spec));
        totals.setup_s += init.elapsed().as_secs_f64();
        let (looped, timed) = passes::timed(m.as_mut(), traffic, oracle)?;
        totals.add(looped);
        all.absorb(timed);
    }
    checks.counted(name, &totals.counted);
    checks.failed += all.failed;
    checks.final_state(&mut methods, oracle);
    checks.pass(name, started);
    Ok(TimedPass {
        totals,
        timed: all,
        methods,
    })
}

/// `ro`, `uo`, `mo`, `sim_ns_per_op` of a pass: the one method's own, or
/// on `suite` the sum-weighted figures over the 21.
fn counted_metrics(counted: &[Counted]) -> [f64; 4] {
    let ops: u64 = counted.iter().map(Counted::ops).sum();
    let sim: u64 = counted.iter().map(|c| c.sim_ns).sum();
    let sim_ns_per_op = sim as f64 / ops.max(1) as f64;
    if let [one] = counted {
        return [one.ro, one.uo, one.mo, sim_ns_per_op];
    }
    let sum = |f: fn(&Counted) -> u64| counted.iter().map(f).sum::<u64>() as f64;
    let records = sum(|c| c.n_final as u64);
    [
        sum(|c| c.read.total_read_bytes()) / sum(|c| c.read.logical_read_bytes),
        sum(|c| c.write.total_write_bytes()) / sum(|c| c.write.logical_write_bytes),
        counted.iter().map(|c| c.mo * c.n_final as f64).sum::<f64>() / records,
        sim_ns_per_op,
    ]
}

pub fn untraced(w: &'static Workload, o: &Options) -> Res<RunResult> {
    let (mut checks, traffic, oracle) = Checks::start(w, o);
    let mut setup = Vec::new();
    let mut rate = Vec::new();

    // A process's first pass grows the heap from nothing and pays the page
    // faults; keep it out of the timings.
    bare_pass(&mut checks, &traffic, "warmup")?;

    // The timed pass's numbers are counts, or latencies that carry no
    // bound: one pass gives them, and the rest of the run goes to plain
    // passes, whose timings need the samples.
    let TimedPass {
        totals,
        timed,
        mut methods,
    } = timed_pass(&mut checks, &traffic, &oracle, "timed")?;
    setup.push(totals.setup_s);
    let ops: u64 = totals.counted.iter().map(Counted::ops).sum();
    let allocs_per_op = timed.allocs.iter().sum::<u64>() as f64 / ops as f64;
    if w.kind == Kind::StackBalanced {
        let started = Instant::now();
        checks.durability(methods[0].as_mut(), &traffic, &oracle);
        checks.pass("recover", started);
    }
    drop(methods);

    let measuring = Instant::now();
    while rate.len() < MIN_PASSES || measuring.elapsed().as_secs_f64() < o.seconds {
        let name = format!("plain{}", rate.len());
        let plain = plain_pass(&mut checks, &traffic, &oracle, &name)?;
        setup.push(plain.setup_s);
        rate.push(plain.ops_per_s);
    }

    let passes = rate.len() as u64;
    let mut m = Metrics::default();
    m.push("setup_s", fastest(&setup, Better::Lower), passes + 1);
    m.push("ops_per_s", fastest(&rate, Better::Higher), passes);
    let [ro, uo, mo, sim_ns_per_op] = counted_metrics(&checks.reference);
    m.push("ro", ro, 1);
    m.push("uo", uo, 1);
    m.push("mo", mo, 1);
    m.push("sim_ns_per_op", sim_ns_per_op, 1);
    m.push("allocs_per_op", allocs_per_op, 1);
    for (class, [name50, name99]) in [
        (GET, ["get_p50_ns", "get_p99_ns"]),
        (WRITE, ["write_p50_ns", "write_p99_ns"]),
        (RANGE, ["range_p50_ns", "range_p99_ns"]),
    ] {
        let h = &timed.latency[class];
        m.push(name50, percentile(h, 0.50), h.count());
        m.push(name99, percentile(h, 0.99), h.count());
    }
    Ok(checks.finish(o, &traffic, false, m))
}

/// What the traced pass recorded.
pub struct Trace {
    pub aggregates: Vec<Aggregate>,
    pub raw: Vec<RawSpan>,
}

impl Trace {
    pub fn to_json(&self, run: &RunResult) -> Json {
        let num = |v: u64| Json::Number(v as f64);
        let aggregates = self
            .aggregates
            .iter()
            .map(|a| {
                Json::Object(vec![
                    ("name".into(), Json::String(a.name.into())),
                    (
                        "parent".into(),
                        a.parent.map_or(Json::Null, |p| Json::String(p.into())),
                    ),
                    ("count".into(), num(a.count)),
                    ("total_ns".into(), num(a.total_ns)),
                    ("self_ns".into(), num(a.self_ns)),
                ])
            })
            .collect();
        let spans = self
            .raw
            .iter()
            .map(|s| {
                Json::Object(vec![
                    ("tracer".into(), num(u64::from(s.tracer))),
                    ("op".into(), num(s.op)),
                    ("id".into(), num(u64::from(s.id))),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| num(u64::from(p))),
                    ),
                    ("name".into(), Json::String(s.name.into())),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("workload".into(), Json::String(run.workload.into())),
            ("seed".into(), Json::String(format!("{:#x}", run.seed))),
            ("ops".into(), num(run.ops as u64)),
            ("raw_sample_every".into(), num(span::RAW_SAMPLE_EVERY)),
            ("aggregates".into(), Json::Array(aggregates)),
            ("spans".into(), Json::Array(spans)),
        ])
    }
}

/// The bare pass: the same loop the traced pass runs, without spans.
fn bare_pass(checks: &mut Checks, traffic: &Traffic, name: &str) -> Res<LoopTotals> {
    let started = Instant::now();
    let mut totals = LoopTotals::new();
    if checks.workload.kind == Kind::ShardedBalanced {
        let mut m = stacks::sharded(SHARDS, SHARDS);
        let throwaway = SpanSet::new().tracer();
        totals.add(passes::sharded_batches(&mut m, traffic, &throwaway)?.0);
    } else {
        for m in &mut subjects(checks.workload.kind, None) {
            totals.add(passes::bare(m.as_mut(), traffic)?);
        }
    }
    checks.counted(name, &totals.counted);
    checks.pass(name, started);
    Ok(totals)
}

struct TracedPass {
    totals: LoopTotals,
    trace: Trace,
    batch_rtt: Hist,
    recover_s: f64,
}

fn traced_pass(checks: &mut Checks, traffic: &Traffic, oracle: &Oracle) -> Res<TracedPass> {
    let started = Instant::now();
    let kind = checks.workload.kind;
    let set = SpanSet::new();
    let mut totals = LoopTotals::new();
    let mut batch_rtt = Hist::default();
    let mut methods: Vec<Box<dyn AccessMethod>>;
    if kind == Kind::ShardedBalanced {
        let main = set.tracer();
        let mut m = stacks::spanned_sharded(SHARDS, SHARDS, &set);
        let (looped, rtt) = passes::sharded_batches(&mut m, traffic, &main)?;
        totals.add(looped);
        batch_rtt = rtt;
        methods = vec![Box::new(m)];
    } else {
        methods = subjects(kind, Some(&set));
        for m in &mut methods {
            totals.add(passes::bare(m.as_mut(), traffic)?);
        }
    }
    // Read the spans before the checks below add their own.
    let trace = Trace {
        aggregates: set.aggregates(),
        raw: set.take_raw(),
    };
    checks.counted("traced", &totals.counted);
    checks.final_state(&mut methods, oracle);
    let recover_s = if kind == Kind::StackBalanced {
        checks.durability(methods[0].as_mut(), traffic, oracle)
    } else {
        0.0
    };
    checks.pass("traced", started);
    Ok(TracedPass {
        totals,
        trace,
        batch_rtt,
        recover_s,
    })
}

fn ratio(numer: f64, denom: f64) -> f64 {
    if denom == 0.0 {
        0.0
    } else {
        numer / denom
    }
}

pub fn traced(w: &'static Workload, o: &Options) -> Res<(RunResult, Trace)> {
    let (mut checks, traffic, oracle) = Checks::start(w, o);
    let kind = w.kind;

    // Every ratio below is between two passes, so none may be the
    // process's first (see `untraced`).
    bare_pass(&mut checks, &traffic, "warmup")?;
    let plain = plain_pass(&mut checks, &traffic, &oracle, "plain")?;
    let Plain {
        op_wall_s: plain_wall_s,
        ops_per_s: plain_rate,
        load_s: plain_load_s,
        shape,
        method_ops_per_s: method_rates,
        methods: plain_methods,
        ..
    } = plain;
    drop(plain_methods);

    let bare = bare_pass(&mut checks, &traffic, "bare")?;
    // On `sharded-balanced` the bare pass above is the batch loop; the
    // timed loop drives the per-op path, so it needs a per-op reference.
    let per_op_bare_s = if kind == Kind::ShardedBalanced {
        let started = Instant::now();
        let mut m = stacks::sharded(SHARDS, SHARDS);
        let looped = passes::bare(&mut m, &traffic)?;
        checks.counted("bare-per-op", std::slice::from_ref(&looped.counted));
        checks.pass("bare-per-op", started);
        looped.op_wall_s
    } else {
        bare.op_wall_s
    };

    let live_before = alloc::live_bytes();
    let TimedPass {
        totals: timed_totals,
        timed,
        methods: timed_methods,
    } = timed_pass(&mut checks, &traffic, &oracle, "timed")?;
    let live_after = alloc::live_bytes();
    drop(timed_methods);

    let tp = traced_pass(&mut checks, &traffic, &oracle)?;
    let aggs = &tp.trace.aggregates;

    let started = Instant::now();
    let micro = layers::micro(o.seed)?;
    checks.pass("micro", started);

    let counted = checks.reference.clone();
    let ops: u64 = counted.iter().map(Counted::ops).sum();
    let per_op = |ns: u64| ns as f64 / ops as f64;
    let write_ops: u64 = counted.iter().map(|c| c.write_ops).sum();
    let records: usize = counted.iter().map(|c| c.n_final).sum();
    let [ro, ..] = counted_metrics(&counted);

    let mut m = Metrics::default();
    m.push("workload.gen_ns_per_op", traffic.gen_ns_per_op, ops);
    m.push("workload.init_s", traffic.init_s, 1);
    m.push(
        "runner.overhead_ns_per_op",
        (plain_wall_s - bare.op_wall_s) * 1e9 / ops as f64 - traffic.gen_ns_per_op,
        ops,
    );
    m.push("runner.bulk_load_s", plain_load_s, 1);

    m.push("device.read_page_ns", micro.device_read_ns, layers::REPEATS);
    m.push(
        "device.write_page_ns",
        micro.device_write_ns,
        layers::REPEATS,
    );
    let (reads, read_ns, _) = span::by_name(aggs, "device.read_page");
    let (writes, write_ns, _) = span::by_name(aggs, "device.write_page");
    m.push("device.reads_per_op", reads as f64 / ops as f64, reads);
    m.push("device.writes_per_op", writes as f64 / ops as f64, writes);
    m.push("device.read_ns_per_op", per_op(read_ns), reads);
    m.push("device.write_ns_per_op", per_op(write_ns), writes);

    m.push("pager.read_ns", micro.pager_read_ns, layers::REPEATS);
    m.push("pager.write_ns", micro.pager_write_ns, layers::REPEATS);
    m.push(
        "pager.self_read_ns",
        micro.pager_read_ns - micro.device_read_ns,
        layers::REPEATS,
    );

    m.push(
        "checked.read_page_ns",
        micro.checked_read_ns,
        layers::REPEATS,
    );
    m.push(
        "checked.write_page_ns",
        micro.checked_write_ns,
        layers::REPEATS,
    );
    m.push("checked.crc32_gib_s", micro.crc32_gib_s, layers::REPEATS);
    m.push(
        "checked.self_ns_per_op",
        per_op(span::layer_self_ns(aggs, "checked")),
        ops,
    );

    m.push(
        "wal.append_sync_ns",
        micro.wal_append_sync_ns,
        layers::REPEATS,
    );
    m.push(
        "wal.bytes_per_write_op",
        ratio(shape.wal_bytes as f64, write_ops as f64),
        write_ops,
    );
    // Self time per call over the spans called `names`, and the calls.
    let per_call = |names: &[&str]| {
        let (count, self_ns) = names.iter().fold((0u64, 0u64), |(c, s), n| {
            let (count, _, self_ns) = span::by_name(aggs, n);
            (c + count, s + self_ns)
        });
        (ratio(self_ns as f64, count as f64), count)
    };
    let (v, n) = per_call(&["durable.insert", "durable.update", "durable.delete"]);
    m.push("durable.self_ns_per_write", v, n);
    m.push("durable.recover_s", tp.recover_s, 1);

    let (v, gets) = per_call(&["btree.get"]);
    m.push("btree.self_ns_per_get", v, gets);
    let (v, inserts) = per_call(&["btree.insert"]);
    m.push("btree.self_ns_per_insert", v, inserts);
    let pages_under_get: u64 = aggs
        .iter()
        .filter(|a| a.parent == Some("btree.get") && a.name.ends_with(".read_page"))
        .map(|a| a.count)
        .sum();
    m.push(
        "btree.pages_per_get",
        ratio(pages_under_get as f64, gets as f64),
        gets,
    );

    let (v, n) = per_call(&["lsm.get"]);
    m.push("lsm.self_ns_per_get", v, n);
    let (v, n) = per_call(&["lsm.insert", "lsm.update", "lsm.delete"]);
    m.push("lsm.self_ns_per_write", v, n);
    let (v, n) = per_call(&["lsm.range"]);
    m.push("lsm.self_ns_per_range", v, n);
    m.push("lsm.compactions", shape.lsm_compactions as f64, 1);
    m.push("lsm.levels", shape.lsm_levels as f64, 1);
    let is_lsm = matches!(kind, Kind::LsmIngest | Kind::LsmScan);
    let writes_timed = &timed.latency[WRITE];
    m.push(
        "lsm.write_p999_ns",
        if is_lsm {
            percentile(writes_timed, 0.999)
        } else {
            0.0
        },
        writes_timed.count(),
    );
    m.push(
        "lsm.write_max_ns",
        if is_lsm {
            writes_timed.max() as f64
        } else {
            0.0
        },
        writes_timed.count(),
    );
    let (mut view_speedup, mut view_ro_ratio) = (0.0, 0.0);
    if kind == Kind::LsmScan {
        let started = Instant::now();
        let off = passes::plain_lsm(&traffic.spec, LsmConfig::default())?;
        checks.pass("twin-view-off", started);
        view_speedup = plain_rate / off.ops_per_s;
        view_ro_ratio = ro / off.counted[0].ro;
    }
    m.push("lsm.view.speedup", view_speedup, 1);
    m.push("lsm.view.ro_ratio", view_ro_ratio, 1);

    let batches = tp.batch_rtt.count();
    m.push(
        "shard.batch_rtt_p50_ns",
        percentile(&tp.batch_rtt, 0.50),
        batches,
    );
    m.push(
        "shard.batch_rtt_p99_ns",
        percentile(&tp.batch_rtt, 0.99),
        batches,
    );
    m.push(
        "shard.ops_per_batch",
        ratio(ops as f64, batches as f64),
        batches,
    );
    let (mut speedup, mut unpinned_speedup, mut ro_ratio, mut fanout) = (0.0, 0.0, 0.0, 0.0);
    let (mut batch_ns_per_op, mut inner_ns_per_op) = (0.0, 0.0);
    if kind == Kind::ShardedBalanced {
        batch_ns_per_op = per_op(tp.batch_rtt.sum());
        let inner: u64 = aggs
            .iter()
            .filter(|a| a.parent.is_none() && a.name.starts_with("btree."))
            .map(|a| a.total_ns)
            .sum();
        inner_ns_per_op = per_op(inner);
        let started = Instant::now();
        let k1 = passes::plain_sharded(&traffic.spec, 1, 1)?;
        let mut twin = stacks::sharded(1, 1);
        let (_, k1_timed) = passes::timed(&mut twin, &traffic, &oracle)?;
        checks.pass("twin-k1", started);
        // The same stack with main thread and pool free to use every core.
        let started = Instant::now();
        crate::pin::pin_to_one_cpu(false);
        let unpinned = passes::plain_sharded(&traffic.spec, SHARDS, SHARDS);
        crate::pin::pin_to_one_cpu(true);
        checks.pass("twin-unpinned", started);
        unpinned_speedup = unpinned?.ops_per_s / plain_rate;
        speedup = plain_rate / k1.ops_per_s;
        ro_ratio = ro / k1.counted[0].ro;
        fanout = ratio(
            timed.range_page_reads as f64,
            k1_timed.range_page_reads as f64,
        );
    }
    m.push("shard.batch_ns_per_op", batch_ns_per_op, ops);
    m.push("shard.inner_ns_per_op", inner_ns_per_op, ops);
    m.push("shard.speedup_vs_k1", speedup, 1);
    m.push("shard.unpinned_speedup", unpinned_speedup, 1);
    m.push("shard.ro_ratio_vs_k1", ro_ratio, 1);
    m.push("shard.range_fanout", fanout, timed.latency[RANGE].count());

    let (mut traced_slowdown, mut metered_slowdown) = (0.0, 0.0);
    if kind == Kind::BtreePoint {
        let started = Instant::now();
        let (traced_rate, metered_rate) = layers::observer_twins(&traffic.spec)?;
        checks.pass("twin-observers", started);
        traced_slowdown = plain_rate / traced_rate;
        metered_slowdown = plain_rate / metered_rate;
    }
    m.push("observer.traced_slowdown", traced_slowdown, 1);
    m.push("observer.metered_slowdown", metered_slowdown, 1);

    let (mut tuner_slowdown, mut migrations) = (0.0, 0);
    if kind == Kind::LsmIngest {
        let started = Instant::now();
        let (fixed, tuned, moved) = layers::autotune_twins(&traffic.spec)?;
        checks.pass("twin-autotune", started);
        tuner_slowdown = fixed / tuned;
        migrations = moved;
    }
    m.push("autotune.slowdown", tuner_slowdown, 1);
    m.push("autotune.migrations", migrations as f64, 1);

    for (class, name) in [
        (GET, "alloc.count_per_get"),
        (WRITE, "alloc.count_per_write"),
        (RANGE, "alloc.count_per_range"),
    ] {
        let calls = timed.latency[class].count();
        m.push(name, ratio(timed.allocs[class] as f64, calls as f64), calls);
    }
    m.push(
        "alloc.bytes_per_op",
        timed.alloc_bytes as f64 / ops as f64,
        ops,
    );
    m.push(
        "heap.live_bytes_per_record",
        live_after.saturating_sub(live_before) as f64 / records as f64,
        records as u64,
    );
    m.push(
        "heap.peak_mib",
        timed.peak_live_bytes as f64 / (1u64 << 20) as f64,
        ops / 4096 + 1,
    );

    for (class, [name50, name99]) in [
        (GET, ["get_p50_ns", "get_p99_ns"]),
        (WRITE, ["write_p50_ns", "write_p99_ns"]),
        (RANGE, ["range_p50_ns", "range_p99_ns"]),
    ] {
        let h = &timed.latency[class];
        m.push(name50, percentile(h, 0.50), h.count());
        m.push(name99, percentile(h, 0.99), h.count());
    }

    m.push(
        "trace.overhead_frac",
        tp.totals.op_wall_s / bare.op_wall_s - 1.0,
        ops,
    );
    m.push(
        "timed.overhead_frac",
        timed_totals.op_wall_s / per_op_bare_s - 1.0,
        ops,
    );

    for spec in PER_LAYER.iter().filter(|s| s.name.starts_with("method.")) {
        let rate = method_rates
            .iter()
            .find(|(name, _)| method_metric(name) == spec.name);
        let on_suite = kind == Kind::Suite;
        m.push(
            spec.name,
            rate.filter(|_| on_suite).map_or(0.0, |(_, r)| *r),
            u64::from(on_suite) * w.ops as u64 / o.div as u64,
        );
    }

    let run = checks.finish(o, &traffic, true, m);
    Ok((run, tp.trace))
}
