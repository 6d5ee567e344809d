//! The sharded executor's contract, pinned on real access methods:
//!
//! 1. `run_stream_sharded` (concurrent, batched, streaming, on the
//!    persistent worker pool) produces the same RO / UO / MO and cost
//!    snapshots as `run_stream` (serial, per-op, materialized) driving
//!    the *same* `ShardedMethod` — bit for bit, for every K, whether the
//!    pool is full-width or narrower than K (workers serving several
//!    shard queues). The cost model is deterministic; concurrency may
//!    only change wall-clock fields.
//! 2. A K=1 `ShardedMethod` is cost-transparent: it reports exactly what
//!    the bare inner method reports.
//!    Batches mix classes freely; every batch size from 1 to the whole
//!    stream, strictly alternating classes and single-class streams give
//!    the same per-class books, and those books add up to the facade
//!    tracker's own delta.
//! 3. The pool's failure semantics: a worker panic poisons exactly its
//!    shard (later batches on healthy shards still run), surfaces as
//!    `RumError::Corrupt`, and never leaks worker threads.
//!
//! Checked for a B-tree, an LSM-tree, and a sorted column — one
//! representative per RUM corner.

use rum::prelude::*;
use rum::storage::Durable;

type Factory = fn() -> Box<dyn AccessMethod>;

fn factories() -> Vec<(&'static str, Factory)> {
    vec![
        ("b+tree", || Box::new(rum::btree::BTree::new())),
        ("lsm-tree", || {
            Box::new(rum::lsm::LsmTree::with_config(rum::lsm::LsmConfig {
                memtable_records: 256,
                ..Default::default()
            }))
        }),
        ("sorted-column", || {
            Box::new(rum::columns::SortedColumn::new())
        }),
    ]
}

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        initial_records: 3000,
        operations: 6000,
        mix: OpMix::BALANCED,
        seed: 0x5A_AD_ED,
        ..Default::default()
    }
}

fn assert_same_rum(ctx: &str, a: &RumReport, b: &RumReport) {
    assert_eq!(a.counted_diff(b), None, "{ctx}");
}

/// Streams whose class structure is an edge for the batched split, over
/// the same initial records as [`spec`]: a class switch at every op, and
/// one class never running at all.
fn edge_streams() -> Vec<(&'static str, Workload)> {
    let initial = Workload::generate(&spec()).initial;
    let key = |i: usize| initial[(i * 7) % initial.len()].key;
    let stream = |ops: Vec<Op>| Workload {
        initial: initial.clone(),
        ops,
    };
    let n = 1500;
    vec![
        (
            "alternating get/insert",
            stream(
                (0..n)
                    .map(|i| match i % 2 {
                        0 => Op::Get(key(i)),
                        _ => Op::Insert(key(i) + 1, i as Value),
                    })
                    .collect(),
            ),
        ),
        (
            "ranges only",
            stream(
                (0..n / 4)
                    .map(|i| Op::Range(key(i), key(i) + 4000))
                    .collect(),
            ),
        ),
        (
            "writes only",
            stream(
                (0..n)
                    .map(|i| match i % 3 {
                        0 => Op::Insert(key(i) + 1, i as Value),
                        1 => Op::Update(key(i), i as Value),
                        _ => Op::Delete(key(i + 1)),
                    })
                    .collect(),
            ),
        ),
    ]
}

/// Batch sizes around every boundary of the batched schedule: one op per
/// dispatch, a class switch inside every batch, a size that divides
/// nothing, the old test's 777, and one batch holding the whole stream.
fn batches(ops: usize) -> [usize; 5] {
    [1, 2, 7, 777, ops + 1]
}

/// Pool widths 1 (inline), 2 and K, without repeats.
fn widths(k: usize) -> Vec<usize> {
    let mut widths = vec![1, 2, k];
    widths.sort_unstable();
    widths.dedup();
    widths.retain(|&t| t <= k);
    widths
}

#[test]
fn concurrent_sharded_run_matches_serial_bit_for_bit() {
    let spec = spec();
    let workload = Workload::generate(&spec);
    for (name, factory) in factories() {
        for k in [1usize, 2, 4, 8] {
            // Serial reference: per-op execution over the materialized
            // workload, shards never run concurrently (threads = 1).
            let mut serial = rum::core::ShardedMethod::with_threads(k, 1, |_| factory());
            let s = run_stream(&mut serial, &workload).expect("serial run");

            // Pool widths are forced explicitly (`new` would follow the
            // host's core count): inline, full width, and (where K allows
            // it) narrower than K, so one worker serves several shard
            // queues.
            let mut widths = widths(k);
            if k > 3 {
                widths.push(3);
            }
            for threads in widths {
                for batch in batches(spec.operations) {
                    // Concurrent: streamed ops, batched across the
                    // wrapper's persistent worker pool.
                    let mut concurrent =
                        rum::core::ShardedMethod::with_threads(k, threads, |_| factory());
                    let c = run_stream_sharded(&mut concurrent, OpStream::new(&spec), batch)
                        .expect("sharded stream run");
                    if threads > 1 && k > 1 {
                        assert!(
                            concurrent.pool_running(),
                            "{name} K={k} T={threads}: pool must be live after batches"
                        );
                    }
                    assert_eq!(
                        concurrent.dispatches(),
                        spec.operations.div_ceil(batch) as u64,
                        "{name} K={k} T={threads} B={batch}: a batch ends only where it is full"
                    );
                    assert_same_rum(&format!("{name} K={k} T={threads} B={batch}"), &s, &c);
                }
            }
        }
    }
}

#[test]
fn edge_streams_match_serial_bit_for_bit() {
    let k = 4;
    for (stream, workload) in edge_streams() {
        for (name, factory) in factories() {
            let mut serial = rum::core::ShardedMethod::with_threads(k, 1, |_| factory());
            let s = run_stream(&mut serial, &workload).expect("serial run");
            for threads in widths(k) {
                for batch in [1, 7, workload.ops.len() + 1] {
                    let mut concurrent =
                        rum::core::ShardedMethod::with_threads(k, threads, |_| factory());
                    let c =
                        run_stream_sharded(&mut concurrent, &workload, batch).expect("sharded run");
                    assert_same_rum(&format!("{stream}: {name} T={threads} B={batch}"), &s, &c);
                }
            }
        }
    }
}

#[test]
fn batched_run_conserves() {
    // Every byte the facade tracker accrued in the op phase is booked to
    // exactly one class: the per-class sums the shards return add up to
    // the tracker's own delta, field for field.
    let spec = spec();
    let mut streams = edge_streams();
    streams.push(("balanced", Workload::generate(&spec)));
    for (stream, workload) in streams {
        for (name, factory) in factories() {
            for threads in [1, 2] {
                let mut sharded = rum::core::ShardedMethod::with_threads(4, threads, |_| factory());
                let r = run_stream_sharded(&mut sharded, &workload, 7).expect("sharded run");
                assert_eq!(
                    r.read_costs.add(&r.write_costs),
                    sharded.tracker().snapshot().delta(&r.load_costs),
                    "{stream}: {name} T={threads}"
                );
            }
        }
    }
}

#[test]
fn traced_sharded_run_is_cost_identical_and_measures_latency() {
    // The traced variant fixes the permanently-zero p50/p99 columns on
    // the sharded path without perturbing a single counted byte.
    let spec = spec();
    let workload = Workload::generate(&spec);
    for (name, factory) in factories() {
        let mut serial = rum::core::ShardedMethod::with_threads(4, 1, |_| factory());
        let s = run_stream(&mut serial, &workload).expect("serial run");

        let mut concurrent = rum::core::ShardedMethod::with_threads(4, 2, |_| factory());
        let mut trace = TraceCollector::new(1024, noop_sink());
        let c = run_stream_sharded_traced(&mut concurrent, OpStream::new(&spec), 777, &mut trace)
            .expect("traced sharded run");
        assert_same_rum(&format!("{name} traced K=4 T=2"), &s, &c);
        let mut untraced = rum::core::ShardedMethod::with_threads(4, 2, |_| factory());
        let u = run_stream_sharded(&mut untraced, OpStream::new(&spec), 777)
            .expect("untraced sharded run");
        assert_same_rum(&format!("{name} traced vs untraced K=4 T=2"), &u, &c);
        assert_eq!(
            (u.p50_ns, u.p99_ns),
            (0, 0),
            "{name}: untraced never clocks"
        );
        assert!(c.p50_ns > 0, "{name}: sharded p50 must be measured");
        assert!(c.p99_ns >= c.p50_ns, "{name}");
        assert_eq!(
            trace.windowed_sum(),
            c.read_costs.add(&c.write_costs),
            "{name}: window deltas must sum byte-exactly to the op-phase totals"
        );
        // Latencies are split by class on the shards: a point op is one
        // sample, a range one sample per shard it fanned out to.
        assert_eq!(trace.latency.write.count(), c.write_ops, "{name}");
        assert!(trace.latency.read.count() >= c.read_ops, "{name}");
    }
}

#[test]
fn traced_edge_streams_never_show_an_empty_class() {
    for (stream, workload) in edge_streams() {
        for (name, factory) in factories() {
            let ctx = format!("{stream}: {name}");
            let mut sharded = rum::core::ShardedMethod::with_threads(4, 2, |_| factory());
            let mut trace = TraceCollector::new(256, noop_sink());
            let r = run_stream_sharded_traced(&mut sharded, &workload, 7, &mut trace)
                .expect("traced sharded run");
            assert_eq!(r.read_ops + r.write_ops, workload.ops.len() as u64, "{ctx}");
            assert_eq!(
                trace.windowed_sum(),
                r.read_costs.add(&r.write_costs),
                "{ctx}"
            );
            assert_eq!(trace.latency.write.count(), r.write_ops, "{ctx}");
            assert!(trace.latency.read.count() >= r.read_ops, "{ctx}");
            assert!(r.p50_ns > 0 && r.p99_ns >= r.p50_ns, "{ctx}");
            // A class that never ran has no ops, no traffic, no samples.
            if r.read_ops == 0 {
                assert_eq!(r.read_costs, CostSnapshot::default(), "{ctx}");
                assert_eq!(trace.latency.read.count(), 0, "{ctx}");
            }
            if r.write_ops == 0 {
                assert_eq!(r.write_costs, CostSnapshot::default(), "{ctx}");
            }
            assert_eq!(
                (r.read_ops == 0, r.write_ops == 0),
                (stream == "writes only", stream == "ranges only"),
                "{ctx}"
            );
        }
    }
}

#[test]
fn single_shard_wrapper_is_cost_transparent() {
    let spec = spec();
    let workload = Workload::generate(&spec);
    for (name, factory) in factories() {
        let mut bare = factory();
        let b = run_stream(bare.as_mut(), &workload).expect("bare run");
        let mut wrapped = rum::core::ShardedMethod::new(1, |_| factory());
        let w = run_stream(&mut wrapped, &workload).expect("wrapped run");
        assert_same_rum(&format!("{name} K=1 vs bare"), &b, &w);
    }
}

// ---- pool failure semantics ----------------------------------------------

/// A B-tree that panics when asked to insert one specific key — a stand-in
/// for a structure corrupting itself mid-mutation on a worker thread.
struct PanicOnKey {
    inner: rum::btree::BTree,
    trigger: Key,
}

impl AccessMethod for PanicOnKey {
    fn name(&self) -> String {
        "panic-on-key".into()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn tracker(&self) -> &std::sync::Arc<CostTracker> {
        self.inner.tracker()
    }
    fn space_profile(&self) -> SpaceProfile {
        self.inner.space_profile()
    }
    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        self.inner.get_impl(key)
    }
    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        self.inner.range_impl(lo, hi)
    }
    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        assert!(key != self.trigger, "tripwire key inserted");
        self.inner.insert_impl(key, value)
    }
    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        self.inner.update_impl(key, value)
    }
    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        self.inner.delete_impl(key)
    }
    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.inner.bulk_load_impl(records)
    }
}

#[test]
fn worker_panic_poisons_one_shard_and_spares_the_rest() {
    let trigger: Key = 0xBAD_F00D;
    let mut sharded = rum::core::ShardedMethod::with_threads(2, 2, |_| {
        Box::new(PanicOnKey {
            inner: rum::btree::BTree::new(),
            trigger,
        }) as Box<dyn AccessMethod>
    });
    let bad_shard = sharded.shard_of(trigger);
    // Deterministic keys routed to each side of the partition.
    let on_shard = |m: &rum::core::ShardedMethod, want: usize| -> Vec<Key> {
        (0..10_000u64)
            .filter(|&key| key != trigger && m.shard_of(key) == want)
            .take(64)
            .collect()
    };
    let healthy_keys = on_shard(&sharded, 1 - bad_shard);
    let doomed_keys = on_shard(&sharded, bad_shard);

    // A batch touching both shards, with the tripwire in the middle of the
    // bad shard's sub-batch: the panic must surface as Corrupt, not abort.
    let mut ops: Vec<Op> = healthy_keys.iter().map(|&k| Op::Insert(k, 1)).collect();
    ops.extend(doomed_keys.iter().map(|&k| Op::Insert(k, 1)));
    ops.insert(ops.len() / 2, Op::Insert(trigger, 1));
    let err = sharded
        .submit_batch(&ops, false)
        .and_then(|b| sharded.finish_batch(b))
        .expect_err("panic must surface");
    match err {
        RumError::Corrupt(m) => assert!(m.contains("panicked"), "message: {m}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // The pool survives, and later batches confined to the healthy shard
    // run normally.
    assert!(sharded.pool_running(), "pool must survive a worker panic");
    let follow_up: Vec<Op> = healthy_keys.iter().map(|&k| Op::Update(k, 2)).collect();
    sharded
        .submit_batch(&follow_up, false)
        .and_then(|b| sharded.finish_batch(b))
        .expect("healthy shard keeps working");
    assert_eq!(sharded.get(healthy_keys[0]).unwrap(), Some(2));

    // Anything touching the poisoned shard — batched, per-op, or a range
    // fan-out — is refused with Corrupt instead of reading unknown state.
    for result in [
        sharded
            .submit_batch(&[Op::Insert(doomed_keys[0], 9)], false)
            .and_then(|b| sharded.finish_batch(b))
            .map(|_| ()),
        sharded.get(doomed_keys[0]).map(|_| ()),
        sharded.range(0, Key::MAX).map(|_| ()),
    ] {
        match result.expect_err("poisoned shard must refuse") {
            RumError::Corrupt(m) => assert!(m.contains("poisoned"), "message: {m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
    // Drop joins the workers; a hang here would fail the test by timeout.
    drop(sharded);
}

#[test]
fn poisoned_shard_heals_and_continues_with_bit_exact_costs() {
    // The full resilience cycle on the pooled path: worker panic poisons a
    // shard → explicit heal lets its `Durable` inner repair itself from
    // checkpoint + committed WAL → the healed shard holds exactly its
    // acknowledged writes, the wrapper keeps executing pooled batches, and
    // everything it counts afterwards is bit-identical to a never-poisoned
    // control instance in the same state. Healing restores service without
    // perturbing the cost model.
    let trigger: Key = 0xBAD_F00D;
    let factory = move |_: usize| {
        Box::new(Durable::new(move || PanicOnKey {
            inner: rum::btree::BTree::new(),
            trigger,
        })) as Box<dyn AccessMethod>
    };
    let thread_count = || -> usize {
        if cfg!(target_os = "linux") {
            std::fs::read_dir("/proc/self/task")
                .map(|entries| entries.count())
                .unwrap_or(0)
        } else {
            0
        }
    };
    let threads_before = thread_count();

    let mut sharded = rum::core::ShardedMethod::with_threads(2, 2, factory);
    let bad_shard = sharded.shard_of(trigger);
    let keys_on = |m: &rum::core::ShardedMethod, want: usize| -> Vec<Key> {
        (0..10_000u64)
            .filter(|&key| key != trigger && m.shard_of(key) == want)
            .take(64)
            .collect()
    };
    let healthy_keys = keys_on(&sharded, 1 - bad_shard);
    let doomed_keys = keys_on(&sharded, bad_shard);
    for &k in healthy_keys.iter().chain(&doomed_keys) {
        sharded.insert(k, 1).unwrap();
    }

    // Poison → heal → poison again → heal again: healing must be
    // repeatable, not a one-shot escape hatch.
    for round in 0..2 {
        sharded
            .submit_batch(&[Op::Insert(trigger, 1)], false)
            .and_then(|b| sharded.finish_batch(b))
            .expect_err("panic must surface");
        assert_eq!(sharded.poisoned_shards(), vec![bad_shard], "round {round}");
        assert_eq!(sharded.heal().unwrap(), 1, "round {round}");
        assert!(sharded.poisoned_shards().is_empty(), "round {round}");
        // The healed shard replayed its acknowledged writes and nothing
        // else: every inserted key, never the tripwire's unacked insert.
        for &k in healthy_keys.iter().chain(&doomed_keys) {
            assert_eq!(sharded.get(k).unwrap(), Some(1), "round {round} key {k}");
        }
        assert_eq!(sharded.get(trigger).unwrap(), None, "round {round}");
        assert_eq!(sharded.len(), healthy_keys.len() + doomed_keys.len());
    }

    // Control: a never-poisoned instance brought to the identical state.
    // Both checkpoint, so neither log carries the tripwire's unacked
    // records into the traffic compared below.
    let mut control = rum::core::ShardedMethod::with_threads(2, 2, factory);
    for &k in healthy_keys.iter().chain(&doomed_keys) {
        control.insert(k, 1).unwrap();
    }
    sharded.flush().unwrap();
    control.flush().unwrap();

    // Identical post-heal traffic on both instances, spanning both shards;
    // the healed wrapper runs it as pooled batches, the control serially.
    let follow_up: Vec<Op> = healthy_keys
        .iter()
        .map(|&k| Op::Update(k, 2))
        .chain(doomed_keys.iter().map(|&k| Op::Insert(k, 3)))
        .chain([Op::Range(0, Key::MAX)])
        .collect();
    let healed_before = sharded.tracker().snapshot();
    let control_before = control.tracker().snapshot();
    for chunk in follow_up.chunks(17) {
        sharded
            .submit_batch(chunk, false)
            .and_then(|b| sharded.finish_batch(b))
            .unwrap();
    }
    for &op in &follow_up {
        op.apply(&mut control).unwrap();
    }
    assert_eq!(
        sharded.tracker().since(&healed_before),
        control.tracker().since(&control_before),
        "post-heal cost folding must be bit-identical to a never-poisoned instance"
    );
    assert_eq!(
        sharded.range(0, Key::MAX).unwrap(),
        control.range(0, Key::MAX).unwrap(),
        "post-heal contents must match"
    );

    // The heal cycles must not have leaked worker threads (the pool is
    // reused, not respawned, across poison → heal).
    drop(sharded);
    drop(control);
    if cfg!(target_os = "linux") {
        let threads_after = thread_count();
        assert!(
            threads_after <= threads_before + 8,
            "heal cycle leaked threads: {threads_before} before, {threads_after} after"
        );
    }
}

#[cfg(target_os = "linux")]
#[test]
fn dropped_pools_do_not_leak_worker_threads() {
    fn thread_count() -> usize {
        std::fs::read_dir("/proc/self/task")
            .map(|entries| entries.count())
            .unwrap_or(0)
    }

    let before = thread_count();
    for round in 0..25u64 {
        let mut sharded = rum::core::ShardedMethod::with_threads(4, 2, |_| {
            Box::new(rum::btree::BTree::new()) as Box<dyn AccessMethod>
        });
        let ops: Vec<Op> = (0..256u64)
            .map(|i| Op::Insert(round * 1000 + i, i))
            .collect();
        sharded
            .submit_batch(&ops, false)
            .and_then(|b| sharded.finish_batch(b))
            .unwrap();
        assert!(sharded.pool_running());
    }
    // The task count is process-global and other tests run concurrently,
    // so allow generous slack; 25 leaked pools would add ~50 threads.
    let after = thread_count();
    assert!(
        after <= before + 8,
        "worker threads leaked: {before} before, {after} after"
    );
}
