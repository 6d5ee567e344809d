//! The facade names the wall-clock benchmark imports, pinned in tier-1.
//!
//! `rum_perf/` is a package of its own: tier-1 does not compile it, so a
//! public function it calls could be deleted or re-shaped and only the
//! separate `perf` leg would notice. This file `use`s what
//! `rum_perf/src/*.rs` imports from `rum::`, path for path, and calls the
//! entry points with the argument shapes the benchmark uses, so such a
//! change fails `cargo test` first. Keep it in step with those imports.

#![allow(unused_imports)]

use rum::btree::{BTree, BTreeConfig};
use rum::core::advisor::ProfileStore;
use rum::core::runner::{
    run_stream, run_stream_autotuned, run_stream_metered, run_stream_sharded, run_stream_traced,
    run_suite_stream, RumReport, DEFAULT_STREAM_BATCH,
};
use rum::core::trace::{noop_sink, TraceCollector, TraceSink, DEFAULT_TRACE_WINDOW};
use rum::core::wizard::{Constraints, Environment};
use rum::core::workload::{KeyDist, Op, OpMix, OpStream, WorkloadSpec};
use rum::core::{
    AccessMethod, AutoTuneConfig, AutoTuner, CostSnapshot, CostTracker, DataClass, Key,
    MetricsPlane, Record, Result, ShardedMethod, SpaceProfile, Value, PAGE_SIZE,
};
use rum::lsm::tuning::SelfTuningLsm;
use rum::lsm::{LsmConfig, LsmTree};
use rum::storage::{
    crc32, splitmix64, BlockDevice, CheckedDevice, Durable, IoStats, MemDevice, PageBuf, PageId,
    Pager, Wal, WalEntry,
};

/// `passes::plain_one`: the entry point arrives as a closure over a
/// concrete method type and an `OpStream` by value.
fn plain_one<M: AccessMethod>(
    spec: &WorkloadSpec,
    mut method: M,
    run: impl FnOnce(&mut M, OpStream) -> Result<RumReport>,
) -> (M, RumReport) {
    let report = run(&mut method, OpStream::new(spec)).expect("plain pass");
    assert_eq!(report.read_ops + report.write_ops, spec.operations as u64);
    (method, report)
}

#[test]
fn entry_points_take_the_shapes_rum_perf_calls_them_with() {
    let spec = &WorkloadSpec {
        initial_records: 256,
        operations: 512,
        ..Default::default()
    };
    let collector = || TraceCollector::new(DEFAULT_TRACE_WINDOW, noop_sink());

    plain_one(spec, BTree::new(), |m, s| run_stream(m, s));
    plain_one(spec, BTree::new(), |m, s| {
        run_stream_traced(m, s, &mut collector())
    });
    let plane = MetricsPlane::new();
    plain_one(spec, BTree::new(), |m, s| {
        run_stream_metered(m, s, &mut collector(), &plane)
    });
    // `layers::autotune_twins`: the struct update is how it builds the
    // environment, so the literal must keep compiling as fields go.
    #[allow(clippy::needless_update)]
    let env = Environment {
        n: spec.initial_records,
        m: spec.range_len,
        ..Default::default()
    };
    let mut tuner = AutoTuner::new(
        AutoTuneConfig::default(),
        &spec.mix,
        ProfileStore::default(),
        env,
        Constraints::default(),
    );
    plain_one(spec, SelfTuningLsm::new(LsmTree::new()), |m, s| {
        let (report, summary) = run_stream_autotuned(m, s, &mut tuner, &mut collector())?;
        assert_eq!(summary.migrations, 0);
        Ok(report)
    });
    let mut methods = rum::standard_suite();
    let suite = run_suite_stream(&mut methods, spec, 1).expect("suite pass");
    assert_eq!(suite.len(), methods.len());

    // `stacks::stack_balanced`, then `recover()`.
    let stack: Durable<BTree<CheckedDevice<MemDevice>>> = Durable::new(|| {
        BTree::with_device(CheckedDevice::new(MemDevice::new()), BTreeConfig::default())
    });
    let (mut stack, report) = plain_one(spec, stack, |m, s| run_stream(m, s));
    assert!(stack.wal().synced_total() > 0);
    stack.recover().expect("recover");
    assert_eq!(stack.len(), report.n_final);
    let _pager: Pager<MemDevice> = Pager::new(MemDevice::new(), CostTracker::new());

    // `stacks::sharded`, and the batch calls `passes::sharded_batches` makes.
    let sharded = ShardedMethod::with_threads(2, 2, |_| Box::new(BTree::new()));
    let (mut sharded, _) = plain_one(spec, sharded, |m, s| {
        run_stream_sharded(m, s, DEFAULT_STREAM_BATCH)
    });
    let pending = sharded.submit_batch(&[Op::Get(1)], false).expect("submit");
    assert!(sharded.finish_batch(pending).expect("finish").is_none());
}

/// `layers::device_timings`: one generic body over both devices.
fn device_round_trip<D: BlockDevice>(mut device: D, page: &PageBuf) -> (D, PageId) {
    let id = device.allocate().expect("allocate");
    device.write_page(id, page).expect("live page");
    assert_eq!(&device.read_page(id).expect("live page"), page);
    (device, id)
}

#[test]
fn storage_calls_take_the_shapes_layers_micro_times_them_with() {
    // `layers::filled_page`.
    let mut page = PageBuf::zeroed();
    for off in (0..PAGE_SIZE).step_by(8) {
        page.write_u64(off, splitmix64(7 ^ off as u64));
    }
    device_round_trip(CheckedDevice::new(MemDevice::new()), &page);
    let (device, id) = device_round_trip(MemDevice::new(), &page);

    // `pager.read_ns` / `pager.write_ns`: the owned read is what is timed.
    let pager = std::cell::RefCell::new(Pager::new(device, CostTracker::new()));
    let read: PageBuf = pager.borrow_mut().read(id, DataClass::Base).expect("read");
    assert_eq!(read, page);
    pager
        .borrow_mut()
        .write(id, DataClass::Base, &page)
        .expect("write");
    assert!(crc32(page.as_slice()) != 0);

    // `wal.append_sync_ns`.
    let mut wal = Wal::new(CostTracker::new());
    wal.append(&WalEntry::Insert { key: 1, value: 1 });
    wal.sync().expect("fault-free WAL sync");

    // `layers::observer_twins`: the metered twin's sink.
    let plane = MetricsPlane::new();
    let mut tree = BTree::new();
    tree.set_trace_sink(plane.sink());
}
