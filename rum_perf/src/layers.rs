//! Isolated micro-timings of the storage layers, and the twin runs the
//! per-layer ratios are taken against.

use std::hint::black_box;
use std::time::Instant;

use rum::core::advisor::ProfileStore;
use rum::core::runner::{run_stream, run_stream_autotuned, run_stream_metered, run_stream_traced};
use rum::core::trace::{noop_sink, TraceCollector, DEFAULT_TRACE_WINDOW};
use rum::core::wizard::{Constraints, Environment};
use rum::core::workload::{OpStream, WorkloadSpec};
use rum::core::{
    AccessMethod, AutoTuneConfig, AutoTuner, CostTracker, DataClass, MetricsPlane, PAGE_SIZE,
};
use rum::lsm::tuning::SelfTuningLsm;
use rum::lsm::LsmTree;
use rum::storage::{
    crc32, splitmix64, BlockDevice, CheckedDevice, MemDevice, PageBuf, PageId, Pager, Wal, WalEntry,
};

use crate::passes::Res;
use crate::report::median;

/// Pages under each isolated timing: 64 MiB, well past L2 like the focused
/// workloads' data.
const PAGES: usize = 16_384;
const TOUCHES: usize = 16_384;
/// Each isolated timing is the median of this many repeats.
pub const REPEATS: u64 = 3;

pub struct Micro {
    pub device_read_ns: f64,
    pub device_write_ns: f64,
    pub pager_read_ns: f64,
    pub pager_write_ns: f64,
    pub checked_read_ns: f64,
    pub checked_write_ns: f64,
    pub crc32_gib_s: f64,
    pub wal_append_sync_ns: f64,
}

fn filled_page(tag: u64) -> PageBuf {
    let mut page = PageBuf::zeroed();
    for off in (0..PAGE_SIZE).step_by(8) {
        page.write_u64(off, splitmix64(tag ^ off as u64));
    }
    page
}

fn random_order(seed: u64) -> Vec<usize> {
    (0..TOUCHES as u64)
        .map(|i| (splitmix64(seed ^ i) % PAGES as u64) as usize)
        .collect()
}

/// Median ns per call of `read` and of `write` over random page ids.
fn page_timings(
    ids: &[PageId],
    seed: u64,
    mut read: impl FnMut(PageId),
    mut write: impl FnMut(PageId, &PageBuf),
) -> (f64, f64) {
    let page = filled_page(seed);
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for rep in 0..REPEATS {
        let order = random_order(seed.wrapping_add(rep));
        let t = Instant::now();
        for &i in &order {
            read(ids[i]);
        }
        reads.push(t.elapsed().as_nanos() as f64 / TOUCHES as f64);
        let t = Instant::now();
        for &i in &order {
            write(ids[i], &page);
        }
        writes.push(t.elapsed().as_nanos() as f64 / TOUCHES as f64);
    }
    (median(&reads), median(&writes))
}

fn populate<D: BlockDevice>(device: &mut D) -> Res<Vec<PageId>> {
    (0..PAGES as u64)
        .map(|i| {
            let id = device.allocate()?;
            device.write_page(id, &filled_page(i))?;
            Ok(id)
        })
        .collect::<rum::core::Result<_>>()
        .map_err(|e| format!("micro-timing set-up failed: {e}"))
}

fn device_timings<D: BlockDevice>(mut device: D, seed: u64) -> Res<(f64, f64)> {
    let ids = populate(&mut device)?;
    let device = std::cell::RefCell::new(device);
    Ok(page_timings(
        &ids,
        seed,
        |id| {
            black_box(device.borrow_mut().read_page(id).expect("live page"));
        },
        |id, page| device.borrow_mut().write_page(id, page).expect("live page"),
    ))
}

pub fn micro(seed: u64) -> Res<Micro> {
    let (device_read_ns, device_write_ns) = device_timings(MemDevice::new(), seed)?;
    let (checked_read_ns, checked_write_ns) =
        device_timings(CheckedDevice::new(MemDevice::new()), seed)?;

    let mut device = MemDevice::new();
    let ids = populate(&mut device)?;
    let pager = std::cell::RefCell::new(Pager::new(device, CostTracker::new()));
    let (pager_read_ns, pager_write_ns) = page_timings(
        &ids,
        seed,
        |id| {
            black_box(
                pager
                    .borrow_mut()
                    .read(id, DataClass::Base)
                    .expect("live page"),
            );
        },
        |id, page| {
            pager
                .borrow_mut()
                .write(id, DataClass::Base, page)
                .expect("live page")
        },
    );

    let pages: Vec<PageBuf> = (0..1024).map(filled_page).collect();
    let mut rates = Vec::new();
    for _ in 0..REPEATS {
        let t = Instant::now();
        for _ in 0..4 {
            for p in &pages {
                black_box(crc32(black_box(p.as_slice())));
            }
        }
        let bytes = (4 * pages.len() * PAGE_SIZE) as f64;
        rates.push(bytes / t.elapsed().as_secs_f64() / (1u64 << 30) as f64);
    }

    let mut syncs = Vec::new();
    for _ in 0..REPEATS {
        let mut wal = Wal::new(CostTracker::new());
        let t = Instant::now();
        for key in 0..TOUCHES as u64 {
            wal.append(&WalEntry::Insert { key, value: key });
            wal.sync()
                .map_err(|e| format!("fault-free WAL sync failed: {e}"))?;
        }
        syncs.push(t.elapsed().as_nanos() as f64 / TOUCHES as f64);
    }

    Ok(Micro {
        device_read_ns,
        device_write_ns,
        pager_read_ns,
        pager_write_ns,
        checked_read_ns,
        checked_write_ns,
        crc32_gib_s: median(&rates),
        wal_append_sync_ns: median(&syncs),
    })
}

fn ops_per_s(r: rum::core::Result<rum::core::runner::RumReport>, what: &str) -> Res<f64> {
    r.map(|r| r.ops_per_sec)
        .map_err(|e| format!("{what} twin failed: {e}"))
}

/// Bare b+tree under `run_stream_traced` and `run_stream_metered`:
/// `(traced ops/s, metered ops/s)`.
pub fn observer_twins(spec: &WorkloadSpec) -> Res<(f64, f64)> {
    let mut tree = rum::btree::BTree::new();
    let mut trace = TraceCollector::new(DEFAULT_TRACE_WINDOW, noop_sink());
    let traced = ops_per_s(
        run_stream_traced(&mut tree, OpStream::new(spec), &mut trace),
        "traced",
    )?;

    let mut tree = rum::btree::BTree::new();
    let plane = MetricsPlane::new();
    tree.set_trace_sink(plane.sink());
    let mut trace = TraceCollector::new(DEFAULT_TRACE_WINDOW, noop_sink());
    let metered = ops_per_s(
        run_stream_metered(&mut tree, OpStream::new(spec), &mut trace, &plane),
        "metered",
    )?;
    Ok((traced, metered))
}

/// `SelfTuningLsm` under `run_stream` and under `run_stream_autotuned`:
/// `(static ops/s, tuned ops/s, migrations)`.
pub fn autotune_twins(spec: &WorkloadSpec) -> Res<(f64, f64, u64)> {
    let mut fixed = SelfTuningLsm::new(LsmTree::new());
    let fixed_rate = ops_per_s(run_stream(&mut fixed, OpStream::new(spec)), "static LSM")?;

    let mut tuned = SelfTuningLsm::new(LsmTree::new());
    let mut tuner = AutoTuner::new(
        AutoTuneConfig::default(),
        &spec.mix,
        ProfileStore::default(),
        Environment {
            n: spec.initial_records,
            m: spec.range_len,
            ..Default::default()
        },
        Constraints::default(),
    );
    let mut trace = TraceCollector::new(DEFAULT_TRACE_WINDOW, noop_sink());
    let (report, summary) =
        run_stream_autotuned(&mut tuned, OpStream::new(spec), &mut tuner, &mut trace)
            .map_err(|e| format!("autotuned twin failed: {e}"))?;
    Ok((fixed_rate, report.ops_per_sec, summary.migrations))
}
