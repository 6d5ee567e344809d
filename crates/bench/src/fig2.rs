//! Figure 2 of the paper: "RUM overheads in memory hierarchies."
//!
//! "The RO_n read and the UO_n update overheads at memory level n can be
//! reduced by storing more data, updates, or meta-data, at the previous
//! level n−1, which results, at least, in a higher MO_{n−1}."
//!
//! A B+-tree runs over a two-level hierarchy (DRAM buffer above a storage
//! device). The buffer's capacity — its MO at level n−1 — is swept; the
//! storage level's reads (RO_n) and writes (UO_n) fall monotonically as
//! the buffer grows.

use rum_btree::{BTree, BTreeConfig};
use rum_core::runner::{default_threads, parallel_map};
use rum_core::workload::{KeyDist, KeySpace, OpMix, OpStream, WorkloadSpec};
use rum_core::AccessMethod;
use rum_storage::{BlockDevice, DeviceProfile, MemoryHierarchy};

use crate::{Outcome, Scale, Table, Target};

/// One measured hierarchy configuration.
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// Buffer capacity in pages — MO spent at level n−1.
    pub buffer_pages: usize,
    /// Level n−1 (buffer) reads absorbed.
    pub buffer_reads: u64,
    /// Level n (storage) reads — RO_n.
    pub storage_reads: u64,
    /// Level n (storage) writes — UO_n.
    pub storage_writes: u64,
    /// Total simulated time, milliseconds.
    pub sim_ms: f64,
}

/// Run the sweep: `n` records, a zipfian read/update workload of
/// `operations` ops, buffer capacity swept over `buffer_sweep`.
///
/// Each buffer configuration builds its own hierarchy and tree, so the
/// sweep entries are independent and run one per worker; `parallel_map`
/// keeps the rows in sweep order.
pub fn run(
    n: usize,
    operations: usize,
    buffer_sweep: &[usize],
    storage: DeviceProfile,
) -> Vec<Fig2Row> {
    // A seeded zipfian 90/10 read/update stream over the dense even-key
    // dataset. The spec-driven `OpStream` replaces the old hand-rolled
    // zipf loop: same skew and mix, O(live-set) memory, and every sweep
    // entry replays the identical sequence.
    let spec = WorkloadSpec {
        initial_records: n,
        operations,
        mix: OpMix {
            get: 0.9,
            insert: 0.0,
            update: 0.1,
            delete: 0.0,
            range: 0.0,
        },
        dist: KeyDist::Zipf { theta: 0.9 },
        key_space: KeySpace::Dense { spacing: 2 },
        seed: 0x0F16_0002,
        ..Default::default()
    };
    parallel_map(buffer_sweep.to_vec(), default_threads(), |buffer_pages| {
        let mut stream = OpStream::new(&spec);
        let records = stream.take_initial();
        let hierarchy = MemoryHierarchy::new(buffer_pages, storage);
        let mut tree = BTree::with_device(hierarchy, BTreeConfig::default());
        tree.bulk_load(&records).expect("load");
        drop(records);
        // Quiesce load traffic so the measurement is the workload's.
        tree.device_mut().sync().expect("sync");
        tree.device().buffer_stats().reset();
        tree.device().stats().reset();

        for op in stream {
            op.apply(&mut tree).expect("op");
        }
        tree.device_mut().sync().expect("sync");

        let h = tree.device();
        Fig2Row {
            buffer_pages,
            buffer_reads: h.buffer_stats().reads(),
            storage_reads: h.stats().reads(),
            storage_writes: h.stats().writes(),
            sim_ms: h.total_sim_ns() as f64 / 1e6,
        }
    })
}

/// Figure 2's claim, checked: storage-level reads and writes fall
/// monotonically (within tolerance) as the buffer grows.
pub fn shape_checks(rows: &[Fig2Row]) -> Vec<(String, bool)> {
    let mut checks = Vec::new();
    let reads_monotone = rows
        .windows(2)
        .all(|w| w[1].storage_reads <= w[0].storage_reads);
    let writes_monotone = rows
        .windows(2)
        .all(|w| w[1].storage_writes <= w[0].storage_writes + w[0].storage_writes / 10);
    checks.push((
        "MO at level n−1 buys down RO at level n (storage reads fall)".into(),
        reads_monotone,
    ));
    checks.push((
        "MO at level n−1 buys down UO at level n (storage writes fall)".into(),
        writes_monotone,
    ));
    checks.push((
        "the largest buffer absorbs ≥90% of the smallest buffer's storage reads".into(),
        (rows.last().expect("rows").storage_reads as f64)
            < 0.1 * rows.first().expect("rows").storage_reads.max(1) as f64,
    ));
    checks.push((
        "simulated time falls as the buffer grows".into(),
        rows.last().unwrap().sim_ms < rows.first().unwrap().sim_ms,
    ));
    checks
}

/// `rum-bench fig2 [--quick]`: six buffer capacities over an SSD.
pub fn experiment(scale: Scale, _: &Target) -> Outcome {
    let (n, ops) = match scale {
        Scale::Full => (1 << 17, 100_000),
        _ => (1 << 14, 20_000),
    };
    let rows = run(
        n,
        ops,
        &[16, 64, 256, 1024, 4096, 16384],
        DeviceProfile::SSD,
    );
    let table = Table::<Fig2Row>::default()
        .col("", "buffer(pg):>12", |r| r.buffer_pages)
        .col("", "buffer reads:>14", |r| r.buffer_reads)
        .col("", "storage reads:>14", |r| r.storage_reads)
        .col("", "storage writes:>15", |r| r.storage_writes)
        .col("", "sim(ms):>10.2", |r| r.sim_ms);
    Outcome {
        rendered: format!(
            "=== Figure 2: two-level hierarchy, B+-tree of N={n}, {ops} zipfian ops \
             (90% read / 10% update) ===\n{}",
            table.text(&rows)
        ),
        heading: "=== Shape checks ===",
        checks: shape_checks(&rows),
        files: Vec::new(),
    }
}
