//! Figure 3 of the paper: "Tunable behavior in the RUM space."
//!
//! Each tunable access method is swept across a parameter and measured on
//! the same workload; the resulting (RO, UO, MO) triples trace a curve
//! through the RUM triangle — the paper's vision of methods that "can move
//! within an area in the design space":
//!
//! * B+-tree node size (§5: "dynamically tuned parameters, including tree
//!   height, node size, and split condition"),
//! * B+-tree bulk-load fill factor,
//! * LSM size ratio `T`, levelled and tiered ("changing the number of
//!   merge trees dynamically, the depth of the merge hierarchy and the
//!   frequency of merging"),
//! * ZoneMap partition size `P`,
//! * LSM Bloom-filter bits per key ("logs enhanced by probabilistic data
//!   structures ... at the expense of additional space").

use rum_btree::{BTree, BTreeConfig, PartitionedBTree, PbtConfig, SplitPolicy};
use rum_core::runner::{default_threads, parallel_map, run_stream};
use rum_core::triangle::{render_ascii, rum_point, RumPoint};
use rum_core::workload::{OpMix, OpStream, WorkloadSpec};
use rum_core::AccessMethod;
use rum_core::RECORDS_PER_PAGE;
use rum_lsm::{CompactionPolicy, LsmConfig, LsmTree};
use rum_sparse::{ZoneMapConfig, ZoneMappedColumn};

use crate::{Outcome, Scale, Table, Target};

/// One configuration's position in the RUM space.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Which knob was swept ("btree-node-size", ...).
    pub sweep: String,
    /// The knob's value, rendered.
    pub param: String,
    pub ro: f64,
    pub uo: f64,
    pub mo: f64,
    pub x: f64,
    pub y: f64,
}

fn measure(
    sweep: &str,
    param: String,
    method: &mut dyn AccessMethod,
    spec: &WorkloadSpec,
) -> SweepPoint {
    // Each configuration streams its own copy of the seeded op sequence:
    // identical measurements to a materialized workload, without sharing
    // (or even allocating) a Vec<Op> across sweep entries.
    let report =
        run_stream(method, OpStream::new(spec)).unwrap_or_else(|e| panic!("{sweep}={param}: {e}"));
    let (x, y) = rum_core::triangle::project(report.ro, report.uo, report.mo);
    SweepPoint {
        sweep: sweep.to_string(),
        param,
        ro: report.ro,
        uo: report.uo,
        mo: report.mo,
        x,
        y,
    }
}

fn standard_spec(n: usize, ops: usize) -> WorkloadSpec {
    WorkloadSpec {
        initial_records: n,
        operations: ops,
        mix: OpMix::BALANCED,
        seed: 0x0F16_0003,
        ..Default::default()
    }
}

/// Sweep the B+-tree node size.
pub fn btree_node_size(n: usize, ops: usize) -> Vec<SweepPoint> {
    let w = standard_spec(n, ops);
    [512usize, 1024, 2048, 4096, 8192, 16384, 32768]
        .iter()
        .map(|&node_size| {
            let mut t = BTree::with_config(BTreeConfig {
                node_size,
                ..Default::default()
            });
            measure("btree-node-size", format!("{node_size}B"), &mut t, &w)
        })
        .collect()
}

/// Sweep the B+-tree bulk-load fill factor (and split policy at 1.0).
pub fn btree_fill(n: usize, ops: usize) -> Vec<SweepPoint> {
    let w = standard_spec(n, ops);
    let mut out: Vec<SweepPoint> = [0.5f64, 0.7, 0.9, 1.0]
        .iter()
        .map(|&fill| {
            let mut t = BTree::with_config(BTreeConfig {
                fill_factor: fill,
                ..Default::default()
            });
            measure("btree-fill", format!("{fill:.1}"), &mut t, &w)
        })
        .collect();
    let mut t = BTree::with_config(BTreeConfig {
        split_policy: SplitPolicy::RightHeavy,
        ..Default::default()
    });
    out.push(measure("btree-fill", "right-heavy".into(), &mut t, &w));
    out
}

/// Sweep the LSM size ratio `T` under both compaction policies.
///
/// Uses a mixed read/update workload so the hierarchy actually forms
/// (flushes, overlapping runs) *and* enough point lookups probe it that
/// the per-level read cost shows up in RO: sequential fresh inserts alone
/// produce disjoint runs whose fence pointers hide the read-cost
/// differences between the policies. The small memtable keeps the merge
/// hierarchy several levels deep even at test scale, where a 256-record
/// buffer would absorb most of the write stream and flatten the sweep.
pub fn lsm_ratio(n: usize, ops: usize) -> Vec<SweepPoint> {
    let w = WorkloadSpec {
        initial_records: n,
        operations: 4 * ops,
        mix: OpMix {
            get: 0.4,
            insert: 0.15,
            update: 0.4,
            delete: 0.05,
            range: 0.0,
        },
        seed: 0x0F16_0005,
        ..Default::default()
    };
    let mut out = Vec::new();
    for policy in [CompactionPolicy::Levelling, CompactionPolicy::Tiering] {
        for t in [2usize, 4, 8, 16] {
            let mut lsm = LsmTree::with_config(LsmConfig {
                size_ratio: t,
                policy,
                memtable_records: 64,
                ..Default::default()
            });
            let tag = match policy {
                CompactionPolicy::Levelling => format!("T={t} lvl"),
                CompactionPolicy::Tiering => format!("T={t} tier"),
            };
            out.push(measure("lsm-ratio", tag, &mut lsm, &w));
        }
    }
    out
}

/// Sweep the ZoneMap partition size `P`.
pub fn zonemap_partition(n: usize, ops: usize) -> Vec<SweepPoint> {
    let w = standard_spec(n, ops);
    [1usize, 4, 16, 64]
        .iter()
        .map(|&pages| {
            let mut z = ZoneMappedColumn::with_config(ZoneMapConfig {
                partition_records: pages * RECORDS_PER_PAGE,
                ..Default::default()
            });
            measure(
                "zonemap-P",
                format!("{}r", pages * RECORDS_PER_PAGE),
                &mut z,
                &w,
            )
        })
        .collect()
}

/// Sweep LSM Bloom bits per key on a miss-heavy read workload (where the
/// filters earn their keep).
pub fn bloom_bits(n: usize, ops: usize) -> Vec<SweepPoint> {
    let w = WorkloadSpec {
        initial_records: n,
        operations: ops,
        mix: OpMix::READ_HEAVY,
        miss_fraction: 0.5,
        seed: 0x0F16_0004,
        ..Default::default()
    };
    [0.0f64, 2.0, 5.0, 10.0, 16.0]
        .iter()
        .map(|&bits| {
            let mut lsm = LsmTree::with_config(LsmConfig {
                bloom_bits_per_key: bits,
                memtable_records: 256,
                ..Default::default()
            });
            measure("bloom-bits", format!("{bits}b/key"), &mut lsm, &w)
        })
        .collect()
}

/// Sweep the partitioned B-tree's partition budget ("the number of
/// partitions in PBT" — the paper's own example of a tunable parameter).
pub fn pbt_partitions(n: usize, ops: usize) -> Vec<SweepPoint> {
    // Update-heavy so copies pile up across partitions.
    let w = WorkloadSpec {
        initial_records: n,
        operations: 2 * ops,
        mix: OpMix {
            get: 0.25,
            insert: 0.2,
            update: 0.5,
            delete: 0.05,
            range: 0.0,
        },
        seed: 0x0F16_0006,
        ..Default::default()
    };
    [2usize, 4, 8, 16]
        .iter()
        .map(|&max_partitions| {
            let mut t = PartitionedBTree::with_config(PbtConfig {
                partition_records: 256,
                max_partitions,
                node: BTreeConfig::default(),
            });
            measure("pbt-partitions", format!("{max_partitions}p"), &mut t, &w)
        })
        .collect()
}

/// Run every sweep, one per worker; the concatenated output keeps the
/// fixed sweep order regardless of which finishes first.
pub fn run(n: usize, ops: usize) -> Vec<SweepPoint> {
    type Sweep = fn(usize, usize) -> Vec<SweepPoint>;
    let sweeps: Vec<Sweep> = vec![
        btree_node_size,
        btree_fill,
        lsm_ratio,
        zonemap_partition,
        bloom_bits,
        pbt_partitions,
    ];
    parallel_map(sweeps, default_threads(), |sweep| sweep(n, ops))
        .into_iter()
        .flatten()
        .collect()
}

/// Figure 3's claims, checked: every knob really moves the method in the
/// expected direction.
pub fn shape_checks(points: &[SweepPoint]) -> Vec<(String, bool)> {
    let of =
        |sweep: &str| -> Vec<&SweepPoint> { points.iter().filter(|p| p.sweep == sweep).collect() };
    let mut checks = Vec::new();

    // Larger LSM T (levelling): fewer levels → RO falls, merge batches
    // grow → UO rises.
    let lsm: Vec<&SweepPoint> = of("lsm-ratio")
        .into_iter()
        .filter(|p| p.param.ends_with("lvl"))
        .collect();
    if lsm.len() >= 2 {
        checks.push((
            "LSM T↑ (levelling): RO falls".into(),
            lsm.last().unwrap().ro < lsm.first().unwrap().ro,
        ));
        checks.push((
            "LSM T↑ (levelling): UO rises".into(),
            lsm.last().unwrap().uo > lsm.first().unwrap().uo,
        ));
    }
    // Tiering trades reads for writes relative to levelling at the same T.
    let all_lsm = of("lsm-ratio");
    let lvl4 = all_lsm.iter().find(|p| p.param == "T=4 lvl");
    let tier4 = all_lsm.iter().find(|p| p.param == "T=4 tier");
    if let (Some(l), Some(t)) = (lvl4, tier4) {
        checks.push((
            "tiering (T=4) has lower UO than levelling".into(),
            t.uo < l.uo,
        ));
        checks.push((
            "tiering (T=4) has higher RO than levelling".into(),
            t.ro > l.ro,
        ));
    }
    // Finer zonemap partitions: better reads, more metadata.
    let zm = of("zonemap-P");
    if zm.len() >= 2 {
        checks.push((
            "ZoneMap P↓: RO falls (finer pruning)".into(),
            zm.first().unwrap().ro < zm.last().unwrap().ro,
        ));
        checks.push((
            "ZoneMap P↓: MO rises (more zones)".into(),
            zm.first().unwrap().mo > zm.last().unwrap().mo,
        ));
    }
    // More bloom bits: better reads, more space.
    let bb = of("bloom-bits");
    if bb.len() >= 2 {
        checks.push((
            "Bloom bits↑: RO falls on miss-heavy reads".into(),
            bb.last().unwrap().ro < bb.first().unwrap().ro,
        ));
        checks.push((
            "Bloom bits↑: MO rises".into(),
            bb.last().unwrap().mo > bb.first().unwrap().mo,
        ));
    }
    // Bigger B-tree nodes: shorter tree but fatter accesses; the write
    // cost per update grows with the node size.
    let bn = of("btree-node-size");
    if bn.len() >= 2 {
        checks.push((
            "B+-tree node↑: UO rises (fatter page writes)".into(),
            bn.last().unwrap().uo > bn.first().unwrap().uo,
        ));
    }
    // More PBT partitions: cheaper writes, more probes per read.
    let pbt = of("pbt-partitions");
    if pbt.len() >= 2 {
        checks.push((
            "PBT partitions↑: UO falls (merges deferred)".into(),
            pbt.last().unwrap().uo < pbt.first().unwrap().uo,
        ));
        checks.push((
            "PBT partitions↑: RO rises (more partitions probed)".into(),
            pbt.last().unwrap().ro > pbt.first().unwrap().ro,
        ));
    }
    // Lower fill factor: more slack → higher MO.
    let bf: Vec<&SweepPoint> = of("btree-fill")
        .into_iter()
        .filter(|p| p.param != "right-heavy")
        .collect();
    if bf.len() >= 2 {
        checks.push((
            "B+-tree fill↓: MO rises (slack pages)".into(),
            bf.first().unwrap().mo > bf.last().unwrap().mo,
        ));
    }
    checks
}

/// `rum-bench fig3 [--quick]`.
pub fn experiment(scale: Scale, _: &Target) -> Outcome {
    let (n, ops) = match scale {
        Scale::Full => (1 << 16, 1 << 13),
        _ => (1 << 13, 1 << 11),
    };
    let points = run(n, ops);
    let table = Table::<SweepPoint>::default()
        .col("", "param:<14", |p| p.param.clone())
        .col("", "RO:>12.2", |p| p.ro)
        .col("", "UO:>12.2", |p| p.uo)
        .col("", "MO:>10.4", |p| p.mo)
        .col("", "x:>8.3", |p| p.x)
        .col("", "y:>8.3", |p| p.y);
    let mut rendered = String::new();
    // Combined triangle: label sweep endpoints only, to stay readable.
    let mut ends: Vec<RumPoint> = Vec::new();
    for sweep in points.chunk_by(|a, b| a.sweep == b.sweep) {
        rendered.push_str(&format!(
            "\n--- sweep: {} ---\n{}",
            sweep[0].sweep,
            table.text(sweep)
        ));
        for p in [&sweep[0], &sweep[sweep.len() - 1]] {
            let label = format!("{}[{}]", p.sweep, p.param);
            ends.push(rum_point(label, p.ro, p.uo, p.mo));
        }
    }
    rendered.push('\n');
    rendered.push_str(&render_ascii(&ends, 72, 24));
    Outcome {
        rendered,
        heading: "=== Shape checks (each knob moves the method as the paper predicts) ===",
        checks: shape_checks(&points),
        files: Vec::new(),
    }
}
