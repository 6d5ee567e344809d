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

use std::cmp::Ordering::{self, Greater as Rises, Less as Falls};

use rum_btree::{BTree, PartitionedBTree, SplitPolicy};
use rum_core::runner::{default_threads, parallel_map, run_stream};
use rum_core::triangle::{render_ascii, rum_point, RumPoint};
use rum_core::workload::{OpMix, OpStream, WorkloadSpec};
use rum_core::AccessMethod;
use rum_core::RECORDS_PER_PAGE;
use rum_lsm::{CompactionPolicy, LsmTree};
use rum_sparse::ZoneMappedColumn;

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

/// A constructor for one point of a sweep.
type Make = Box<dyn Fn() -> Box<dyn AccessMethod> + Send>;

/// A sweep's points: each knob value, rendered, and its constructor.
type Points = Vec<(String, Make)>;

/// A point of a sweep: the knob's value, rendered, and a constructor that
/// calls `build` with the default config as changed by `set`.
fn point<C: Default + Copy + Send + 'static, M: AccessMethod + 'static>(
    param: String,
    build: fn(C) -> M,
    set: impl FnOnce(&mut C),
) -> (String, Make) {
    let mut config = C::default();
    set(&mut config);
    (param, Box::new(move || Box::new(build(config))))
}

/// The six sweeps, in order: each names its knob, the workload every
/// point runs and the points.
///
/// The LSM size-ratio sweep runs a mixed read/update workload so the
/// hierarchy actually forms (flushes, overlapping runs) *and* enough
/// point lookups probe it that the per-level read cost shows up in RO:
/// sequential fresh inserts alone produce disjoint runs whose fence
/// pointers hide the read-cost differences between the policies. Its
/// small memtable keeps the merge hierarchy several levels deep even at
/// test scale, where a 256-record buffer would absorb most of the write
/// stream. Bloom bits run a miss-heavy read workload (where the filters
/// earn their keep) and PBT partitions an update-heavy one (so copies
/// pile up across partitions); "the number of partitions in PBT" is the
/// paper's own example of a tunable parameter.
fn sweeps(n: usize, ops: usize) -> Vec<(&'static str, WorkloadSpec, Points)> {
    let spec = |operations, mix, seed| WorkloadSpec {
        initial_records: n,
        operations,
        mix,
        seed,
        ..Default::default()
    };
    let standard = spec(ops, OpMix::BALANCED, 0x0F16_0003);
    let (btree, lsm) = (BTree::with_config, LsmTree::with_config);
    let right_heavy = point("right-heavy".into(), btree, |c| {
        c.split_policy = SplitPolicy::RightHeavy
    });
    let mix = |get, insert, update, delete| OpMix {
        get,
        insert,
        update,
        delete,
        range: 0.0,
    };
    vec![
        (
            "btree-node-size",
            standard,
            [512usize, 1024, 2048, 4096, 8192, 16384, 32768]
                .map(|v| point(format!("{v}B"), btree, |c| c.node_size = v))
                .into(),
        ),
        (
            "btree-fill",
            standard,
            [0.5f64, 0.7, 0.9, 1.0]
                .map(|v| point(format!("{v:.1}"), btree, |c| c.fill_factor = v))
                .into_iter()
                .chain([right_heavy])
                .collect(),
        ),
        (
            "lsm-ratio",
            spec(4 * ops, mix(0.4, 0.15, 0.4, 0.05), 0x0F16_0005),
            [
                (CompactionPolicy::Levelling, "lvl"),
                (CompactionPolicy::Tiering, "tier"),
            ]
            .into_iter()
            .flat_map(|(policy, tag)| {
                [2usize, 4, 8, 16].map(|t| {
                    point(format!("T={t} {tag}"), lsm, |c| {
                        c.size_ratio = t;
                        c.policy = policy;
                        c.memtable_records = 64;
                    })
                })
            })
            .collect(),
        ),
        (
            "zonemap-P",
            standard,
            [1usize, 4, 16, 64]
                .map(|pages| pages * RECORDS_PER_PAGE)
                .map(|v| {
                    point(format!("{v}r"), ZoneMappedColumn::with_config, |c| {
                        c.partition_records = v
                    })
                })
                .into(),
        ),
        (
            "bloom-bits",
            WorkloadSpec {
                miss_fraction: 0.5,
                ..spec(ops, OpMix::READ_HEAVY, 0x0F16_0004)
            },
            [0.0f64, 2.0, 5.0, 10.0, 16.0]
                .map(|v| {
                    point(format!("{v}b/key"), lsm, |c| {
                        c.bloom_bits_per_key = v;
                        c.memtable_records = 256;
                    })
                })
                .into(),
        ),
        (
            "pbt-partitions",
            spec(2 * ops, mix(0.25, 0.2, 0.5, 0.05), 0x0F16_0006),
            [2usize, 4, 8, 16]
                .map(|v| {
                    point(format!("{v}p"), PartitionedBTree::with_config, |c| {
                        c.partition_records = 256;
                        c.max_partitions = v;
                    })
                })
                .into(),
        ),
    ]
}

/// Run every sweep, one per worker; the concatenated output keeps the
/// fixed sweep order regardless of which finishes first.
pub fn run(n: usize, ops: usize) -> Vec<SweepPoint> {
    parallel_map(
        sweeps(n, ops),
        default_threads(),
        |(sweep, spec, points)| {
            (points.into_iter())
                .map(|(param, make)| measure(sweep, param, make().as_mut(), &spec))
                .collect::<Vec<_>>()
        },
    )
    .into_iter()
    .flatten()
    .collect()
}

/// A claim about one sweep: `(label, (sweep, from, to, metric,
/// direction))` holds when `metric` moves in `direction` from point
/// `from` to point `to`.
type Claim = (
    &'static str,
    (&'static str, &'static str, &'static str, Metric, Ordering),
);
type Metric = fn(&SweepPoint) -> f64;

/// Figure 3's claims: each knob moves its method as the paper predicts.
/// A larger LSM T (levelling) means fewer levels, so RO falls, but
/// bigger merge batches, so UO rises; tiering trades reads for writes
/// against levelling at the same T. Finer zonemap partitions and more
/// Bloom bits buy reads with space. Bigger B-tree nodes make each page
/// write fatter. More PBT partitions defer merges but add probes. A lower
/// fill factor leaves slack pages.
const CLAIMS: [Claim; 12] = [
    (
        "LSM T↑ (levelling): RO falls",
        ("lsm-ratio", "T=2 lvl", "T=16 lvl", |p| p.ro, Falls),
    ),
    (
        "LSM T↑ (levelling): UO rises",
        ("lsm-ratio", "T=2 lvl", "T=16 lvl", |p| p.uo, Rises),
    ),
    (
        "tiering (T=4) has lower UO than levelling",
        ("lsm-ratio", "T=4 lvl", "T=4 tier", |p| p.uo, Falls),
    ),
    (
        "tiering (T=4) has higher RO than levelling",
        ("lsm-ratio", "T=4 lvl", "T=4 tier", |p| p.ro, Rises),
    ),
    (
        "ZoneMap P↓: RO falls (finer pruning)",
        ("zonemap-P", "16384r", "256r", |p| p.ro, Falls),
    ),
    (
        "ZoneMap P↓: MO rises (more zones)",
        ("zonemap-P", "16384r", "256r", |p| p.mo, Rises),
    ),
    (
        "Bloom bits↑: RO falls on miss-heavy reads",
        ("bloom-bits", "0b/key", "16b/key", |p| p.ro, Falls),
    ),
    (
        "Bloom bits↑: MO rises",
        ("bloom-bits", "0b/key", "16b/key", |p| p.mo, Rises),
    ),
    (
        "B+-tree node↑: UO rises (fatter page writes)",
        ("btree-node-size", "512B", "32768B", |p| p.uo, Rises),
    ),
    (
        "PBT partitions↑: UO falls (merges deferred)",
        ("pbt-partitions", "2p", "16p", |p| p.uo, Falls),
    ),
    (
        "PBT partitions↑: RO rises (more partitions probed)",
        ("pbt-partitions", "2p", "16p", |p| p.ro, Rises),
    ),
    (
        "B+-tree fill↓: MO rises (slack pages)",
        ("btree-fill", "1.0", "0.5", |p| p.mo, Rises),
    ),
];

/// Figure 3's claims, checked against the measured points. A claim whose
/// points were not measured fails.
pub fn shape_checks(points: &[SweepPoint]) -> Vec<(String, bool)> {
    let at =
        |sweep: &str, param: &str| (points.iter()).find(|p| p.sweep == sweep && p.param == param);
    (CLAIMS.iter())
        .map(|&(label, (sweep, from, to, metric, direction))| {
            let moved = (at(sweep, from).zip(at(sweep, to)))
                .and_then(|(a, b)| metric(b).partial_cmp(&metric(a)));
            (label.to_string(), moved == Some(direction))
        })
        .collect()
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
