//! Figure 1 of the paper: "Popular data structures in the RUM space."
//!
//! Every access method in the standard suite runs the same mixed workload;
//! its measured (RO, UO, MO) triple is projected into the RUM triangle.
//! The paper's qualitative placement — read-optimized structures at the
//! top, write-optimized differential structures at the left, space-
//! efficient sparse/lossy structures at the right, adaptive methods in the
//! middle — should emerge from the measurements alone.

use rum::prelude::*;

use std::time::Instant;

use crate::{Outcome, Scale, Table, Target};

/// The measured placement of one method.
#[derive(Clone, Debug)]
pub struct Placement {
    pub report: RumReport,
    pub point: RumPoint,
}

/// Run the Figure 1 experiment on one worker per core.
pub fn run(initial_records: usize, operations: usize, seed: u64) -> Vec<Placement> {
    run_with_threads(
        initial_records,
        operations,
        seed,
        rum::core::runner::default_threads(),
    )
}

/// Run the Figure 1 experiment with an explicit worker count (`1` =
/// serial). The measurements are identical whatever the count — only the
/// wall-clock changes — because every method carries its own tracker and
/// the merged reports are sorted by name.
///
/// The workload is never materialized: each worker draws ops straight
/// from its own [`OpStream`], which generates the identical sequence
/// `Workload::generate` would for this spec.
pub fn run_with_threads(
    initial_records: usize,
    operations: usize,
    seed: u64,
    threads: usize,
) -> Vec<Placement> {
    let spec = WorkloadSpec {
        initial_records,
        operations,
        mix: OpMix::BALANCED,
        seed,
        ..Default::default()
    };
    run_suite_stream(&mut rum::standard_suite(), &spec, threads)
        .unwrap_or_else(|e| panic!("suite run failed: {e}"))
        .into_iter()
        .map(|report| {
            let point = rum_point(report.method.clone(), report.ro, report.uo, report.mo);
            Placement { report, point }
        })
        .collect()
}

/// The paper's qualitative claims about Figure 1, checked.
pub fn shape_checks(placements: &[Placement]) -> Vec<(String, bool)> {
    let get = |name: &str| -> &Placement {
        placements
            .iter()
            .find(|p| p.report.method == name)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    let mut checks: Vec<(String, bool)> = Vec::new();

    // Read-optimized corner (top): the point-indexed structures sit above
    // the differential/log structures.
    for fast in ["b+tree", "hash-index", "trie", "skiplist"] {
        for slow in ["append-log", "lsm-tree-tiered"] {
            checks.push((
                format!("{fast} sits above {slow} (closer to the read corner)"),
                get(fast).point.y > get(slow).point.y,
            ));
        }
    }
    // Write-optimized corner (left): differential structures have lower UO
    // than in-place paged structures.
    for wo in ["append-log", "lsm-tree", "lsm-tree-tiered"] {
        checks.push((
            format!("{wo} has lower UO than b+tree"),
            get(wo).report.uo < get("b+tree").report.uo,
        ));
        checks.push((
            format!("{wo} leans left of b+tree"),
            get(wo).point.x < get("b+tree").point.x + 0.05,
        ));
    }
    // Space corner (right): sparse indexing beats the dense indexes on MO.
    for light in ["zonemap", "sorted-column"] {
        for heavy in ["hash-index", "trie", "skiplist"] {
            checks.push((
                format!("{light} has lower MO than {heavy}"),
                get(light).report.mo < get(heavy).report.mo,
            ));
        }
    }
    // Adaptive methods land in the middle region: better reads than the
    // raw heap they started as, paid for with reorganization writes.
    checks.push((
        "cracked column reads better than a raw heap scan".into(),
        get("cracked-column").report.ro < get("unsorted-column").report.ro,
    ));
    checks.push((
        "cracking pays for adaptivity with write overhead (UO > log's)".into(),
        get("cracked-column").report.uo > get("append-log").report.uo,
    ));
    checks.push((
        "cracked column sits between the heap and the read corner".into(),
        // Compare against byte-granular neighbors (the heap-like column
        // below, the skip list above): cross-granularity y comparisons
        // would mix page charges into the picture.
        get("cracked-column").point.y > get("unsorted-column").point.y
            && get("cracked-column").point.y < get("skiplist").point.y,
    ));
    checks
}

/// `rum-bench fig1 [--quick]`: the suite runs serially once and, with more
/// than one worker (`RUM_THREADS`, default one per core), in parallel once;
/// the figure is the parallel run's, the last line the harness speedup.
pub fn experiment(scale: Scale, _: &Target) -> Outcome {
    let (n, ops) = match scale {
        Scale::Full => (1 << 15, 1 << 13),
        _ => (1 << 13, 1 << 11),
    };
    let seed = 0x0F16_0001;

    let started = Instant::now();
    let serial = run_with_threads(n, ops, seed, 1);
    let serial_ms = started.elapsed().as_secs_f64() * 1e3;

    let threads = rum::core::runner::default_threads();
    let (placements, harness_line) = if threads <= 1 {
        (
            serial,
            format!("harness: serial {serial_ms:.0} ms ({threads} core(s) available)"),
        )
    } else {
        let started = Instant::now();
        let parallel = run_with_threads(n, ops, seed, threads);
        let parallel_ms = started.elapsed().as_secs_f64() * 1e3;
        // Identical measurements are the parallel harness's contract;
        // enforce it on every regeneration, not just in the test suite.
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.report.method, p.report.method, "method order diverged");
            assert_eq!(
                s.report.counted_diff(&p.report),
                None,
                "{}: serial and parallel measurements diverged",
                s.report.method
            );
        }
        let speedup = serial_ms / parallel_ms.max(1e-9);
        (
            parallel,
            format!(
                "harness: serial {serial_ms:.0} ms, parallel {parallel_ms:.0} ms \
                 on {threads} workers — {speedup:.2}x speedup"
            ),
        )
    };

    let load_ms: f64 = placements
        .iter()
        .map(|p| p.report.load_wall_ns as f64 / 1e6)
        .sum();
    let ops_ms: f64 = placements
        .iter()
        .map(|p| p.report.wall_ns as f64 / 1e6)
        .sum();
    let points: Vec<RumPoint> = placements.iter().map(|p| p.point.clone()).collect();
    let rendered = format!(
        "{}\ncpu time across methods: bulk load {load_ms:.1} ms, operation phase {ops_ms:.1} ms\n\n\
         {}\nCSV:\n{}\n{harness_line}",
        Table::<Placement>::default()
            .report("", |p| &p.report)
            .text(&placements),
        render_ascii(&points, 72, 24),
        to_csv(&points)
    );
    Outcome {
        rendered,
        heading: "=== Shape checks (the paper's qualitative placement) ===",
        checks: shape_checks(&placements),
        files: Vec::new(),
    }
}
