//! Table 1 of the paper: empirical I/O cost (page accesses) of the six
//! access methods, swept over dataset sizes, against the closed forms the
//! wizard ranks with ([`rum_core::wizard::profile`]), evaluated at the
//! same `N`, `m`, [`PARTITION`] and [`SIZE_RATIO`] the methods are built
//! with.
//!
//! The paper's asymptotics, with `B = 256` records/page:
//!
//! | method | point | range(m) | insert/update/delete | size |
//! |---|---|---|---|---|
//! | B+-Tree | `log_B N` | `log_B N + m/B` | `log_B N` | `N/B` |
//! | Perfect Hash | `1` | `N/B` | `1` | `N/B` |
//! | ZoneMaps | `N/P/B` | `N/P/B + m/B` | `N/P/B` | `N/P/B` |
//! | Levelled LSM | `log_T(N/B)·log_B N` | `... + m·T/(T−1)/B` | `T/B·log_T(N/B)` | `N·T/(T−1)` |
//! | Sorted column | `log₂ N` | `log₂ N + m/B` | `N/B/2` | `1` (no aux) |
//! | Unsorted column | `N/B/2` | `N/B` | `1` | `1` (no aux) |

use rum_btree::BTree;
use rum_columns::{SortedColumn, UnsortedColumn};
use rum_core::runner::{default_threads, parallel_map};
use rum_core::wizard::{profile, Environment, Family, PARTITION, SIZE_RATIO};
use rum_core::{AccessMethod, ShardedMethod, RECORDS_PER_PAGE};
use rum_hash::StaticHash;
use rum_lsm::{LsmConfig, LsmTree};
use rum_sparse::{ZoneMapConfig, ZoneMappedColumn};

use crate::{
    dataset, inserts, pages_per_op, point_queries, range_queries, updates, Outcome, Scale, Table,
    Target,
};

/// Shards in the "Sharded B+-Tree" row.
const SHARDS: usize = 4;

/// Experiment parameters (the parameter table atop the paper's Table 1;
/// `P` and `T` are the wizard's [`PARTITION`] and [`SIZE_RATIO`]).
#[derive(Clone, Copy, Debug)]
pub struct Table1Params {
    /// Range-query result size `m` in records.
    pub m: usize,
    /// LSM memtable (`MEM`) in records.
    pub memtable: usize,
}

impl Default for Table1Params {
    fn default() -> Self {
        Table1Params {
            m: 512,
            memtable: 4096,
        }
    }
}

/// One measured row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    pub method: String,
    /// The wizard family that prices this row; `None` for the sharded
    /// composition.
    pub family: Option<Family>,
    pub n: usize,
    /// Pages written during bulk creation.
    pub load_pages: u64,
    /// Total physical footprint in pages.
    pub size_pages: f64,
    pub mo: f64,
    /// Mean page accesses per operation.
    pub point_pages: f64,
    pub range_pages: f64,
    pub insert_pages: f64,
    pub update_pages: f64,
}

/// A boxed constructor for one Table 1 method.
pub type MethodFactory = Box<dyn Fn() -> Box<dyn AccessMethod>>;

/// The six methods of Table 1 as boxed factories, each tagged with the
/// wizard family that prices it (see [`Table1Row::family`]).
pub fn methods(p: Table1Params) -> Vec<(&'static str, Option<Family>, MethodFactory)> {
    vec![
        (
            "B+-Tree",
            Some(Family::BTree),
            Box::new(|| Box::new(BTree::new()) as Box<dyn AccessMethod>),
        ),
        (
            "Perfect Hash",
            Some(Family::HashIndex),
            Box::new(|| Box::new(StaticHash::new()) as Box<dyn AccessMethod>),
        ),
        (
            "ZoneMaps",
            Some(Family::ZoneMap),
            Box::new(move || {
                Box::new(ZoneMappedColumn::with_config(ZoneMapConfig {
                    partition_records: PARTITION,
                    blind_appends: true,
                })) as Box<dyn AccessMethod>
            }),
        ),
        (
            "Levelled LSM",
            Some(Family::LsmTree),
            Box::new(move || {
                // No Bloom filters: the paper's Table 1 cost formula
                // predates per-run filters (their effect is measured in
                // the Figure 3 sweep and the ablation benches instead).
                Box::new(LsmTree::with_config(LsmConfig {
                    memtable_records: p.memtable,
                    size_ratio: SIZE_RATIO,
                    bloom_bits_per_key: 0.0,
                    ..Default::default()
                })) as Box<dyn AccessMethod>
            }),
        ),
        (
            "Sorted column",
            Some(Family::SortedColumn),
            Box::new(|| Box::new(SortedColumn::new()) as Box<dyn AccessMethod>),
        ),
        (
            // Blind appends: the paper's O(1) heap insert (no uniqueness
            // scan; the workload only inserts fresh keys).
            "Unsorted column",
            Some(Family::UnsortedColumn),
            Box::new(|| Box::new(UnsortedColumn::blind_appends()) as Box<dyn AccessMethod>),
        ),
        (
            // Beyond the paper's six: the sharded composition this repo
            // adds. K=4 hash-partitioned B+-trees — point ops touch one
            // smaller tree (log_B(N/K)), ranges pay a K-way fan-out.
            "Sharded B+-Tree",
            None,
            Box::new(|| {
                Box::new(ShardedMethod::new(SHARDS, |_| {
                    Box::new(BTree::new()) as Box<dyn AccessMethod>
                })) as Box<dyn AccessMethod>
            }),
        ),
    ]
}

/// Table 1's closed forms for one row, in page accesses per
/// `(point, range, insert)`: the wizard's [`profile`] of `family`, or for
/// the sharded composition (`None`) that of one B+-tree of `N/K` records,
/// whose ranges probe all K trees and then read the same `m/B` leaves.
pub fn theory(family: Option<Family>, n: usize, m: usize) -> (f64, f64, f64) {
    match family {
        Some(family) => {
            let p = profile(family, &Environment { n, m });
            (p.point_cost, p.range_cost, p.insert_cost)
        }
        None => {
            let shard = profile(Family::BTree, &Environment { n: n / SHARDS, m });
            let range = SHARDS as f64 * shard.point_cost + m as f64 / RECORDS_PER_PAGE as f64;
            (shard.point_cost, range, shard.insert_cost)
        }
    }
}

/// Number of inserts to average over, per method. Structures with
/// amortized write paths (LSM) need enough inserts to cross flush and
/// compaction boundaries; structures with deterministic per-op cost
/// (sorted column: half the column shifts!) get few.
fn insert_samples(family: Option<Family>, p: &Table1Params) -> usize {
    match family {
        Some(Family::LsmTree) => 4 * p.memtable,
        Some(Family::SortedColumn) => 8,
        _ => 64,
    }
}

/// Measure one method at one dataset size.
pub fn measure(
    name: &str,
    family: Option<Family>,
    factory: &dyn Fn() -> Box<dyn AccessMethod>,
    n: usize,
    p: &Table1Params,
) -> Table1Row {
    let mut m = factory();
    let before = m.tracker().snapshot();
    m.bulk_load(&dataset(n)).expect("bulk load");
    let load_pages = m.tracker().since(&before).page_writes;
    if family == Some(Family::LsmTree) {
        // Drive the LSM into steady state: a pristine bulk-loaded tree is
        // one perfect run (reads as cheap as a sorted column), which is
        // not the multi-level shape Table 1 describes. Churn a slice of
        // the keys so several levels hold live data.
        let churn = (2 * p.memtable).min(n / 2);
        pages_per_op(m.as_mut(), &updates(n, churn));
        // Flush the memtable: the paper's LSM read model probes runs, not
        // a warm write buffer (memtable hits would undercut even hashing).
        m.flush().expect("flush");
        m.tracker().reset();
    }
    let point = pages_per_op(m.as_mut(), &point_queries(n, 64));
    let range = pages_per_op(m.as_mut(), &range_queries(n, p.m, 16));
    let update = pages_per_op(m.as_mut(), &updates(n, 32));
    let insert = pages_per_op(m.as_mut(), &inserts(n, insert_samples(family, p)));
    // Footprint measured at the END of the run: for history-dependent
    // structures (the LSM) the pristine bulk-loaded state undersells the
    // space the method actually occupies in steady state.
    let space = m.space_profile();
    let size_pages = space.total_bytes() as f64 / rum_core::PAGE_SIZE as f64;
    let mo = space.space_amplification();
    Table1Row {
        method: name.to_string(),
        family,
        n,
        load_pages,
        size_pages,
        mo,
        point_pages: point,
        range_pages: range,
        insert_pages: insert,
        update_pages: update,
    }
}

/// Run the full sweep. Every (N, method) cell is independent, so cells
/// run one per worker; `parallel_map` keeps rows in sweep order. The
/// method factories are rebuilt inside each worker because boxed
/// closures are not `Send` — rebuilding them is free.
pub fn run(ns: &[usize], params: Table1Params) -> Vec<Table1Row> {
    let method_count = methods(params).len();
    let mut cells = Vec::with_capacity(ns.len() * method_count);
    for &n in ns {
        for index in 0..method_count {
            cells.push((n, index));
        }
    }
    parallel_map(cells, default_threads(), |(n, index)| {
        let (name, family, factory) = methods(params).swap_remove(index);
        eprintln!("[table1] measuring {name} @ N={n} ...");
        let t0 = std::time::Instant::now();
        let row = measure(name, family, factory.as_ref(), n, &params);
        eprintln!("[table1]   done in {:.1}s", t0.elapsed().as_secs_f32());
        row
    })
}

/// A page count with three significant figures or so, as a Table 1 cell.
fn pages(x: f64) -> String {
    let prec = if x >= 1000.0 {
        0
    } else if x >= 10.0 {
        1
    } else {
        2
    };
    format!("{x:.prec$}")
}

/// Measured against theory, one row per method at one dataset size.
pub fn table(params: &Table1Params) -> Table<Table1Row> {
    let m = params.m;
    let theory = move |r: &Table1Row| theory(r.family, r.n, m);
    Table::<Table1Row>::default()
        .col("", "method:<16", |r| r.method.clone())
        .col("", "load(pgW):>10", |r| r.load_pages)
        .col("", "size(pg):>10", |r| pages(r.size_pages))
        .col("", "MO:>8.3", |r| r.mo)
        .col_after(" | ", "", "point:>10", |r| pages(r.point_pages))
        .col("", "(theory):>10", move |r| pages(theory(r).0))
        .col_after(" | ", "", "range:>10", |r| pages(r.range_pages))
        .col("", "(theory):>10", move |r| pages(theory(r).1))
        .col_after(" | ", "", "insert:>10", |r| pages(r.insert_pages))
        .col("", "(theory):>10", move |r| pages(theory(r).2))
        .col_after(" | ", "", "update:>10", |r| pages(r.update_pages))
}

/// The paper's qualitative claims about Table 1, checked against the
/// measurements. Every claim is a (description, holds?) pair.
pub fn shape_checks(rows: &[Table1Row]) -> Vec<(String, bool)> {
    let mut ns: Vec<usize> = rows.iter().map(|r| r.n).collect();
    ns.sort_unstable();
    ns.dedup();
    let small = *ns.first().expect("at least one N");
    let large = *ns.last().expect("at least one N");
    let get = |method: &str, n: usize| -> &Table1Row {
        rows.iter()
            .find(|r| r.method == method && r.n == n)
            .expect("row")
    };
    let growth = |method: &str, f: fn(&Table1Row) -> f64| {
        f(get(method, large)) / f(get(method, small)).max(1e-9)
    };
    let n_ratio = large as f64 / small as f64;

    let mut checks = Vec::new();
    checks.push((
        "hash point query is O(1): flat across N".into(),
        growth("Perfect Hash", |r| r.point_pages) < 1.5,
    ));
    checks.push((
        "B+-tree point query grows ≤ +2 pages over the sweep (log_B N)".into(),
        get("B+-Tree", large).point_pages - get("B+-Tree", small).point_pages <= 2.0,
    ));
    checks.push((
        "unsorted column point query grows ~linearly with N".into(),
        growth("Unsorted column", |r| r.point_pages) > n_ratio * 0.4,
    ));
    checks.push((
        "sorted column point query grows ≪ linearly (log₂ N)".into(),
        growth("Sorted column", |r| r.point_pages) < 4.0,
    ));
    checks.push((
        "Hash Indexes offer the fastest point queries".into(),
        [
            "B+-Tree",
            "ZoneMaps",
            "Levelled LSM",
            "Sorted column",
            "Unsorted column",
        ]
        .iter()
        .all(|m| get("Perfect Hash", large).point_pages <= get(m, large).point_pages),
    ));
    checks.push((
        "B+-Trees offer the fastest range queries (vs hash/zonemap/columns)".into(),
        ["Perfect Hash", "ZoneMaps", "Unsorted column"]
            .iter()
            .all(|m| get("B+-Tree", large).range_pages <= get(m, large).range_pages * 1.05),
    ));
    checks.push((
        "\"LSM can support efficient range queries\": within 1.5x of the B+-tree".into(),
        get("Levelled LSM", large).range_pages <= get("B+-Tree", large).range_pages * 1.5
            && get("Levelled LSM", large).range_pages * 1.5 >= get("B+-Tree", large).range_pages,
    ));
    checks.push((
        // Small epsilon: at test-scale N the LSM's single bloom-free run
        // ties the zonemap's footprint to within page slack.
        "ZoneMaps have the smallest index size (lowest MO of the indexed methods)".into(),
        ["B+-Tree", "Perfect Hash", "Levelled LSM"]
            .iter()
            .all(|m| get("ZoneMaps", large).mo <= get(m, large).mo + 0.01),
    ));
    checks.push((
        "LSM inserts are far cheaper than B+-tree inserts (amortized)".into(),
        get("Levelled LSM", large).insert_pages * 4.0 < get("B+-Tree", large).insert_pages,
    ));
    checks.push((
        "hash range query is a full scan (grows ~linearly)".into(),
        growth("Perfect Hash", |r| r.range_pages) > n_ratio * 0.4,
    ));
    checks.push((
        "sorted column insert shifts ~half the column (linear in N)".into(),
        growth("Sorted column", |r| r.insert_pages) > n_ratio * 0.4,
    ));
    checks.push((
        "unsorted column append insert is cheap and flat (O(1))".into(),
        get("Unsorted column", large).insert_pages <= 3.0
            && get("Unsorted column", small).insert_pages <= 3.0,
    ));
    checks.push((
        "zonemap append insert is cheap (sparse-index maintenance only)".into(),
        get("ZoneMaps", large).insert_pages <= 4.0,
    ));
    checks.push((
        // Tolerance covers last-page slack, which shrinks with N.
        "sorted/unsorted columns carry no auxiliary space (MO ≈ 1)".into(),
        get("Sorted column", large).mo < 1.05 && get("Unsorted column", large).mo < 1.05,
    ));
    checks.push(("there is no single winner across all columns".into(), {
        // The point-query winner must lose a different column.
        let point_winner = "Perfect Hash";
        get(point_winner, large).range_pages > get("B+-Tree", large).range_pages
            && get(point_winner, large).mo > get("Sorted column", large).mo
    }));
    checks
}

/// `rum-bench table1 [--quick]`: five dataset sizes, or two.
pub fn experiment(scale: Scale, _: &Target) -> Outcome {
    let ns: &[usize] = match scale {
        Scale::Full => &[1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20],
        _ => &[1 << 12, 1 << 16],
    };
    let params = Table1Params::default();
    let rows = run(ns, params);
    let table = table(&params);
    let mut rendered = String::new();
    for at_n in rows.chunk_by(|a, b| a.n == b.n) {
        rendered.push_str(&format!(
            "\n=== Table 1 @ N = {} (B = {}, m = {}, P = {}, T = {}) ===\n{}",
            at_n[0].n,
            RECORDS_PER_PAGE,
            params.m,
            PARTITION,
            SIZE_RATIO,
            table.text(at_n)
        ));
    }
    Outcome {
        rendered,
        heading: "=== Shape checks (the paper's qualitative claims) ===",
        checks: shape_checks(&rows),
        files: Vec::new(),
    }
}
