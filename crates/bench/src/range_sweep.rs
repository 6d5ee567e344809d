//! Range-read acceleration sweep: the REMIX-style sorted view's RO-vs-MO
//! trade, measured.
//!
//! Grid: three range-carrying canonical mixes × point-probe filter
//! (Bloom / quotient) × sorted view (off / on), all over the same
//! write-optimized tiered LSM (`T = 8`, 64-record memtable) — the
//! many-run shape where per-run range probes hurt and REMIX pays off.
//! Short scans (`range_len = 16`) keep each query's *useful* pages small,
//! so the per-run probe waste the view removes dominates the cell.
//!
//! What the table shows, in RUM terms:
//!
//! * **RO** drops with the view on: a range query binary-searches one
//!   global anchor array and touches only pages holding live newest
//!   versions, instead of paying a fence search plus at least one page on
//!   every overlapping run.
//! * **MO** rises: the view's `(key, run, page)` anchors are resident
//!   auxiliary bytes (the `view KiB` column), stale or current, and each
//!   lazy refresh after a flush/compaction (new runs scanned, old
//!   anchors merged, new anchors written) is priced as auxiliary writes
//!   inside the read that triggered it: `pg/read` and `sim ns`, not RO.
//! * Correctness is not traded: every view-on cell is checked op by op,
//!   `Get` and `Range` alike, against the one oracle
//!   ([`rum_core::oracle`]) that view-off trees answer to as well.

use rum_core::oracle::check;
use rum_core::runner::{run_stream, RumReport};
use rum_core::workload::{KeySpace, Op, OpMix, Workload, WorkloadSpec};
use rum_core::{AccessMethod, Key};
use rum_lsm::{CompactionPolicy, FilterKind, LsmConfig, LsmTree};
use std::collections::{HashMap, HashSet};

use crate::{Outcome, Scale, Table, Target};

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct RangeSweepConfig {
    /// Records bulk-loaded before the op stream (the scale axis).
    pub n: usize,
    /// Operations in the stream.
    pub operations: usize,
    /// Required RO advantage of view-on over view-off on the scan-heavy
    /// mix: `ro_off >= ro_on * ro_ratio_floor`. The full sweep demands
    /// the headline 2×; the smoke run only demands strictly lower.
    pub ro_ratio_floor: f64,
}

impl Default for RangeSweepConfig {
    fn default() -> Self {
        RangeSweepConfig {
            n: 100_000,
            operations: 30_000,
            ro_ratio_floor: 2.0,
        }
    }
}

impl RangeSweepConfig {
    /// The reduced grid the CI smoke job runs: small enough to finish in
    /// seconds, still asserting result equality and a strict RO win on
    /// the scan-heavy mix.
    pub fn smoke() -> Self {
        RangeSweepConfig {
            n: 20_000,
            operations: 8_000,
            ro_ratio_floor: 1.0,
        }
    }
}

/// The three canonical mixes that exercise range reads.
pub fn range_mixes() -> [(&'static str, OpMix); 3] {
    [
        ("balanced", OpMix::BALANCED),
        ("range-heavy", OpMix::RANGE_HEAVY),
        ("scan-heavy", OpMix::SCAN_HEAVY),
    ]
}

/// The two filter kinds under test.
pub fn filters() -> [(&'static str, FilterKind); 2] {
    [
        ("bloom", FilterKind::Bloom),
        ("quotient", FilterKind::Quotient { rbits: 10 }),
    ]
}

fn tree(filter: FilterKind, sorted_view: bool) -> LsmTree {
    // Small memtable + tiering: the op stream's write trickle becomes a
    // steady supply of fresh whole-domain runs, the many-run shape where
    // per-run range probes hurt and the sorted view pays off.
    LsmTree::with_config(LsmConfig {
        memtable_records: 64,
        size_ratio: 8,
        policy: CompactionPolicy::Tiering,
        filter,
        sorted_view,
        ..Default::default()
    })
}

/// Gap between bulk-loaded keys: inserts land on the in-between slots.
const KEY_SPACING: u64 = 4;
/// Target result size of each range query.
const RANGE_LEN: usize = 16;

fn spec_for(config: &RangeSweepConfig, mix: OpMix, seed_salt: u64) -> WorkloadSpec {
    WorkloadSpec {
        initial_records: config.n,
        operations: config.operations,
        mix,
        range_len: RANGE_LEN,
        key_space: KeySpace::Dense {
            spacing: KEY_SPACING,
        },
        seed: 0x0005_EED0 ^ seed_salt,
        ..Default::default()
    }
}

/// Scatter the stream's fresh-insert keys across the bulk-loaded domain.
///
/// The generator appends fresh keys *above* the initial population, so
/// every flushed run would occupy a disjoint key segment — a shape run
/// envelopes already prune perfectly, leaving the sorted view nothing to
/// accelerate. Real ingest interleaves new keys with resident ones; this
/// remaps each fresh key into a random unused gap slot of the spaced bulk
/// domain (rewriting every later reference to it consistently), producing
/// the overlapping-run shape REMIX-style views actually target.
fn scatter_inserts(workload: &mut Workload, n: usize, seed: u64) {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut taken: HashSet<Key> = HashSet::new();
    let mut map: HashMap<Key, Key> = HashMap::new();
    let remap = |map: &HashMap<Key, Key>, k: Key| *map.get(&k).unwrap_or(&k);
    for op in &mut workload.ops {
        match *op {
            Op::Insert(k, v) => {
                let s = loop {
                    let slot = next() % n.max(1) as u64;
                    let cand = slot * KEY_SPACING + 1 + next() % (KEY_SPACING - 1);
                    if taken.insert(cand) {
                        break cand;
                    }
                };
                map.insert(k, s);
                *op = Op::Insert(s, v);
            }
            Op::Get(k) => *op = Op::Get(remap(&map, k)),
            Op::Update(k, v) => *op = Op::Update(remap(&map, k), v),
            Op::Delete(k) => *op = Op::Delete(remap(&map, k)),
            Op::Range(lo, hi) => {
                let l = remap(&map, lo);
                *op = Op::Range(l, l.saturating_add(hi - lo));
            }
        }
    }
}

/// One measured cell.
#[derive(Clone, Debug)]
pub struct RangeRow {
    pub mix: &'static str,
    pub filter: &'static str,
    pub view: bool,
    pub report: RumReport,
    /// Resident anchor bytes after the run (rebuilt if a trailing flush
    /// had invalidated them, so the MO column is never understated).
    pub view_bytes: u64,
    /// Whether the oracle found every op result of the view-on tree
    /// exact (view-on cells only).
    pub identical: Option<bool>,
}

/// Run the grid. Rows come back mix-major, then filter, then view off/on.
pub fn run(config: &RangeSweepConfig) -> Vec<RangeRow> {
    let mut rows = Vec::new();
    for (mix_name, mix) in range_mixes() {
        let spec = spec_for(config, mix, mix_name.len() as u64);
        let mut workload = Workload::generate(&spec);
        scatter_inserts(&mut workload, config.n, spec.seed);
        let workload = workload;
        for (filter_name, filter) in filters() {
            eprintln!("[range] {mix_name} / {filter_name} ...");
            // The view-on tree, held to the oracle's model op by op (the
            // view-off tree answers to the same model in `rum-lsm`'s tests).
            let identical = check(&mut tree(filter, true), &workload).is_ok();
            for view in [false, true] {
                let mut t = tree(filter, view);
                let report = run_stream(&mut t, &workload).expect("workload run");
                // A trailing flush leaves the anchors stale: refresh (post-
                // measurement) so `view_bytes` reports the resident cost
                // a steady-state reader pays.
                if view {
                    t.range(0, 0).expect("view refresh");
                }
                rows.push(RangeRow {
                    mix: mix_name,
                    filter: filter_name,
                    view,
                    report,
                    view_bytes: t.view_bytes(),
                    identical: view.then_some(identical),
                });
            }
        }
    }
    rows
}

/// The grid's table: cell coordinates + the standard report columns.
pub fn table() -> Table<RangeRow> {
    Table::<RangeRow>::default()
        .col("mix", "mix:>12", |r| r.mix)
        .col("filter", "filter:>9", |r| r.filter)
        .col("view", "view:>4", |r| if r.view { "on" } else { "off" })
        .report("  ", |r| &r.report)
        .col_after("  ", "view_kib:.1", "view KiB:>9.1", |r| {
            r.view_bytes as f64 / 1024.0
        })
        .col("identical", "equal:>6", |r| {
            r.identical.map_or("", |ok| if ok { "yes" } else { "NO" })
        })
}

/// The sweep's claims, checked. Any `false` fails the smoke job.
pub fn checks(config: &RangeSweepConfig, rows: &[RangeRow]) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    for r in rows {
        out.push((
            format!(
                "{}/{}/view={}: RO/UO/MO all finite",
                r.mix, r.filter, r.view
            ),
            r.report.ro.is_finite() && r.report.uo.is_finite() && r.report.mo.is_finite(),
        ));
        if let Some(ok) = r.identical {
            out.push((
                format!(
                    "{}/{}: view-on results bit-identical to view-off",
                    r.mix, r.filter
                ),
                ok,
            ));
        }
        if r.view {
            out.push((
                format!("{}/{}: view reports resident bytes", r.mix, r.filter),
                r.view_bytes > 0,
            ));
        }
    }
    // The headline: the view's RO advantage on the scan-heavy mix, for
    // both filters (the filter guards point probes, not ranges, so the
    // advantage must not depend on it).
    for (filter_name, _) in filters() {
        let ro_of = |view: bool| {
            rows.iter()
                .find(|r| r.mix == "scan-heavy" && r.filter == filter_name && r.view == view)
                .map(|r| r.report.ro)
        };
        if let (Some(off), Some(on)) = (ro_of(false), ro_of(true)) {
            let desc = if config.ro_ratio_floor > 1.0 {
                format!(
                    "scan-heavy/{filter_name}: view-on RO at least {}x lower ({on:.2} vs {off:.2})",
                    config.ro_ratio_floor
                )
            } else {
                format!("scan-heavy/{filter_name}: view-on RO strictly lower ({on:.2} vs {off:.2})")
            };
            let ok = if config.ro_ratio_floor > 1.0 {
                on * config.ro_ratio_floor <= off
            } else {
                on < off
            };
            out.push((desc, ok));
        }
    }
    // The trade is visible: every view-on cell pays MO (view bytes), and
    // its UO is never below its view-off twin's (equal, in fact: refreshes
    // run inside reads and are booked there as aux writes, so they show
    // in `pg/read` and `sim ns`, not in UO).
    for (mix_name, _) in range_mixes() {
        for (filter_name, _) in filters() {
            let pair: Vec<&RangeRow> = rows
                .iter()
                .filter(|r| r.mix == mix_name && r.filter == filter_name)
                .collect();
            if let [off, on] = pair.as_slice() {
                out.push((
                    format!("{mix_name}/{filter_name}: view-on UO not below view-off (rebuilds are priced)"),
                    on.report.uo >= off.report.uo,
                ));
            }
        }
    }
    out
}

/// `rum-bench range_sweep [--smoke]`.
pub fn experiment(scale: Scale, _: &Target) -> Outcome {
    let config = scale.config(RangeSweepConfig::smoke);
    let rows = run(&config);
    let table = table();
    let rendered = format!(
        "=== Range-read acceleration: cross-run sorted view, RO bought with MO/UO ===\n{}",
        table.text(&rows)
    );
    let csv = table.csv(&rows);
    Outcome::sweep("range_sweep", rendered, csv, checks(&config, &rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_holds_the_contract() {
        let config = RangeSweepConfig {
            n: 4_000,
            operations: 3_000,
            ro_ratio_floor: 1.0,
        };
        let rows = run(&config);
        assert_eq!(rows.len(), 12); // 3 mixes x 2 filters x 2 view states
        for (desc, ok) in checks(&config, &rows) {
            assert!(ok, "failed check: {desc}");
        }
        let csv = table().csv(&rows);
        assert_eq!(csv.lines().count(), 13);
        assert!(!csv.contains("NO"));
    }
}
