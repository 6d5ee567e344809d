//! # rum-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! RUM Conjecture paper. Binaries (one per experiment):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `props_extremes` | §2 Propositions 1–3 |
//! | `table1_complexity` | Table 1 (I/O cost of six access methods) |
//! | `fig1_rum_space` | Figure 1 (methods placed in the RUM triangle) |
//! | `fig2_hierarchy` | Figure 2 (RUM overheads across a memory hierarchy) |
//! | `fig3_tunable` | Figure 3 (tunable methods tracing curves in the space) |
//! | `roadmap_adaptive` | §5 roadmap items (cracking, bitmaps, LSM retuning, filters) |
//! | `scale_sweep` | streaming workloads × sharded execution, n up to 10^7, K up to 8 |
//! | `crash_matrix` | WAL durability cost folded into UO + exact recovery under fault injection |
//! | `advisor` | §5 wizard calibrated from measured profiles (analytic vs measured rankings) |
//! | `baseline_gate` | RUM regression gate against `results/baseline_rum.json` |
//! | `rum_trace` | time-resolved tracing: windowed RO/UO/MO trajectories, latency histograms, event JSONL + folded stacks |
//! | `range_sweep` | REMIX-style sorted-view range acceleration: RO bought with MO/UO, view on/off × bloom/quotient × 3 mixes |
//! | `fault_storm` | corruption resilience: methods × seeded fault profiles × retry policies, differential vs a fault-free twin |
//! | `drift_sweep` | drifting workloads: the online AutoTuner vs every static configuration, priced migrations, bit-identical replay |
//! | `artifact_gate` | CI artifact freshness: regenerates every committed smoke CSV and fails if the checked-in copy drifted |
//! | `rum_top` | live terminal dashboard over the `rum-obs` exporter: per-op-class amortized RUM, debt table, sparklines; `--smoke` validates the exporter + conservation + metrics-on ≡ metrics-off |
//!
//! This library holds the measurement machinery those binaries share, so
//! experiments are reproducible from tests as well.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rum_core::runner::measure_ops;
use rum_core::workload::Op;
use rum_core::{AccessMethod, CostSnapshot, Record, RECORDS_PER_PAGE};

pub mod advisor;
pub mod artifact_gate;
pub mod baseline;
pub mod crash;
pub mod drift_sweep;
pub mod fault_storm;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod obs;
pub mod props;
pub mod range_sweep;
pub mod scale;
pub mod table1;
pub mod trace;

/// Sorted unique records with even keys `0, 2, ..., 2(n-1)` and
/// deterministic payloads. Even keys leave odd gaps so fresh inserts can
/// land at *random positions* inside the key range — without gaps, every
/// insert would be a best-case append and the sorted column's O(N/B/2)
/// shifting cost (Table 1) would never show.
pub fn dataset(n: usize) -> Vec<Record> {
    (0..n as u64)
        .map(|k| Record::new(2 * k, rum_core::workload::value_for(2 * k, 0)))
        .collect()
}

/// Per-operation measurement of one op kind against a loaded method.
#[derive(Clone, Copy, Debug)]
pub struct OpCost {
    /// Mean page accesses (reads + writes) per operation.
    pub pages: f64,
    /// Mean physical bytes touched per operation.
    pub bytes: f64,
    /// Mean simulated nanoseconds per operation.
    pub sim_ns: f64,
}

impl OpCost {
    fn from_delta(d: &CostSnapshot, ops: usize) -> OpCost {
        let n = ops.max(1) as f64;
        OpCost {
            pages: d.page_accesses() as f64 / n,
            bytes: (d.total_read_bytes() + d.total_write_bytes()) as f64 / n,
            sim_ns: d.sim_time_ns as f64 / n,
        }
    }
}

/// Measure the average cost of `count` random point queries over live
/// keys `0..n`.
pub fn point_query_cost(method: &mut dyn AccessMethod, n: usize, count: usize) -> OpCost {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let ops: Vec<Op> = (0..count)
        .map(|_| Op::Get(2 * rng.gen_range(0..n as u64)))
        .collect();
    let (_, d) = measure_ops(method, &ops).expect("point queries");
    OpCost::from_delta(&d, count)
}

/// Measure `count` range queries of `m` records each.
pub fn range_query_cost(method: &mut dyn AccessMethod, n: usize, m: usize, count: usize) -> OpCost {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let ops: Vec<Op> = (0..count)
        .map(|_| {
            let lo = 2 * rng.gen_range(0..(n.saturating_sub(m).max(1)) as u64);
            // Even keys: a span of 2(m-1) covers exactly m records.
            Op::Range(lo, lo + 2 * (m as u64 - 1))
        })
        .collect();
    let (_, d) = measure_ops(method, &ops).expect("range queries");
    OpCost::from_delta(&d, count)
}

/// Measure `count` inserts of fresh odd keys at random positions inside
/// the loaded (even-keyed) range — the paper's average-position insert.
pub fn insert_cost(method: &mut dyn AccessMethod, n: usize, count: usize) -> OpCost {
    let mut rng = StdRng::seed_from_u64(0xADD);
    let mut used = std::collections::HashSet::new();
    // Sample without replacement; widen the domain when the sample count
    // approaches the number of odd gaps (needed for amortized methods
    // that are measured over many inserts).
    let domain = (n as u64).max(4 * count as u64);
    let ops: Vec<Op> = (0..count)
        .map(|_| {
            let mut j = rng.gen_range(0..domain);
            while !used.insert(j) {
                j = rng.gen_range(0..domain);
            }
            let k = 2 * j + 1;
            Op::Insert(k, rum_core::workload::value_for(k, 1))
        })
        .collect();
    let (_, d) = measure_ops(method, &ops).expect("inserts");
    OpCost::from_delta(&d, count)
}

/// Measure `count` in-place updates of existing keys.
pub fn update_cost(method: &mut dyn AccessMethod, n: usize, count: usize) -> OpCost {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let ops: Vec<Op> = (0..count)
        .map(|_| {
            let k = 2 * rng.gen_range(0..n as u64);
            Op::Update(k, rum_core::workload::value_for(k, 2))
        })
        .collect();
    let (_, d) = measure_ops(method, &ops).expect("updates");
    OpCost::from_delta(&d, count)
}

/// Bulk-load `records` and report the construction cost and footprint:
/// `(pages_written, physical_pages, space_amplification)`.
pub fn load_cost(method: &mut dyn AccessMethod, records: &[Record]) -> (u64, f64, f64) {
    let before = method.tracker().snapshot();
    method.bulk_load(records).expect("bulk load");
    let d = method.tracker().since(&before);
    let profile = method.space_profile();
    let physical_pages = profile.total_bytes() as f64 / rum_core::PAGE_SIZE as f64;
    (d.page_writes, physical_pages, profile.space_amplification())
}

/// The epilogue the experiment binaries share: print `heading` and one
/// `[PASS]`/`[FAIL]` line per check, write each `(name, body)` of `files`
/// under `results/` (smoke runs pass none), and exit non-zero if any check
/// failed.
pub fn conclude(heading: &str, checks: Vec<(String, bool)>, files: &[(&str, &str)]) {
    println!("{heading}");
    let mut all_ok = true;
    for (desc, ok) in checks {
        println!("  [{}] {desc}", if ok { "PASS" } else { "FAIL" });
        all_ok &= ok;
    }

    if !files.is_empty() {
        std::fs::create_dir_all("results").expect("results dir");
        let mut paths = Vec::with_capacity(files.len());
        for (name, body) in files {
            let path = format!("results/{name}");
            std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
            paths.push(path);
        }
        println!("wrote {}", paths.join(" and "));
    }

    if !all_ok {
        std::process::exit(1);
    }
}

/// `log_B(n)` — the B-tree height scale of Table 1.
pub fn log_b(n: f64) -> f64 {
    n.max(2.0).ln() / (RECORDS_PER_PAGE as f64).ln()
}

/// Fixed-width cell formatting for experiment tables.
pub fn fmt_cell(x: f64) -> String {
    if x >= 1000.0 {
        format!("{x:>10.0}")
    } else if x >= 10.0 {
        format!("{x:>10.1}")
    } else {
        format!("{x:>10.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_btree::BTree;

    #[test]
    fn op_costs_measure_something() {
        let mut t = BTree::new();
        let data = dataset(10_000);
        let (pages_written, physical, mo) = load_cost(&mut t, &data);
        assert!(pages_written > 0);
        assert!(physical > 39.0); // 10k records = ~40 pages minimum
        assert!(mo >= 1.0);
        let pq = point_query_cost(&mut t, 10_000, 32);
        assert!(pq.pages >= 1.0);
        let rq = range_query_cost(&mut t, 10_000, 256, 8);
        assert!(rq.pages > pq.pages);
        let ins = insert_cost(&mut t, 10_000, 16);
        assert!(ins.pages >= 1.0);
        let upd = update_cost(&mut t, 10_000, 16);
        assert!(upd.pages >= 1.0);
    }

    #[test]
    fn dataset_is_sorted_unique() {
        let d = dataset(1000);
        assert!(d.windows(2).all(|w| w[0].key < w[1].key));
    }
}
