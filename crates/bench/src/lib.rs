//! # rum-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! RUM Conjecture paper, plus the follow-on sweeps, behind one binary:
//!
//! ```text
//! cargo run --release -p rum-bench -- list
//! cargo run --release -p rum-bench -- <experiment> [--quick | --smoke]
//! cargo run --release -p rum-bench -- gate [--update]
//! ```
//!
//! `list` prints [`EXPERIMENTS`], the one table of what there is to run:
//! each row names a subcommand, the scales it has, the `results/smoke/`
//! CSVs the gate holds it to and the module function that runs it (that
//! module's doc describes the experiment). This library holds those
//! modules and the measurement machinery they share, so experiments are
//! reproducible from tests as well.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rum_core::workload::Op;
use rum_core::{AccessMethod, Record};

pub mod advisor;
pub mod artifact_gate;
pub mod baseline;
pub mod cli;
pub mod crash;
pub mod drift_sweep;
pub mod fault_storm;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod obs;
pub mod props;
pub mod range_sweep;
pub mod roadmap;
pub mod scale;
pub mod table;
pub mod table1;
pub mod trace;

pub use cli::{list, parse, Command, Experiment, Outcome, Scale, Target, EXPERIMENTS};
pub use table::Table;

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

/// Mean page accesses (reads + writes) per op of `ops` against a loaded
/// method: Table 1's one measure, fed by the op generators below.
pub fn pages_per_op(method: &mut dyn AccessMethod, ops: &[Op]) -> f64 {
    let before = method.tracker().snapshot();
    for &op in ops {
        op.apply(method).unwrap_or_else(|e| panic!("{op:?}: {e}"));
    }
    method.tracker().since(&before).page_accesses() as f64 / ops.len().max(1) as f64
}

/// `count` ops drawn by `op` from an RNG seeded with `seed`.
fn seeded(seed: u64, count: usize, mut op: impl FnMut(&mut StdRng) -> Op) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| op(&mut rng)).collect()
}

/// `count` random point queries over live keys `0..n`.
pub fn point_queries(n: usize, count: usize) -> Vec<Op> {
    seeded(0xF00D, count, |rng| Op::Get(2 * rng.gen_range(0..n as u64)))
}

/// `count` range queries of `m` records each.
pub fn range_queries(n: usize, m: usize, count: usize) -> Vec<Op> {
    seeded(0xBEEF, count, |rng| {
        let lo = 2 * rng.gen_range(0..(n.saturating_sub(m).max(1)) as u64);
        // Even keys: a span of 2(m-1) covers exactly m records.
        Op::Range(lo, lo + 2 * (m as u64 - 1))
    })
}

/// `count` inserts of fresh odd keys at random positions inside the loaded
/// (even-keyed) range — the paper's average-position insert.
pub fn inserts(n: usize, count: usize) -> Vec<Op> {
    let mut used = std::collections::HashSet::new();
    // Sample without replacement; widen the domain when the sample count
    // approaches the number of odd gaps (needed for amortized methods
    // that are measured over many inserts).
    let domain = (n as u64).max(4 * count as u64);
    seeded(0xADD, count, |rng| {
        let mut j = rng.gen_range(0..domain);
        while !used.insert(j) {
            j = rng.gen_range(0..domain);
        }
        let k = 2 * j + 1;
        Op::Insert(k, rum_core::workload::value_for(k, 1))
    })
}

/// `count` in-place updates of existing keys.
pub fn updates(n: usize, count: usize) -> Vec<Op> {
    seeded(0xCAFE, count, |rng| {
        let k = 2 * rng.gen_range(0..n as u64);
        Op::Update(k, rum_core::workload::value_for(k, 2))
    })
}

/// Exit 2 unless `dir` is under the current directory. `results/` paths
/// are relative, so a run from anywhere but the repository root would
/// otherwise report every committed file missing or grow a stray tree.
pub fn require_dir(dir: &str) {
    if !std::path::Path::new(dir).is_dir() {
        let cwd = std::env::current_dir().map(|p| p.display().to_string());
        eprintln!(
            "rum-bench: no {dir}/ in {}; run from the repository root",
            cwd.as_deref().unwrap_or("the current directory")
        );
        std::process::exit(2);
    }
}

/// Exit 1 with `msg`: a run that cannot go on (a port that will not bind,
/// a scrape that fails) as opposed to a check that did not hold.
pub fn fail(msg: &str) -> ! {
    eprintln!("rum-bench: {msg}");
    std::process::exit(1)
}

/// The epilogue every subcommand shares: print the rendered artifact,
/// the heading (if any) and one `[PASS]`/`[FAIL]` line per check, write
/// the outcome's files under `results/` when `write_files` (smoke runs
/// write none), and exit non-zero if any check failed.
pub fn conclude(outcome: Outcome, write_files: bool) {
    if !outcome.rendered.is_empty() {
        println!("{}", outcome.rendered);
    }
    if !outcome.heading.is_empty() {
        println!("{}", outcome.heading);
    }
    let mut all_ok = true;
    for (desc, ok) in outcome.checks {
        println!("  [{}] {desc}", if ok { "PASS" } else { "FAIL" });
        all_ok &= ok;
    }

    if write_files && !outcome.files.is_empty() {
        require_dir("results");
        let mut paths = Vec::with_capacity(outcome.files.len());
        for (name, body) in &outcome.files {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rum_btree::BTree;

    #[test]
    fn op_costs_measure_something() {
        let mut t = BTree::new();
        t.bulk_load(&dataset(10_000)).unwrap();
        let profile = t.space_profile();
        assert!(t.tracker().snapshot().page_writes > 0);
        // 10k records = ~40 pages minimum
        assert!(profile.total_bytes() as f64 / rum_core::PAGE_SIZE as f64 > 39.0);
        assert!(profile.space_amplification() >= 1.0);
        let pq = pages_per_op(&mut t, &point_queries(10_000, 32));
        assert!(pq >= 1.0);
        let rq = pages_per_op(&mut t, &range_queries(10_000, 256, 8));
        assert!(rq > pq);
        let ins = pages_per_op(&mut t, &inserts(10_000, 16));
        assert!(ins >= 1.0);
        let upd = pages_per_op(&mut t, &updates(10_000, 16));
        assert!(upd >= 1.0);
    }

    #[test]
    fn dataset_is_sorted_unique() {
        let d = dataset(1000);
        assert!(d.windows(2).all(|w| w[0].key < w[1].key));
    }
}
