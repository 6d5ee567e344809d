//! Scale sweep: one access method absorbing a multi-million-op stream,
//! sharded K ways.
//!
//! The figures run at sizes where a materialized `Vec<Op>` is harmless;
//! this sweep is where the streaming machinery earns its keep. For each
//! (n, K) cell a `ShardedMethod` of K B+-trees takes `n` operations drawn
//! straight from an [`OpStream`] — never materialized — in batches of
//! [`DEFAULT_STREAM_BATCH`] ops, reads and writes mixed as the stream has
//! them, executed across K shard workers.
//!
//! What the sweep demonstrates, in RUM terms:
//!
//! * RO / UO and every counted byte are **identical for every execution
//!   strategy of the same structure** — the cost model is deterministic, so
//!   concurrency is free along those axes (verified per cell against a
//!   serial per-op run at the smallest n).
//! * MO grows with K: K trees hold K roots, K directories, K half-empty
//!   tail pages. Sharding spends memory to buy wall-clock time.
//! * `ops/s` is the only column concurrency improves. Batches ride the
//!   wrapper's **persistent worker pool** (long-lived `rum-shard-{w}`
//!   threads, one queue handoff per shard per batch), so even on a 1-core
//!   host extra shards cost only the handoff and partition bookkeeping —
//!   the sweep's ratio-floor check pins K>1 within 3× of K=1 (6× on a
//!   single-core host, where the pool is oversubscribed), which the old
//!   spawn-threads-per-batch dispatch missed by 25–60×.
//! * That handoff is amortized over a full batch only if a batch ends
//!   where it is full. The wall floor is a clock and can flake; beside it
//!   each cell's dispatch count, read from the wrapper, must stay within
//!   `⌈n / batch⌉ + 1`. A schedule that cuts batches at class switches (a
//!   balanced mix then ships about two ops per dispatch) fails that on any
//!   runner, single-core ones included. The `.txt` table prints the
//!   measured `ops/batch`; the gated CSV does not carry it.
//!
//! Cells run traced ([`run_stream_sharded_traced`]) with a whole-run
//! window and a disabled sink, so the `p50ns`/`p99ns` columns carry the
//! merged per-worker latency distributions at zero cost-model effect.

use rum_btree::BTree;
use rum_core::runner::{run_stream, run_stream_sharded_traced, RumReport, DEFAULT_STREAM_BATCH};
use rum_core::trace::{noop_sink, TraceCollector};
use rum_core::workload::{OpMix, OpStream, WorkloadSpec};
use rum_core::{AccessMethod, ShardedMethod};

use crate::{Outcome, Scale, Table, Target};

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Operation counts to sweep (the paper-scale axis).
    pub ns: Vec<usize>,
    /// Shard counts to sweep.
    pub ks: Vec<usize>,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            ns: vec![100_000, 1_000_000, 10_000_000],
            ks: vec![1, 2, 4, 8],
        }
    }
}

impl ScaleConfig {
    /// The reduced sweep the CI smoke job runs: n = 10^5, K ∈ {1, 2, 8}.
    /// K = 8 is there for the throughput ratio floor — the widest fan-out
    /// is where dispatch-overhead regressions show first (under
    /// `RUM_THREADS=2` it also exercises workers serving multiple shard
    /// queues).
    pub fn smoke() -> Self {
        ScaleConfig {
            ns: vec![100_000],
            ks: vec![1, 2, 8],
        }
    }
}

/// One measured (n, K) cell.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Operations executed.
    pub n: usize,
    /// Shard count.
    pub k: usize,
    pub report: RumReport,
    /// [`ShardedMethod::dispatches`] and
    /// [`ShardedMethod::dispatched_ops`] after the run.
    pub dispatches: u64,
    pub dispatched_ops: u64,
    /// Whether a serial per-op cross-check ran for this cell, and whether
    /// its RO/UO/MO matched bit-for-bit.
    pub verified: Option<bool>,
}

/// The workload behind every cell: balanced mix over a live set one tenth
/// the op count, so the stream exercises every op kind at scale while the
/// initial bulk load stays a fraction of the run.
pub fn spec_for(n: usize) -> WorkloadSpec {
    WorkloadSpec {
        initial_records: (n / 10).max(1),
        operations: n,
        mix: OpMix::BALANCED,
        seed: 0x5CA1_E000 + n as u64,
        ..Default::default()
    }
}

fn sharded(k: usize) -> ShardedMethod {
    ShardedMethod::new(k, |_| Box::new(BTree::new()) as Box<dyn AccessMethod>)
}

/// Run the sweep. Cells run serially (each cell already uses the shard
/// workers); rows come back in (n, K) sweep order.
///
/// Every K at the *smallest* n is re-run serially, per-op, and the batched
/// report's RO/UO/MO must match bit-for-bit.
pub fn run(config: &ScaleConfig) -> Vec<ScaleRow> {
    let smallest = config.ns.iter().copied().min();
    let mut rows = Vec::with_capacity(config.ns.len() * config.ks.len());
    for &n in &config.ns {
        let spec = spec_for(n);
        for &k in &config.ks {
            eprintln!("[scale] n={n} K={k} ...");
            let t0 = std::time::Instant::now();
            let mut method = sharded(k);
            // Whole-run window + disabled sink: the collector exists only
            // to merge the per-worker latency histograms into p50/p99.
            let mut trace = TraceCollector::new(spec.operations, noop_sink());
            let report = run_stream_sharded_traced(
                &mut method,
                OpStream::new(&spec),
                DEFAULT_STREAM_BATCH,
                &mut trace,
            )
            .expect("sharded stream run");
            eprintln!(
                "[scale]   {:.1}s, {:.0} ops/s",
                t0.elapsed().as_secs_f32(),
                report.ops_per_sec
            );
            let verified = if Some(n) == smallest {
                let serial = run_stream(&mut sharded(k), OpStream::new(&spec)).expect("serial run");
                Some(serial.counted_diff(&report).is_none())
            } else {
                None
            };
            rows.push(ScaleRow {
                n,
                k,
                report,
                dispatches: method.dispatches(),
                dispatched_ops: method.dispatched_ops(),
                verified,
            });
        }
    }
    rows
}

/// The sweep's table: `n,k,` + the standard report columns; the text
/// adds each cell's measured ops per dispatch and its serial cross-check.
pub fn table() -> Table<ScaleRow> {
    Table::<ScaleRow>::default()
        .col("n", "ops:>10", |r| r.n)
        .col("k", "K:>3", |r| r.k)
        .report("  ", |r| &r.report)
        .col("", "ops/batch:>9", |r| {
            let mark = match r.verified {
                Some(true) => "  [serial ✓]",
                Some(false) => "  [serial MISMATCH]",
                None => "",
            };
            let per_batch = r.dispatched_ops as f64 / r.dispatches.max(1) as f64;
            format!("{per_batch:>9.1}{mark}")
        })
}

/// The sweep's claims, checked. Any `false` fails the smoke job.
pub fn checks(rows: &[ScaleRow]) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    for r in rows {
        out.push((
            format!("n={} K={}: RO/UO/MO all finite", r.n, r.k),
            r.report.ro.is_finite() && r.report.uo.is_finite() && r.report.mo.is_finite(),
        ));
        out.push((
            format!("n={} K={}: amplifications at or above 1", r.n, r.k),
            r.report.ro >= 1.0 && r.report.uo >= 1.0 && r.report.mo >= 1.0,
        ));
        if let Some(ok) = r.verified {
            out.push((
                format!(
                    "n={} K={}: streamed concurrent run matches serial per-op run bit-for-bit",
                    r.n, r.k
                ),
                ok,
            ));
        }
        let full_batches = r.n.div_ceil(DEFAULT_STREAM_BATCH) as u64;
        out.push((
            format!(
                "n={} K={}: {} dispatches, at most ⌈n/{}⌉ + 1 = {} (a batch ends only where it \
                 is full)",
                r.n,
                r.k,
                r.dispatches,
                DEFAULT_STREAM_BATCH,
                full_batches + 1
            ),
            r.dispatches <= full_batches + 1,
        ));
    }
    // MO is the axis sharding perturbs: K structures hold K roots and K
    // tails of slack. The *direction* flips with scale (K root-only trees
    // can carry less aux than one multi-level tree), so the check pins the
    // magnitude: K must stay a bounded perturbation of K=1, never a
    // wholesale change in the structure's space story. Below ~10^4 records
    // per shard the perturbation is all node-packing noise, so the check
    // applies only at sweep scale.
    for &n in rows.iter().map(|r| r.n).collect::<Vec<_>>().iter() {
        let of_n: Vec<&ScaleRow> = rows.iter().filter(|r| r.n == n && n >= 50_000).collect();
        if of_n.len() >= 2 {
            let lo = of_n.iter().map(|r| r.report.mo).fold(f64::MAX, f64::min);
            let hi = of_n.iter().map(|r| r.report.mo).fold(f64::MIN, f64::max);
            out.push((
                format!("n={n}: MO across K stays a bounded perturbation (≤1.5x spread)"),
                hi <= lo * 1.5,
            ));
            break; // one representative n keeps the check list short
        }
    }
    // Throughput floor: sharding buys MO to absorb traffic, so it must
    // never *collapse* wall-clock throughput. With the persistent worker
    // pool a batch costs one queue handoff per shard, so K>1 stays within
    // a small factor of K=1 even single-core; the floor is deliberately
    // loose — it only needs to catch a return of the
    // spawn-threads-per-batch regression (which missed it by 25–60×)
    // without flaking on scheduler noise. 3× holds when the host can run
    // two threads in parallel; on a single core the pool is oversubscribed
    // (workers + feeder time-slice one CPU) and the measured ratio swings
    // up to ~4.5×, so the floor widens to 6× there. Tiny cells are clock
    // noise, so the floor applies only at sweep scale, like the MO check.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let floor = if cores >= 2 { 3.0 } else { 6.0 };
    let mut ns: Vec<usize> = rows.iter().map(|r| r.n).collect();
    ns.dedup();
    for n in ns {
        if n < 50_000 {
            continue;
        }
        let Some(base) = rows
            .iter()
            .find(|r| r.n == n && r.k == 1)
            .map(|r| r.report.ops_per_sec)
        else {
            continue;
        };
        if !base.is_finite() {
            continue;
        }
        for r in rows.iter().filter(|r| r.n == n && r.k > 1) {
            out.push((
                format!(
                    "n={n} K={}: ops/s within {floor}x of K=1 (dispatch-overhead floor)",
                    r.k
                ),
                r.report.ops_per_sec * floor >= base,
            ));
        }
    }
    out
}

/// `rum-bench scale_sweep [--quick | --smoke]`: `--quick` caps n at 10^6.
pub fn experiment(scale: Scale, _: &Target) -> Outcome {
    let config = match scale {
        Scale::Smoke => ScaleConfig::smoke(),
        Scale::Quick => ScaleConfig {
            ns: vec![100_000, 1_000_000],
            ..Default::default()
        },
        Scale::Full => ScaleConfig::default(),
    };
    let rows = run(&config);
    let table = table();
    let rendered = format!(
        "=== Scale sweep: streaming balanced workload over K sharded B+-trees ===\n{}",
        table.text(&rows)
    );
    Outcome::sweep("scale_sweep", rendered, table.csv(&rows), checks(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_is_verified_and_finite() {
        let config = ScaleConfig {
            ns: vec![2000],
            ks: vec![1, 2, 4],
        };
        let rows = run(&config);
        assert_eq!(rows.len(), 3);
        for (desc, ok) in checks(&rows) {
            assert!(ok, "failed check: {desc}");
        }
        assert!(rows.iter().all(|r| r.verified == Some(true)));
        // Traced cells carry real latency quantiles (bugfix: these were
        // permanently 0 on the sharded path).
        assert!(rows.iter().all(|r| r.report.p50_ns > 0));
        assert!(rows.iter().all(|r| r.report.p99_ns >= r.report.p50_ns));
        let csv = table().csv(&rows);
        assert_eq!(csv.lines().count(), 4);
        assert!(!csv.contains("inf") && !csv.contains("NaN"));
    }
}
