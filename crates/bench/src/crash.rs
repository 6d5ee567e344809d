//! Crash matrix: deterministic crash points × workloads, over the
//! WAL-wrapped access methods.
//!
//! Two questions, answered per (method, workload) cell:
//!
//! 1. **What does durability cost in RUM terms?** The same workload runs
//!    on the bare method and on its `Durable` wrapper; UO-with-WAL must
//!    strictly exceed UO-without, and the gap must be *exactly* the WAL
//!    traffic: the op-phase write-byte delta equals `wal.synced_total()`
//!    to the byte, and `ΔUO == WAL bytes / logical write bytes`.
//! 2. **Is recovery exact?** For each seeded crash point — clean power
//!    loss, torn write, or failed flush — the workload is driven until the
//!    fault fires under the oracle ([`rum_core::oracle`]), the structure
//!    recovers, and its full contents must be bit-identical to the
//!    oracle's model, which holds exactly the acknowledged (committed)
//!    operation prefix. A torn final WAL record must be
//!    detected and discarded somewhere in the matrix, never replayed.

use rum_core::oracle::Oracle;
use rum_core::runner::run_stream;
use rum_core::workload::{OpMix, Workload, WorkloadSpec};
use rum_core::AccessMethod;
use rum_storage::{splitmix64, Durable, FaultInjector, FaultPlan};

use crate::{Outcome, Scale, Table, Target};

/// Matrix configuration.
#[derive(Clone, Debug)]
pub struct CrashConfig {
    /// Records bulk-loaded before the op stream.
    pub initial_records: usize,
    /// Operations per workload.
    pub operations: usize,
    /// Seeded crash points per (method, workload) cell, cycling through
    /// clean crash / torn write / failed flush.
    pub crash_points: usize,
    /// Base seed for crash-point selection.
    pub seed: u64,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            initial_records: 2000,
            operations: 2000,
            crash_points: 12,
            seed: 0xC4A5_4000,
        }
    }
}

impl CrashConfig {
    /// The reduced matrix the CI smoke job runs.
    pub fn smoke() -> Self {
        CrashConfig {
            initial_records: 400,
            operations: 400,
            crash_points: 6,
            ..Default::default()
        }
    }
}

/// The logging-cost comparison of one (method, workload) cell.
#[derive(Clone, Debug)]
pub struct UoRow {
    pub method: String,
    pub workload: String,
    pub uo_bare: f64,
    pub uo_wal: f64,
    /// WAL bytes synced during the op phase.
    pub wal_bytes: u64,
    /// Op-phase write-byte delta (with − without).
    pub delta_bytes: i64,
    /// Logical write bytes of the op phase (identical in both runs).
    pub logical_write_bytes: u64,
}

impl UoRow {
    /// The write-byte delta is exactly the WAL traffic.
    pub fn delta_is_exact(&self) -> bool {
        self.delta_bytes >= 0 && self.delta_bytes as u64 == self.wal_bytes
    }

    /// `ΔUO == WAL bytes / logical bytes` (up to float rounding).
    pub fn uo_delta_is_predicted(&self) -> bool {
        let predicted = self.wal_bytes as f64 / self.logical_write_bytes as f64;
        let measured = self.uo_wal - self.uo_bare;
        (measured - predicted).abs() <= 1e-9 * predicted.max(1.0)
    }
}

/// One recovered crash point.
#[derive(Clone, Debug)]
pub struct CrashRow {
    pub method: String,
    pub workload: String,
    /// Human-readable fault plan (`crash@B`, `torn@B`, `flush#N`).
    pub plan: String,
    /// Operations acknowledged (returned `Ok`) before the fault fired.
    pub acked_ops: usize,
    /// Write operations among the acknowledged prefix — what recovery
    /// must reproduce.
    pub acked_writes: usize,
    /// Committed records the WAL replay re-applied.
    pub committed_ops: usize,
    /// Whether replay detected (and discarded) a torn tail.
    pub torn_tail: bool,
    /// Recovered contents bit-identical to the committed-prefix reference.
    pub recovered_exact: bool,
}

/// Full matrix results.
#[derive(Clone, Debug, Default)]
pub struct CrashMatrix {
    pub uo: Vec<UoRow>,
    pub cells: Vec<CrashRow>,
}

fn workloads(config: &CrashConfig) -> Vec<(&'static str, Workload)> {
    [
        ("write-heavy", OpMix::WRITE_HEAVY),
        ("balanced", OpMix::BALANCED),
    ]
    .into_iter()
    .map(|(name, mix)| {
        let spec = WorkloadSpec {
            initial_records: config.initial_records,
            operations: config.operations,
            mix,
            seed: config.seed ^ name.len() as u64,
            ..Default::default()
        };
        (name, Workload::generate(&spec))
    })
    .collect()
}

/// Run every cell for one method family. `make` builds the bare structure
/// and, wrapped in [`Durable`], the WAL-logged one (with an armed injector
/// on the crash cells), so both are configured identically.
fn run_method<M, F>(make: F, config: &CrashConfig, out: &mut CrashMatrix)
where
    M: AccessMethod,
    F: Fn() -> M + Copy + Send + 'static,
{
    for (wname, workload) in workloads(config) {
        // --- logging-cost comparison -------------------------------------
        let mut bare = make();
        let bare_report = run_stream(&mut bare, &workload).expect("bare run");
        let mut durable = Durable::new(make);
        let wal_report = run_stream(&mut durable, &workload).expect("durable run");
        let method = durable.name();
        eprintln!(
            "[crash] {method} / {wname}: UO comparison + {} crash points",
            config.crash_points
        );
        let wal_bytes = durable.wal().synced_total();
        out.uo.push(UoRow {
            method: method.clone(),
            workload: wname.into(),
            uo_bare: bare_report.uo,
            uo_wal: wal_report.uo,
            wal_bytes,
            delta_bytes: wal_report.write_costs.total_write_bytes() as i64
                - bare_report.write_costs.total_write_bytes() as i64,
            logical_write_bytes: wal_report.write_costs.logical_write_bytes,
        });

        // --- seeded crash points -----------------------------------------
        let write_ops = workload.ops.iter().filter(|o| !o.is_read()).count() as u64;
        for point in 0..config.crash_points {
            let seed = splitmix64(config.seed ^ (out.cells.len() as u64) << 8 | point as u64);
            let (plan, label) = match point % 3 {
                0 => {
                    let at = seed % wal_bytes.max(1);
                    (FaultPlan::crash_at(at), format!("crash@{at}"))
                }
                1 => {
                    let at = seed % wal_bytes.max(1);
                    (FaultPlan::torn_at(at), format!("torn@{at}"))
                }
                // Every logged write op syncs twice (record, commit), so
                // the nth flush always exists.
                _ => {
                    let nth = seed % (2 * write_ops.max(1)) + 1;
                    (FaultPlan::fail_flush(nth), format!("flush#{nth}"))
                }
            };
            let mut victim = Durable::with_injector(make, FaultInjector::new(plan));
            // The oracle's model advances on acknowledged ops only, so
            // after the crash it is the acknowledged prefix.
            let mut oracle = Oracle::load(&mut victim, &workload.initial).expect("bulk load");
            let acked = oracle
                .step_until_crash(&mut victim, workload.ops.iter().copied())
                .unwrap_or_else(|d| panic!("unexpected outcome under {label}: {d:?}"));
            let crashed = acked < workload.ops.len();
            let acked_writes = workload.ops[..acked]
                .iter()
                .filter(|o| !o.is_read())
                .count();
            assert!(crashed, "{method}/{wname}/{label}: fault never fired");
            let report = victim.recover().expect("recovery");
            let recovered_exact = oracle.finish(&mut victim).is_ok();
            out.cells.push(CrashRow {
                method: method.clone(),
                workload: wname.into(),
                plan: label,
                acked_ops: acked,
                acked_writes,
                committed_ops: report.committed_ops,
                torn_tail: report.torn_tail,
                recovered_exact,
            });
        }
    }
}

/// Run the full matrix: WAL-wrapped LSM tree and append log, two op mixes,
/// `crash_points` seeded faults each.
pub fn run(config: &CrashConfig) -> CrashMatrix {
    let lsm_config = rum_lsm::LsmConfig {
        memtable_records: 256,
        ..Default::default()
    };
    let mut out = CrashMatrix::default();
    run_method(
        move || rum_lsm::LsmTree::with_config(lsm_config),
        config,
        &mut out,
    );
    // A log in front of a log: the minimum-UO design pays its durability
    // tax like everyone else, so Proposition 2's `UO → 1.0` becomes
    // `1.0 + WAL`.
    run_method(rum_columns::AppendLog::new, config, &mut out);
    out
}

/// One row of [`table`]: a [`UoRow`] in the `uo` section or a
/// [`CrashRow`] in the `cell` one.
pub enum Line<'a> {
    Uo(&'a UoRow),
    Cell(&'a CrashRow),
}

impl Line<'_> {
    fn uo(&self) -> &UoRow {
        let Line::Uo(r) = self else {
            unreachable!("only uo rows have uo columns")
        };
        r
    }

    fn cell(&self) -> &CrashRow {
        let Line::Cell(c) = self else {
            unreachable!("only cell rows have cell columns")
        };
        c
    }
}

impl CrashMatrix {
    /// Every row of [`table`], the `uo` section first.
    pub fn lines(&self) -> Vec<Line<'_>> {
        let uo = self.uo.iter().map(Line::Uo);
        uo.chain(self.cells.iter().map(Line::Cell)).collect()
    }
}

/// The matrix's one table: the `uo` and `cell` sections, tagged in the
/// CSV's first column and printed as two text tables.
pub fn table<'a>() -> Table<Line<'a>> {
    let either = |ok: bool, yes: &'static str, no: &'static str| if ok { yes } else { no };
    Table::<Line<'a>>::default()
        .sections("kind", |l| match l {
            Line::Uo(_) => "uo",
            Line::Cell(_) => "cell",
        })
        .col("method", "method:<18", |l| match l {
            Line::Uo(r) => r.method.clone(),
            Line::Cell(c) => c.method.clone(),
        })
        .col("workload", "workload:<12", |l| match l {
            Line::Uo(r) => r.workload.clone(),
            Line::Cell(c) => c.workload.clone(),
        })
        .section("cell")
        .col("plan", "plan:<14", |l| l.cell().plan.clone())
        .section("uo")
        .col("uo_bare:.6", "UO bare:>9.3", |l| l.uo().uo_bare)
        .col("uo_wal:.6", "UO +wal:>9.3", |l| l.uo().uo_wal)
        .col("", "ΔUO:>9.3", |l| l.uo().uo_wal - l.uo().uo_bare)
        .col("wal_bytes", "WAL bytes:>11", |l| l.uo().wal_bytes)
        .col("delta_bytes", "", |l| l.uo().delta_bytes)
        .col("", "exact:>7", move |l| {
            either(l.uo().delta_is_exact(), "yes", "NO")
        })
        .section("cell")
        .col("acked_ops", "acked:>7", |l| l.cell().acked_ops)
        .col("", "acked-wr:>9", |l| l.cell().acked_writes)
        .col("committed_ops", "committed:>9", |l| l.cell().committed_ops)
        .col("torn_tail", "", |l| l.cell().torn_tail)
        .col("", "torn:>5", move |l| {
            either(l.cell().torn_tail, "yes", "-")
        })
        .col("recovered_exact", "", |l| l.cell().recovered_exact)
        .col("", "recovered:>9", move |l| {
            either(l.cell().recovered_exact, "exact", "MISMATCH")
        })
}

/// The matrix's claims, checked. Any `false` fails the smoke job.
pub fn checks(matrix: &CrashMatrix) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    for r in &matrix.uo {
        out.push((
            format!(
                "{} / {}: UO with WAL strictly exceeds UO without",
                r.method, r.workload
            ),
            r.uo_wal > r.uo_bare,
        ));
        out.push((
            format!(
                "{} / {}: op-phase write-byte delta equals WAL bytes to the byte",
                r.method, r.workload
            ),
            r.delta_is_exact(),
        ));
        out.push((
            format!(
                "{} / {}: ΔUO equals WAL bytes / logical write bytes",
                r.method, r.workload
            ),
            r.uo_delta_is_predicted(),
        ));
    }
    for c in &matrix.cells {
        out.push((
            format!(
                "{} / {} / {}: recovery rebuilt exactly the committed prefix ({} write ops)",
                c.method, c.workload, c.plan, c.acked_writes
            ),
            c.recovered_exact && c.committed_ops == c.acked_writes,
        ));
    }
    out.push((
        "matrix detected and discarded at least one torn WAL tail".into(),
        matrix.cells.iter().any(|c| c.torn_tail),
    ));
    out
}

/// `rum-bench crash_matrix [--smoke]`.
pub fn experiment(scale: Scale, _: &Target) -> Outcome {
    let matrix = run(&scale.config(CrashConfig::smoke));
    let (table, lines) = (table(), matrix.lines());
    let (uo, cells) = lines.split_at(matrix.uo.len());
    let rendered = format!(
        "=== Crash matrix: WAL durability cost and recovery exactness ===\n\n\
         --- UO with logging folded in (op phase) ---\n{}\n--- Seeded crash points ---\n{}",
        table.text(uo),
        table.text(cells)
    );
    Outcome::sweep("crash_matrix", rendered, table.csv(&lines), checks(&matrix))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_matrix_passes_every_check() {
        let config = CrashConfig {
            initial_records: 200,
            operations: 200,
            crash_points: 6,
            seed: 7,
        };
        let matrix = run(&config);
        assert_eq!(matrix.uo.len(), 4, "2 methods x 2 workloads");
        assert_eq!(matrix.cells.len(), 24);
        for (desc, ok) in checks(&matrix) {
            assert!(ok, "failed check: {desc}");
        }
        let csv = table().csv(&matrix.lines());
        assert_eq!(csv.lines().count(), 1 + 4 + 24);
    }
}
