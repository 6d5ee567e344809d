//! Fault storm: access methods × seeded fault profiles × retry policies,
//! with every served answer held to the one oracle
//! ([`rum_core::oracle`]) and every cell's bill compared with a
//! fault-free twin's.
//!
//! Three guarantees, one per cell kind:
//!
//! 1. **Converge** — under recurring *transient* faults, a retry policy
//!    whose `max_attempts` exceeds the profile's burst bound makes every
//!    operation succeed, the final contents are bit-identical to the
//!    fault-free reference, and the price is visible in the RUM ledger:
//!    the extra charged page operations equal the injected fault count
//!    exactly (every retried attempt is paid for, nothing else is).
//! 2. **Detect** — under *silent bit flips*, checksum-sealed pages turn
//!    corruption into [`RumError::CorruptPage`]: up to the first detected
//!    fault every served answer matches the reference, and wrong data is
//!    never returned. A post-run [`scrub`](rum_storage::Pager::scrub)
//!    walks the surviving seals and reports any remaining damage.
//! 3. **Heal** — the same bit-flip profile under a WAL-wrapped method:
//!    detected corruption triggers quarantine + rebuild from the
//!    committed log prefix onto replacement storage *transparently*, so
//!    every operation of the whole run answers exactly like the
//!    reference and the final contents are bit-identical — the flips
//!    are invisible except as repair events and repair I/O. (Rebuilding
//!    onto storage that keeps decaying is bounded instead: `Durable`
//!    gives up after `MAX_HEAL_CYCLES` rebuilds and surfaces the error.)
//!
//! A hard read error is not injected: the pager surfaces it on the first
//! attempt and never retries it, which unit tests in `rum-storage` pin.
//! Crash-shaped faults (power loss, torn writes, failed flushes) have
//! their own matrix in [`crash`](crate::crash).

use std::sync::{Arc, Mutex};

use rum_core::oracle::Oracle;
use rum_core::trace::{EventKind, MemorySink};
use rum_core::workload::{OpMix, Workload, WorkloadSpec};
use rum_core::{AccessMethod, CostSnapshot, RumError};
use rum_lsm::LsmTree;
use rum_storage::{
    CheckedDevice, Durable, FaultDevice, FaultInjector, FaultPlan, FaultProfile, MemDevice,
    RetryPolicy, ScrubReport,
};

use crate::{Outcome, Scale, Table, Target};

/// Matrix configuration.
#[derive(Clone, Debug)]
pub struct FaultStormConfig {
    /// Records bulk-loaded before the op stream.
    pub initial_records: usize,
    /// Operations per cell.
    pub operations: usize,
    /// Base seed for the workload and every fault profile.
    pub seed: u64,
}

impl Default for FaultStormConfig {
    fn default() -> Self {
        FaultStormConfig {
            initial_records: 2000,
            operations: 2000,
            seed: 0xFA_17_57,
        }
    }
}

impl FaultStormConfig {
    /// The reduced matrix the CI smoke job runs.
    pub fn smoke() -> Self {
        FaultStormConfig {
            initial_records: 400,
            operations: 400,
            ..Default::default()
        }
    }
}

/// What a cell claims (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CellKind {
    #[default]
    Converge,
    Detect,
    Heal,
}

impl CellKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            CellKind::Converge => "converge",
            CellKind::Detect => "detect",
            CellKind::Heal => "heal",
        }
    }
}

/// One (method, profile, policy) cell, measured.
#[derive(Clone, Debug, Default)]
pub struct StormRow {
    pub method: String,
    pub profile: String,
    pub policy: String,
    pub kind: CellKind,
    /// Operations executed (all of them, unless a Detect cell stopped at
    /// its first surfaced corruption).
    pub acked_ops: usize,
    /// Transient read/write faults the injector fired.
    pub faults_injected: u64,
    /// Silent bit flips the injector planted (across rebuilds, for Heal).
    pub flips_injected: u64,
    /// Op-phase `CorruptPage` surfaces (Detect cells stop at the first).
    pub detected: u64,
    /// Quarantine + rebuild cycles (Heal cells; `RepairComplete` events).
    pub repairs: u64,
    /// Sealed pages the post-run scrub walked / found damaged (bare
    /// checked cells only; the Heal wrapper scrubs implicitly by reading).
    pub scrub_pages: u64,
    pub scrub_corrupt: u64,
    /// Charged page ops (reads + writes) minus the fault-free reference's
    /// — the retry traffic, priced in the same currency as everything.
    pub extra_page_ops: i64,
    /// Simulated backoff nanoseconds charged beyond the reference.
    pub extra_sim_ns: i64,
    /// Checksum sidecar bytes at end of run — the MO the seal costs.
    pub checksum_bytes: u64,
    /// Served answers that diverged from the fault-free reference —
    /// **must be zero everywhere**: wrong data is the one unacceptable
    /// outcome of the whole experiment.
    pub wrong_data: u64,
    /// Errors the cell's contract does not allow (anything in Converge /
    /// Heal; anything but `CorruptPage` in Detect).
    pub surfaced_errors: u64,
    /// Final contents bit-identical to the reference (Converge / Heal).
    pub contents_exact: bool,
}

impl StormRow {
    /// A cell before it runs, every tally zero, announced on stderr.
    fn new(method: String, profile: &str, policy: &str, kind: CellKind) -> Self {
        eprintln!(
            "[storm] {method} / {profile} / {policy} ({})",
            kind.as_str()
        );
        StormRow {
            method,
            profile: profile.into(),
            policy: policy.into(),
            kind,
            ..Default::default()
        }
    }
}

fn workload(config: &FaultStormConfig) -> Workload {
    Workload::generate(&WorkloadSpec {
        initial_records: config.initial_records,
        operations: config.operations,
        mix: OpMix::BALANCED,
        seed: config.seed,
        ..Default::default()
    })
}

/// The faulty device stack every cell runs on: checksum seals *above* the
/// fault layer, so injected flips land under the seal and must be caught.
type StormDevice = CheckedDevice<FaultDevice<MemDevice>>;

fn storm_device(injector: &Arc<FaultInjector>) -> StormDevice {
    CheckedDevice::new(FaultDevice::new(MemDevice::new(), Arc::clone(injector)))
}

/// One cell's kind, profile and retry policy, each named.
type Leg = (
    CellKind,
    &'static str,
    FaultProfile,
    &'static str,
    RetryPolicy,
);

/// The cells of one method family: the profiles × policies of its
/// Converge cells, the clean baseline first, then one Detect cell under
/// `flips`. Every transient pairing keeps `max_attempts > max_burst`,
/// which is the convergence precondition the storage layer proves.
fn legs(seed: u64, flips: FaultProfile) -> [Leg; 6] {
    let transient = FaultProfile::transient(seed ^ 0x7A17, 60_000, 1);
    let bursty = FaultProfile::transient(seed ^ 0xB0057, 90_000, 2);
    let clean = FaultProfile::none(seed);
    let (retry3, retry6) = (RetryPolicy::default(), RetryPolicy::attempts(6));
    let converge = CellKind::Converge;
    [
        (converge, "clean", clean, "retry-3", retry3),
        (converge, "transient", transient, "retry-3", retry3),
        (converge, "transient", transient, "retry-6", retry6),
        (converge, "bursty", bursty, "retry-3", retry3),
        (converge, "bursty", bursty, "retry-6", retry6),
        (CellKind::Detect, "bitflip", flips, "retry-3", retry3),
    ]
}

/// What the op phase costs on a fault-free twin of the cell: the
/// baseline the retry traffic is priced against.
fn reference_costs<M: AccessMethod>(
    make: impl Fn(&Arc<FaultInjector>) -> M,
    workload: &Workload,
) -> CostSnapshot {
    let mut reference = make(&FaultInjector::inert());
    reference.bulk_load(&workload.initial).expect("ref load");
    for &op in &workload.ops {
        op.apply(&mut reference).expect("fault-free reference op");
    }
    reference.tracker().snapshot()
}

/// Play the op stream through the oracle, tallying into `row`. An answer
/// (or invariant) the model disagrees with is wrong data; the method's
/// own error ends the run: detection in a Detect cell when it is
/// `CorruptPage`, a surfaced error anywhere else.
fn play<M: AccessMethod>(
    victim: &mut M,
    oracle: &mut Oracle,
    workload: &Workload,
    row: &mut StormRow,
) {
    for &op in &workload.ops {
        match oracle.step(victim, op).as_ref().map_err(|d| d.refusal()) {
            Ok(()) => row.acked_ops += 1,
            Err(None) => {
                row.acked_ops += 1;
                row.wrong_data += 1;
            }
            Err(Some(RumError::CorruptPage { .. })) if row.kind == CellKind::Detect => {
                // Detection is the contract: stop here, scrub below.
                row.detected += 1;
                break;
            }
            Err(Some(_)) => {
                row.surfaced_errors += 1;
                break;
            }
        }
    }
}

/// Run one Converge or Detect cell over a bare checked method built by
/// `make` with the leg's retry policy.
fn run_cell<M: AccessMethod>(
    make: impl Fn(&Arc<FaultInjector>, RetryPolicy) -> M,
    scrub: impl Fn(&mut M) -> rum_core::Result<ScrubReport>,
    checksum_bytes: impl Fn(&M) -> u64,
    workload: &Workload,
    (kind, profile_name, profile, policy_name, policy): Leg,
) -> StormRow {
    let make = |injector: &Arc<FaultInjector>| make(injector, policy);
    let ref_costs = reference_costs(make, workload);
    let injector = FaultInjector::with_profile(FaultPlan::None, Some(profile));
    let mut victim = make(&injector);
    let mut oracle = Oracle::load(&mut victim, &workload.initial).expect("victim load");
    let mut row = StormRow::new(victim.name(), profile_name, policy_name, kind);
    play(&mut victim, &mut oracle, workload, &mut row);
    // Snapshot the op-phase ledger first: the reference snapshot was taken
    // at the same point, so the delta isolates retry traffic — the final
    // contents scan and the scrub below charge both sides' ledgers later
    // or not at all.
    let costs = victim.tracker().snapshot();
    row.extra_page_ops = (costs.page_reads + costs.page_writes) as i64
        - (ref_costs.page_reads + ref_costs.page_writes) as i64;
    row.extra_sim_ns = costs.sim_time_ns as i64 - ref_costs.sim_time_ns as i64;
    // Tallies read here too: faults the contents scan / scrub fire later
    // would otherwise break the exact ops-equals-faults accounting.
    row.faults_injected = injector.transient_faults();
    row.flips_injected = injector.bitflips();
    if row.acked_ops == workload.ops.len() {
        row.contents_exact = oracle.finish(&mut victim).is_ok();
    }
    if let Ok(report) = scrub(&mut victim) {
        row.scrub_pages = report.pages_scanned as u64;
        row.scrub_corrupt = (report.corrupt.len() + report.unreadable.len()) as u64;
    }
    row.checksum_bytes = checksum_bytes(&victim);
    row
}

/// Run the Heal cell: the bit-flip profile under a WAL-wrapped LSM tree.
/// The *initial* device decays; when corruption is detected the wrapper
/// quarantines it and the factory rebuilds onto replacement storage (a
/// clean device) from checkpoint + committed WAL prefix — the model of
/// retiring a failing disk. Injectors are collected so the flip tally
/// spans every life of the structure.
fn run_heal_cell(
    make: impl Fn(&Arc<FaultInjector>, RetryPolicy) -> LsmTree<StormDevice> + Send + 'static,
    seed: u64,
    flip_ppm: u32,
    workload: &Workload,
) -> StormRow {
    let profile = FaultProfile::bitflips(seed ^ 0xF11B, flip_ppm);
    let injectors: Arc<Mutex<Vec<Arc<FaultInjector>>>> = Arc::default();
    let factory_injectors = Arc::clone(&injectors);
    let mut victim = Durable::new(move || {
        let mut list = factory_injectors.lock().expect("injector list");
        // First life decays; every rebuild is onto replacement storage.
        let injector = if list.is_empty() {
            FaultInjector::with_profile(FaultPlan::None, Some(profile))
        } else {
            FaultInjector::inert()
        };
        list.push(Arc::clone(&injector));
        make(&injector, RetryPolicy::default())
    });
    let sink = MemorySink::shared();
    victim.set_trace_sink(Arc::clone(&sink) as _);
    let mut oracle = Oracle::load(&mut victim, &workload.initial).expect("heal load");
    let mut row = StormRow::new(victim.name(), "bitflip", "retry-3", CellKind::Heal);
    play(&mut victim, &mut oracle, workload, &mut row);
    if row.acked_ops == workload.ops.len() {
        row.contents_exact = oracle.finish(&mut victim).is_ok();
    }
    for injector in injectors.lock().expect("injector list").iter() {
        row.flips_injected += injector.bitflips();
        row.faults_injected += injector.transient_faults();
    }
    row.repairs = sink
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::RepairComplete)
        .count() as u64;
    row.detected = sink
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::CorruptionDetected)
        .count() as u64;
    row.checksum_bytes = victim.inner().device().checksum_bytes();
    row
}

/// Run the full matrix: B+-tree and LSM tree over checksum-sealed faulty
/// devices (Converge + Detect), plus the WAL-wrapped LSM tree (Heal).
pub fn run(config: &FaultStormConfig) -> Vec<StormRow> {
    let workload = workload(config);
    let btree = |injector: &Arc<FaultInjector>, policy| {
        let config = rum_btree::BTreeConfig::default();
        let mut tree = rum_btree::BTree::with_device(storm_device(injector), config);
        tree.set_retry_policy(policy);
        tree
    };
    // A small memtable forces real device traffic (flushes + compaction),
    // so the fault layer has pages to flip and the retry layer work to do.
    let lsm = |injector: &Arc<FaultInjector>, policy| {
        let config = rum_lsm::LsmConfig {
            memtable_records: 32,
            ..Default::default()
        };
        let mut tree = LsmTree::with_device(storm_device(injector), config);
        tree.set_retry_policy(policy);
        tree
    };
    let flips = |ppm| FaultProfile::bitflips(config.seed ^ 0xF11B, ppm);
    let mut rows = Vec::new();
    for leg in legs(config.seed, flips(40_000)) {
        let cell = run_cell(
            btree,
            |t| t.scrub(),
            |t| t.device().checksum_bytes(),
            &workload,
            leg,
        );
        rows.push(cell);
    }
    // The LSM batches work into far fewer (but larger-consequence) page
    // writes than the B+-tree, so its flip rate is higher to plant a
    // comparable number of flips per run.
    for leg in legs(config.seed.rotate_left(13), flips(150_000)) {
        let cell = run_cell(
            lsm,
            |t| t.scrub(),
            |t| t.device().checksum_bytes(),
            &workload,
            leg,
        );
        rows.push(cell);
    }
    // The WAL-wrapped LSM tree: transparent healing.
    rows.push(run_heal_cell(lsm, config.seed, 80_000, &workload));
    rows
}

/// The matrix's table, one row per cell.
pub fn table() -> Table<StormRow> {
    Table::<StormRow>::default()
        .col("method", "method:<16", |r| r.method.clone())
        .col("profile", "profile:<10", |r| r.profile.clone())
        .col("policy", "policy:<8", |r| r.policy.clone())
        .col("kind", "kind:<9", |r| r.kind.as_str())
        .col("acked_ops", "acked:>6", |r| r.acked_ops)
        .col("faults", "faults:>7", |r| r.faults_injected)
        .col("flips", "flips:>6", |r| r.flips_injected)
        .col("detected", "", |r| r.detected)
        .col("", "caught:>7", |r| r.detected + r.scrub_corrupt)
        .col("repairs", "repairs:>7", |r| r.repairs)
        .col("scrub_pages", "", |r| r.scrub_pages)
        .col("scrub_corrupt", "", |r| r.scrub_corrupt)
        .col("extra_page_ops", "retry-ops:>9", |r| r.extra_page_ops)
        .col("extra_sim_ns", "", |r| r.extra_sim_ns)
        .col("checksum_bytes", "seal-bytes:>10", |r| r.checksum_bytes)
        .col("wrong_data", "wrong:>6", |r| r.wrong_data)
        .col("surfaced_errors", "", |r| r.surfaced_errors)
        .col("contents_exact", "", |r| r.contents_exact)
        .col("", "contents:>8", |r| match (r.kind, r.contents_exact) {
            (CellKind::Detect, _) => "n/a",
            (_, true) => "exact",
            (_, false) => "MISMATCH",
        })
}

/// The matrix's claims, checked. Any `false` fails the smoke job.
pub fn checks(rows: &[StormRow]) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    for r in rows {
        let cell = format!("{} / {} / {}", r.method, r.profile, r.policy);
        out.push((
            format!("{cell}: no served answer ever diverged from the fault-free reference"),
            r.wrong_data == 0,
        ));
        match r.kind {
            CellKind::Converge => {
                out.push((
                    format!("{cell}: every op converged under retries"),
                    r.surfaced_errors == 0 && r.acked_ops > 0,
                ));
                out.push((
                    format!("{cell}: final contents bit-identical to the reference"),
                    r.contents_exact,
                ));
                out.push((
                    format!(
                        "{cell}: retry traffic priced exactly ({} extra page ops = {} faults)",
                        r.extra_page_ops, r.faults_injected
                    ),
                    r.extra_page_ops == r.faults_injected as i64,
                ));
                out.push((
                    format!("{cell}: backoff time charged iff faults fired"),
                    (r.extra_sim_ns > 0) == (r.faults_injected > 0),
                ));
                out.push((
                    format!("{cell}: post-run scrub found the store clean"),
                    r.scrub_corrupt == 0 && r.scrub_pages > 0,
                ));
            }
            CellKind::Detect => {
                out.push((
                    format!("{cell}: only CorruptPage ever surfaced"),
                    r.surfaced_errors == 0,
                ));
                out.push((
                    format!("{cell}: flips were planted and corruption was caught, not served"),
                    r.flips_injected > 0 && (r.detected + r.scrub_corrupt) > 0,
                ));
            }
            CellKind::Heal => {
                out.push((
                    format!("{cell}: flips healed transparently, no error reached the caller"),
                    r.surfaced_errors == 0 && r.acked_ops > 0,
                ));
                out.push((
                    format!("{cell}: final contents bit-identical to the reference"),
                    r.contents_exact,
                ));
                out.push((
                    format!(
                        "{cell}: corruption was detected and repaired ({} detections, {} repairs)",
                        r.detected, r.repairs
                    ),
                    r.flips_injected > 0 && r.detected > 0 && r.repairs > 0,
                ));
            }
        }
        out.push((
            format!("{cell}: the checksum sidecar's MO is accounted"),
            r.checksum_bytes > 0,
        ));
    }
    out
}

/// `rum-bench fault_storm [--smoke]`.
pub fn experiment(scale: Scale, _: &Target) -> Outcome {
    let rows = run(&scale.config(FaultStormConfig::smoke));
    let table = table();
    let rendered = format!(
        "=== Fault storm: retry convergence, corruption detection, transparent healing ===\n\n{}",
        table.text(&rows)
    );
    Outcome::sweep("fault_storm", rendered, table.csv(&rows), checks(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_storm_passes_every_check() {
        let config = FaultStormConfig {
            initial_records: 300,
            operations: 300,
            seed: 0xFA_17_57,
        };
        let rows = run(&config);
        // 2 methods × (5 converge + 1 detect) + 1 heal cell.
        assert_eq!(rows.len(), 13);
        for (desc, ok) in checks(&rows) {
            assert!(ok, "failed check: {desc}");
        }
        let csv = table().csv(&rows);
        assert_eq!(csv.lines().count(), 1 + 13);
    }

    #[test]
    fn storm_is_deterministic_per_seed() {
        let config = FaultStormConfig {
            initial_records: 200,
            operations: 200,
            seed: 42,
        };
        let a = table().csv(&run(&config));
        let b = table().csv(&run(&config));
        assert_eq!(a, b, "same seed must reproduce the matrix bit-for-bit");
    }
}
