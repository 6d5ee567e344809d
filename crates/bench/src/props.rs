//! §2 of the paper: the three propositions about overhead-minimal designs.
//!
//! * **Prop 1** `min(RO) = 1.0 ⇒ UO = 2.0 ∧ MO → ∞` (direct-address array)
//! * **Prop 2** `min(UO) = 1.0 ⇒ RO → ∞ ∧ MO → ∞` (append-only log)
//! * **Prop 3** `min(MO) = 1.0 ⇒ RO = N ∧ UO = 1.0` (dense array)

use rum_columns::{AppendLog, DenseArray, DirectAddressArray};
use rum_core::runner::{default_threads, parallel_map};
use rum_core::{AccessMethod, Record, RECORD_SIZE};

use crate::{Outcome, Scale, Table, Target};

/// One measured data point of a proposition experiment.
#[derive(Clone, Debug)]
pub struct PropPoint {
    /// Sweep parameter (N, update rounds, ...).
    pub x: u64,
    pub ro: f64,
    pub uo: f64,
    pub mo: f64,
}

/// Proposition 1: direct addressing. Sweeps the max key (the universe) at
/// a fixed population, measuring RO of hits, UO of relocations, and MO.
pub fn proposition1(universe_sweep: &[u64]) -> Vec<PropPoint> {
    let population = 256u64;
    parallel_map(universe_sweep.to_vec(), default_threads(), |universe| {
        let mut a = DirectAddressArray::new();
        // `population` keys spread over [0, universe).
        let step = (universe / population).max(1);
        for i in 0..population {
            a.insert(i * step, i).unwrap();
        }
        // RO: read every key once.
        a.tracker().reset();
        for i in 0..population {
            a.get(i * step).unwrap();
        }
        let ro = a.tracker().snapshot().read_amplification();
        // UO: relocate each key by one slot (the paper's "change a
        // value": empty old block + write new block). Highest first so
        // the destination slot is always free even at step = 1.
        a.tracker().reset();
        for i in (0..population).rev() {
            a.relocate(i * step, i * step + 1).unwrap();
        }
        let uo = a.tracker().snapshot().write_amplification();
        let mo = a.space_profile().space_amplification();
        PropPoint {
            x: universe,
            ro,
            uo,
            mo,
        }
    })
}

/// Proposition 2: the append log. Fixed live population; each round
/// appends one more version of every key. UO stays 1.0 while RO and MO
/// climb without bound.
pub fn proposition2(rounds_sweep: &[u64]) -> Vec<PropPoint> {
    let population = 2048u64;
    parallel_map(rounds_sweep.to_vec(), default_threads(), |rounds| {
        let mut log = AppendLog::new();
        let initial: Vec<Record> = (0..population).map(|k| Record::new(k, 0)).collect();
        log.bulk_load(&initial).unwrap();
        log.tracker().reset();
        // Update every key except the probe keys, so their newest (and
        // only) version stays buried at the head of the log.
        for r in 1..=rounds {
            for k in 16..population {
                log.update(k, r).unwrap();
            }
        }
        let uo = log.tracker().snapshot().write_amplification();
        // RO: point-read the never-updated keys — the backward scan
        // must walk the entire accumulated history to reach them.
        log.tracker().reset();
        for k in 0..16 {
            log.get(k).unwrap();
        }
        let ro = log.tracker().snapshot().read_amplification();
        let mo = log.space_profile().space_amplification();
        PropPoint {
            x: rounds,
            ro,
            uo,
            mo,
        }
    })
}

/// Proposition 3: the dense array. Sweeps N; RO grows linearly, UO and MO
/// pin to 1.0.
pub fn proposition3(n_sweep: &[u64]) -> Vec<PropPoint> {
    parallel_map(n_sweep.to_vec(), default_threads(), |n| {
        let mut a = DenseArray::new();
        let recs: Vec<Record> = (0..n).map(|k| Record::new(k, 0)).collect();
        a.bulk_load(&recs).unwrap();
        // RO: in-domain misses force full scans (worst case = N).
        a.tracker().reset();
        for probe in 0..16u64 {
            a.get(n + probe + 1).unwrap();
        }
        let scanned_per_probe =
            a.tracker().snapshot().total_read_bytes() as f64 / 16.0 / RECORD_SIZE as f64;
        // UO: in-place updates.
        a.tracker().reset();
        for k in (0..n).step_by((n / 64).max(1) as usize) {
            a.update(k, 1).unwrap();
        }
        let uo = a.tracker().snapshot().write_amplification();
        let mo = a.space_profile().space_amplification();
        PropPoint {
            x: n,
            ro: scanned_per_probe, // in units of records = "RO = N"
            uo,
            mo,
        }
    })
}

/// One proposition's sweep: the parameter, then RO/UO/MO.
fn table(x: &str, ro: &str, mo: &str) -> Table<PropPoint> {
    Table::<PropPoint>::default()
        .col_after("  ", "", &format!("{x}:>12"), |p| p.x)
        .col("", ro, |p| p.ro)
        .col("", "UO:>8.3", |p| p.uo)
        .col("", mo, |p| p.mo)
}

/// Machine-checkable verdicts for the three propositions; used by the
/// binary (for PASS/FAIL lines) and by the integration tests.
pub fn verdicts() -> Vec<(String, bool)> {
    let mut v = Vec::new();
    let p1 = proposition1(&[256, 65_536]);
    v.push((
        "P1: RO is exactly 1.0".into(),
        p1.iter().all(|p| (p.ro - 1.0).abs() < 1e-9),
    ));
    v.push((
        "P1: UO is exactly 2.0 for relocations".into(),
        p1.iter().all(|p| (p.uo - 2.0).abs() < 1e-9),
    ));
    v.push((
        "P1: MO grows with the universe".into(),
        p1[1].mo > 100.0 * p1[0].mo,
    ));
    let p2 = proposition2(&[0, 16]);
    v.push(("P2: UO stays ~1.0 under appends".into(), p2[1].uo < 1.01));
    v.push((
        "P2: RO grows with history".into(),
        p2[1].ro > 4.0 * p2[0].ro.max(1.0),
    ));
    v.push((
        "P2: MO grows with history".into(),
        p2[1].mo > 4.0 * p2[0].mo,
    ));
    let p3 = proposition3(&[1 << 10, 1 << 16]);
    v.push((
        "P3: MO is exactly 1.0".into(),
        p3.iter().all(|p| (p.mo - 1.0).abs() < 1e-9),
    ));
    v.push((
        "P3: UO is exactly 1.0".into(),
        p3.iter().all(|p| (p.uo - 1.0).abs() < 1e-9),
    ));
    v.push((
        "P3: RO scales linearly with N".into(),
        (p3[1].ro / p3[0].ro - 64.0).abs() < 2.0,
    ));
    v
}

/// `rum-bench props`: the report and the three verdicts.
pub fn experiment(_: Scale, _: &Target) -> Outcome {
    let p1 = proposition1(&[256, 1024, 4096, 16384, 65536, 262_144]);
    let p2 = proposition2(&[0, 2, 4, 8, 16, 32]);
    let p3 = proposition3(&[1 << 10, 1 << 12, 1 << 14, 1 << 16]);
    Outcome {
        rendered: format!(
            "=== Proposition 1: min(RO)=1.0 => UO=2.0 and unbounded MO ===\n\
             \x20 (direct-address array; 256 live keys, universe swept)\n{}\n\
             === Proposition 2: min(UO)=1.0 => RO and MO grow forever ===\n\
             \x20 (append-only log; 2048 live keys, update rounds swept)\n{}\n\
             === Proposition 3: min(MO)=1.0 => RO=N and UO=1.0 ===\n\
             \x20 (dense array; N swept; RO reported in records scanned per miss)\n{}",
            table("universe", "RO:>8.3", "MO:>10.1").text(&p1),
            table("upd rounds", "RO:>12.1", "MO:>10.1").text(&p2),
            table("N", "RO(recs):>12.0", "MO:>10.3").text(&p3),
        ),
        heading: "=== Verdicts ===",
        checks: verdicts(),
        files: Vec::new(),
    }
}
