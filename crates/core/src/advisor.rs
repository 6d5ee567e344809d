//! The §5 access-method wizard: one ranking of the Table 1 families for a
//! workload mix, an environment and the user's RUM caps.
//!
//! [`ProfileStore::recommend`] is the only place a ranking is computed. A
//! [`ProfileStore`] holds **measured** [`RumReport`]s, ingested from
//! [`run_suite_stream`](crate::runner::run_suite_stream) runs across a grid
//! of operation mixes × key distributions × scales; a family with a
//! measured profile is ranked by it, a family without one by the
//! closed-form Table 1 model of [`crate::wizard`]. The analytic wizard is
//! therefore not a second code path but the uncalibrated prior: the
//! ranking of an empty store.
//!
//! Because every entry carries both numbers, the advisor doubles as a
//! calibration check of the paper's cost model: a calibrated
//! recommendation carries the analytic expectation and a [`Deviation`]
//! naming the Table 1 term (read, write, or space) where model and
//! measurement disagree the most.
//!
//! ## Cost units
//!
//! Analytic Table 1 costs are page accesses per operation. Measured costs
//! are physical bytes per operation divided by [`PAGE_SIZE`] —
//! "page-equivalents" — so byte-granular in-memory methods (which never
//! charge whole page accesses) and page-granular methods land on one
//! comparable axis.
//!
//! ## Fallback semantics
//!
//! An empty or partial profile store never panics: a family with no
//! measured profile is ranked by its analytic cost and flagged
//! `calibrated: false`, and the ranking as a whole reports whether every
//! family was calibrated.
//!
//! ## Persistence
//!
//! [`ProfileStore::to_csv`] / [`ProfileStore::from_csv`] round-trip the
//! store through a serde-free CSV format (one row per measured point, f64s
//! in Rust's shortest-roundtrip `Display` form, so re-parsing is exact).
//! The `advisor` binary in `rum-bench` persists this under
//! `results/advisor_profiles.csv`.

use std::collections::BTreeMap;

use crate::error::{Result, RumError};
use crate::runner::RumReport;
use crate::types::PAGE_SIZE;
use crate::wizard::{profile, Constraints, Environment, Family, FamilyProfile};
use crate::workload::{KeyDist, OpMix, WorkloadSpec};

/// Stable label for the key distribution of a measured point.
pub fn dist_label(dist: &KeyDist) -> String {
    match dist {
        KeyDist::Uniform => "uniform".to_string(),
        KeyDist::Zipf { theta } => format!("zipf:{theta}"),
    }
}

/// One measured data point of one method: the RUM profile and the per-op-
/// class costs of one (mix, distribution, scale) grid cell.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfilePoint {
    /// Initial live-set size of the workload (the scale axis).
    pub scale: usize,
    /// Operations executed over that live set.
    pub operations: usize,
    /// Normalized operation mix the point was measured under.
    pub mix: OpMix,
    /// Key distribution label ([`dist_label`]).
    pub dist: String,
    /// Measured read amplification.
    pub ro: f64,
    /// Measured write amplification.
    pub uo: f64,
    /// Measured space amplification.
    pub mo: f64,
    /// Physical bytes per read-class op, in pages ([`PAGE_SIZE`] units).
    pub read_cost: f64,
    /// Physical bytes per write-class op, in pages.
    pub write_cost: f64,
    /// Read-class ops behind this point (aggregation weight).
    pub read_ops: u64,
    /// Write-class ops behind this point (aggregation weight).
    pub write_ops: u64,
}

impl ProfilePoint {
    /// Distill one suite report (plus the spec it ran under) into a point.
    pub fn from_report(spec: &WorkloadSpec, report: &RumReport) -> ProfilePoint {
        let page = PAGE_SIZE as f64;
        let read_bytes =
            report.read_costs.total_read_bytes() + report.read_costs.total_write_bytes();
        let write_bytes =
            report.write_costs.total_read_bytes() + report.write_costs.total_write_bytes();
        ProfilePoint {
            scale: spec.initial_records,
            operations: spec.operations,
            mix: spec.mix.normalized(),
            dist: dist_label(&spec.dist),
            ro: report.ro,
            uo: report.uo,
            mo: report.mo,
            read_cost: ratio(read_bytes as f64 / page, report.read_ops),
            write_cost: ratio(write_bytes as f64 / page, report.write_ops),
            read_ops: report.read_ops,
            write_ops: report.write_ops,
        }
    }
}

fn ratio(total: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total / ops as f64
    }
}

/// Canonical grouping key for a normalized mix: exact shortest-roundtrip
/// rendering of the five frequencies, so points measured under the same
/// preset always land in the same group.
fn mix_key(mix: &OpMix) -> String {
    format!(
        "{},{},{},{},{}",
        mix.get, mix.insert, mix.update, mix.delete, mix.range
    )
}

/// The empirical profile of one access method: every measured point,
/// sorted deterministically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MethodProfile {
    pub points: Vec<ProfilePoint>,
}

impl MethodProfile {
    fn sort(&mut self) {
        self.points.sort_by(|a, b| {
            a.scale
                .cmp(&b.scale)
                .then_with(|| a.dist.cmp(&b.dist))
                .then_with(|| mix_key(&a.mix).cmp(&mix_key(&b.mix)))
                .then_with(|| a.operations.cmp(&b.operations))
        });
    }
}

/// Per-method empirical profiles built from measured [`RumReport`]s.
///
/// Methods are keyed by their report name (`b+tree`, `lsm-tree`, ...); the
/// seven wizard families map onto suite methods through
/// [`Family::suite_method`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileStore {
    profiles: BTreeMap<String, MethodProfile>,
}

impl ProfileStore {
    pub fn new() -> ProfileStore {
        ProfileStore::default()
    }

    /// Ingest every report of one suite run measured under `spec`.
    pub fn ingest(&mut self, spec: &WorkloadSpec, reports: &[RumReport]) {
        for report in reports {
            self.add_point(&report.method, ProfilePoint::from_report(spec, report));
        }
    }

    /// Add one pre-distilled point (the ingestion primitive; also what the
    /// CSV loader and the property tests use).
    pub fn add_point(&mut self, method: &str, point: ProfilePoint) {
        let profile = self.profiles.entry(method.to_string()).or_default();
        profile.points.push(point);
        profile.sort();
    }

    /// The profile measured for `method`, if any.
    pub fn get(&self, method: &str) -> Option<&MethodProfile> {
        self.profiles.get(method)
    }

    /// Profiled method names, sorted.
    pub fn methods(&self) -> impl Iterator<Item = &str> {
        self.profiles.keys().map(|s| s.as_str())
    }

    /// Number of profiled methods.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Total measured points across all methods.
    pub fn point_count(&self) -> usize {
        self.profiles.values().map(|p| p.points.len()).sum()
    }

    /// Serialize the store as CSV (header + one row per point). Floats use
    /// Rust's shortest-roundtrip `Display`, so [`ProfileStore::from_csv`]
    /// reconstructs the store exactly.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for (method, profile) in &self.profiles {
            for p in &profile.points {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                    method,
                    p.scale,
                    p.operations,
                    p.dist,
                    p.mix.get,
                    p.mix.insert,
                    p.mix.update,
                    p.mix.delete,
                    p.mix.range,
                    p.ro,
                    p.uo,
                    p.mo,
                    p.read_cost,
                    p.write_cost,
                    p.read_ops,
                    p.write_ops,
                ));
            }
        }
        out
    }

    /// Parse a store back from [`ProfileStore::to_csv`] output.
    pub fn from_csv(text: &str) -> Result<ProfileStore> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| RumError::Corrupt("empty profile CSV".into()))?;
        if header.trim() != CSV_HEADER {
            return Err(RumError::Corrupt(format!(
                "unexpected profile CSV header: {header:?}"
            )));
        }
        let mut store = ProfileStore::new();
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 16 {
                return Err(RumError::Corrupt(format!(
                    "profile CSV row {} has {} fields, expected 16",
                    i + 2,
                    fields.len()
                )));
            }
            let corrupt = |j: usize, why: &dyn std::fmt::Display| {
                RumError::Corrupt(format!("profile CSV row {}: field {j}: {why}", i + 2))
            };
            // `inf` stays loadable: the tracker reports it as the read
            // amplification of reads that retrieved nothing.
            let num = |j: usize| -> Result<f64> {
                let v = fields[j].parse::<f64>().map_err(|e| corrupt(j, &e))?;
                if v.is_nan() || v < 0.0 {
                    return Err(corrupt(j, &"NaN or negative"));
                }
                Ok(v)
            };
            let int = |j: usize| fields[j].parse::<u64>().map_err(|e| corrupt(j, &e));
            let point = ProfilePoint {
                scale: int(1)? as usize,
                operations: int(2)? as usize,
                dist: fields[3].to_string(),
                mix: OpMix {
                    get: num(4)?,
                    insert: num(5)?,
                    update: num(6)?,
                    delete: num(7)?,
                    range: num(8)?,
                },
                ro: num(9)?,
                uo: num(10)?,
                mo: num(11)?,
                read_cost: num(12)?,
                write_cost: num(13)?,
                read_ops: int(14)?,
                write_ops: int(15)?,
            };
            if point.mix.total() <= 0.0 {
                return Err(corrupt(4, &"the five mix frequencies sum to zero"));
            }
            store.add_point(fields[0], point);
        }
        Ok(store)
    }

    /// Rank every wizard [`Family`] for `mix`: feasible families first,
    /// then by expected cost.
    ///
    /// A family whose suite method has a measured profile is priced from it
    /// and `cons` binds on its **measured** amplifications; a family without
    /// one is priced by the Table 1 model ([`profile`]), `cons` binds on the
    /// model's nominal amplifications, and the entry is flagged
    /// `calibrated: false`. An empty store is therefore the analytic wizard.
    pub fn recommend(&self, mix: &OpMix, env: &Environment, cons: &Constraints) -> MeasuredRanking {
        let query = mix.normalized();
        let read_frac = query.get + query.range;
        let write_frac = query.insert + query.update + query.delete;
        let mut recs: Vec<MeasuredRecommendation> = Family::ALL
            .iter()
            .map(|&family| {
                let analytic = profile(family, env);
                // Blended over the raw mix (`expected_cost` divides by the
                // total itself): the uncalibrated cost is bit for bit
                // `profile(family, env).expected_cost(mix)`.
                let analytic_cost = analytic.expected_cost(mix);
                let measured = self
                    .get(family.suite_method())
                    .and_then(|p| calibrate(p, &query, env.n));
                let (expected_cost, violations, deviation) = match &measured {
                    Some(m) => (
                        read_frac * m.read_cost + write_frac * m.write_cost,
                        violations(cons, &analytic, m.ro, m.uo, m.mo, "measured"),
                        deviation(family, &analytic, &query, m),
                    ),
                    None => (
                        analytic_cost,
                        violations(
                            cons,
                            &analytic,
                            analytic.read_amp,
                            analytic.write_amp,
                            analytic.space_amp,
                            "analytic",
                        ),
                        None,
                    ),
                };
                MeasuredRecommendation {
                    family,
                    method: family.suite_method(),
                    expected_cost,
                    analytic_cost,
                    calibrated: measured.is_some(),
                    measured,
                    feasible: violations.is_empty(),
                    violations,
                    deviation,
                }
            })
            .collect();
        recs.sort_by(|a, b| {
            b.feasible
                .cmp(&a.feasible)
                .then(a.expected_cost.total_cmp(&b.expected_cost))
        });
        let calibrated = recs.iter().all(|r| r.calibrated);
        MeasuredRanking { recs, calibrated }
    }
}

const CSV_HEADER: &str = "method,scale,operations,dist,get,insert,update,delete,range,\
ro,uo,mo,read_cost,write_cost,read_ops,write_ops";

/// The interpolated empirical profile of one method at one query scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeasuredProfile {
    pub ro: f64,
    pub uo: f64,
    pub mo: f64,
    /// Pages (byte-equivalents) per read-class op.
    pub read_cost: f64,
    /// Pages per write-class op.
    pub write_cost: f64,
}

/// Interpolate a method's profile at scale `n` for the grid mix nearest to
/// `query`.
///
/// Points of the nearest mix are aggregated across key distributions at
/// each scale (op-count weighted), then each metric is interpolated
/// piecewise-linearly in `ln n` between bracketing scales (clamped at the
/// measured extremes — the advisor never extrapolates past its data).
fn calibrate(profile: &MethodProfile, query: &OpMix, n: usize) -> Option<MeasuredProfile> {
    // Nearest measured mix, deterministic tie-break on the canonical key.
    let mut groups: BTreeMap<String, (f64, Vec<&ProfilePoint>)> = BTreeMap::new();
    for p in &profile.points {
        let entry = groups
            .entry(mix_key(&p.mix))
            .or_insert_with(|| (p.mix.l1_distance(query), Vec::new()));
        entry.1.push(p);
    }
    let (_, (_, points)) = groups
        .into_iter()
        .map(|(k, v)| ((v.0, k.clone()), v))
        .min_by(|a, b| a.0 .0.total_cmp(&b.0 .0).then(a.0 .1.cmp(&b.0 .1)))?;

    // Aggregate across distributions per scale.
    let mut by_scale: BTreeMap<usize, Vec<&ProfilePoint>> = BTreeMap::new();
    for p in points {
        by_scale.entry(p.scale).or_default().push(p);
    }
    let curve: Vec<(f64, MeasuredProfile)> = by_scale
        .into_iter()
        .map(|(scale, pts)| {
            let read_w: u64 = pts.iter().map(|p| p.read_ops).sum();
            let write_w: u64 = pts.iter().map(|p| p.write_ops).sum();
            let wmean = |f: fn(&ProfilePoint) -> f64, w: fn(&ProfilePoint) -> u64, total: u64| {
                if total == 0 {
                    0.0
                } else {
                    pts.iter().map(|p| f(p) * w(p) as f64).sum::<f64>() / total as f64
                }
            };
            let mo = pts.iter().map(|p| p.mo).sum::<f64>() / pts.len() as f64;
            (
                (scale.max(1) as f64).ln(),
                MeasuredProfile {
                    ro: wmean(|p| p.ro, |p| p.read_ops, read_w),
                    uo: wmean(|p| p.uo, |p| p.write_ops, write_w),
                    mo,
                    read_cost: wmean(|p| p.read_cost, |p| p.read_ops, read_w),
                    write_cost: wmean(|p| p.write_cost, |p| p.write_ops, write_w),
                },
            )
        })
        .collect();
    if curve.is_empty() {
        return None;
    }

    let x = (n.max(1) as f64).ln();
    let first = &curve[0];
    let last = &curve[curve.len() - 1];
    if x <= first.0 {
        return Some(first.1);
    }
    if x >= last.0 {
        return Some(last.1);
    }
    let i = curve.partition_point(|(s, _)| *s <= x);
    let (x0, a) = &curve[i - 1];
    let (x1, b) = &curve[i];
    let t = if x1 > x0 { (x - x0) / (x1 - x0) } else { 0.0 };
    let lerp = |a: f64, b: f64| a + (b - a) * t;
    Some(MeasuredProfile {
        ro: lerp(a.ro, b.ro),
        uo: lerp(a.uo, b.uo),
        mo: lerp(a.mo, b.mo),
        read_cost: lerp(a.read_cost, b.read_cost),
        write_cost: lerp(a.write_cost, b.write_cost),
    })
}

fn violations(
    cons: &Constraints,
    analytic: &FamilyProfile,
    ro: f64,
    uo: f64,
    mo: f64,
    source: &str,
) -> Vec<String> {
    let mut out = Vec::new();
    if cons.needs_ranges && !analytic.supports_ranges {
        out.push("range queries unsupported".to_string());
    }
    if let Some(cap) = cons.max_read_amp {
        if ro > cap {
            out.push(format!("{source} read amp {ro:.1} > cap {cap:.1}"));
        }
    }
    if let Some(cap) = cons.max_write_amp {
        if uo > cap {
            out.push(format!("{source} write amp {uo:.1} > cap {cap:.1}"));
        }
    }
    if let Some(cap) = cons.max_space_amp {
        if mo > cap {
            out.push(format!("{source} space amp {mo:.2} > cap {cap:.2}"));
        }
    }
    out
}

/// Where the analytic Table 1 model disagrees with the measurement the
/// most, for one family under one mix.
#[derive(Clone, Debug)]
pub struct Deviation {
    /// `"read"`, `"write"`, or `"space"`.
    pub metric: &'static str,
    /// The Table 1 term behind that metric
    /// ([`Family::read_term`] / [`Family::write_term`] / [`Family::space_term`]).
    pub term: &'static str,
    pub analytic: f64,
    pub measured: f64,
    /// `measured / analytic` — how far off the model is (>1 = model
    /// undershoots the real cost).
    pub ratio: f64,
}

/// Compare the analytic per-class costs and space model against the
/// measured profile; return the most-off term (largest `|ln ratio|`).
fn deviation(
    family: Family,
    analytic: &FamilyProfile,
    query: &OpMix,
    measured: &MeasuredProfile,
) -> Option<Deviation> {
    let read_frac = query.get + query.range;
    let write_frac = query.insert + query.update + query.delete;
    let mut candidates: Vec<Deviation> = Vec::new();
    if read_frac > 0.0 {
        let analytic_read =
            (query.get * analytic.point_cost + query.range * analytic.range_cost) / read_frac;
        push_candidate(
            &mut candidates,
            "read",
            family.read_term(),
            analytic_read,
            measured.read_cost,
        );
    }
    if write_frac > 0.0 {
        let analytic_write = (query.insert * analytic.insert_cost
            + query.update * analytic.update_cost
            + query.delete * analytic.delete_cost)
            / write_frac;
        push_candidate(
            &mut candidates,
            "write",
            family.write_term(),
            analytic_write,
            measured.write_cost,
        );
    }
    push_candidate(
        &mut candidates,
        "space",
        family.space_term(),
        analytic.space_amp,
        measured.mo,
    );
    candidates.into_iter().max_by(|a, b| {
        a.ratio
            .abs()
            .ln()
            .abs()
            .total_cmp(&b.ratio.abs().ln().abs())
    })
}

fn push_candidate(
    out: &mut Vec<Deviation>,
    metric: &'static str,
    term: &'static str,
    analytic: f64,
    measured: f64,
) {
    if analytic > 0.0 && measured > 0.0 {
        out.push(Deviation {
            metric,
            term,
            analytic,
            measured,
            ratio: measured / analytic,
        });
    }
}

/// One family's measured ranking entry.
#[derive(Clone, Debug)]
pub struct MeasuredRecommendation {
    pub family: Family,
    /// Suite method the family is calibrated from.
    pub method: &'static str,
    /// Expected cost per op under the query mix: measured page-equivalents
    /// when calibrated, the analytic Table 1 blend otherwise.
    pub expected_cost: f64,
    /// The analytic wizard's expected cost for the same mix/environment.
    pub analytic_cost: f64,
    /// Interpolated measured profile (None when uncalibrated).
    pub measured: Option<MeasuredProfile>,
    /// Whether this entry is backed by measurements.
    pub calibrated: bool,
    pub feasible: bool,
    pub violations: Vec<String>,
    /// Analytic-vs-measured disagreement, when calibrated.
    pub deviation: Option<Deviation>,
}

/// The full measured ranking (feasible families first, then by expected
/// cost), plus whether *every* family was backed by measurements.
#[derive(Clone, Debug)]
pub struct MeasuredRanking {
    pub recs: Vec<MeasuredRecommendation>,
    /// False when any family fell back to the analytic model.
    pub calibrated: bool,
}

impl MeasuredRanking {
    /// The best feasible entry (or the overall best when nothing is
    /// feasible).
    pub fn top(&self) -> Option<&MeasuredRecommendation> {
        self.recs.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(scale: usize, mix: OpMix, ro: f64, uo: f64, mo: f64) -> ProfilePoint {
        ProfilePoint {
            scale,
            operations: scale * 2,
            mix: mix.normalized(),
            dist: "uniform".into(),
            ro,
            uo,
            mo,
            read_cost: ro / 10.0,
            write_cost: uo / 10.0,
            read_ops: 100,
            write_ops: 100,
        }
    }

    fn full_store(mix: OpMix) -> ProfileStore {
        let mut store = ProfileStore::new();
        for (i, family) in Family::ALL.iter().enumerate() {
            let base = (i + 1) as f64;
            store.add_point(
                family.suite_method(),
                point(1000, mix, base * 2.0, base * 3.0, 1.0 + base / 10.0),
            );
            store.add_point(
                family.suite_method(),
                point(10_000, mix, base * 4.0, base * 6.0, 1.0 + base / 5.0),
            );
        }
        store
    }

    #[test]
    fn empty_store_reproduces_the_analytic_ranking_uncalibrated() {
        let store = ProfileStore::new();
        let env = Environment::default();
        let ranking = store.recommend(&OpMix::BALANCED, &env, &Constraints::default());
        assert!(!ranking.calibrated);
        assert!(ranking.recs.iter().all(|r| !r.calibrated));
        // Unconstrained, the order is the Table 1 model's cost order.
        let mut analytic =
            Family::ALL.map(|f| (f, profile(f, &env).expected_cost(&OpMix::BALANCED)));
        analytic.sort_by(|a, b| a.1.total_cmp(&b.1));
        let ranked: Vec<(Family, f64)> = ranking
            .recs
            .iter()
            .map(|r| (r.family, r.expected_cost))
            .collect();
        assert_eq!(ranked, analytic);
    }

    #[test]
    fn partial_store_flags_missing_families() {
        let mut store = ProfileStore::new();
        store.add_point("b+tree", point(1000, OpMix::BALANCED, 4.0, 8.0, 1.1));
        let ranking = store.recommend(
            &OpMix::BALANCED,
            &Environment::default(),
            &Constraints::default(),
        );
        assert!(!ranking.calibrated);
        for rec in &ranking.recs {
            assert_eq!(rec.calibrated, rec.family == Family::BTree);
        }
    }

    #[test]
    fn full_store_is_fully_calibrated() {
        let store = full_store(OpMix::BALANCED);
        let ranking = store.recommend(
            &OpMix::BALANCED,
            &Environment {
                n: 3000,
                ..Default::default()
            },
            &Constraints::default(),
        );
        assert!(ranking.calibrated);
        assert!(ranking.recs.iter().all(|r| r.measured.is_some()));
        // Synthetic costs grow with the family index, so BTree (index 0)
        // must win.
        assert_eq!(ranking.top().unwrap().family, Family::BTree);
    }

    #[test]
    fn constraints_bind_on_measured_not_analytic_values() {
        // Analytic B-tree read amp at default env is ~hundreds; measured is
        // 2·scale-interpolated ≈ small. A cap between the two must pass the
        // measured value even though the analytic value violates it.
        let store = full_store(OpMix::BALANCED);
        let env = Environment {
            n: 1000,
            ..Default::default()
        };
        let cons = Constraints {
            max_read_amp: Some(10.0),
            ..Default::default()
        };
        let ranking = store.recommend(&OpMix::BALANCED, &env, &cons);
        let btree = ranking
            .recs
            .iter()
            .find(|r| r.family == Family::BTree)
            .unwrap();
        assert!(btree.calibrated);
        assert!(
            btree.feasible,
            "measured ro = 2.0 is under the cap: {:?}",
            btree.violations
        );
        let analytic = profile(Family::BTree, &env);
        assert!(analytic.read_amp > 10.0, "cap must sit below analytic RO");
        // And a cap below the measured value must fail with a "measured"
        // violation.
        let tight = Constraints {
            max_read_amp: Some(1.0),
            ..Default::default()
        };
        let ranking = store.recommend(&OpMix::BALANCED, &env, &tight);
        let btree = ranking
            .recs
            .iter()
            .find(|r| r.family == Family::BTree)
            .unwrap();
        assert!(!btree.feasible);
        assert!(btree.violations[0].contains("measured"));
    }

    #[test]
    fn interpolation_is_monotone_between_scales_and_clamped_outside() {
        let store = full_store(OpMix::BALANCED);
        let profile = store.get(Family::BTree.suite_method()).unwrap();
        let at = |n: usize| calibrate(profile, &OpMix::BALANCED.normalized(), n).unwrap();
        assert_eq!(at(1000).ro, 2.0);
        assert_eq!(at(10_000).ro, 4.0);
        assert_eq!(at(10).ro, 2.0, "clamped below the smallest scale");
        assert_eq!(at(1_000_000).ro, 4.0, "clamped above the largest scale");
        let mid = at(3163).ro; // ~geometric mean of the two scales
        assert!(mid > 2.0 && mid < 4.0, "mid = {mid}");
        assert!((mid - 3.0).abs() < 0.01, "ln-linear midpoint, got {mid}");
    }

    #[test]
    fn csv_roundtrips_exactly() {
        let mut store = full_store(OpMix::BALANCED);
        store.add_point(
            "lsm-tree",
            ProfilePoint {
                scale: 777,
                operations: 3,
                mix: OpMix::WRITE_HEAVY.normalized(),
                dist: "zipf:0.99".into(),
                ro: 1.0 / 3.0,
                uo: std::f64::consts::PI,
                mo: 1.000000000001,
                read_cost: 0.1 + 0.2, // deliberately non-representable
                write_cost: 1e-17,
                read_ops: u64::MAX,
                write_ops: 0,
            },
        );
        let csv = store.to_csv();
        let parsed = ProfileStore::from_csv(&csv).unwrap();
        assert_eq!(store, parsed);
        assert_eq!(parsed.to_csv(), csv);
    }

    #[test]
    fn csv_rejects_malformed_input() {
        assert!(ProfileStore::from_csv("").is_err());
        assert!(ProfileStore::from_csv("wrong,header\n").is_err());
        let mut truncated = String::from(CSV_HEADER);
        truncated.push_str("\nb+tree,1000,2000,uniform,1,0,0\n");
        assert!(ProfileStore::from_csv(&truncated).is_err());
        let row = |tail: &str| format!("{CSV_HEADER}\nb+tree,1000,2000,uniform,{tail}\n");
        assert!(ProfileStore::from_csv(&row("1,0,0,0,0,abc,1,1,1,1,10,10")).is_err());
        // Values that parse as f64 but poison every cost computed from them
        // are refused with the row and field named.
        for (tail, field) in [
            ("1,0,0,0,0,NaN,1,1,1,1,10,10", "field 9"),
            ("1,0,0,0,0,1,1,1,-1,1,10,10", "field 12"),
            ("1,0,0,-0.5,0,1,1,1,1,1,10,10", "field 7"),
            ("0,0,0,0,0,1,1,1,1,1,10,10", "field 4"),
        ] {
            match ProfileStore::from_csv(&row(tail)) {
                Err(RumError::Corrupt(why)) => {
                    assert!(why.contains("row 2") && why.contains(field), "{why}")
                }
                other => panic!("{tail}: expected Corrupt, got {other:?}"),
            }
        }
        // Reads that retrieved nothing report RO = inf; that must load.
        let inf = ProfileStore::from_csv(&row("1,0,0,0,0,inf,1,1,1,1,10,10")).unwrap();
        assert_eq!(inf.get("b+tree").unwrap().points[0].ro, f64::INFINITY);
        assert_eq!(ProfileStore::from_csv(&inf.to_csv()).unwrap(), inf);
    }

    #[test]
    fn deviation_names_the_most_off_table1_term() {
        let mut store = ProfileStore::new();
        // Measured write cost wildly above the analytic LSM merge cost;
        // read and space close to the model.
        let env = Environment {
            n: 1000,
            ..Default::default()
        };
        let analytic = profile(Family::LsmTree, &env);
        store.add_point(
            Family::LsmTree.suite_method(),
            ProfilePoint {
                scale: 1000,
                operations: 2000,
                mix: OpMix::BALANCED.normalized(),
                dist: "uniform".into(),
                ro: analytic.read_amp,
                uo: analytic.write_amp,
                mo: analytic.space_amp,
                read_cost: analytic.point_cost,
                write_cost: analytic.insert_cost * 100.0,
                read_ops: 10,
                write_ops: 10,
            },
        );
        let ranking = store.recommend(&OpMix::BALANCED, &env, &Constraints::default());
        let lsm = ranking
            .recs
            .iter()
            .find(|r| r.family == Family::LsmTree)
            .unwrap();
        let dev = lsm.deviation.as_ref().expect("calibrated ⇒ deviation");
        assert_eq!(dev.metric, "write");
        assert_eq!(dev.term, Family::LsmTree.write_term());
        assert!(dev.ratio > 50.0, "ratio = {}", dev.ratio);
    }

    #[test]
    fn recommendation_uses_nearest_measured_mix() {
        // Store holds two mixes; a query near WRITE_HEAVY must calibrate
        // from the WRITE_HEAVY points, not the READ_HEAVY ones.
        let mut store = ProfileStore::new();
        store.add_point("b+tree", point(1000, OpMix::READ_HEAVY, 100.0, 100.0, 1.5));
        store.add_point("b+tree", point(1000, OpMix::WRITE_HEAVY, 2.0, 4.0, 1.1));
        let near_write = OpMix {
            get: 0.15,
            insert: 0.55,
            update: 0.25,
            delete: 0.05,
            range: 0.0,
        };
        let ranking = store.recommend(
            &near_write,
            &Environment {
                n: 1000,
                ..Default::default()
            },
            &Constraints::default(),
        );
        let btree = ranking
            .recs
            .iter()
            .find(|r| r.family == Family::BTree)
            .unwrap();
        let m = btree.measured.unwrap();
        assert_eq!(m.ro, 2.0, "calibrated from the WRITE_HEAVY group");
    }
}
