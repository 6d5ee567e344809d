//! The Table 1 model behind the "access method wizard" of §5: "Using the
//! above classification and analysis we can make educated decisions about
//! which access method should be used based on the application requirements
//! and the hardware characteristics, effectively creating a powerful access
//! method wizard."
//!
//! This module holds what the wizard is asked ([`Environment`],
//! [`Constraints`]), the families it knows ([`Family`]) and the closed-form
//! cost of each in expected page accesses per operation ([`profile`],
//! [`FamilyProfile`]). The ranking itself lives in [`crate::advisor`]:
//! [`ProfileStore::recommend`](crate::advisor::ProfileStore::recommend)
//! prices a family from these formulas wherever it holds no measurement, so
//! an empty store is the analytic wizard and a filled one quantifies where
//! Table 1 drifts from the measured
//! [`RumReport`](crate::runner::RumReport)s.

use crate::types::RECORDS_PER_PAGE;
use crate::workload::OpMix;

/// ZoneMap partition size in records (`P`) that Table 1 is priced at.
pub const PARTITION: usize = 4096;

/// LSM size ratio (`T`) that Table 1 is priced at.
pub const SIZE_RATIO: usize = 4;

/// Dataset parameters of Table 1.
#[derive(Clone, Copy, Debug)]
pub struct Environment {
    /// Dataset size in records (`N`).
    pub n: usize,
    /// Range query result size in records (`m`).
    pub m: usize,
}

impl Default for Environment {
    fn default() -> Self {
        Environment { n: 1 << 22, m: 256 }
    }
}

/// Upper bounds the user is willing to tolerate. `None` = unconstrained.
#[derive(Clone, Copy, Debug, Default)]
pub struct Constraints {
    pub max_read_amp: Option<f64>,
    pub max_write_amp: Option<f64>,
    pub max_space_amp: Option<f64>,
    /// Whether range queries must be supported at all.
    pub needs_ranges: bool,
}

/// The access-method families the wizard knows (those of Table 1 plus the
/// adaptive middle ground).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    BTree,
    HashIndex,
    ZoneMap,
    LsmTree,
    SortedColumn,
    UnsortedColumn,
    CrackedColumn,
}

impl Family {
    pub const ALL: [Family; 7] = [
        Family::BTree,
        Family::HashIndex,
        Family::ZoneMap,
        Family::LsmTree,
        Family::SortedColumn,
        Family::UnsortedColumn,
        Family::CrackedColumn,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Family::BTree => "B+-Tree",
            Family::HashIndex => "Hash Index",
            Family::ZoneMap => "ZoneMaps",
            Family::LsmTree => "Levelled LSM",
            Family::SortedColumn => "Sorted column",
            Family::UnsortedColumn => "Unsorted column",
            Family::CrackedColumn => "Cracked column",
        }
    }

    /// The standard-suite method this family is calibrated from by
    /// [`crate::advisor`]: the measured `RumReport` carrying this name is
    /// the empirical ground truth for the family's Table 1 formulas.
    pub fn suite_method(&self) -> &'static str {
        match self {
            Family::BTree => "b+tree",
            Family::HashIndex => "hash-index",
            Family::ZoneMap => "zonemap",
            Family::LsmTree => "lsm-tree",
            Family::SortedColumn => "sorted-column",
            Family::UnsortedColumn => "unsorted-column",
            Family::CrackedColumn => "cracked-column",
        }
    }

    /// Human-readable Table 1 read-cost term for this family, used when the
    /// advisor reports which part of the analytic model disagrees with the
    /// measurements.
    pub fn read_term(&self) -> &'static str {
        match self {
            Family::BTree => "log_B(N) probe + m/B leaves",
            Family::HashIndex => "O(1) bucket probe (N/B scan for ranges)",
            Family::ZoneMap => "N/(P·B) zone headers + P/B partition scan",
            Family::LsmTree => "one probe per level + m/B·T/(T-1)",
            Family::SortedColumn => "log2(N/B) binary search",
            Family::UnsortedColumn => "N/(2B) expected scan",
            Family::CrackedColumn => "~4·log2(N/B) (converging toward sorted)",
        }
    }

    /// Human-readable Table 1 write-cost term for this family.
    pub fn write_term(&self) -> &'static str {
        match self {
            Family::BTree => "log_B(N) descent + leaf rewrite",
            Family::HashIndex => "1 bucket write (delete = probe + tombstone)",
            Family::ZoneMap => "in-place write + 1/P zone maintenance",
            Family::LsmTree => "(T/B)·levels amortized merge",
            Family::SortedColumn => "N/(2B) shift (in-place update: search + 1)",
            Family::UnsortedColumn => "1 append (update/delete: N/(2B) locate)",
            Family::CrackedColumn => "append + amortized reorganization",
        }
    }

    /// Human-readable Table 1 space term for this family.
    pub fn space_term(&self) -> &'static str {
        match self {
            Family::BTree => "1 + 1/(B-1) internal nodes + page slack",
            Family::HashIndex => "1/load-factor directory slack",
            Family::ZoneMap => "1 + zone headers / partition",
            Family::LsmTree => "1 + 1/(T-1) duplicate versions",
            Family::SortedColumn => "1 (dense pack)",
            Family::UnsortedColumn => "1 (dense pack)",
            Family::CrackedColumn => "1 + cracker index",
        }
    }
}

/// Analytic per-operation page-access costs (Table 1), plus nominal RUM
/// amplification estimates used against [`Constraints`].
///
/// Table 1 prices updates and deletes differently from inserts for several
/// families — a sorted column updates in place (search + one write) but
/// inserts by shifting half the column, and a hash index deletes with a
/// probe plus a tombstone — so the profile carries all five per-operation
/// costs rather than charging everything at `insert_cost`.
#[derive(Clone, Debug)]
pub struct FamilyProfile {
    pub family: Family,
    pub point_cost: f64,
    pub range_cost: f64,
    pub insert_cost: f64,
    pub update_cost: f64,
    pub delete_cost: f64,
    pub read_amp: f64,
    pub write_amp: f64,
    pub space_amp: f64,
    pub supports_ranges: bool,
}

impl FamilyProfile {
    /// Expected page accesses per operation under `mix`, blending all five
    /// per-operation costs by their (normalized) frequencies.
    pub fn expected_cost(&self, mix: &OpMix) -> f64 {
        let total = mix.total();
        let total = if total <= 0.0 { 1.0 } else { total };
        (mix.get * self.point_cost
            + mix.range * self.range_cost
            + mix.insert * self.insert_cost
            + mix.update * self.update_cost
            + mix.delete * self.delete_cost)
            / total
    }
}

fn log_b(n: f64, b: f64) -> f64 {
    (n.max(2.0)).ln() / b.max(2.0).ln()
}

/// Evaluate the Table 1 cost model for one family in one environment.
pub fn profile(family: Family, env: &Environment) -> FamilyProfile {
    let n = env.n as f64;
    let b = RECORDS_PER_PAGE as f64;
    let m = env.m as f64;
    let p = PARTITION as f64;
    let t = SIZE_RATIO as f64;
    let pages = (n / b).max(1.0);
    let zones = (n / p).max(1.0);
    let levels = log_b(pages, t).max(1.0);

    match family {
        Family::BTree => FamilyProfile {
            family,
            point_cost: log_b(n, b),
            range_cost: log_b(n, b) + m / b,
            insert_cost: log_b(n, b) + 1.0,
            // Update / delete descend like an insert but rewrite the leaf in
            // place — no split amortization, same page count.
            update_cost: log_b(n, b) + 1.0,
            delete_cost: log_b(n, b) + 1.0,
            read_amp: log_b(n, b).max(1.0) * b, // page-granular probes
            write_amp: b,                       // rewrite a leaf page per record update
            space_amp: 1.0 + 1.0 / (b - 1.0) + 0.07, // internal nodes + slack
            supports_ranges: true,
        },
        Family::HashIndex => FamilyProfile {
            family,
            point_cost: 1.0,
            range_cost: pages, // must scan everything
            insert_cost: 1.0,
            update_cost: 1.0, // probe + overwrite in the same bucket page
            delete_cost: 1.0, // probe + tombstone, one page access
            read_amp: b,
            write_amp: b,
            space_amp: 1.0 / 0.7, // load factor
            supports_ranges: false,
        },
        Family::ZoneMap => FamilyProfile {
            family,
            point_cost: (zones / b).max(1.0) + p / b,
            range_cost: (zones / b).max(1.0) + p / b + m / b,
            insert_cost: 1.0 + (1.0 / p), // in-place + zone maintenance
            // In-place update / delete still touch the partition's zone
            // header when they move its min/max.
            update_cost: 1.0 + (1.0 / p),
            delete_cost: 1.0 + (1.0 / p),
            read_amp: p.max(b),
            write_amp: b,
            space_amp: 1.0 + 32.0 / (p * 16.0),
            supports_ranges: true,
        },
        Family::LsmTree => FamilyProfile {
            family,
            point_cost: levels, // one probe per level (fences cached)
            range_cost: levels + (m / b) * t / (t - 1.0),
            insert_cost: (t / b) * levels, // amortized merge cost
            // Out-of-place structure: an update is a blind insert of a new
            // version, a delete a blind insert of a tombstone — both pay
            // exactly the insert's amortized merge cost.
            update_cost: (t / b) * levels,
            delete_cost: (t / b) * levels,
            read_amp: levels * b,
            write_amp: t * levels,
            space_amp: 1.0 + 1.0 / (t - 1.0) + 0.02,
            supports_ranges: true,
        },
        Family::SortedColumn => FamilyProfile {
            family,
            point_cost: (pages).log2().max(1.0),
            range_cost: (pages).log2().max(1.0) + m / b,
            insert_cost: pages / 2.0, // shift half the column
            // The asymmetry Table 1 prices and `insert_cost` alone cannot:
            // an update binary-searches and overwrites one slot in place
            // (≪ the insert shift), while a delete must close the gap it
            // leaves — the same half-column shift as an insert.
            update_cost: (pages).log2().max(1.0) + 1.0,
            delete_cost: pages / 2.0,
            read_amp: (pages).log2().max(1.0) * b,
            write_amp: n / 2.0,
            space_amp: 1.0,
            supports_ranges: true,
        },
        Family::UnsortedColumn => FamilyProfile {
            family,
            point_cost: pages / 2.0,
            range_cost: pages,
            insert_cost: 1.0, // append
            // Update / delete must *find* the record first (expected
            // half-scan), then write one slot (delete swap-removes).
            update_cost: pages / 2.0 + 1.0,
            delete_cost: pages / 2.0 + 1.0,
            read_amp: n / 2.0,
            write_amp: 1.0,
            space_amp: 1.0,
            supports_ranges: true,
        },
        Family::CrackedColumn => {
            // Converges from scan cost toward sorted-column cost; model the
            // steady state after the cracker index has partially formed.
            let converged = (pages).log2().max(1.0) * 4.0;
            FamilyProfile {
                family,
                point_cost: converged,
                range_cost: converged + m / b,
                insert_cost: 2.0, // append to pending + lazy merge
                // Updates / deletes locate through the (partial) cracker
                // index, then write in place / tombstone.
                update_cost: converged + 1.0,
                delete_cost: converged + 1.0,
                read_amp: converged * b,
                write_amp: 8.0, // amortized reorganization
                space_amp: 1.10,
                supports_ranges: true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{MeasuredRanking, ProfileStore};

    /// The analytic wizard: the ranking of a store with no measurements.
    fn rank(mix: &OpMix, env: &Environment, cons: &Constraints) -> MeasuredRanking {
        ProfileStore::new().recommend(mix, env, cons)
    }

    #[test]
    fn read_only_point_workload_prefers_hash() {
        let recs = rank(
            &OpMix::READ_ONLY,
            &Environment::default(),
            &Constraints::default(),
        )
        .recs;
        assert_eq!(recs[0].family, Family::HashIndex);
    }

    #[test]
    fn ranges_required_excludes_hash() {
        let cons = Constraints {
            needs_ranges: true,
            ..Default::default()
        };
        let recs = rank(&OpMix::SCAN_HEAVY, &Environment::default(), &cons).recs;
        let hash = recs.iter().find(|r| r.family == Family::HashIndex).unwrap();
        assert!(!hash.feasible);
        assert!(recs[0].feasible);
        assert_ne!(recs[0].family, Family::HashIndex);
    }

    #[test]
    fn insert_only_prefers_append_or_lsm() {
        let recs = rank(
            &OpMix::INSERT_ONLY,
            &Environment::default(),
            &Constraints::default(),
        )
        .recs;
        assert!(
            matches!(
                recs[0].family,
                Family::UnsortedColumn | Family::LsmTree | Family::HashIndex
            ),
            "got {:?}",
            recs[0].family
        );
        // The sorted column (shift half the data per insert) must rank last
        // among feasible options.
        let sorted_pos = recs
            .iter()
            .position(|r| r.family == Family::SortedColumn)
            .unwrap();
        assert!(sorted_pos >= Family::ALL.len() - 2);
    }

    #[test]
    fn write_amp_cap_disqualifies_btree_for_write_heavy() {
        let cons = Constraints {
            max_write_amp: Some(16.0),
            ..Default::default()
        };
        let recs = rank(&OpMix::WRITE_HEAVY, &Environment::default(), &cons).recs;
        let btree = recs.iter().find(|r| r.family == Family::BTree).unwrap();
        assert!(!btree.feasible, "B-tree write amp should exceed 16");
    }

    #[test]
    fn space_cap_favors_bare_columns() {
        let cons = Constraints {
            max_space_amp: Some(1.05),
            needs_ranges: true,
            ..Default::default()
        };
        let recs = rank(&OpMix::SCAN_HEAVY, &Environment::default(), &cons).recs;
        assert!(recs[0].feasible);
        assert!(
            matches!(
                recs[0].family,
                Family::SortedColumn | Family::UnsortedColumn | Family::ZoneMap
            ),
            "got {:?}",
            recs[0].family
        );
    }

    #[test]
    fn costs_scale_with_n() {
        let small = profile(
            Family::BTree,
            &Environment {
                n: 1 << 12,
                ..Default::default()
            },
        );
        let large = profile(
            Family::BTree,
            &Environment {
                n: 1 << 24,
                ..Default::default()
            },
        );
        assert!(large.point_cost > small.point_cost);
        // Hash stays O(1).
        let hs = profile(
            Family::HashIndex,
            &Environment {
                n: 1 << 12,
                ..Default::default()
            },
        );
        let hl = profile(
            Family::HashIndex,
            &Environment {
                n: 1 << 24,
                ..Default::default()
            },
        );
        assert_eq!(hs.point_cost, hl.point_cost);
    }

    #[test]
    fn every_family_profiled() {
        for f in Family::ALL {
            let p = profile(f, &Environment::default());
            assert!(p.point_cost > 0.0);
            assert!(p.update_cost > 0.0);
            assert!(p.delete_cost > 0.0);
            assert!(p.space_amp >= 1.0);
        }
    }

    #[test]
    fn sorted_column_update_is_far_cheaper_than_insert() {
        // Table 1: in-place update = search + one write; insert = shift
        // half the column. Charging updates at `insert_cost` (the old bug)
        // made an update-heavy sorted column look as bad as an ingest one.
        let p = profile(Family::SortedColumn, &Environment::default());
        assert!(
            p.update_cost * 100.0 < p.insert_cost,
            "update {} vs insert {}",
            p.update_cost,
            p.insert_cost
        );
        // Deleting from a sorted column still shifts.
        assert_eq!(p.delete_cost, p.insert_cost);
    }

    #[test]
    fn update_heavy_mix_ranks_sorted_column_above_insert_heavy_mix() {
        let update_heavy = OpMix {
            get: 0.2,
            insert: 0.0,
            update: 0.8,
            delete: 0.0,
            range: 0.0,
        };
        let env = Environment::default();
        let cons = Constraints::default();
        let pos = |mix: &OpMix| {
            rank(mix, &env, &cons)
                .recs
                .iter()
                .position(|r| r.family == Family::SortedColumn)
                .unwrap()
        };
        assert!(
            pos(&update_heavy) < pos(&OpMix::WRITE_HEAVY),
            "in-place updates should rescue the sorted column's rank"
        );
    }

    #[test]
    fn hash_delete_is_single_page() {
        // Probe + tombstone: one bucket access, not an insert-shaped cost
        // blowup on any family that prices deletes separately.
        let p = profile(Family::HashIndex, &Environment::default());
        assert_eq!(p.delete_cost, 1.0);
        let unsorted = profile(Family::UnsortedColumn, &Environment::default());
        assert!(
            unsorted.delete_cost > unsorted.insert_cost,
            "unsorted delete must pay the locate scan an append never does"
        );
    }

    #[test]
    fn expected_cost_blends_all_five_op_kinds() {
        let p = profile(Family::BTree, &Environment::default());
        let pure = |get, insert, update, delete, range| {
            p.expected_cost(&OpMix {
                get,
                insert,
                update,
                delete,
                range,
            })
        };
        assert_eq!(pure(1.0, 0.0, 0.0, 0.0, 0.0), p.point_cost);
        assert_eq!(pure(0.0, 1.0, 0.0, 0.0, 0.0), p.insert_cost);
        assert_eq!(pure(0.0, 0.0, 1.0, 0.0, 0.0), p.update_cost);
        assert_eq!(pure(0.0, 0.0, 0.0, 1.0, 0.0), p.delete_cost);
        assert_eq!(pure(0.0, 0.0, 0.0, 0.0, 1.0), p.range_cost);
        // Degenerate all-zero mix does not divide by zero.
        assert!(pure(0.0, 0.0, 0.0, 0.0, 0.0).is_finite());
    }
}
