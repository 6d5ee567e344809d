//! Artifact-freshness gate: regenerate every committed smoke CSV
//! in-process and fail if the checked-in copy drifted.
//!
//! Each experiment binary writes a full-scale `results/*.csv` that is too
//! expensive to regenerate on every push, so those stay documentation.
//! But every module also has a deterministic `--smoke` configuration —
//! this gate runs each of them, strips the wall-clock columns (the only
//! nondeterministic ones), and byte-compares the result against the
//! committed twin under `results/smoke/`. Any code change that alters a
//! measured cost now has to regenerate the artifacts in the same commit,
//! exactly like the RUM baseline gate does for `baseline_rum.json`.
//!
//! After an intentional cost-model change:
//! `UPDATE_ARTIFACTS=1 cargo run --release -p rum-bench --bin artifact_gate`
//! and commit the rewritten `results/smoke/*.csv`.

use crate::{advisor, crash, drift_sweep, fault_storm, obs, range_sweep, scale};

/// Columns measured from the host clock, not the cost model. These are
/// the only nondeterministic values any module emits; everything else
/// (page counts, simulated ns, amplifications) is seeded and exact.
pub const WALL_CLOCK_COLUMNS: &[&str] = &["p50_ns", "p99_ns", "ops_per_sec"];

/// Directory holding the committed smoke twins, relative to the repo root.
pub const SMOKE_DIR: &str = "results/smoke";

/// One gated artifact: a name and the regenerated (already wall-clock
/// stripped) CSV body.
pub struct Artifact {
    /// Stem of the committed file: `results/smoke/<name>.csv`.
    pub name: &'static str,
    /// The freshly regenerated, deterministic CSV.
    pub csv: String,
}

impl Artifact {
    /// Path of the committed twin relative to the repo root.
    pub fn path(&self) -> String {
        format!("{SMOKE_DIR}/{}.csv", self.name)
    }
}

/// Drop the wall-clock columns from a CSV by header name, preserving
/// every other column and the row order. Unknown headers pass through,
/// so modules whose CSVs are fully deterministic are unchanged.
pub fn strip_wall_clock(csv: &str) -> String {
    let mut lines = csv.lines();
    let Some(header) = lines.next() else {
        return String::new();
    };
    let keep: Vec<bool> = header
        .split(',')
        .map(|col| !WALL_CLOCK_COLUMNS.contains(&col.trim()))
        .collect();
    let filter_row = |row: &str| -> String {
        row.split(',')
            .enumerate()
            .filter(|(i, _)| keep.get(*i).copied().unwrap_or(true))
            .map(|(_, cell)| cell)
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut out = filter_row(header);
    out.push('\n');
    for row in lines {
        out.push_str(&filter_row(row));
        out.push('\n');
    }
    out
}

/// Regenerate every gated artifact by running each module's smoke
/// configuration in-process. The list is the source of truth for what
/// the gate covers — adding a module here (plus its committed twin) is
/// all it takes to put a new experiment under the gate.
pub fn regenerate() -> Vec<Artifact> {
    let advisor_run = advisor::run(&advisor::AdvisorConfig::smoke());
    vec![
        Artifact {
            name: "scale_sweep",
            csv: strip_wall_clock(&scale::to_csv(&scale::run(&scale::ScaleConfig::smoke()))),
        },
        Artifact {
            name: "crash_matrix",
            csv: strip_wall_clock(&crash::to_csv(&crash::run(&crash::CrashConfig::smoke()))),
        },
        Artifact {
            name: "advisor_profiles",
            csv: strip_wall_clock(&advisor::to_csv(&advisor_run)),
        },
        Artifact {
            name: "advisor_rankings",
            csv: advisor::rankings_csv(&advisor_run),
        },
        Artifact {
            name: "range_sweep",
            csv: strip_wall_clock(&range_sweep::to_csv(&range_sweep::run(
                &range_sweep::RangeSweepConfig::smoke(),
            ))),
        },
        Artifact {
            name: "fault_storm",
            csv: strip_wall_clock(&fault_storm::to_csv(&fault_storm::run(
                &fault_storm::FaultStormConfig::smoke(),
            ))),
        },
        Artifact {
            name: "drift_sweep",
            csv: strip_wall_clock(&drift_sweep::to_csv(&drift_sweep::run(
                &drift_sweep::DriftSweepConfig::smoke(),
            ))),
        },
        Artifact {
            name: "obs_debt",
            csv: strip_wall_clock(&obs::to_csv(&obs::run(&obs::ObsConfig::smoke()))),
        },
    ]
}

/// Compare one regenerated artifact against its committed twin. Returns
/// a human-readable failure description, or `None` when fresh.
pub fn diff_against_committed(artifact: &Artifact, committed: Option<&str>) -> Option<String> {
    let Some(committed) = committed else {
        return Some(format!(
            "{} is missing — run with UPDATE_ARTIFACTS=1 and commit it",
            artifact.path()
        ));
    };
    if committed == artifact.csv {
        return None;
    }
    // Point at the first differing line so the failure is actionable
    // without a local rerun.
    let (mut line_no, mut detail) = (0usize, String::from("trailing content differs"));
    for (i, (got, want)) in artifact.csv.lines().zip(committed.lines()).enumerate() {
        if got != want {
            line_no = i + 1;
            detail = format!("regenerated `{got}` vs committed `{want}`");
            break;
        }
    }
    let (got_n, want_n) = (artifact.csv.lines().count(), committed.lines().count());
    if line_no == 0 && got_n != want_n {
        line_no = got_n.min(want_n) + 1;
        detail = format!("regenerated {got_n} lines vs committed {want_n}");
    }
    Some(format!(
        "{} drifted at line {line_no}: {detail}",
        artifact.path()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_removes_exactly_the_wall_clock_columns() {
        let csv = "n,ops_per_sec,ro,p50_ns,p99_ns,mo\n1,99999,2.5,123,456,1.1\n";
        assert_eq!(strip_wall_clock(csv), "n,ro,mo\n1,2.5,1.1\n");
        // Fully deterministic CSVs pass through unchanged.
        let clean = "a,b\n1,2\n";
        assert_eq!(strip_wall_clock(clean), clean);
    }

    #[test]
    fn diff_reports_missing_drifted_and_fresh() {
        let a = Artifact {
            name: "scale_sweep",
            csv: "h\n1\n".into(),
        };
        assert!(diff_against_committed(&a, None)
            .unwrap()
            .contains("missing"));
        assert!(diff_against_committed(&a, Some("h\n2\n"))
            .unwrap()
            .contains("line 2"));
        assert!(diff_against_committed(&a, Some("h\n1\n")).is_none());
    }

    #[test]
    fn smoke_regeneration_is_deterministic_for_the_cheapest_module() {
        // The full regenerate() pass is the binary's job (it runs every
        // smoke suite); here we pin the property the gate relies on —
        // same config ⇒ byte-identical CSV after wall-clock stripping —
        // on the cheapest module.
        let cfg = crash::CrashConfig::smoke();
        let a = strip_wall_clock(&crash::to_csv(&crash::run(&cfg)));
        let b = strip_wall_clock(&crash::to_csv(&crash::run(&cfg)));
        assert_eq!(a, b);
        assert!(a.lines().count() > 1);
    }
}
