//! The gate: regenerate every gated smoke CSV in-process and fail if a
//! checked-in copy drifted.
//!
//! Full-scale `results/*.csv` are too expensive to regenerate on every
//! push, so those stay documentation. But every gated row of
//! [`EXPERIMENTS`] has a deterministic `--smoke` configuration:
//! `rum-bench gate` runs each, strips the wall-clock columns (the only
//! nondeterministic ones), and byte-compares every `.csv` the run produced
//! against its committed twin under `results/smoke/`. Floats are written
//! in shortest-roundtrip or fixed-precision form, so equal bytes means
//! equal measurements: any change that alters a counted cost (the suite's
//! RO/UO/MO in `baseline_rum.csv` first among them) has to regenerate the
//! twins in the same commit, and the CSV diff is the reviewable record.
//!
//! After an intentional cost-model change: `rum-bench gate --update`, then
//! commit the rewritten `results/smoke/*.csv`.

use crate::{conclude, require_dir, Outcome, Scale, Target, EXPERIMENTS};

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

/// Regenerate every gated artifact: one `--smoke` run per gated row of
/// [`EXPERIMENTS`], keeping the CSVs whose stems the row declares.
pub fn regenerate() -> Vec<Artifact> {
    let mut artifacts = Vec::new();
    for e in EXPERIMENTS.iter().filter(|e| !e.gated.is_empty()) {
        let outcome = (e.run)(Scale::Smoke, &Target::default());
        for &name in e.gated {
            let file = format!("{name}.csv");
            let (_, csv) = outcome
                .files
                .iter()
                .find(|(f, _)| *f == file)
                .unwrap_or_else(|| panic!("{} --smoke produced no {file}", e.name));
            artifacts.push(Artifact {
                name,
                csv: strip_wall_clock(csv),
            });
        }
    }
    artifacts
}

/// `rum-bench gate [--update]`: compare every regenerated artifact with
/// its committed twin and exit 1 naming file and line on drift, or, with
/// `update`, rewrite the twins. Exits 2 when `results/smoke/` is not under
/// the current directory, so neither mode can act on the wrong tree.
pub fn gate(update: bool) {
    require_dir(SMOKE_DIR);
    let artifacts = regenerate();

    if update {
        for a in &artifacts {
            std::fs::write(a.path(), &a.csv).unwrap_or_else(|e| panic!("write {}: {e}", a.path()));
            println!("wrote {}", a.path());
        }
        return;
    }

    let checks: Vec<(String, bool)> = artifacts
        .iter()
        .map(|a| {
            let committed = std::fs::read_to_string(a.path()).ok();
            match diff_against_committed(a, committed.as_deref()) {
                None => (format!("{} is fresh", a.path()), true),
                Some(why) => (why, false),
            }
        })
        .collect();
    if checks.iter().any(|(_, ok)| !ok) {
        eprintln!("artifact drift: if intended, run `rum-bench gate --update` and commit the diff");
    }
    conclude(
        Outcome {
            heading: "=== Checks ===",
            checks,
            ..Default::default()
        },
        false,
    );
}

/// Compare one regenerated artifact against its committed twin. Returns
/// a human-readable failure description, or `None` when fresh.
pub fn diff_against_committed(artifact: &Artifact, committed: Option<&str>) -> Option<String> {
    let Some(committed) = committed else {
        return Some(format!(
            "{} is missing — run `rum-bench gate --update` and commit it",
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
        // The full regenerate() pass is `rum-bench gate`'s job (it runs
        // every smoke suite); here we pin the property the gate relies on —
        // same config ⇒ byte-identical CSV after wall-clock stripping —
        // on the cheapest module.
        use crate::crash;
        let cfg = crash::CrashConfig::smoke();
        let csv = || {
            let (matrix, table) = (crash::run(&cfg), crash::table());
            table.csv(&matrix.lines())
        };
        let (a, b) = (strip_wall_clock(&csv()), strip_wall_clock(&csv()));
        assert_eq!(a, b);
        assert!(a.lines().count() > 1);
    }
}
