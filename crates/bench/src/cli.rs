//! The one registry of experiments and the one parser in front of it.
//!
//! [`EXPERIMENTS`] is the only list of what this crate can run: the
//! `rum-bench` binary dispatches over it, `rum-bench gate` walks its gated
//! entries, `rum-bench list` prints it, and the tests hold the CI matrix
//! and the committed `results/smoke/*.csv` against it.

use crate::{
    advisor, baseline, crash, drift_sweep, fault_storm, fig1, fig2, fig3, obs, props, range_sweep,
    roadmap, scale, table1, trace,
};
use rum::prelude::WorkloadSpec;

/// How much of an experiment to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// No flag: the scale the committed `results/*` were produced at.
    Full,
    /// `--quick`: a reduced sweep for a look at the shape.
    Quick,
    /// `--smoke`: the deterministic CI configuration; writes no files.
    Smoke,
}

impl Scale {
    /// A sweep's configuration: its `smoke()` at `--smoke`, else its default.
    pub fn config<C: Default>(self, smoke: fn() -> C) -> C {
        if self == Scale::Smoke {
            smoke()
        } else {
            C::default()
        }
    }

    fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "--quick",
            Scale::Smoke => "--smoke",
        }
    }
}

/// What one experiment run produced, for [`crate::conclude`] to print and
/// write.
#[derive(Default)]
pub struct Outcome {
    /// The measured artifact, as text.
    pub rendered: String,
    /// Printed above the checks; empty prints nothing.
    pub heading: &'static str,
    /// `(claim, held)`: one `[PASS]`/`[FAIL]` line each, any `false` exits 1.
    pub checks: Vec<(String, bool)>,
    /// `(file name, body)` written under `results/` unless the scale is
    /// `--smoke`; the gate compares a smoke run's `.csv` bodies instead.
    pub files: Vec<(String, String)>,
}

impl Outcome {
    /// The shape the sweeps share: checks under `=== Checks ===`, and the
    /// pair `results/<stem>.{csv,txt}`.
    pub fn sweep(stem: &str, rendered: String, csv: String, checks: Vec<(String, bool)>) -> Self {
        Outcome {
            files: vec![
                (format!("{stem}.csv"), csv),
                (format!("{stem}.txt"), rendered.clone()),
            ],
            rendered,
            heading: "=== Checks ===",
            checks,
        }
    }
}

/// `[METHOD] [--mix MIX] [--n OPS] [--window W] [--addr HOST:PORT]
/// [--refresh MS]`: what `trace` and `top` run. `None` means the
/// subcommand's own default.
#[derive(Clone, Debug, PartialEq)]
pub struct Target {
    /// A [`rum::standard_suite`] name.
    pub method: String,
    /// A [`trace::mix_by_name`] name.
    pub mix: String,
    pub n: Option<usize>,
    pub window: Option<usize>,
    pub addr: Option<String>,
    pub refresh_ms: Option<u64>,
}

impl Default for Target {
    fn default() -> Self {
        Target {
            method: "lsm-tree+wal".into(),
            mix: "balanced".into(),
            n: None,
            window: None,
            addr: None,
            refresh_ms: None,
        }
    }
}

impl Target {
    /// The workload `trace` and `top` both build: `n` operations of the
    /// mix over `n / 10` preloaded records, seeded per `n`.
    pub fn spec(&self, default_n: usize, seed_base: u64) -> WorkloadSpec {
        let operations = self.n.unwrap_or(default_n);
        WorkloadSpec {
            initial_records: (operations / 10).max(1),
            operations,
            mix: trace::mix_by_name(&self.mix).expect("parse checked the mix"),
            seed: seed_base + operations as u64,
            ..Default::default()
        }
    }

    fn set(&mut self, flag: &str, value: Option<&String>) -> Result<(), String> {
        let positive = || {
            value
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&v| v > 0)
                .ok_or_else(|| format!("{flag} needs a positive integer"))
        };
        match flag {
            "--mix" => {
                let name = value.ok_or("--mix needs a value")?;
                trace::mix_by_name(name).ok_or_else(|| format!("unknown mix {name:?}"))?;
                self.mix = name.clone();
            }
            "--n" => self.n = Some(positive()? as usize),
            "--window" => self.window = Some(positive()? as usize),
            "--refresh" => self.refresh_ms = Some(positive()?),
            "--addr" => self.addr = Some(value.ok_or("--addr needs HOST:PORT")?.clone()),
            other => unreachable!("{other} is in no experiment's flags"),
        }
        Ok(())
    }
}

/// One row of the registry.
pub struct Experiment {
    /// The subcommand; for a sweep also the stem of `results/<name>.{csv,txt}`.
    pub name: &'static str,
    /// One line for `rum-bench list`; the module doc has the rest.
    pub about: &'static str,
    /// The scales it has; any other is a usage error.
    pub scales: &'static [Scale],
    /// Stems of the `--smoke` CSVs held against `results/smoke/<stem>.csv`.
    pub gated: &'static [&'static str],
    /// The [`Target`] flags it takes after an optional `METHOD`; empty
    /// means it takes no arguments besides a scale.
    pub flags: &'static [&'static str],
    pub run: fn(Scale, &Target) -> Outcome,
}

use Scale::{Full, Quick, Smoke};

const TRACE_FLAGS: &[&str] = &["--mix", "--n", "--window"];
const TOP_FLAGS: &[&str] = &["--mix", "--n", "--window", "--addr", "--refresh"];

/// Every experiment, in the order of the paper and then of the PRs that
/// added the follow-on sweeps.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "props",
        about: "§2 Propositions 1–3: minimizing one overhead pessimizes the other two",
        scales: &[Full],
        gated: &[],
        flags: &[],
        run: props::experiment,
    },
    Experiment {
        name: "table1",
        about: "Table 1: measured page I/O of six access methods beside the analytic cost",
        scales: &[Full, Quick],
        gated: &[],
        flags: &[],
        run: table1::experiment,
    },
    Experiment {
        name: "fig1",
        about: "Figure 1: the standard suite placed in the RUM triangle; serial == parallel",
        scales: &[Full, Quick],
        gated: &[],
        flags: &[],
        run: fig1::experiment,
    },
    Experiment {
        name: "fig2",
        about: "Figure 2: buffer capacity (MO at level n−1) against storage traffic at level n",
        scales: &[Full, Quick],
        gated: &[],
        flags: &[],
        run: fig2::experiment,
    },
    Experiment {
        name: "fig3",
        about: "Figure 3: tunable methods tracing curves through the RUM space",
        scales: &[Full, Quick],
        gated: &[],
        flags: &[],
        run: fig3::experiment,
    },
    Experiment {
        name: "roadmap",
        about: "§5 roadmap: cracking, update-friendly bitmaps, LSM retuning, quotient filter",
        scales: &[Full],
        gated: &[],
        flags: &[],
        run: roadmap::experiment,
    },
    Experiment {
        name: "scale_sweep",
        about: "streamed workloads × K shards, n to 10^7: streamed == serial per-op, ops/s floor",
        scales: &[Full, Quick, Smoke],
        gated: &["scale_sweep"],
        flags: &[],
        run: scale::experiment,
    },
    Experiment {
        name: "crash_matrix",
        about: "WAL cost folded into UO, exact recovery at seeded crash points",
        scales: &[Full, Smoke],
        gated: &["crash_matrix"],
        flags: &[],
        run: crash::experiment,
    },
    Experiment {
        name: "advisor",
        about: "§5 wizard calibrated from measured profiles: measured vs analytic ranking",
        scales: &[Full, Smoke],
        gated: &["advisor_profiles", "advisor_rankings"],
        flags: &[],
        run: advisor::experiment,
    },
    Experiment {
        name: "baseline",
        about: "RO/UO/MO of every suite method on one smoke workload: the byte-exact baseline",
        scales: &[Smoke],
        gated: &["baseline_rum"],
        flags: &[],
        run: baseline::experiment,
    },
    Experiment {
        name: "trace",
        about: "windowed RO/UO/MO trajectory, latency histograms, event JSONL, folded stacks",
        scales: &[Full, Smoke],
        gated: &[],
        flags: TRACE_FLAGS,
        run: trace::experiment,
    },
    Experiment {
        name: "range_sweep",
        about: "sorted-view range acceleration: RO bought with MO/UO, view-on ≡ view-off replay",
        scales: &[Full, Smoke],
        gated: &["range_sweep"],
        flags: &[],
        run: range_sweep::experiment,
    },
    Experiment {
        name: "fault_storm",
        about: "methods × fault profiles × retry policies against a fault-free twin",
        scales: &[Full, Smoke],
        gated: &["fault_storm"],
        flags: &[],
        run: fault_storm::experiment,
    },
    Experiment {
        name: "drift_sweep",
        about: "online AutoTuner vs every static LSM shape over drifting workloads",
        scales: &[Full, Smoke],
        gated: &["drift_sweep"],
        flags: &[],
        run: drift_sweep::experiment,
    },
    Experiment {
        name: "top",
        about: "live dashboard over the rum-obs exporter; --smoke: conservation, scrape, plane on ≡ off",
        scales: &[Full, Smoke],
        gated: &["obs_debt"],
        flags: TOP_FLAGS,
        run: obs::experiment,
    },
];

/// A parsed command line.
pub enum Command {
    List,
    Gate { update: bool },
    Run(&'static Experiment, Scale, Target),
}

/// The table `rum-bench list` prints and every usage error ends with.
pub fn list() -> String {
    let mut out = String::from(
        "usage: rum-bench <experiment> [--quick | --smoke]   (--smoke writes no files)\n\
         \x20      rum-bench gate [--update]   byte-compare (or rewrite) results/smoke/*.csv\n\
         \x20      rum-bench list\n\
         Run from the repository root: results/ is a relative path.\n\n",
    );
    for e in EXPERIMENTS {
        let scales: Vec<&str> = e.scales.iter().map(|s| s.label()).collect();
        let mut line = format!("{:<13} {:<21} {}", e.name, scales.join(" "), e.about);
        if !e.gated.is_empty() {
            line.push_str(&format!("; gated: {}", e.gated.join(" ")));
        }
        if !e.flags.is_empty() {
            let flags: Vec<String> = e.flags.iter().map(|f| format!("[{f} V]")).collect();
            line.push_str(&format!("; full scale takes [METHOD] {}", flags.join(" ")));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Parse everything after the program name. `Err` is the complete text
/// for stderr (exit 2): the complaint, then [`list`].
pub fn parse(args: &[String]) -> Result<Command, String> {
    parse_command(args).map_err(|why| format!("rum-bench: {why}\n\n{}", list()))
}

fn parse_command(args: &[String]) -> Result<Command, String> {
    let (sub, rest) = args.split_first().ok_or("no subcommand")?;
    match (sub.as_str(), rest) {
        ("list", []) => return Ok(Command::List),
        ("gate", []) => return Ok(Command::Gate { update: false }),
        ("gate", [flag]) if flag == "--update" => return Ok(Command::Gate { update: true }),
        ("list" | "gate", _) => return Err(format!("{sub} does not take {rest:?}")),
        _ => {}
    }
    let e = EXPERIMENTS
        .iter()
        .find(|e| e.name == sub)
        .ok_or_else(|| format!("unknown subcommand {sub:?}"))?;

    let mut scale = Full;
    let mut target = Target::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" | "--smoke" if scale != Full => {
                return Err(format!(
                    "{arg} after {}: one scale at a time",
                    scale.label()
                ))
            }
            "--quick" => scale = Quick,
            "--smoke" => scale = Smoke,
            flag if e.flags.contains(&flag) => target.set(flag, it.next())?,
            flag if flag.starts_with("--") => {
                return Err(format!("{} has no flag {flag}", e.name));
            }
            _ if e.flags.is_empty() => {
                return Err(format!("{} takes no argument {arg:?}", e.name));
            }
            method => {
                rum::suite_method(method).ok_or_else(|| {
                    let suite = trace::suite_names().join(", ");
                    format!("unknown method {method:?}; suite: {suite}")
                })?;
                target.method = method.to_string();
            }
        }
    }
    if !e.scales.contains(&scale) {
        return Err(format!("{} has no {} scale", e.name, scale.label()));
    }
    if scale == Smoke && target != Target::default() {
        return Err(format!(
            "{} --smoke is a fixed configuration and takes no method or flags",
            e.name
        ));
    }
    Ok(Command::Run(e, scale, target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum::prelude::OpMix;
    use std::collections::BTreeSet;

    fn parse_line(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn every_name_and_declared_scale_parses_back_to_its_entry() {
        for e in EXPERIMENTS {
            for &scale in e.scales {
                let flag = if scale == Full { "" } else { scale.label() };
                let line = format!("{} {flag}", e.name);
                let Ok(Command::Run(got, got_scale, target)) = parse_line(&line) else {
                    panic!("{line:?} did not parse to a run");
                };
                // Pointer equality: a duplicated name would find the other row.
                assert!(std::ptr::eq(got, e), "{line}");
                assert_eq!((got_scale, target), (scale, Target::default()), "{line}");
            }
        }
        assert!(matches!(parse_line("list"), Ok(Command::List)));
        let gate = |line| matches!(parse_line(line), Ok(Command::Gate { update }) if update == (line != "gate"));
        assert!(gate("gate") && gate("gate --update"));
    }

    #[test]
    fn typos_undeclared_scales_and_zeros_are_usage_errors_not_full_runs() {
        for (line, complaint) in [
            ("", "no subcommand"),
            (
                "fig1_rum_space --quick",
                "unknown subcommand \"fig1_rum_space\"",
            ),
            ("fig1 --quik", "fig1 has no flag --quik"),
            ("crash_matrix --smok", "crash_matrix has no flag --smok"),
            ("advisor --quick", "advisor has no --quick scale"),
            ("baseline", "baseline has no full scale"),
            ("scale_sweep --quick --smoke", "one scale at a time"),
            ("fig2 quick", "fig2 takes no argument \"quick\""),
            ("gate --force", "gate does not take"),
            ("trace --addr 127.0.0.1:0", "trace has no flag --addr"),
            ("trace no-such-method", "unknown method \"no-such-method\""),
            ("trace --mix bogus", "unknown mix \"bogus\""),
            ("trace --smoke b+tree", "takes no method or flags"),
            ("trace --n 0", "--n needs a positive integer"),
            ("trace --n", "--n needs a positive integer"),
            ("top --window 0", "--window needs a positive integer"),
            ("top --refresh 0", "--refresh needs a positive integer"),
        ] {
            let err = parse_line(line)
                .err()
                .unwrap_or_else(|| panic!("accepted {line:?}"));
            assert!(err.contains(complaint), "{line:?}: {err}");
            assert!(
                err.ends_with(&list()),
                "{line:?}: usage must end with the list"
            );
        }
    }

    #[test]
    fn target_flags_land_in_the_spec() {
        let line =
            "top b+tree --mix read-heavy --n 8000 --window 100 --addr [::1]:9184 --refresh 50";
        let Ok(Command::Run(e, Full, target)) = parse_line(line) else {
            panic!("rejected {line:?}");
        };
        assert_eq!((e.name, target.method.as_str()), ("top", "b+tree"));
        assert_eq!((target.window, target.refresh_ms), (Some(100), Some(50)));
        assert_eq!(target.addr.as_deref(), Some("[::1]:9184"));
        let spec = target.spec(400_000, 0x70_D0);
        assert_eq!((spec.initial_records, spec.operations), (800, 8000));
        assert_eq!((spec.mix, spec.seed), (OpMix::READ_HEAVY, 0x70_D0 + 8000));
        assert_eq!(Target::default().spec(100_000, 1).operations, 100_000);
    }

    /// Every committed smoke twin has a gated entry that regenerates it,
    /// and every gated stem has its twin committed.
    #[test]
    fn gated_experiments_and_committed_twins_agree() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/smoke");
        let committed: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("results/smoke")
            .map(|entry| {
                entry
                    .expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .collect();
        let declared: BTreeSet<String> = EXPERIMENTS
            .iter()
            .inspect(|e| {
                assert!(
                    e.gated.is_empty() || e.scales.contains(&Smoke),
                    "{}",
                    e.name
                )
            })
            .flat_map(|e| e.gated)
            .map(|stem| format!("{stem}.csv"))
            .collect();
        assert_eq!(committed, declared);
    }

    /// Every CI leg parses, as `gate` or as a registered experiment at
    /// `--smoke`, and no `--smoke` scale goes unexercised: each has its own
    /// leg or is regenerated by the `gate` leg.
    #[test]
    fn ci_legs_name_registered_experiments() {
        let yml = include_str!("../../../.github/workflows/ci.yml");
        let mut legs = BTreeSet::new();
        let cmds = yml.lines().filter(|l| l.trim_start().starts_with("cmd: "));
        for cmd in cmds.filter_map(|l| l.split_once("-p rum-bench -- ")) {
            legs.insert(match parse_line(cmd.1) {
                Ok(Command::Gate { update: false }) => "gate",
                Ok(Command::Run(e, Smoke, _)) => e.name,
                _ => panic!(
                    "CI leg is neither `gate` nor `<experiment> --smoke`: {}",
                    cmd.1
                ),
            });
        }
        assert!(legs.contains("gate"), "no gate leg");
        for e in EXPERIMENTS.iter().filter(|e| e.scales.contains(&Smoke)) {
            assert!(
                legs.contains(e.name) || !e.gated.is_empty(),
                "{} --smoke has no CI leg and is not gated",
                e.name
            );
        }
        assert!(
            !yml.contains("--bin "),
            "a CI leg still names a per-experiment bin"
        );
    }
}
