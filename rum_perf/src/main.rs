//! `rum_perf`: the repo's wall-clock + counted-clock benchmark.
//!
//! ```text
//! rum_perf [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
//!          [--runs N] [--smoke] [--out FILE]
//! rum_perf --compare BEFORE.json AFTER.json
//! rum_perf --describe            # prints BENCHMARK.json
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics and
//! how they interact.

mod alloc;
mod hist;
mod json;
mod layers;
mod passes;
mod pin;
mod report;
mod run;
mod span;
mod stacks;
mod traffic;

use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Json;
use report::RunResult;
use run::Options;
use traffic::{Workload, DEFAULT_SEED, SMOKE_DIV, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const TRACE_DIR: &str = "results/perf";
/// `run_seconds` of `BENCHMARK.json`: what the driver passes as `--seconds`.
const RUN_SECONDS: u64 = 18;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    smoke: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
    describe: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        runs: 1,
        smoke: false,
        out: None,
        compare: None,
        describe: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(traffic::workload(&name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = parse_u64(&v).ok_or(format!("--seed: {v} is not a number"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds: {v} is not a duration"))?;
            }
            "--runs" => {
                let v = value("a count")?;
                args.runs = parse_u64(&v)
                    .filter(|n| (1..=1000).contains(n))
                    .ok_or(format!("--runs: {v} is not a count between 1 and 1000"))?;
            }
            // The driver passes `--trace 0|1`; by hand a bare `--trace` is on.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("a file")?),
            "--describe" => args.describe = true,
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

fn host_facts() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Object(vec![
        ("nproc".into(), Json::Number(nproc as f64)),
        (
            "rustc".into(),
            Json::String(command_line("rustc", &["--version"])),
        ),
        (
            "git_commit".into(),
            Json::String(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("os".into(), Json::String(std::env::consts::OS.into())),
        ("arch".into(), Json::String(std::env::consts::ARCH.into())),
    ])
}

fn print_run(run: &RunResult, wall_s: f64) {
    for m in &run.metrics.0 {
        println!("{} {} {} {} {}", run.workload, m.name, m.value, m.unit, m.n);
    }
    for e in &run.errors {
        eprintln!("{}: FAIL {e}", run.workload);
    }
    eprintln!(
        "{}: seed {:#x}{} {} records, {} ops/pass, digest {:#018x}, failed {} of {} checked, {:.1} s",
        run.workload,
        run.seed,
        if run.traced { " traced" } else { "" },
        run.records,
        run.ops,
        run.digest,
        run.failed,
        run.attempted,
        wall_s,
    );
}

fn write_trace(run: &RunResult, trace: &run::Trace) -> Result<(), String> {
    let path = format!("{TRACE_DIR}/trace_{}.json", run.workload);
    std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, trace.to_json(run).pretty()))
        .map_err(|e| format!("{path}: {e}"))
}

fn compare(before: &str, after: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (text, ok) = report::compare(
        &load("BENCHMARK.json")?,
        &load(before)?,
        before,
        &load(after)?,
        after,
    )?;
    print!("{text}");
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some((before, after)) = &args.compare {
        return compare(before, after);
    }
    if args.describe {
        print!("{}", report::benchmark_json(RUN_SECONDS).pretty());
        return Ok(true);
    }

    let workloads: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    // By hand, `--trace` adds one traced run per workload (at the first
    // seed) to the untraced ones; the driver (one workload, `--trace 0|1`)
    // wants exactly one of the two.
    let modes: &[bool] = match (args.trace, args.workload) {
        (false, _) => &[false],
        (true, Some(_)) => &[true],
        (true, None) => &[false, true],
    };
    let (seconds, div) = if args.smoke {
        (0.0, SMOKE_DIV)
    } else {
        (args.seconds, 1)
    };

    let mut all_correct = true;
    let mut runs = Vec::new();
    let mut last_line = None;
    // Before pinning: afterwards the process sees one CPU.
    let host = host_facts();
    if !pin::pin_to_one_cpu(true) {
        eprintln!("rum_perf: could not pin to a CPU; timings will be noisier");
    }
    for w in workloads {
        for i in 0..args.runs {
            let o = Options {
                seed: args.seed.wrapping_add(i),
                seconds,
                div,
            };
            for &traced in modes {
                if traced && i > 0 {
                    continue;
                }
                let started = Instant::now();
                let run = if traced {
                    let (run, trace) = run::traced(w, &o)?;
                    write_trace(&run, &trace)?;
                    run
                } else {
                    run::untraced(w, &o)?
                };
                print_run(&run, started.elapsed().as_secs_f64());
                all_correct &= run.correct();
                last_line = Some(run.driver_line());
                runs.push(run.to_json());
            }
        }
    }

    if let Some(path) = &args.out {
        let file = Json::Object(vec![
            ("bench".into(), Json::String("rum_perf".into())),
            ("host".into(), host),
            ("seconds".into(), Json::Number(seconds)),
            ("scale_divisor".into(), Json::Number(div as f64)),
            ("runs".into(), Json::Array(runs)),
        ]);
        std::fs::write(path, file.pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    // The driver reads the last line of stdout of a one-workload run.
    if let (Some(_), Some(line)) = (args.workload, last_line) {
        println!("{line}");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("rum_perf: FAILED (see the FAIL lines above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("rum_perf: {e}");
            ExitCode::from(2)
        }
    }
}
