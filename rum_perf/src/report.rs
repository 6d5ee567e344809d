//! Metric names, units and bounds (the tables `BENCHMARK.json` mirrors),
//! the result record of one run, and `--compare`.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Decided by the traffic alone: repeats bit for bit at equal seed, so
    /// `--compare` holds it to [`COUNTED_TOLERANCE`] there, not to `bound`
    /// (which has to cover the spread between seeds).
    pub counted: bool,
}

pub const COUNTED_TOLERANCE: f64 = 1e-9;

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    counted: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        counted,
    }
}

/// What a user of the stacks sees. Every workload emits every one.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("ops_per_s", "op/s", Better::Higher, 0.25, false),
    e2e("ro", "ratio", Better::Lower, 0.20, true),
    e2e("uo", "ratio", Better::Lower, 0.15, true),
    e2e("mo", "ratio", Better::Lower, 0.15, true),
    e2e("sim_ns_per_op", "ns", Better::Lower, 0.15, true),
    e2e("allocs_per_op", "count", Better::Lower, 0.15, true),
];

/// Latencies of the untraced run. End to end by nature, but they cannot
/// carry a bound: between runs of one commit on the reference box the
/// medians wander by up to 33 % and the tails by more, and two workloads
/// issue no ranges. They are listed per layer, printed by every untraced
/// run, and `--compare` shows them without a verdict.
pub const LATENCIES: [&str; 6] = [
    "get_p50_ns",
    "get_p99_ns",
    "write_p50_ns",
    "write_p99_ns",
    "range_p50_ns",
    "range_p99_ns",
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Numbers of single layers, from the traced run. A workload whose stack
/// lacks a layer reports 0 for it: no time was spent there.
pub const PER_LAYER: [PerLayer; 81] = [
    // core::workload
    lo("workload.gen_ns_per_op", "ns"),
    lo("workload.init_s", "s"),
    // core::runner
    lo("runner.overhead_ns_per_op", "ns"),
    lo("runner.bulk_load_s", "s"),
    // storage::device
    lo("device.read_page_ns", "ns"),
    lo("device.write_page_ns", "ns"),
    lo("device.reads_per_op", "count"),
    lo("device.writes_per_op", "count"),
    lo("device.read_ns_per_op", "ns"),
    lo("device.write_ns_per_op", "ns"),
    // storage::pager
    lo("pager.read_ns", "ns"),
    lo("pager.write_ns", "ns"),
    lo("pager.self_read_ns", "ns"),
    // storage::checked
    lo("checked.read_page_ns", "ns"),
    lo("checked.write_page_ns", "ns"),
    hi("checked.crc32_gib_s", "GiB/s"),
    lo("checked.self_ns_per_op", "ns"),
    // storage::wal, storage::durable
    lo("wal.append_sync_ns", "ns"),
    lo("wal.bytes_per_write_op", "B"),
    lo("durable.self_ns_per_write", "ns"),
    lo("durable.recover_s", "s"),
    // btree
    lo("btree.self_ns_per_get", "ns"),
    lo("btree.self_ns_per_insert", "ns"),
    lo("btree.pages_per_get", "count"),
    // lsm
    lo("lsm.self_ns_per_get", "ns"),
    lo("lsm.self_ns_per_write", "ns"),
    lo("lsm.self_ns_per_range", "ns"),
    lo("lsm.compactions", "count"),
    lo("lsm.levels", "count"),
    lo("lsm.write_p999_ns", "ns"),
    lo("lsm.write_max_ns", "ns"),
    hi("lsm.view.speedup", "ratio"),
    lo("lsm.view.ro_ratio", "ratio"),
    // core::shard
    lo("shard.batch_rtt_p50_ns", "ns"),
    lo("shard.batch_rtt_p99_ns", "ns"),
    lo("shard.ops_per_batch", "count"),
    lo("shard.batch_ns_per_op", "ns"),
    lo("shard.inner_ns_per_op", "ns"),
    hi("shard.speedup_vs_k1", "ratio"),
    hi("shard.unpinned_speedup", "ratio"),
    lo("shard.ro_ratio_vs_k1", "ratio"),
    lo("shard.range_fanout", "ratio"),
    // core::trace, core::metrics
    lo("observer.traced_slowdown", "ratio"),
    lo("observer.metered_slowdown", "ratio"),
    // core::autotune
    lo("autotune.slowdown", "ratio"),
    lo("autotune.migrations", "count"),
    // allocator (bench)
    lo("alloc.count_per_get", "count"),
    lo("alloc.count_per_write", "count"),
    lo("alloc.count_per_range", "count"),
    lo("alloc.bytes_per_op", "B"),
    lo("heap.live_bytes_per_record", "B"),
    lo("heap.peak_mib", "MiB"),
    // see `LATENCIES`
    lo("get_p50_ns", "ns"),
    lo("get_p99_ns", "ns"),
    lo("write_p50_ns", "ns"),
    lo("write_p99_ns", "ns"),
    lo("range_p50_ns", "ns"),
    lo("range_p99_ns", "ns"),
    // the benchmark's own cost
    lo("trace.overhead_frac", "fraction"),
    lo("timed.overhead_frac", "fraction"),
    // methods (`suite`)
    hi("method.adaptive-merging.ops_per_s", "op/s"),
    hi("method.append-log.ops_per_s", "op/s"),
    hi("method.b-tree.ops_per_s", "op/s"),
    hi("method.b-tree-x4.ops_per_s", "op/s"),
    hi("method.bf-tree.ops_per_s", "op/s"),
    hi("method.bitmap-index.ops_per_s", "op/s"),
    hi("method.cracked-column.ops_per_s", "op/s"),
    hi("method.csb-tree.ops_per_s", "op/s"),
    hi("method.extendible-hash.ops_per_s", "op/s"),
    hi("method.hash-index.ops_per_s", "op/s"),
    hi("method.lsm-tree.ops_per_s", "op/s"),
    hi("method.lsm-tree-tiered.ops_per_s", "op/s"),
    hi("method.lsm-tree-view.ops_per_s", "op/s"),
    hi("method.lsm-tree-wal.ops_per_s", "op/s"),
    hi("method.morphing-index.ops_per_s", "op/s"),
    hi("method.partitioned-btree.ops_per_s", "op/s"),
    hi("method.skiplist.ops_per_s", "op/s"),
    hi("method.sorted-column.ops_per_s", "op/s"),
    hi("method.trie.ops_per_s", "op/s"),
    hi("method.unsorted-column.ops_per_s", "op/s"),
    hi("method.zonemap.ops_per_s", "op/s"),
];

/// The per-layer name of a suite method's throughput (`+` is not in the
/// metric-name charset).
pub fn method_metric(method: &str) -> String {
    format!("method.{}.ops_per_s", method.replace('+', "-"))
}

/// Extra numbers an untraced run prints beside the end-to-end ones; their
/// units come from [`PER_LAYER`].
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value: latency samples per pass for a
    /// percentile, passes for the best of a run's passes, 1 for a single
    /// reading.
    pub n: u64,
}

impl Metric {
    fn to_json(&self, with_n: bool) -> (String, Json) {
        let mut fields = vec![
            ("value".to_string(), Json::Number(self.value)),
            ("unit".to_string(), Json::String(self.unit.into())),
        ];
        if with_n {
            fields.push(("n".into(), Json::Number(self.n as f64)));
        }
        (self.name.clone(), Json::Object(fields))
    }
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, n: u64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is in no table"));
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        });
    }
}

/// One invocation on one workload.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub records: usize,
    pub ops: usize,
    pub digest: u64,
    /// Operations checked against the oracle, over all passes.
    pub attempted: u64,
    /// Of those, the ones that returned `Err` or a wrong answer, plus
    /// final-state and durability misses.
    pub failed: u64,
    /// Broken invariants other than wrong answers (counted clocks that
    /// differ between passes, a moved traffic digest, …).
    pub errors: Vec<String>,
    pub metrics: Metrics,
    /// `(pass, seconds, ops_per_s)` in execution order: the seconds include
    /// set-up and checks, the rate is a plain pass's op phase alone.
    pub passes: Vec<(String, f64, Option<f64>)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The driver's result line: exactly the metrics `BENCHMARK.json`
    /// lists for this kind of run.
    pub fn driver_line(&self) -> String {
        let names: Vec<&str> = if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let metrics = names
            .iter()
            .map(|name| {
                self.metrics
                    .0
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("{}: metric {name} not measured", self.workload))
                    .to_json(false)
            })
            .collect();
        Json::Object(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Number(self.attempted as f64)),
            ("failed".into(), Json::Number(self.failed as f64)),
            ("metrics".into(), Json::Object(metrics)),
        ])
        .to_string()
    }

    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.0.iter().map(|m| m.to_json(true)).collect();
        let passes = self
            .passes
            .iter()
            .map(|(name, s, rate)| {
                let mut fields = vec![
                    ("pass".into(), Json::String(name.clone())),
                    ("seconds".into(), Json::Number(*s)),
                ];
                if let Some(rate) = rate {
                    fields.push(("ops_per_s".into(), Json::Number(*rate)));
                }
                Json::Object(fields)
            })
            .collect();
        Json::Object(vec![
            ("workload".into(), Json::String(self.workload.into())),
            ("seed".into(), Json::String(format!("{:#x}", self.seed))),
            ("traced".into(), Json::Bool(self.traced)),
            ("records".into(), Json::Number(self.records as f64)),
            ("ops_per_pass".into(), Json::Number(self.ops as f64)),
            (
                "traffic_digest".into(),
                Json::String(format!("{:#018x}", self.digest)),
            ),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Number(self.attempted as f64)),
            ("failed".into(), Json::Number(self.failed as f64)),
            (
                "errors".into(),
                Json::Array(self.errors.iter().cloned().map(Json::String).collect()),
            ),
            ("passes".into(), Json::Array(passes)),
            ("metrics".into(), Json::Object(metrics)),
        ])
    }
}

/// `BENCHMARK.json`, generated from the tables above so the file the
/// driver reads cannot drift from what the binary emits.
pub fn benchmark_json(run_seconds: u64) -> Json {
    let text = |s: &str| Json::String(s.to_string());
    let row = |name: &str, unit: &str, better: Better| {
        vec![
            ("name".to_string(), text(name)),
            ("unit".to_string(), text(unit)),
            ("better".to_string(), text(better.as_str())),
        ]
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "rum_perf/Cargo.toml",
        "--",
    ];
    Json::Object(vec![
        (
            "command".into(),
            Json::Array(command.iter().map(|s| text(s)).collect()),
        ),
        (
            "paths".into(),
            Json::Array(vec![text("rum_perf"), text("results/perf")]),
        ),
        ("run_seconds".into(), Json::Number(run_seconds as f64)),
        (
            "workloads".into(),
            Json::Array(
                crate::traffic::WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Object(vec![
                            ("name".into(), text(w.name)),
                            ("why".into(), text(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut fields = row(m.name, m.unit, m.better);
                        fields.push(("bound".into(), Json::Number(m.bound)));
                        Json::Object(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Array(
                PER_LAYER
                    .iter()
                    .map(|m| Json::Object(row(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The best of a run's passes: the lowest of timings, the highest of rates.
///
/// Every pass of a run does the same work on a freshly built structure, so
/// passes differ only by what the host did to them, and on a shared host
/// that only ever adds time: a busy neighbour slows a memory-bound pass by a
/// third for tens of seconds at a stretch. The median of a run's passes
/// follows those stretches; the best pass is the one they touched least.
pub fn fastest(values: &[f64], better: Better) -> f64 {
    let best = match better {
        Better::Lower => values.iter().copied().min_by(f64::total_cmp),
        Better::Higher => values.iter().copied().max_by(f64::total_cmp),
    };
    best.unwrap_or(0.0)
}

/// Distance between the first and third quartile as a share of the median,
/// quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the driver's own measure of spread). `None` below two values.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quartile = |k: usize| {
        // Exclusive method: position k(n+1)/4, 1-based, clamped.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

/// Every `(workload, seed, traced, digest, metric → value)` of a result file.
struct FileRun {
    workload: String,
    seed: String,
    digest: String,
    metrics: Vec<(String, f64)>,
}

impl FileRun {
    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == metric)
            .map(|(_, v)| *v)
    }
}

fn runs_of(file: &Json, path: &str) -> Result<Vec<FileRun>, String> {
    let runs = file
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    let text = |run: &Json, key: &str| {
        run.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{path}: a run lacks \"{key}\""))
    };
    let mut out = Vec::new();
    for run in runs {
        if run.get("traced").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let metrics = run
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{path}: a run lacks \"metrics\""))?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        out.push(FileRun {
            workload: text(run, "workload")?,
            seed: text(run, "seed")?,
            digest: text(run, "traffic_digest")?,
            metrics,
        });
    }
    Ok(out)
}

fn bounds_from(benchmark: &Json) -> Result<Vec<(String, f64)>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no \"end_to_end\" array")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: an end_to_end entry lacks name or bound".into())
        })
        .collect()
}

/// `b` relative to `a`, positive when worse.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let change = (b - a) / a.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// One row per workload × end-to-end metric of untraced runs: medians of
/// `a` (before) and `b` (after), spreads, and a verdict against the bound
/// in `benchmark`. Returns the report and whether every row is `ok`.
pub fn compare(
    benchmark: &Json,
    a: &Json,
    a_path: &str,
    b: &Json,
    b_path: &str,
) -> Result<(String, bool), String> {
    let bounds = bounds_from(benchmark)?;
    let (a_runs, b_runs) = (runs_of(a, a_path)?, runs_of(b, b_path)?);
    let mut out = format!(
        "{:<17} {:<14} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  verdict\n",
        "workload", "metric", "before", "after", "worse%", "bound%", "iqr_a%", "iqr_b%"
    );
    let mut all_ok = true;

    let mut workloads: Vec<&str> = a_runs.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for workload in workloads {
        fn of<'a>(runs: &'a [FileRun], workload: &str) -> Vec<&'a FileRun> {
            runs.iter().filter(|r| r.workload == workload).collect()
        }
        let (ra, rb) = (of(&a_runs, workload), of(&b_runs, workload));
        if rb.is_empty() {
            out.push_str(&format!("{workload:<17} missing from {b_path}\n"));
            all_ok = false;
            continue;
        }
        let same_seed: Vec<(&FileRun, &FileRun)> = ra
            .iter()
            .flat_map(|x| rb.iter().map(move |y| (*x, *y)))
            .filter(|(x, y)| x.seed == y.seed)
            .collect();
        // Same seed must mean same traffic.
        for (x, y) in same_seed.iter().filter(|(x, y)| x.digest != y.digest) {
            out.push_str(&format!(
                "{workload:<17} traffic at seed {} changed: {} -> {}  regressed\n",
                x.seed, x.digest, y.digest
            ));
            all_ok = false;
        }
        for spec in &END_TO_END {
            let Some(&(_, bound)) = bounds.iter().find(|(n, _)| n == spec.name) else {
                return Err(format!("BENCHMARK.json has no bound for {}", spec.name));
            };
            let values = |runs: &[&FileRun]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.value(spec.name)).collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                out.push_str(&format!(
                    "{workload:<17} {:<14} not measured  regressed\n",
                    spec.name
                ));
                all_ok = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = worsening(ma, mb, spec.better);
            let (sa, sb) = (iqr_share(&va), iqr_share(&vb));

            // A counted metric repeats exactly at equal seed: hold every
            // seed-matched pair to 1e-9 instead of the cross-seed bound.
            let pairs: Vec<(f64, f64)> = same_seed
                .iter()
                .filter(|_| spec.counted)
                .filter_map(|(x, y)| x.value(spec.name).zip(y.value(spec.name)))
                .collect();
            let moved = pairs
                .iter()
                .any(|(x, y)| (y - x).abs() > COUNTED_TOLERANCE * x.abs());

            let (lo, hi) = (
                |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min),
                |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max),
            );
            let b_always_better = match spec.better {
                Better::Lower => hi(&vb) < lo(&va),
                Better::Higher => lo(&vb) > hi(&va),
            };
            let verdict = if moved {
                "regressed (counted clock moved at equal seed)"
            } else if !pairs.is_empty() {
                "ok"
            } else if worse > bound {
                "regressed"
            } else if [sa, sb].iter().flatten().any(|s| *s > bound) && !b_always_better {
                "unresolved"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            let pct = |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.2}", s * 100.0));
            out.push_str(&format!(
                "{workload:<17} {:<14} {ma:>14.4} {mb:>14.4} {:>8.2} {:>7.2} {:>8} {:>8}  {verdict}\n",
                spec.name,
                worse * 100.0,
                bound * 100.0,
                pct(sa),
                pct(sb),
            ));
        }
        for name in LATENCIES {
            let values = |runs: &[&FileRun]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.value(name)).collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            let (ma, mb) = (median(&va), median(&vb));
            if ma == 0.0 || mb == 0.0 {
                continue;
            }
            let pct = |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.2}", s * 100.0));
            out.push_str(&format!(
                "{workload:<17} {name:<14} {ma:>14.4} {mb:>14.4} {:>8.2} {:>7} {:>8} {:>8}  (no bound)\n",
                worsening(ma, mb, Better::Lower) * 100.0,
                "n/a",
                pct(iqr_share(&va)),
                pct(iqr_share(&vb)),
            ));
        }
    }
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charset_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn metric_names_use_the_allowed_charset_once() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(crate::traffic::WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(charset_ok(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(!charset_ok("b+tree") && charset_ok(&method_metric("b+tree")));
    }

    #[test]
    fn every_suite_method_has_a_metric() {
        for m in rum::standard_suite() {
            let name = method_metric(&m.name());
            assert!(unit_of(&name).is_some(), "{name} missing from PER_LAYER");
        }
    }

    /// `BENCHMARK.json` is what the driver reads; `--describe` is what the
    /// binary emits. The committed file must be the generated one.
    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(file, benchmark_json(crate::RUN_SECONDS));
        assert!(file.pretty().len() < 64 * 1024);
        for w in &crate::traffic::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn quartile_spread_matches_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert!((iqr_share(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: extrapolates
        assert!((iqr_share(&[10.0, 20.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), None);
    }

    /// `(workload, seed, traffic digest, metrics)` of one untraced run.
    type TestRun<'a> = (&'a str, &'a str, &'a str, &'a [(&'a str, f64)]);

    fn file(runs: &[TestRun]) -> Json {
        let runs = runs
            .iter()
            .map(|(w, seed, digest, metrics)| {
                let metrics = metrics
                    .iter()
                    .map(|(n, v)| {
                        (
                            n.to_string(),
                            Json::Object(vec![("value".into(), Json::Number(*v))]),
                        )
                    })
                    .collect();
                Json::Object(vec![
                    ("workload".into(), Json::String(w.to_string())),
                    ("seed".into(), Json::String(seed.to_string())),
                    ("traced".into(), Json::Bool(false)),
                    ("traffic_digest".into(), Json::String(digest.to_string())),
                    ("metrics".into(), Json::Object(metrics)),
                ])
            })
            .collect();
        Json::Object(vec![("runs".into(), Json::Array(runs))])
    }

    fn benchmark() -> Json {
        benchmark_json(crate::RUN_SECONDS)
    }

    fn all(value: f64) -> Vec<(&'static str, f64)> {
        END_TO_END.iter().map(|m| (m.name, value)).collect()
    }

    #[test]
    fn compare_flags_regressions_and_moved_counts() {
        let base = all(100.0);
        let a = file(&[("w", "0x1", "d", &base)]);
        let (_, ok) = compare(&benchmark(), &a, "a", &a, "a").unwrap();
        assert!(ok, "a file agrees with itself");

        // ops/s down 30 % (bound 25 %) is a regression; up is not.
        let mut slow = base.clone();
        slow[1].1 = 70.0; // ops_per_s
        let b = file(&[("w", "0x1", "d", &slow)]);
        let (text, ok) = compare(&benchmark(), &a, "a", &b, "b").unwrap();
        assert!(!ok && text.contains("ops_per_s") && text.contains("regressed"));
        let (_, ok) = compare(&benchmark(), &b, "b", &a, "a").unwrap();
        assert!(ok);

        // A counted metric that moves at all at equal seed is flagged…
        let mut moved = base.clone();
        moved[2].1 = 100.0001; // ro
        let b = file(&[("w", "0x1", "d", &moved)]);
        let (text, ok) = compare(&benchmark(), &a, "a", &b, "b").unwrap();
        assert!(!ok && text.contains("counted clock moved"));
        // …but across seeds only the cross-seed bound applies.
        let b = file(&[("w", "0x2", "e", &moved)]);
        assert!(compare(&benchmark(), &a, "a", &b, "b").unwrap().1);

        // Same seed, different traffic.
        let b = file(&[("w", "0x1", "other", &base)]);
        let (text, ok) = compare(&benchmark(), &a, "a", &b, "b").unwrap();
        assert!(!ok && text.contains("traffic at seed 0x1 changed"));
    }

    #[test]
    fn compare_reports_a_wide_spread_as_unresolved() {
        let run = |v: f64| {
            let mut m = all(100.0);
            m[1].1 = v; // ops_per_s
            m
        };
        let (r1, r2, r3, r4) = (run(40.0), run(100.0), run(160.0), run(101.0));
        let noisy = file(&[
            ("w", "0x1", "d", &r1),
            ("w", "0x2", "e", &r2),
            ("w", "0x3", "f", &r3),
        ]);
        let steady = file(&[("w", "0x4", "g", &r4)]);
        let (text, ok) = compare(&benchmark(), &noisy, "a", &steady, "b").unwrap();
        assert!(!ok && text.contains("unresolved"), "{text}");
    }
}
