//! `--compare A B` and `--ledger`: read sets of result files, reduce each
//! workload/metric pair to a median and quartiles, and judge B against A
//! by the fixed bounds. The seed of ROADMAP item 1b's `bench_diff`.

use crate::json::{self, Value};
use crate::stats::{median, quartiles, Better};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Sets smaller than this cannot be compared.
const MIN_RUNS: usize = 5;

/// The gate: (metric, the workload that emits it, the share of A's median
/// by which B's may be worse). ISSUE 12 fixes the
/// bounds (10 % for timings and rates, 5 % for peak memory, 2 % for byte
/// counts) and the rule: a metric whose spread between runs exceeds half
/// its bound is reported and not gated, never given a wider bound. On the
/// shared sandbox that leaves no timing or rate (README, "Bounds, and what
/// is gated"); every other metric in a result file is printed, not judged.
pub const GATES: &[(&str, &str, f64)] = &[
    ("peak_rss_kb", "wire_read", 0.05),
    ("peak_rss_kb", "ldap_write", 0.05),
    ("peak_rss_kb", "device_update", 0.05),
    ("peak_rss_kb", "cold_start", 0.05),
    ("disk_bytes_per_entry", "cold_start", 0.02),
];

/// Rates are better higher; times, memory and bytes better lower.
fn better_of(unit: &str) -> Better {
    if unit == "1/s" {
        Better::Higher
    } else {
        Better::Lower
    }
}

/// workload -> metric -> (unit, one value per run). The pseudo-metric
/// `seed` (no unit) carries each run's seed into the ledger.
type Runs = BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>>;

const SEED: &str = "seed";

/// The traced run's result: per-layer metrics and budget tables.
struct Traced {
    layer: Vec<(String, f64, String)>,
    budgets: String,
}

fn read_json_files(dir: &Path) -> Result<Vec<Value>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("result-"))
        })
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

fn metric_fields(v: &Value, key: &str) -> Vec<(String, f64, String)> {
    v.get(key)
        .map(|m| {
            m.fields()
                .iter()
                .filter_map(|(name, mv)| {
                    Some((
                        name.clone(),
                        mv.get("value")?.as_f64()?,
                        mv.get("unit")?.as_str()?.to_string(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// The untraced, correct runs under `dir`, by workload and metric.
fn load_runs(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for v in read_json_files(dir)? {
        if v.get("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("result file without a workload")?;
        if v.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!(
                "{}: a run of {workload} is not correct",
                dir.display()
            ));
        }
        let per_metric = runs.entry(workload.to_string()).or_default();
        let seed = v
            .get("meta")
            .and_then(|m| m.get(SEED))
            .and_then(Value::as_str)
            .and_then(|s| s.parse::<f64>().ok())
            .map(|s| (SEED.to_string(), s, String::new()));
        for (name, value, unit) in metric_fields(&v, "metrics").into_iter().chain(seed) {
            per_metric
                .entry(name)
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(value);
        }
    }
    Ok(runs)
}

/// The traced run under `dir` (the last one, if there are several).
fn load_traced(dir: &Path) -> Result<Traced, String> {
    let v = read_json_files(dir)?
        .into_iter()
        .rfind(|v| v.get("trace") == Some(&Value::Bool(true)))
        .ok_or(format!("{}: no traced run", dir.display()))?;
    if v.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{}: the traced run is not correct", dir.display()));
    }
    let budgets: Vec<String> = v
        .get("budgets")
        .map(|b| b.items().iter().map(render).collect())
        .unwrap_or_default();
    Ok(Traced {
        layer: metric_fields(&v, "metrics"),
        budgets: format!("[{}]", budgets.join(",")),
    })
}

/// Write a parsed value back out (budget tables pass through the ledger).
fn render(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => n.to_string(),
        Value::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        Value::Arr(items) => {
            format!(
                "[{}]",
                items.iter().map(render).collect::<Vec<_>>().join(",")
            )
        }
        Value::Obj(fields) => format!(
            "{{{}}}",
            fields
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", render(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    min: f64,
    max: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Highest less lowest run, as a share of the median.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`; negative = better.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

#[derive(PartialEq, Debug)]
enum Verdict {
    Ok,
    Improved,
    Worse,
    TooNoisy,
    Reported,
}

fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Reported;
    };
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let w = worsening(sa.median, sb.median, better);
    if w > bound {
        Verdict::Worse
    } else if sa.spread() > bound / 2.0 || sb.spread() > bound / 2.0 {
        Verdict::TooNoisy
    } else if w < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn bound_of(workload: &str, metric: &str) -> Option<f64> {
    GATES
        .iter()
        .find(|g| g.0 == metric && g.1 == workload)
        .map(|g| g.2)
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (ra, rb) = match (load_runs(a), load_runs(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failures = 0;
    // A gated pair of a workload either set holds must be in both sets.
    for (metric, workload, ..) in GATES {
        if !ra.contains_key(*workload) && !rb.contains_key(*workload) {
            continue;
        }
        for (set, runs) in [("A", &ra), ("B", &rb)] {
            if runs.get(*workload).and_then(|m| m.get(*metric)).is_none() {
                println!("compare: {workload}/{metric} is gated and missing from set {set}");
                failures += 1;
            }
        }
    }
    println!(
        "{:<14} {:<22} {:>13} {:>13} {:>13} {:>7}  {:>13} {:>13} {:>13} {:>7}  {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "A q1", "A q3", "A sprd", "B median", "B q1", "B q3", "B sprd",
        "B vs A", "bound"
    );
    for (workload, metrics) in &ra {
        let Some(other) = rb.get(workload) else {
            continue;
        };
        for (metric, (unit, va)) in metrics {
            let Some((_, vb)) = other.get(metric).filter(|_| metric != SEED) else {
                continue;
            };
            if va.len() < MIN_RUNS || vb.len() < MIN_RUNS {
                eprintln!(
                    "compare: {workload}/{metric}: {} and {} runs, {MIN_RUNS} needed",
                    va.len(),
                    vb.len()
                );
                return ExitCode::from(2);
            }
            let bound = bound_of(workload, metric);
            let verdict = judge(va, vb, better_of(unit), bound);
            let (sa, sb) = (Summary::of(va), Summary::of(vb));
            let change = worsening(sa.median, sb.median, better_of(unit));
            println!(
                "{:<14} {:<22} {:>13.4} {:>13.4} {:>13.4} {:>6.1}%  {:>13.4} {:>13.4} {:>13.4} {:>6.1}%  {:>+6.1}% {:>6}  {} ({unit})",
                workload,
                metric,
                sa.median,
                sa.q1,
                sa.q3,
                100.0 * sa.spread(),
                sb.median,
                sb.q1,
                sb.q3,
                100.0 * sb.spread(),
                100.0 * change,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Improved => "improved",
                    Verdict::Worse => "WORSE",
                    Verdict::TooNoisy => "TOO NOISY",
                    Verdict::Reported => "reported",
                },
            );
            failures += usize::from(matches!(verdict, Verdict::Worse | Verdict::TooNoisy));
        }
    }
    if failures == 0 {
        println!(
            "compare: every gated pair is within its bound, every spread \
             (highest less lowest run, over the median) within half of it"
        );
        ExitCode::SUCCESS
    } else {
        println!("compare: {failures} gated pair(s) missing or out of bounds");
        ExitCode::from(1)
    }
}

/// Write one ledger entry: per workload, each metric's median and
/// quartiles over the untraced runs; and the per-layer table and budget
/// tables of the traced run.
pub fn write_ledger(out: &Path, commit: &str, runs: &Path, traced: &Path) -> ExitCode {
    let (runs, traced) = match (load_runs(runs), load_traced(traced)) {
        (Ok(r), Ok(t)) => (r, t),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut workloads = Vec::new();
    for (workload, metrics) in &runs {
        let n = metrics.values().map(|m| m.1.len()).min().unwrap_or(0);
        if n < MIN_RUNS {
            eprintln!("ledger: {workload} has {n} runs, {MIN_RUNS} needed");
            return ExitCode::from(2);
        }
        let seeds: Vec<String> = metrics
            .get(SEED)
            .map(|s| s.1.iter().map(|v| v.to_string()).collect())
            .unwrap_or_default();
        let rows: Vec<String> = metrics
            .iter()
            .filter(|m| m.0 != SEED)
            .map(|(name, (unit, v))| {
                let s = Summary::of(v);
                format!(
                    "      \"{name}\": {{\"unit\":\"{unit}\",\"median\":{},\"q1\":{},\"q3\":{},\"min\":{},\"max\":{},\"gated\":{}}}",
                    s.median,
                    s.q1,
                    s.q3,
                    s.min,
                    s.max,
                    bound_of(workload, name).is_some()
                )
            })
            .collect();
        workloads.push(format!(
            "    \"{workload}\": {{\n      \"runs\": {n},\n      \"seeds\": [{}],\n{}\n    }}",
            seeds.join(","),
            rows.join(",\n")
        ));
    }
    let layer: Vec<String> = traced
        .layer
        .iter()
        .map(|(n, v, u)| format!("    \"{n}\": {{\"unit\":\"{u}\",\"value\":{v}}}"))
        .collect();
    let text = format!(
        "{{\n  \"commit\": \"{commit}\",\n  \"host_cores\": {host_cores},\n  \
         \"clients\": {},\n  \"rounds\": {},\n  \"end_to_end\": {{\n{}\n  }},\n  \
         \"per_layer\": {{\n{}\n  }},\n  \"budgets\": {}\n}}\n",
        host_cores.min(2),
        crate::harness::ROUNDS,
        workloads.join(",\n"),
        layer.join(",\n"),
        traced.budgets
    );
    if out.exists() {
        eprintln!(
            "ledger: {} exists; the ledger is append-only",
            out.display()
        );
        return ExitCode::from(2);
    }
    match std::fs::write(out, text) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ledger: {}: {e}", out.display());
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, Better::Higher) - 0.20).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [130.0, 131.0, 129.0, 130.5, 129.5];
        let faster = [70.0, 71.0, 69.0, 70.5, 69.5];
        // One run out of five strays: the quartiles would not see it, the
        // highest-less-lowest spread does.
        let stray = [100.0, 101.0, 99.0, 100.5, 112.0];
        let (lower, bound) = (Better::Lower, Some(0.20));
        assert_eq!(judge(&steady, &steady, lower, bound), Verdict::Ok);
        assert_eq!(judge(&steady, &slower, lower, bound), Verdict::Worse);
        assert_eq!(judge(&steady, &faster, lower, bound), Verdict::Improved);
        assert_eq!(judge(&steady, &stray, lower, bound), Verdict::TooNoisy);
        assert_eq!(judge(&steady, &slower, lower, None), Verdict::Reported);
        // The same numbers are an improvement where higher is better.
        assert_eq!(
            judge(&steady, &slower, better_of("1/s"), bound),
            Verdict::Improved
        );
    }

    #[test]
    fn spread_is_highest_less_lowest_over_the_median() {
        let s = Summary::of(&[90.0, 100.0, 100.0, 100.0, 120.0]);
        assert!((s.spread() - 0.30).abs() < 1e-12);
    }

    /// A gated metric missing from one set fails the comparison.
    #[test]
    fn a_missing_gated_metric_fails() {
        let dir = std::env::temp_dir().join(format!("perfbench-compare-{}", std::process::id()));
        let (a, b) = (dir.join("a"), dir.join("b"));
        for (set, metrics) in [
            (&a, "\"peak_rss_kb\":{\"value\":42000,\"unit\":\"kB\"},"),
            (&b, ""),
        ] {
            std::fs::create_dir_all(set).unwrap();
            for run in 0..MIN_RUNS {
                let record = format!(
                    "{{\"workload\":\"device_update\",\"trace\":false,\"correct\":true,\
                     \"metrics\":{{{metrics}\"ddu_p50_us\":{{\"value\":750.5,\"unit\":\"us\"}}}},\
                     \"meta\":{{\"seed\":\"{run}\"}}}}"
                );
                std::fs::write(
                    set.join(format!("result-device_update-seed{run}.json")),
                    record,
                )
                .unwrap();
            }
        }
        assert_eq!(run(&a, &a), ExitCode::SUCCESS);
        assert_eq!(run(&a, &b), ExitCode::from(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `BENCHMARK.json` and this binary agree on names, units, directions
    /// and bounds, and the file keeps to the driver's limits.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let v = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = v.fields().iter().map(|f| f.0.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            v.get("run_seconds").unwrap().as_f64(),
            Some(crate::harness::RUN_SECONDS)
        );
        let names = |key: &str| -> Vec<String> {
            v.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), crate::harness::WORKLOADS);
        let end_to_end = crate::harness::END_TO_END;
        assert_eq!(
            names("end_to_end"),
            end_to_end.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            crate::harness::PER_LAYER
                .iter()
                .map(|m| m.0)
                .collect::<Vec<_>>()
        );
        for (m, (_, unit, bound)) in v.get("end_to_end").unwrap().items().iter().zip(end_to_end) {
            assert_eq!(m.get("unit").unwrap().as_str(), Some(*unit));
            assert_eq!(m.get("bound").unwrap().as_f64(), Some(*bound));
            assert_eq!(m.get("better").unwrap().as_str(), Some("lower"));
        }
        for (m, (_, unit)) in v
            .get("per_layer")
            .unwrap()
            .items()
            .iter()
            .zip(crate::harness::PER_LAYER)
        {
            assert_eq!(m.get("unit").unwrap().as_str(), Some(*unit));
            assert_eq!(m.fields().len(), 3);
        }
    }
}
