//! Prints a run's result: every metric as `name value unit`, the checks,
//! the budget tables, and last the one-line JSON object the driver reads.
//! The fuller record (op counts, host, checks, tables) goes to a file.

use crate::harness::{peak_rss_kb, Config, Outcome, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use std::path::Path;
use std::process::ExitCode;

type Metric = (&'static str, f64, &'static str);

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Print the run, write its record and any other `files` under `out_dir`,
/// and print the driver's line last. `metrics` are the run's own;
/// `driver_metrics` the ones `BENCHMARK.json` lists for this kind of run.
#[allow(clippy::too_many_arguments)]
fn finish(
    workload: &str,
    seed: u64,
    trace: bool,
    out: &Outcome,
    metrics: &[Metric],
    driver_metrics: &[Metric],
    record_name: String,
    files: Vec<(String, String)>,
    out_dir: &Path,
) -> ExitCode {
    let finite = metrics
        .iter()
        .chain(driver_metrics)
        .all(|m| m.1.is_finite());
    let correct = out.correct() && finite;

    println!("workload {workload} seed {seed} trace {}", u8::from(trace));
    for (name, value, unit) in metrics {
        println!("{name} {value} {unit}");
    }
    for (name, value) in &out.meta {
        println!("# {name}: {value}");
    }
    for (name, ok) in &out.checks {
        println!("check {name} {}", if *ok { "ok" } else { "FAILED" });
    }
    if !finite {
        println!("check metrics_finite FAILED");
    }
    for b in &out.budgets {
        print!("{}", b.render());
    }

    let quoted = |pairs: &[(&str, String)]| {
        pairs
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{v}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    let checks: Vec<(&str, String)> = out
        .checks
        .iter()
        .map(|(n, ok)| (*n, ok.to_string()))
        .collect();
    let budgets: Vec<String> = out.budgets.iter().map(|b| b.to_json()).collect();
    let record = format!(
        "{{\"workload\":\"{workload}\",\"trace\":{trace},\"correct\":{correct},\
         \"attempted\":{},\"failed\":{},\"metrics\":{},\"meta\":{{{}}},\"checks\":{{{}}},\
         \"budgets\":[{}]}}\n",
        out.attempted,
        out.failed,
        metrics_json(metrics),
        quoted(&out.meta),
        quoted(&checks),
        budgets.join(","),
    );
    let written = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(out_dir.join(record_name), record)?;
        for (name, text) in files {
            std::fs::write(out_dir.join(name), text)?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("cannot write results under {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }

    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted,
        out.failed,
        metrics_json(driver_metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// An untraced run: the workload's end-to-end metrics under their own
/// names, and for the driver the two every workload has.
pub fn emit(cfg: &Config, workload: &str, out: &Outcome, out_dir: &Path) -> ExitCode {
    let peak = peak_rss_kb().max(out.child_peak_rss_kb) as f64;
    let mut metrics = out.named.clone();
    metrics.insert(1, ("peak_rss_kb", peak, "kB"));
    let driver: Vec<Metric> = END_TO_END
        .iter()
        .map(|&(name, unit, _)| {
            let value = match name {
                "peak_rss_kb" => peak,
                named => out.named_value(named).unwrap_or(f64::NAN),
            };
            (name, value, unit)
        })
        .collect();
    finish(
        workload,
        cfg.seed,
        false,
        out,
        &metrics,
        &driver,
        format!("result-{workload}-seed{}.json", cfg.seed),
        Vec::new(),
        out_dir,
    )
}

/// The traced run: every per-layer metric, the budget tables, and one span
/// file per workload.
pub fn emit_traced(
    cfg: &Config,
    out: &Outcome,
    tracers: &[(&'static str, Tracer)],
    out_dir: &Path,
) -> ExitCode {
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, out.layer.get(name).copied().unwrap_or(f64::NAN), unit))
        .collect();
    finish(
        "all",
        cfg.seed,
        true,
        out,
        &metrics,
        &metrics,
        format!("result-traced-seed{}.json", cfg.seed),
        tracers
            .iter()
            .map(|(w, t)| (format!("trace-{w}.json"), t.to_json()))
            .collect(),
        out_dir,
    )
}
