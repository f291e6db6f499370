//! The repo benchmark. One process makes one run:
//!
//! ```text
//! perfbench --workload W [--seed N] [--state-dir D]    an untraced run of W
//! perfbench --trace [--seed N] [--state-dir D]          the traced run
//! perfbench --compare A B
//! perfbench --ledger OUT --commit ID --runs DIR --traced DIR
//! ```
//!
//! `run.sh` builds this binary and calls it; see `README.md`.

mod cold_start;
mod compare;
mod device_update;
mod gen;
mod harness;
mod json;
mod ldap_write;
mod report;
mod stats;
mod trace;
mod wire_read;

use harness::{Config, Outcome, RUN_SECONDS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--state-dir D]\n       \
         perfbench --trace [--seed N] [--state-dir D]\n       \
         perfbench --compare A B\n       \
         perfbench --ledger OUT --commit ID --runs DIR --traced DIR",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn host_meta(cfg: &Config) -> Vec<(&'static str, String)> {
    vec![
        ("host_cores", cfg.host_cores.to_string()),
        ("clients", cfg.clients.to_string()),
        ("seed", cfg.seed.to_string()),
        ("rounds", cfg.rounds().to_string()),
        ("run_seconds", RUN_SECONDS.to_string()),
        ("load", "closed loop, one process".to_string()),
    ]
}

/// One untraced run of one workload: the end-to-end metrics.
pub fn run_workload(cfg: &Config, workload: &str) -> Outcome {
    harness::fresh_dir(&cfg.state_dir);
    let mut out = match workload {
        "wire_read" => wire_read::run(cfg),
        "ldap_write" => ldap_write::run(cfg),
        "device_update" => device_update::run(cfg),
        "cold_start" => cold_start::run(cfg),
        other => unreachable!("workload `{other}` was validated at the command line"),
    };
    let _ = std::fs::remove_dir_all(&cfg.state_dir);
    out.meta.extend(host_meta(cfg));
    out
}

/// The traced run: every workload's traced pass, one after the other, so
/// that every per-layer metric is measured once, by the workload whose
/// traffic exercises the layer. Returns each workload's spans too.
pub fn run_traced(cfg: &Config) -> (Outcome, Vec<(&'static str, Tracer)>) {
    let mut all = Outcome::default();
    let mut tracers = Vec::new();
    for &workload in WORKLOADS {
        harness::fresh_dir(&cfg.state_dir);
        let tracer = Tracer::new(true);
        all.absorb(match workload {
            "wire_read" => wire_read::traced(cfg, &tracer),
            "ldap_write" => ldap_write::traced(cfg, &tracer),
            "device_update" => device_update::traced(cfg, &tracer),
            _ => cold_start::traced(cfg, &tracer),
        });
        tracers.push((workload, tracer));
    }
    let _ = std::fs::remove_dir_all(&cfg.state_dir);
    all.meta.extend(host_meta(cfg));
    (all, tracers)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 42u64;
    let mut trace = false;
    let mut state_dir = None;
    let mut compare = None;
    let mut ledger: Option<PathBuf> = None;
    let (mut commit, mut runs, mut traced) = (None, None, None);
    // `--restart-child`: one `cold_start` restart, run by its parent;
    // `--sync-child`: one `device_update` sync round, likewise.
    let (mut restart_child, mut sync_child) = (false, false);
    let (mut units, mut probe, mut scratch, mut stations) = (0usize, 0usize, None, 0usize);

    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned();
        match args[i].as_str() {
            "--trace" | "--restart-child" | "--sync-child" => {
                trace |= args[i] == "--trace";
                restart_child |= args[i] == "--restart-child";
                sync_child |= args[i] == "--sync-child";
                i += 1;
                continue;
            }
            "--compare" => {
                let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
                    return usage();
                };
                compare = Some((PathBuf::from(a), PathBuf::from(b)));
                i += 3;
                continue;
            }
            "--workload" => workload = value(i),
            "--seed" => match value(i).and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--state-dir" => state_dir = value(i).map(PathBuf::from),
            "--units" => units = value(i).and_then(|v| v.parse().ok()).unwrap_or(0),
            "--stations" => stations = value(i).and_then(|v| v.parse().ok()).unwrap_or(0),
            "--probe" => probe = value(i).and_then(|v| v.parse().ok()).unwrap_or(0),
            "--scratch" => scratch = value(i).map(PathBuf::from),
            "--commit" => commit = value(i),
            "--runs" => runs = value(i).map(PathBuf::from),
            "--traced" => traced = value(i).map(PathBuf::from),
            "--ledger" => ledger = value(i).map(PathBuf::from),
            _ => return usage(),
        }
        i += 2;
    }

    if let Some((a, b)) = compare {
        return compare::run(&a, &b);
    }
    if let Some(out) = ledger {
        let (Some(commit), Some(runs), Some(traced)) = (commit, runs, traced) else {
            return usage();
        };
        return compare::write_ledger(&out, &commit, &runs, &traced);
    }
    if restart_child {
        let Some(state) = state_dir.filter(|_| units > 0) else {
            return usage();
        };
        return cold_start::child_main(&state, seed, units, probe, scratch.as_deref());
    }
    if sync_child {
        if stations == 0 {
            return usage();
        }
        return device_update::child_main(seed, stations);
    }

    // Results go beside the sources this binary was built from.
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let state_dir =
        state_dir.unwrap_or_else(|| out_dir.join(format!("state-{}", std::process::id())));
    let cfg = Config::new(seed, false, state_dir);
    if trace {
        let (outcome, tracers) = run_traced(&cfg);
        return report::emit_traced(&cfg, &outcome, &tracers, &out_dir);
    }
    let Some(workload) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        return usage();
    };
    let outcome = run_workload(&cfg, &workload);
    report::emit(&cfg, &workload, &outcome, &out_dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config(tag: &str) -> Config {
        let dir =
            std::env::temp_dir().join(format!("perfbench-smoke-{}-{tag}", std::process::id()));
        Config::new(7, true, dir)
    }

    /// Every workload at smoke size: quick, and not one op fails.
    #[test]
    fn every_workload_passes_at_smoke_size() {
        for w in WORKLOADS {
            let cfg = smoke_config(w);
            let started = std::time::Instant::now();
            let out = run_workload(&cfg, w);
            assert!(
                started.elapsed().as_secs_f64() < 5.0,
                "{w} smoke run took {:?}",
                started.elapsed()
            );
            assert!(out.attempted > 0, "{w} attempted nothing");
            assert_eq!(out.failed, 0, "{w} failed ops");
            for (name, ok) in &out.checks {
                assert!(ok, "{w}: check `{name}` failed");
            }
            assert!(out.named_value("setup_s").unwrap() > 0.0);
            // Every metric gated on this workload is there to be judged.
            for (name, ..) in compare::GATES.iter().filter(|g| g.1 == *w) {
                assert!(
                    *name == "peak_rss_kb" || out.named_value(name).is_some(),
                    "{w}: no `{name}`"
                );
            }
        }
    }

    /// The traced run at smoke size: every per-layer metric, once; one
    /// budget table and one span file per workload.
    #[test]
    fn the_traced_run_passes_at_smoke_size() {
        let cfg = smoke_config("traced");
        let started = std::time::Instant::now();
        let (out, tracers) = run_traced(&cfg);
        assert!(
            started.elapsed().as_secs_f64() < 5.0,
            "traced smoke run took {:?}",
            started.elapsed()
        );
        assert_eq!(out.failed, 0);
        for (name, ok) in &out.checks {
            assert!(ok, "check `{name}` failed");
        }
        for (name, _) in harness::PER_LAYER {
            assert!(out.layer.contains_key(name), "no `{name}`");
        }
        assert_eq!(out.layer.len(), harness::PER_LAYER.len());
        assert_eq!(out.budgets.len(), WORKLOADS.len());
        assert!(tracers.iter().all(|t| t.1.len() > 0));
    }
}
