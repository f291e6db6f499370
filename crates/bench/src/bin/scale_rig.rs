//! Million-entry scale rig (E18): load → snapshot → kill → restart, one
//! storage arm per process so peak RSS (`VmHWM`) is honest.
//!
//! ```text
//! scale_rig --entries 1000000 [--seed 42] [--state-dir DIR] [--arm both]
//! scale_rig --entries 1000000 --arm compact --state-dir DIR   # child mode
//! ```
//!
//! Child mode (`--arm compact|legacy`) runs one arm end to end, prints a
//! single JSON line, and exits nonzero if the restarted tree diverges
//! from the one that was loaded. Orchestrator mode (`--arm both`, the
//! default) re-execs itself once per arm, then prints both arm lines and
//! the combined summary (`restart_speedup`, `rss_ratio`, `parity`) — the
//! same object E18 splices into `BENCH_metacomm.json` under `"scale"`.
//! CI's release-mode smoke runs `--entries 100000 --arm both` and gates
//! on the exit status: non-zero when an arm's restart diverges or when the
//! compact arm's peak RSS per entry exceeds
//! [`scale::COMPACT_PEAK_RSS_BUDGET_PER_ENTRY`]. The compact arm's
//! resident bytes by structure ([`ldap::Footprint`]) are printed with it.

use bench::scale;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    entries: usize,
    seed: u64,
    arm: String,
    state_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        entries: 1_000_000,
        seed: 42,
        arm: "both".into(),
        state_dir: std::env::temp_dir().join(format!("metacomm-scale-{}", std::process::id())),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--entries" => {
                args.entries = value("--entries")?.parse().map_err(|e| format!("{e}"))?
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--arm" => args.arm = value("--arm")?,
            "--state-dir" => args.state_dir = value("--state-dir")?.into(),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !matches!(args.arm.as_str(), "both" | "compact" | "legacy") {
        return Err(format!(
            "--arm must be both|compact|legacy, got `{}`",
            args.arm
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scale_rig: {e}");
            eprintln!(
                "usage: scale_rig [--entries N] [--seed S] [--arm both|compact|legacy] [--state-dir DIR]"
            );
            return ExitCode::FAILURE;
        }
    };

    if args.arm != "both" {
        // Child mode: one arm, one process, one JSON line. A hard crash
        // (mem::forget) stands in for kill -9 between load and restart.
        let report = scale::run_arm(
            args.arm == "compact",
            args.entries,
            args.seed,
            &args.state_dir,
            true,
        );
        println!("{}", report.json());
        return if report.parity() {
            ExitCode::SUCCESS
        } else {
            eprintln!("scale_rig: {} arm restart diverged from load", report.arm);
            ExitCode::FAILURE
        };
    }

    eprintln!(
        "scale_rig: {} entries per arm, seed {}, state under {}",
        args.entries,
        args.seed,
        args.state_dir.display()
    );
    let run = scale::run_both(args.entries, args.seed, &args.state_dir);
    for arm in [&run.compact, &run.legacy] {
        println!("{}", arm.json());
        eprintln!(
            "scale_rig: {:>7} load {:>9.0} ops/s  restart {:>7.2}s  peak rss {}",
            arm.arm,
            arm.load_ops_per_sec(),
            arm.restart_secs,
            arm.peak_rss_kb
                .map(|kb| format!("{:.1} MB", kb as f64 / 1024.0))
                .unwrap_or_else(|| "n/a".into()),
        );
        if let Some(fp) = arm.footprint {
            let rows: Vec<String> = fp
                .rows()
                .iter()
                .map(|(row, bytes)| format!("{row} {}", bytes / fp.entries.max(1)))
                .collect();
            eprintln!(
                "scale_rig: {:>7} at rest, B/entry: {} (total {})",
                arm.arm,
                rows.join(", "),
                fp.total() / fp.entries.max(1)
            );
        }
    }
    println!("{}", run.json());
    let _ = std::fs::remove_dir_all(&args.state_dir);
    if !run.parity() {
        eprintln!("scale_rig: arms diverged — compact store is not a faithful replacement");
        return ExitCode::FAILURE;
    }
    if let Some(per_entry) = run.compact.over_rss_budget() {
        eprintln!(
            "scale_rig: compact arm peaked at {per_entry} B of RSS per entry, over the {} B budget",
            scale::COMPACT_PEAK_RSS_BUDGET_PER_ENTRY
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
