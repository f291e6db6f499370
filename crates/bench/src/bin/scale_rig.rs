//! Million-entry scale rig: load → checkpoint → kill → restart, in a
//! process of its own so peak RSS (`VmHWM`) is honest.
//!
//! ```text
//! scale_rig --entries 1000000 [--seed 42] [--state-dir DIR]
//! ```
//!
//! Prints a summary on stderr, the restarted tree's resident bytes by
//! structure ([`ldap::Footprint`]) with it. CI's release-mode smoke runs
//! `--entries 100000` and gates on the exit status: non-zero when the
//! restarted tree's search-stream digest differs from the loaded one's or
//! when peak RSS per entry exceeds
//! [`scale::COMPACT_PEAK_RSS_BUDGET_PER_ENTRY`].

use bench::scale;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    entries: usize,
    seed: u64,
    state_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        entries: 1_000_000,
        seed: 42,
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
            "--state-dir" => args.state_dir = value("--state-dir")?.into(),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scale_rig: {e}");
            eprintln!("usage: scale_rig [--entries N] [--seed S] [--state-dir DIR]");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "scale_rig: {} entries, seed {}, state under {}",
        args.entries,
        args.seed,
        args.state_dir.display()
    );
    // A hard crash (mem::forget) stands in for kill -9 between load and
    // restart.
    let report = scale::run(args.entries, args.seed, &args.state_dir, true);
    eprintln!(
        "scale_rig: load {:>9.0} ops/s  restart {:>7.2}s  peak rss {}",
        report.load_ops_per_sec(),
        report.restart_secs,
        report.peak_rss_text(),
    );
    eprintln!("scale_rig: at rest, B/entry: {}", report.at_rest_text());
    if !report.parity() {
        eprintln!("scale_rig: the restarted tree diverged from the loaded one");
        return ExitCode::FAILURE;
    }
    if let Some(per_entry) = report.over_rss_budget() {
        eprintln!(
            "scale_rig: peaked at {per_entry} B of RSS per entry, over the {} B budget",
            scale::COMPACT_PEAK_RSS_BUDGET_PER_ENTRY
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
